"""Scripted studies: regularization-rate fits, cross-discretization
agreement, linear growth rates, and inequality-constant calibration.

Numeric expectations were measured with this suite's exact seeds and
stepping (see the values inline); structural expectations (slope
thresholds, flag logic, file layout) are asserted directly.
"""

import itertools
import math
import os
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from llbar import experiments
from llbar.diagnostics import blowup_monitor, monotonicity_audit, report
from llbar.errors import BlowUpError, UsageError
from llbar.experiments import (
    fit_loglog,
    find_stable_dt,
    run_eps_cauchy,
    run_eps_limit,
    run_gn_calibration,
    run_linear_growth,
    run_uniqueness,
)
from llbar.grid import Grid, constant_field, norm, random_band_limited_field, to_spectral
from llbar.integrator import LinearPropagator, SchemeConfig, integrate, trajectory
from llbar.io import read_config
from llbar.mollifier import make_mollifier, mollify
from llbar.physics import EffectiveFieldParams, gn_ratios

from conftest import CALIBRATION_FILE

# shared sweep configuration for the rate studies (32^2 keeps these quick;
# the acceptance suite repeats the sweep on 64^2)
SWEEP = dict(
    eps_list=(0.4, 0.2, 0.1, 0.05),
    t_end=0.1,
    scheme="etd_rk2",
    dt=1e-3,
)


def seeded(n=32, seed=0, decay_r=5.0, amplitude=0.5):
    """Seeded 2d initial data; the defaults are the sweep's."""
    return random_band_limited_field(Grid(2, n), seed=seed, decay_r=decay_r, amplitude=amplitude)


@pytest.fixture(scope="module")
def cauchy_report():
    return run_eps_cauchy(seeded(), **SWEEP)


@pytest.fixture(scope="module")
def limit_report():
    return run_eps_limit(seeded(), **SWEEP)


@pytest.fixture(scope="module")
def growth_report():
    return run_linear_growth(Grid(2, 32), t_end=0.1, amplitude=1e-8)


@pytest.fixture(scope="module")
def calibration_report():
    return run_gn_calibration(Grid(2, 32))


@pytest.fixture(scope="module")
def recorded_constants():
    assert CALIBRATION_FILE.exists(), (
        "calibration/constants.txt missing; run llbar calibrate --n 32 --outdir calibration"
    )
    return read_config(CALIBRATION_FILE)


class TestStudySpec:
    """The range checks each runner makes on the values that specify its
    study, before it steps anything."""

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_bad_t_end(self, t_end):
        u0 = seeded(n=16)
        runs = (
            lambda: run_eps_limit(u0, (0.4, 0.2), t_end=t_end),
            lambda: run_uniqueness(u0, t_end=t_end, scheme_b="etd1", dt_b=1e-3),
            lambda: run_linear_growth(u0.grid, t_end=t_end, amplitude=1e-8),
        )
        for runner in runs:
            with pytest.raises(UsageError, match="t_end"):
                runner()

    @pytest.mark.parametrize("dt, dt_b", [(2e-3, 1e-3), (1e-3, 2e-3)])
    def test_uniqueness_dt_above_the_shared_interval(self, dt, dt_b):
        # a dt above t_end / SHARED_TIMES would step the leg's dt and dt/2
        # runs on the same landing steps, so its self-estimate measures nothing
        with pytest.raises(UsageError, match=r"allows dt <= 0\.001$"):
            run_uniqueness(seeded(n=16), t_end=0.01, dt=dt, scheme_b="etd1", dt_b=dt_b)

    def test_uniqueness_dt_at_the_shared_interval_accepted(self):
        # 0.7 / 10 rounds below 0.07: the run passes the dt check and stops
        # on its bad eps, before any step
        with pytest.raises(UsageError, match="eps must"):
            run_uniqueness(seeded(n=16), t_end=0.7, dt=0.07, scheme_b="etd1", dt_b=0.07,
                           eps=-0.3)

    def test_cauchy_needs_three_eps(self):
        with pytest.raises(UsageError, match="at least 3"):
            run_eps_cauchy(seeded(n=16), (0.4, 0.2), t_end=0.1)

    def test_limit_needs_two_eps(self):
        with pytest.raises(UsageError, match="at least 2"):
            run_eps_limit(seeded(n=16), (0.4,), t_end=0.1)

    def test_eps_must_decrease(self):
        with pytest.raises(UsageError, match="strictly decreasing"):
            run_eps_cauchy(seeded(n=16), (0.1, 0.2, 0.4), t_end=0.1)

    def test_eps_outside_mollifier_range(self):
        with pytest.raises(UsageError):
            run_eps_cauchy(seeded(n=16), (1.5, 0.2, 0.1), t_end=0.1)


class TestFitLoglog:
    def test_recovers_power_law(self):
        x = np.array([0.4, 0.2, 0.1, 0.05])
        slope, intercept = fit_loglog(x, 3.0 * x**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError, match="positive"):
            fit_loglog([0.4, 0.2], [1.0, 0.0])


def legs_one_at_a_time(u0, against_limit, eps_list, t_end, scheme, dt):
    """(pairs, h2_sups) of an eps study (gaussian kernel, a sample every 10
    steps) whose legs run alone, keep every sample, and are compared
    afterwards; each H2 is the h2 of report()."""
    eps_values = list(eps_list) + ([None] if against_limit else [])
    snaps, h2_sups = {}, []
    for eps in eps_values:
        J = make_mollifier(u0.grid, eps) if eps else None
        start = to_spectral(u0) if J is None else mollify(J, to_spectral(u0))
        samples = list(
            trajectory(start, t_end, SchemeConfig(scheme=scheme, dt=dt), J=J, report_every=10)
        )
        snaps[eps] = [u for _, u in samples]
        h2_sups.append((eps, max(report(u, t).h2 for t, u in samples)))
    if against_limit:
        compared = [(eps, None) for eps in eps_list]
    else:
        compared = list(itertools.combinations(eps_list, 2))
    pairs = [
        (a, b or 0.0, max(norm(ua - ub, "l2") for ua, ub in zip(snaps[a], snaps[b])))
        for a, b in compared
    ]
    return tuple(pairs), tuple(h2_sups)


class TestLockstepLegs:
    """The eps studies step their legs together and keep only the current
    states; their numbers are those of legs run one at a time."""

    def test_cauchy_matches_legs_run_alone(self, cauchy_report):
        assert (cauchy_report.pairs, cauchy_report.h2_sups) == legs_one_at_a_time(
            seeded(), against_limit=False, **SWEEP
        )

    def test_limit_matches_legs_run_alone(self, limit_report):
        assert (limit_report.pairs, limit_report.h2_sups) == legs_one_at_a_time(
            seeded(), against_limit=True, **SWEEP
        )

    def test_each_leg_builds_its_symbols_once(self, monkeypatch):
        # one build per leg, also past eight legs
        import llbar.integrator as integrator

        builds = []
        build = integrator.nonlinear_symbols

        def counting(grid, p, J):
            builds.append(J)
            return build(grid, p, J)

        monkeypatch.setattr(integrator, "nonlinear_symbols", counting)
        eps_list = (0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.08, 0.06)
        report = run_eps_limit(seeded(n=16), **{**SWEEP, "eps_list": eps_list, "t_end": 0.01})
        assert len(report.pairs) == 9
        assert len(builds) == 10
        assert [J.eps for J in builds[:-1]] == list(eps_list) and builds[-1] is None

    @pytest.mark.parametrize("lanes", [2, 5])
    @pytest.mark.parametrize("run_study", [run_eps_limit, run_eps_cauchy, run_uniqueness])
    def test_outputs_do_not_depend_on_the_lanes(self, tmp_path, monkeypatch, run_study, lanes):
        # each run on a fresh grid, whose cached wavenumber tables the legs
        # fill from their threads; a short switch interval interleaves them
        study = {**SWEEP, "t_end": 0.02, "report_every": 1}
        if run_study is run_uniqueness:  # each leg's dt and dt/2 runs step together
            study = {"t_end": 0.02, "scheme_b": "imex_bdf2", "dt_b": 5e-4}
        outputs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for k in (1, lanes):
                monkeypatch.setattr(experiments, "_lanes", lambda legs, npoints, k=k: k)
                out = tmp_path / str(k)
                out.mkdir()
                run_study(seeded(), outdir=str(out), **study)
                outputs[k] = sorted((f.name, f.read_bytes()) for f in out.iterdir())
        finally:
            sys.setswitchinterval(interval)
        assert len(outputs[1]) == 2 and outputs[lanes] == outputs[1]

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_legs_failing_in_one_sample_raise_the_first_legs_error(self, monkeypatch, lanes):
        # legs 2 and 0 blow up in sample 1, and every leg still finishes
        # that sample
        monkeypatch.setattr(experiments, "_lanes", lambda legs, npoints: lanes)
        advanced = []

        def leg(i):
            yield i
            advanced.append(i)
            if i in (0, 2):
                if i == 0:
                    time.sleep(0.05)  # leg 2 fails first in time
                exc = BlowUpError("non-finite state")
                exc.study_label = f"leg {i}"
                raise exc
            yield i

        lockstep = experiments._lockstep([leg(i) for i in range(4)], npoints=0)
        assert next(lockstep) == (0, 1, 2, 3)
        with pytest.raises(BlowUpError) as info:
            next(lockstep)
        assert info.value.study_label == "leg 0"
        assert sorted(advanced) == [0, 1, 2, 3]

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize(
        "skew",
        [
            {"report_every": 3},  # the limit leg samples at other times
            {"t_end": 0.01},  # the limit leg ends halfway
        ],
    )
    def test_cadence_mismatch_is_a_usage_error(self, monkeypatch, lanes, skew):
        monkeypatch.setattr(experiments, "_lanes", lambda legs, npoints: lanes)
        leg = experiments._leg

        def skewed(u0, J, label, t_end, cfg, params, report_every):
            limit = skew if J is None else {}
            return leg(u0, J, label, limit.get("t_end", t_end), cfg, params,
                       limit.get("report_every", report_every))

        monkeypatch.setattr(experiments, "_leg", skewed)
        with pytest.raises(UsageError, match="cadence"):
            run_eps_limit(seeded(n=16), (0.4, 0.2), t_end=0.02, report_every=2)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_each_legs_previous_sample_is_freed_before_it_steps(self, monkeypatch, lanes):
        # a leg's sample is its whole state at 3d n=32: the study and the
        # lockstep must let it go before the legs step again
        monkeypatch.setattr(experiments, "_lanes", lambda legs, npoints: lanes)
        u0 = to_spectral(seeded(n=16))
        stepped = []

        def sample(refs, scale):
            u = u0 * scale
            refs.append(weakref.ref(u))
            return u

        def fake_leg(u0, J, label, t_end, cfg, params, report_every):
            refs = []
            for step in range(4):
                assert not refs or refs[-1]() is None, f"{label}: sample {step - 1} alive"
                stepped.append(label)
                yield 0.01 * step, sample(refs, 1.0 if J is None else 1.0 + J.eps)

        monkeypatch.setattr(experiments, "_leg", fake_leg)
        report = run_eps_limit(u0, (0.4, 0.2), t_end=0.04)
        assert len(stepped) == 3 * 4
        assert report.slope == pytest.approx(1.0)

    def test_memory_does_not_grow_with_t_end(self):
        # tracemalloc peaks at T and 4T: 1.02 and 1.95 MB when the study
        # kept every sample of every leg, 1.05 and 1.06 MB with lockstep legs
        run_eps_limit(seeded(), **{**SWEEP, "t_end": 0.025})  # warm the caches
        peaks = []
        for t_end in (0.025, 0.1):
            tracemalloc.start()
            try:
                run_eps_limit(seeded(), **{**SWEEP, "t_end": t_end})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


def refuse_reports(monkeypatch):
    """Patch report() to raise, under both names a study could reach."""
    import llbar.diagnostics as diagnostics
    import llbar.integrator as integrator

    def refuse(*args, **kwargs):
        raise AssertionError("a study built a report")

    monkeypatch.setattr(integrator, "report", refuse)
    monkeypatch.setattr(diagnostics, "report", refuse)


class TestStudiesBuildNoReport:
    """The studies read states and H2 norms; with report() refused they
    give the results of an unpatched run."""

    def test_eps_studies(self, monkeypatch, cauchy_report, limit_report):
        refuse_reports(monkeypatch)
        assert run_eps_cauchy(seeded(), **SWEEP) == cauchy_report
        assert run_eps_limit(seeded(), **SWEEP) == limit_report

    def test_uniqueness(self, monkeypatch):
        legs = dict(n=16, t_end=0.05, scheme_b="imex_bdf2", dt_b=5e-4)
        expected = uniqueness_run(**legs)
        refuse_reports(monkeypatch)
        assert uniqueness_run(**legs) == expected

    def test_linear_growth(self, monkeypatch, growth_report):
        refuse_reports(monkeypatch)
        assert run_linear_growth(Grid(2, 32), t_end=0.1, amplitude=1e-8) == growth_report


class TestEpsCauchy:
    def test_slope_meets_first_order_rate(self, cauchy_report):
        # gaussian smoothing converges at second order; >= 0.9 is the bar
        assert cauchy_report.slope >= 0.9
        assert cauchy_report.slope == pytest.approx(2.0651, abs=0.05)

    def test_all_pairs_present_and_positive(self, cauchy_report):
        assert len(cauchy_report.pairs) == 6  # all pairs from 4 eps values
        assert all(big > small for big, small, _ in cauchy_report.pairs)
        assert all(diff > 0 for _, _, diff in cauchy_report.pairs)

    def test_adjacent_differences_shrink_with_eps(self, cauchy_report):
        diffs = {(a, b): d for a, b, d in cauchy_report.pairs}
        assert diffs[(0.4, 0.2)] > diffs[(0.2, 0.1)] > diffs[(0.1, 0.05)]

    def test_h2_sups_uniformly_bounded(self, cauchy_report):
        assert len(cauchy_report.h2_sups) == 4
        assert cauchy_report.h2_spread <= 0.10  # measured: ~0.1%

    def test_rerun_is_bit_identical(self, cauchy_report):
        again = run_eps_cauchy(seeded(), **SWEEP)
        assert again.slope == cauchy_report.slope
        assert again.pairs == cauchy_report.pairs
        assert again.h2_sups == cauchy_report.h2_sups

    def test_sweep_without_the_largest_eps_is_the_fit_without_its_pairs(self, cauchy_report):
        rep = run_eps_cauchy(seeded(), **{**SWEEP, "eps_list": SWEEP["eps_list"][1:]})
        largest = SWEEP["eps_list"][0]
        assert rep.pairs == tuple(p for p in cauchy_report.pairs if p[0] != largest)
        assert (rep.slope, rep.intercept) == fit_loglog(*zip(*[(a, d) for a, _, d in rep.pairs]))
        assert rep.slope == pytest.approx(2.1440, abs=0.05)

    def test_stationary_data_short_circuits(self):
        rep = run_eps_cauchy(seeded(amplitude=0.0), **SWEEP)
        assert rep.stationary
        assert math.isnan(rep.slope)
        assert all(diff == 0.0 for _, _, diff in rep.pairs)
        assert rep.h2_spread == 0.0
        assert "stationary" in rep.summary()

    def test_output_files(self, tmp_path):
        rep = run_eps_cauchy(seeded(), outdir=str(tmp_path), **SWEEP)
        csv = (tmp_path / "eps_cauchy.csv").read_text().splitlines()
        assert csv[0] == "eps_big,eps_small,sup_t_l2_diff"
        assert len(csv) == 1 + len(rep.pairs)
        assert "slope" in (tmp_path / "eps_cauchy.txt").read_text()


class TestEpsLimit:
    def test_slope_meets_first_order_rate(self, limit_report):
        assert limit_report.slope >= 0.9
        assert limit_report.slope == pytest.approx(1.9751, abs=0.05)

    def test_differences_shrink_monotonically(self, limit_report):
        assert [small for _, small, _ in limit_report.pairs] == [0.0] * 4
        diffs = [d for _, _, d in limit_report.pairs]  # ordered by decreasing eps
        assert diffs == sorted(diffs, reverse=True)

    def test_agrees_with_cauchy_slope(self, limit_report, cauchy_report):
        assert abs(limit_report.slope - cauchy_report.slope) <= 0.15  # measured: 0.090

    def test_h2_spread_small(self, limit_report):
        assert len(limit_report.h2_sups) == 5  # four eps runs + the limit run
        assert limit_report.h2_spread <= 0.10

    def test_stationary_data_short_circuits(self):
        rep = run_eps_limit(seeded(amplitude=0.0), **SWEEP)
        assert rep.stationary
        assert all(diff == 0.0 for _, _, diff in rep.pairs)


def count_propagator_builds(monkeypatch):
    """The step sizes of every LinearPropagator.build from here on."""
    dts = []
    build = LinearPropagator.build

    def counting(grid, dt, **kwargs):
        dts.append(dt)
        return build(grid, dt, **kwargs)

    monkeypatch.setattr(LinearPropagator, "build", counting)
    return dts


def uniqueness_run(n=32, seed=7, amplitude=0.5, **overrides):
    """run_uniqueness from seeded data of decay 3; by default both legs are
    etd_rk2 at dt = 1e-3, to t_end = 0.25."""
    u0 = seeded(n=n, seed=seed, decay_r=3.0, amplitude=amplitude)
    legs = dict(t_end=0.25, scheme="etd_rk2", dt=1e-3, scheme_b="etd_rk2", dt_b=1e-3)
    return run_uniqueness(u0, **{**legs, **overrides})


def kernel_gap(eps, t_end=0.25):
    """The sup-in-t L2 gap between the gaussian- and the bump-smoothed
    flows at eps from uniqueness_run's data, and the larger self-estimate:
    each flow is one uniqueness leg, etd_rk2 at dt = 1e-3 and 5e-4 landing
    on the shared times."""
    u0 = seeded(seed=7, decay_r=3.0)
    legs = [
        experiments._leg_with_estimate(
            u0, SchemeConfig(scheme="etd_rk2", dt=1e-3), make_mollifier(u0.grid, eps, kernel),
            kernel, t_end, EffectiveFieldParams(),
        )
        for kernel in ("gaussian", "bump")
    ]
    (states_a, est_a), (states_b, est_b) = legs
    gap = max(norm(ua - ub, "l2") for ua, ub in zip(states_a, states_b))
    return gap, max(est_a, est_b)


class TestUniqueness:
    def test_identical_configurations_agree_exactly(self):
        rep = uniqueness_run(t_end=0.1)
        assert rep.final_diff_l2 == 0.0
        assert rep.sup_diff_l2 == 0.0
        assert rep.sup_diff_h2 == 0.0
        assert rep.passed

    def test_stationary_data_agrees_exactly(self):
        rep = uniqueness_run(amplitude=0.0, t_end=0.1, scheme_b="etd1", dt_b=5e-4)
        assert rep.final_diff_l2 == 0.0
        assert rep.passed

    def test_different_schemes_dt_and_declared_kernels_agree(self):
        # the kernel is inert at eps = 0: the limit flow
        rep = uniqueness_run(
            scheme="etd_rk2", dt=1e-3, scheme_b="imex_bdf2", dt_b=5e-4, kernel="bump"
        )
        assert rep.passed  # measured: diff 5.98e-7 vs 3 x 2.90e-7
        assert rep.final_diff_l2 == pytest.approx(5.98e-7, rel=0.2)

    def test_matched_accuracy_first_vs_second_order(self):
        # dts chosen so both self-estimates land near 1.9e-4
        rep = uniqueness_run(
            scheme="etd1", dt=4e-4, scheme_b="etd_rk2", dt_b=0.0235, eps=0.1
        )
        assert 0.5 <= rep.est_b / rep.est_a <= 2.0  # measured: 0.98
        assert rep.passed  # measured: diff 3.73e-4 vs 3 x 1.87e-4

    def test_mismatched_accuracy_coarsens_the_finer_leg(self):
        # second-order at dt=1e-3 is ~280x more accurate than first-order
        # at dt=2e-4; the rescale pass must raise dt_a (never shrink dt_b,
        # which would cost millions of steps) up to the segment cap
        rep = uniqueness_run(
            scheme="etd_rk2", dt=1e-3, scheme_b="etd1", dt_b=2e-4, eps=0.1
        )
        assert rep.dt_a == 0.25 / 20.0  # capped at t_end / 20: 2 steps per segment
        assert rep.dt_b == 2e-4
        assert 0.1 <= rep.est_b / rep.est_a <= 10.0  # measured: 1.75
        assert rep.passed  # measured: diff 1.50e-4 vs 3 x 5.50e-5

    def test_different_kernels_same_eps_differ(self):
        # genuinely different regularizations, so the study runs one kernel:
        # the gap lies far above both legs' estimates
        gap, est = kernel_gap(0.2)
        assert gap == pytest.approx(1.789e-2, rel=0.1)
        assert gap > 100 * est

    def test_kernel_disagreement_shrinks_with_eps(self):
        sups = [kernel_gap(eps)[0] for eps in (0.4, 0.2, 0.1)]
        assert sups[0] > sups[1] > sups[2]
        # measured 6.7e-2 / 1.8e-2 / 4.5e-3: consistent with O(eps^2)
        assert sups[2] < sups[0] / 10

    def test_each_leg_run_builds_its_propagator_once(self, monkeypatch):
        # one trajectory per leg run, landing on the ten shared times: legs
        # a and b each run at dt and dt/2, and each run tabulates once
        dts = count_propagator_builds(monkeypatch)
        uniqueness_run(t_end=0.1)
        assert dts == [1e-3, 5e-4, 1e-3, 5e-4]

    def test_leg_at_the_coarsening_cap_is_not_rerun(self, monkeypatch):
        # leg a is the more accurate one, but t_end / 20 = 1e-3 is already
        # its dt: coarsening cannot change it, so no third run of leg a
        dts = count_propagator_builds(monkeypatch)
        rep = uniqueness_run(n=16, seed=0, t_end=0.02, scheme_b="imex_bdf2", dt_b=5e-4)
        assert rep.est_a < rep.est_b / 10
        assert (rep.dt_a, rep.dt_b) == (1e-3, 5e-4)
        assert dts == [1e-3, 5e-4, 5e-4, 2.5e-4]

    def test_output_files(self, tmp_path):
        uniqueness_run(t_end=0.1, outdir=str(tmp_path))
        lines = (tmp_path / "uniqueness.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        assert (tmp_path / "uniqueness.txt").read_text().startswith("study: uniqueness")


class TestLinearGrowth:
    def test_rates_match_symbol(self, growth_report):
        expected = {0.0: 2.0, 1.0: 2.0, 2.0: 0.0, 4.0: -10.0, 9.0: -70.0}
        assert {row[0]: row[1] for row in growth_report.rows} == expected
        assert growth_report.max_rel_error <= 1e-6  # measured: 6e-14
        assert not growth_report.contaminated

    def test_neutral_mode_is_neutral(self, growth_report):
        neutral = next(row for row in growth_report.rows if row[0] == 2.0)
        assert abs(neutral[2]) <= 1e-6  # measured rate itself, sigma = 0

    def test_large_amplitude_flags_contamination(self):
        rep = run_linear_growth(Grid(2, 32), t_end=0.1, amplitude=1e-2, mode_ksq=(1, 4))
        assert rep.contaminated
        assert rep.contamination > 1e-9  # measured: 2.8e-4
        assert "FLAGGED" in rep.summary()

    def test_general_coefficients(self):
        # lambda_e = 2: sigma(1) = -2 - (1 - 2/(2 chi)) + 2 = 3 at chi = 1/4
        p = EffectiveFieldParams(lambda_e=2.0)
        rep = run_linear_growth(Grid(2, 32), t_end=0.1, amplitude=1e-8, mode_ksq=(1,), params=p)
        assert rep.rows[0][1] == 3.0
        assert rep.max_rel_error <= 1e-6  # measured: 6.5e-15

    def test_one_dimensional_grid(self):
        rep = run_linear_growth(Grid(1, 32), t_end=0.1, amplitude=1e-8, mode_ksq=(0, 1, 4))
        assert [row[1] for row in rep.rows] == [2.0, 2.0, -10.0]
        assert rep.max_rel_error <= 1e-6

    def test_unrepresentable_mode_rejected(self):
        with pytest.raises(UsageError, match="no lattice mode"):
            run_linear_growth(Grid(2, 32), t_end=0.1, amplitude=0.5, mode_ksq=(3,))
        # (1, 7) and (5, 5) need n >= 14
        with pytest.raises(UsageError, match="no lattice mode"):
            run_linear_growth(Grid(2, 8), t_end=0.1, amplitude=1e-8, mode_ksq=(50,))

    @pytest.mark.parametrize(
        "dim, ksqs, modes",
        [
            # no (m1, m2, 0) has these |m|^2
            (3, (3, 6, 11, 12, 14), [(1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 2, 2), (1, 2, 3)]),
            # |m_i| <= n/2: (0, 5) aliases to |m|^2 = 9 on n = 8, and in 2d
            # its index lies off the half lattice
            (2, (25,), [(3, 4)]),
            (3, (25,), [(3, 4, 0)]),
        ],
    )
    def test_every_mode_on_the_grid_is_found(self, dim, ksqs, modes):
        grid = Grid(dim, 8)
        assert [experiments._mode_for_ksq(grid, k) for k in ksqs] == modes
        rep = run_linear_growth(grid, t_end=0.1, amplitude=1e-8, mode_ksq=ksqs)
        assert [row[1] for row in rep.rows] == [-k * k + k + 2.0 for k in ksqs]
        assert rep.max_rel_error <= 1e-6  # measured: 1.1e-14 at most

    def test_zero_amplitude_short_circuits(self):
        rep = run_linear_growth(Grid(2, 32), t_end=0.1, amplitude=0.0)
        assert rep.stationary
        assert rep.rows == ()
        assert rep.max_rel_error == 0.0
        assert not rep.contaminated

    def test_output_files(self, tmp_path):
        run_linear_growth(
            Grid(2, 32), t_end=0.1, amplitude=1e-8, mode_ksq=(0,), outdir=str(tmp_path)
        )
        lines = (tmp_path / "linear_growth.csv").read_text().splitlines()
        assert lines[0] == "ksq,sigma,measured_rate,rel_error"
        assert len(lines) == 2


class TestGnCalibration:
    def test_constant_field_closed_form(self):
        # |c| / (|c| sqrt(V) * |c| sqrt(V))^{1/2} = V^{-1/2}, amplitude-free
        grid = Grid(2, 16)
        v = grid.box_length**grid.dim
        for c in (0.7, 1.3):
            ratios = gn_ratios(constant_field(grid, (0.0, 0.0, c)))
            assert ratios["linf_h1_h2"] == pytest.approx(v**-0.5, rel=1e-12)
            assert ratios["grad_l4"] == 0.0

    def test_one_entry_per_inequality_all_positive(self, calibration_report):
        assert set(calibration_report.constants) == {
            "gn_linf_h1_h2_max",
            "gn_grad_l4_max",
            "lipschitz_h2_eps0.2_max",
            "family_size",
            "grid",
        }
        assert float(calibration_report.constants["gn_linf_h1_h2_max"]) > 0
        assert float(calibration_report.constants["gn_grad_l4_max"]) > 0
        assert float(calibration_report.constants["lipschitz_h2_eps0.2_max"]) > 0

    def test_rerun_is_bit_identical(self, calibration_report):
        again = run_gn_calibration(Grid(2, 32))
        assert again.constants == calibration_report.constants


class TestCalibrationRegression:
    """Fresh measurements vs the recorded calibration file.

    The hidden constants of the interpolation inequalities are never
    asserted a priori; they are pinned to the recorded run within 5%.
    """

    @pytest.mark.parametrize(
        "key",
        ["gn_linf_h1_h2_max", "gn_grad_l4_max", "lipschitz_h2_eps0.2_max"],
    )
    def test_ratio_within_five_percent_of_recorded(self, recorded_constants, calibration_report, key):
        assert float(calibration_report.constants[key]) <= 1.05 * float(recorded_constants[key])

    def test_stable_dt_matches_recorded(self, recorded_constants):
        assert find_stable_dt(Grid(2, 32)) == float(recorded_constants["dt_stable_2d_n32"])


class TestFindStableDt:
    def test_reproducible_plateau(self):
        dt = find_stable_dt(Grid(2, 32))
        assert dt == 0.05  # measured ladder exit, seeds 0 and 3 agree
        assert find_stable_dt(Grid(2, 32), seed=3) == 0.05

    @pytest.mark.parametrize("n", [16, 32])
    def test_ladder_runs_under_the_given_couplings(self, n):
        # measured ladder exits: a weaker lambda_e widens the stable window;
        # under (chi, lambda_e, gamma) = (0.1, 3, 4) every rung from 0.4
        # down to 0.0125 fails, so the default-coupling 0.05 would be wrong
        grid = Grid(2, n)
        assert find_stable_dt(grid) == 0.05
        assert find_stable_dt(grid, params=EffectiveFieldParams(lambda_e=0.5)) == 0.1
        stiff = EffectiveFieldParams(chi=0.1, lambda_e=3.0, gamma=4.0)
        assert find_stable_dt(grid, params=stiff) == 0.00625

    def test_probe_at_stable_dt_passes_audit(self):
        grid = Grid(2, 32)
        u0 = random_band_limited_field(grid, seed=0, amplitude=0.5, kmax=8)
        res = integrate(u0, 1.25, SchemeConfig(scheme="etd1", dt=0.05), report_every=1)
        assert monotonicity_audit(res.series, growth_constant=5.0).passed
        assert blowup_monitor(res.series).healthy

    def test_ten_times_stable_dt_fails_audit(self):
        # the audit has teeth: one decade above the calibrated step the
        # energy identity is violated orders of magnitude beyond roundoff
        recorded = float(read_config(CALIBRATION_FILE)["dt_stable_2d_n32"])
        grid = Grid(2, 32)
        u0 = random_band_limited_field(grid, seed=0, amplitude=0.5, kmax=8)
        res = integrate(
            u0, 50 * recorded, SchemeConfig(scheme="etd1", dt=10 * recorded),
            report_every=1,
        )
        audit = monotonicity_audit(res.series, growth_constant=5.0)
        assert not audit.passed
        assert "jump" in audit.detail
