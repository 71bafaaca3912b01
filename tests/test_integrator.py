"""Time integration: exact linear propagation, scheme orders, adaptive
control, blow-up escalation, landing on given times, and the two-step
scheme's history.

Oracles: scalar exponentials for single modes, scipy's DOP853 at tight
tolerance for the constant-field ODE, and self-convergence for orders.
"""

import math
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from llbar.diagnostics import blowup_monitor, monotonicity_audit
from llbar.errors import BlowUpError, UsageError
from llbar.grid import (
    Field,
    Grid,
    constant_field,
    norm,
    random_band_limited_field,
    to_physical,
    to_spectral,
)
from llbar.integrator import (
    IntegrationResult,
    LinearPropagator,
    OrderReport,
    SchemeConfig,
    Stepper,
    fit_order,
    integrate,
    measure_temporal_order,
    step,
    trajectory,
)
from llbar.io import _full_spectrum
from llbar.mollifier import make_mollifier
from llbar.physics import (
    DEFAULT_PARAMS,
    EffectiveFieldParams,
    linear_symbol,
    nonlinear_rhs,
    nonlinear_symbols,
)

SCHEMES = ("etd1", "etd_rk2", "imex_bdf2")


def single_mode(grid, mode, amplitude, component=2):
    """amplitude * sin(mode . x) on the given component."""
    phase = np.zeros(grid.shape)
    for axis, m in enumerate(mode):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        phase = phase + m * grid.x1.reshape(shape)
    data = np.zeros((3,) + grid.shape)
    data[component] = amplitude * np.sin(phase)
    return Field(grid, data, "physical")


class TestSchemeConfig:
    def test_defaults_valid(self):
        cfg = SchemeConfig()
        assert cfg.scheme == "etd_rk2"
        assert cfg.order == 2
        assert SchemeConfig(scheme="etd1").order == 1
        assert SchemeConfig(scheme="imex_bdf2").order == 2

    def test_rejects_unknown_scheme(self):
        with pytest.raises(UsageError, match="scheme"):
            SchemeConfig(scheme="rk4")

    def test_rejects_bad_dt_ordering(self):
        with pytest.raises(UsageError, match="dt"):
            SchemeConfig(dt=1e-3, dt_min=1e-2)
        with pytest.raises(UsageError, match="dt"):
            SchemeConfig(dt=2.0, dt_max=1.0)
        with pytest.raises(UsageError, match="dt"):
            SchemeConfig(dt=-1e-3)

    def test_rejects_bad_safety_and_tol(self):
        with pytest.raises(UsageError, match="tol"):
            SchemeConfig(tol=0.0)

    def test_adaptive_needs_single_step_scheme(self):
        with pytest.raises(UsageError, match="adaptive"):
            SchemeConfig(scheme="imex_bdf2", adaptive=True)
        SchemeConfig(scheme="etd_rk2", adaptive=True)  # fine


class TestLinearPropagator:
    def test_zero_mode_values(self, grid32_2d):
        dt = 1e-3
        lp = LinearPropagator.build(grid32_2d, dt)
        # the k=0 entry sits at the flat index 0 in fft ordering
        assert lp.exp.flat[0] == pytest.approx(math.exp(2 * dt), rel=1e-14)
        assert np.all(np.isfinite(lp.exp))

    def test_tables_match_scalar_formulas(self, grid32_2d):
        dt = 2e-3
        lp = LinearPropagator.build(grid32_2d, dt)
        z = dt * lp.symbol
        # sample a spread of z values against direct scalar evaluation
        flat_z = z.reshape(-1)
        idx = np.argsort(np.abs(flat_z))[[0, 5, 50, 200, -1]]
        for i in idx:
            zz = flat_z[i]
            if abs(zz) > 1e-3:
                assert lp.phi1.reshape(-1)[i] == pytest.approx(
                    math.expm1(zz) / zz, rel=1e-13
                )
                assert lp.phi2.reshape(-1)[i] == pytest.approx(
                    (math.expm1(zz) - zz) / zz**2, rel=1e-12
                )
            assert lp.exp.reshape(-1)[i] == pytest.approx(math.exp(zz), rel=1e-13)

    def test_phi_branches_agree_at_series_crossover(self):
        # at the switch points the 3-term series and the expm1 form must
        # coincide (series truncation error ~ z^3 is below roundoff there)
        for z0 in (1e-5, -1e-5):
            series = 1.0 + z0 / 2.0 + z0 * z0 / 6.0
            direct = math.expm1(z0) / z0
            assert series == pytest.approx(direct, rel=1e-13)
        for z0 in (1e-4, -1e-4):
            series = 0.5 + z0 / 6.0 + z0 * z0 / 24.0
            direct = (math.expm1(z0) - z0) / z0**2
            assert series == pytest.approx(direct, rel=1e-11)
        from llbar.integrator import _phi1, _phi2

        assert _phi1(np.array([0.0]))[0] == 1.0
        assert _phi2(np.array([0.0]))[0] == 0.5

    def test_neutral_mode_full_splitting(self, grid32_2d):
        # |k|^2 = 2 is a root of the full symbol: propagator exactly 1
        dt = 1e-2
        lp = LinearPropagator.build(grid32_2d, dt)
        neutral = np.isclose(grid32_2d.ksq, 2.0)
        assert neutral.any()
        assert np.all(lp.exp[neutral] == 1.0)


class TestStep:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_unit_constant_stationary(self, grid32_2d, scheme):
        u = constant_field(grid32_2d, (0.0, 0.0, 1.0))
        out = step(u, SchemeConfig(scheme=scheme, dt=1e-2))
        assert norm(to_physical(out) - u, "linf") <= 1e-13

    def test_single_mode_etd1_matches_exponential(self, grid64_2d):
        # amplitude 1e-8: nonlinear contribution ~ 1e-16, pure linear flow
        amp, dt = 1e-8, 1e-3
        for mode, ksq in (((1, 0), 1.0), ((2, 0), 4.0), ((2, 1), 5.0)):
            u = single_mode(grid64_2d, mode, amp)
            out = to_physical(step(u, SchemeConfig(scheme="etd1", dt=dt)))
            sigma = -(ksq**2) + ksq + 2.0
            expect = math.exp(sigma * dt)
            err = norm(out - u * expect, "linf") / amp
            assert err <= 1e-8, (mode, err)

    def test_single_mode_with_mollifier_uses_damped_symbol(self, grid32_2d):
        amp, dt = 1e-8, 1e-3
        J = make_mollifier(grid32_2d, 0.3, "gaussian")
        u = single_mode(grid32_2d, (2, 0), amp)
        out = step(u, SchemeConfig(scheme="etd1", dt=dt), J=J)
        sig = linear_symbol(grid32_2d, DEFAULT_PARAMS, J)
        expect = Field(
            grid32_2d, np.exp(sig * dt) * to_spectral(u).data, "spectral"
        )
        assert norm(to_physical(out) - to_physical(expect), "linf") / amp <= 1e-10

    def test_representation_preserved(self, grid16_2d):
        u = random_band_limited_field(grid16_2d, seed=0, amplitude=0.3, kmax=4)
        out_p = step(u, SchemeConfig(dt=1e-3))
        assert out_p.representation == "physical"
        out_s = step(to_spectral(u), SchemeConfig(dt=1e-3))
        assert out_s.representation == "spectral"

    def test_mollifier_grid_mismatch_rejected(self, grid16_2d, grid32_2d):
        J = make_mollifier(grid32_2d, 0.3, "gaussian")
        u = constant_field(grid16_2d, (0.0, 0.0, 1.0))
        with pytest.raises(UsageError, match="grid"):
            step(u, SchemeConfig(dt=1e-3), J=J)


class TestConstantOde:
    """Spatially constant data reduces to c' = 2c(1-c^2) exactly."""

    @staticmethod
    def reference(t_end, c0=0.5):
        sol = solve_ivp(
            lambda t, c: 2 * c * (1 - c * c),
            (0.0, t_end),
            [c0],
            rtol=1e-12,
            atol=1e-14,
            method="DOP853",
        )
        return float(sol.y[0, -1])

    @pytest.mark.parametrize("scheme", ["etd_rk2", "imex_bdf2"])
    def test_matches_reference_to_1em6(self, scheme):
        g = Grid(1, 8)  # the dynamics are grid-independent for constants
        u0 = constant_field(g, (0.0, 0.0, 0.5))
        res = integrate(u0, 1.0, SchemeConfig(scheme=scheme, dt=1e-3), report_every=10**9)
        c = float(to_physical(res.field).data[2].flat[0])
        assert abs(c - self.reference(1.0)) <= 1e-6

    def test_etd1_first_order_error_scaling(self):
        # coarse etd1 error shrinks ~2x when dt halves, extrapolating to
        # the same reference value
        g = Grid(1, 8)
        u0 = constant_field(g, (0.0, 0.0, 0.5))
        ref = self.reference(1.0)
        errs = []
        for dt in (2e-3, 1e-3):
            res = integrate(u0, 1.0, SchemeConfig(scheme="etd1", dt=dt), report_every=10**9)
            errs.append(abs(float(to_physical(res.field).data[2].flat[0]) - ref))
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.1)


class TestIntegrate:
    def test_t_end_zero_returns_u0_and_reports_initial_state(self, grid16_2d):
        u0 = random_band_limited_field(grid16_2d, seed=1, amplitude=0.4, kmax=4)
        res = integrate(u0, 0.0, SchemeConfig())
        assert len(res.series) == 1  # the initial diagnostics, nothing else
        assert res.series.reports[0].t == 0.0
        assert res.state.step == 0
        assert np.array_equal(res.field.data, to_spectral(u0).data)

    def test_negative_t_end_rejected(self, grid16_2d):
        u0 = constant_field(grid16_2d, (0.0, 0.0, 1.0))
        with pytest.raises(UsageError, match="t_end"):
            integrate(u0, -1.0, SchemeConfig())

    @pytest.mark.parametrize("report_every", [0, -1])
    def test_report_every_below_one_rejected(self, grid16_2d, report_every):
        u0 = constant_field(grid16_2d, (0.0, 0.0, 1.0))
        with pytest.raises(UsageError, match="report_every"):
            integrate(u0, 0.01, SchemeConfig(), report_every=report_every)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stationary_over_unit_time(self, grid32_2d, scheme):
        u0 = constant_field(grid32_2d, (0.0, 0.0, 1.0))
        res = integrate(u0, 1.0, SchemeConfig(scheme=scheme, dt=1e-2))
        assert norm(to_physical(res.field) - u0, "linf") <= 1e-12

    def test_report_cadence_first_every_tenth_last(self, grid16_2d):
        u0 = random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4)
        res = integrate(u0, 0.025, SchemeConfig(dt=1e-3), report_every=10)
        # 25 steps: reports at steps 0, 10, 20, 25
        assert np.allclose(res.series.times, [0.0, 0.010, 0.020, 0.025])

    def test_deterministic_rerun_bit_exact(self, grid32_2d):
        u0 = random_band_limited_field(grid32_2d, seed=3, amplitude=0.5, kmax=8)
        cfg = SchemeConfig(scheme="etd_rk2", dt=1e-3)
        a = integrate(u0, 0.05, cfg)
        b = integrate(u0, 0.05, cfg)
        assert np.array_equal(a.field.data, b.field.data)
        assert [r.row() for r in a.series.reports] == [
            r.row() for r in b.series.reports
        ]

    def test_short_final_step_lands_on_t_end(self, grid16_2d):
        u0 = random_band_limited_field(grid16_2d, seed=1, amplitude=0.3, kmax=4)
        for scheme in SCHEMES:
            res = integrate(u0, 0.0105, SchemeConfig(scheme=scheme, dt=1e-3))
            assert res.state.t == pytest.approx(0.0105, abs=1e-15)
            assert res.state.step == 11

    def test_metadata_carried_into_series(self, grid16_2d):
        u0 = constant_field(grid16_2d, (0.0, 0.0, 1.0))
        res = integrate(
            u0, 0.01, SchemeConfig(dt=1e-3), metadata={"seed": "7", "scheme": "etd_rk2"}
        )
        assert res.series.metadata == {"seed": "7", "scheme": "etd_rk2"}


def drain(run):
    """(the yielded samples, the returned result) of a trajectory."""
    samples = []
    while True:
        try:
            samples.append(next(run))
        except StopIteration as done:
            return samples, done.value


def same_run(a, b):
    return (
        np.array_equal(a.field.data, b.field.data)
        and [r.row() for r in a.series.reports] == [r.row() for r in b.series.reports]
        and (a.state.t, a.state.step) == (b.state.t, b.state.step)
    )


class TestTrajectory:
    """The generator behind integrate: one (u, report) per sample, then
    the run's result."""

    def test_samples_at_cadence(self, grid16_2d):
        u0 = random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4)
        samples, res = drain(trajectory(u0, 0.02, SchemeConfig(dt=1e-3), report_every=5))
        assert [round(r.t / 1e-3) for _, r in samples] == [0, 5, 10, 15, 20]
        assert [r for _, r in samples] == res.series.reports
        assert all(u.representation == "spectral" for u, _ in samples)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_integrate_drains_trajectory(self, grid16_2d, scheme):
        u0 = random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4)
        cfg = SchemeConfig(scheme=scheme, dt=1e-3)
        J = make_mollifier(grid16_2d, 0.2)
        _, drained = drain(trajectory(u0, 0.0105, cfg, J=J, report_every=3))
        assert same_run(drained, integrate(u0, 0.0105, cfg, J=J, report_every=3))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_changing_yielded_fields_leaves_the_run_bit_identical(self, grid16_2d, scheme):
        # a yielded field views the state, which the next step starts from
        # and imex_bdf2 keeps as history: a write to it raises instead of
        # feeding the change back into the run
        u0 = random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4)
        cfg = SchemeConfig(scheme=scheme, dt=1e-3)
        run = trajectory(u0, 0.02, cfg, report_every=1)
        while True:
            try:
                u, _ = next(run)
            except StopIteration as done:
                res = done.value
                break
            assert not u.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                u.data *= 2.0
        assert same_run(res, integrate(u0, 0.02, cfg, report_every=1))

    def test_keeps_no_reference_to_the_start_after_the_first_step(self, grid16_2d):
        start = to_spectral(random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4))
        refs = (weakref.ref(start), weakref.ref(start.data))
        run = trajectory(start, 0.02, SchemeConfig(dt=1e-3), report_every=1)
        del start
        for _ in range(2):  # the start's sample, then the first step's
            u, _ = next(run)
            del u
        assert [ref() for ref in refs] == [None, None]

    def test_zero_length_run_yields_the_initial_state(self, grid16_2d):
        u0 = random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4)
        samples, res = drain(trajectory(u0, 0.0, SchemeConfig()))
        assert len(samples) == len(res.series) == 1
        assert np.array_equal(samples[0][0].data, to_spectral(u0).data)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_landing_times_match_integrate_chained_segment_by_segment(
        self, grid16_2d, scheme
    ):
        # dt = 3e-3 does not divide the segment length 0.01: each segment
        # ends in a short step, after which imex_bdf2 drops its history
        u0 = random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4)
        cfg = SchemeConfig(scheme=scheme, dt=3e-3)
        times = tuple(0.1 * j / 10 for j in range(1, 11))
        samples, res = drain(trajectory(u0, 0.1, cfg, report_every=10**9, land_at=times))
        # the oracle: one Stepper driven by hand through three steps of dt
        # and one short step per segment
        stepper = Stepper(grid16_2d, cfg)
        uhat, t, steps = to_spectral(u0).data, 0.0, 0
        chained = [uhat]
        for target in times:
            for _ in range(3):
                uhat = stepper.advance(uhat, cfg.dt)
                t += cfg.dt
            uhat = stepper.advance(uhat, target - t)
            t, steps = t + (target - t), steps + 4
            chained.append(uhat)
        assert len(samples) == len(chained) == 11
        assert all(np.array_equal(v.data, w) for (v, _), w in zip(samples, chained))
        assert (res.state.t, res.state.step) == (t, steps)

    def test_landing_times_join_the_report_cadence(self, grid16_2d):
        u0 = random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4)
        cfg = SchemeConfig(dt=1e-3)
        samples, res = drain(trajectory(u0, 0.02, cfg, report_every=5, land_at=(0.0075, 0.02)))
        # the cadence counts steps, so after the short step to 0.0075 every
        # fifth step lands half a step off the grid and t_end takes one more
        expected = [0, 5e-3, 7.5e-3, 9.5e-3, 1.45e-2, 1.95e-2, 2e-2]
        assert [r.t for _, r in samples] == pytest.approx(expected)
        assert [r for _, r in samples] == res.series.reports
        assert res.state.step == 21

    @pytest.mark.parametrize("land_at", [(0.02, 0.01), (0.01, 0.01), (0.0,), (0.04,)])
    def test_landing_times_must_increase_within_the_run(self, grid16_2d, land_at):
        u0 = random_band_limited_field(grid16_2d, seed=2, amplitude=0.3, kmax=4)
        with pytest.raises(UsageError, match="landing times"):
            next(trajectory(u0, 0.03, SchemeConfig(), land_at=land_at))


def upper_mirror_gap(full, grid):
    """max |u_hat(m) - conj u_hat(-m)| over the last-axis indices above n/2
    of a full-lattice spectrum."""
    neg = (-np.arange(grid.n)) % grid.n
    mirror = np.conj(full[np.ix_(np.arange(3), *([neg] * grid.dim))])
    h = grid.n // 2 + 1
    return np.max(np.abs(full[..., h:] - mirror[..., h:]))


class TestHalfLattice:
    """The state, the samples and the result live on the rfftn half
    lattice; the full lattice exists only in files."""

    def run(self, grid, monkeypatch, counts):
        import llbar.integrator as integrator

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapped

        # the generator's full-lattice inverse transform runs before counting
        u0 = random_band_limited_field(grid, seed=4, amplitude=0.5, kmax=4)
        for name in ("fftn", "ifftn", "fft2", "ifft2"):
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        for name in ("nonlinear_rhs", "report"):
            monkeypatch.setattr(integrator, name, counting(name, getattr(integrator, name)))
        samples, res = drain(
            trajectory(
                u0,
                0.02,
                SchemeConfig(scheme="etd_rk2", dt=1e-3),
                J=make_mollifier(grid, 0.2),
                report_every=10,
            )
        )
        return res, [u for u, _ in samples]

    def test_integrate_builds_no_full_spectrum(self, grid32_2d, monkeypatch):
        counts = {}
        res, seen = self.run(grid32_2d, monkeypatch, counts)
        assert res.state.step == 20
        assert len(seen) == len(res.series) == 3  # steps 0, 10, 20
        half = (3,) + grid32_2d.spectral_shape
        assert all(f.data.shape == half for f in seen + [res.field])
        assert not set(counts) & {"fftn", "ifftn", "fft2", "ifft2"}

    def test_one_call_per_stage_and_per_sample(self, grid32_2d, monkeypatch):
        counts = {}
        res, _ = self.run(grid32_2d, monkeypatch, counts)
        assert counts["nonlinear_rhs"] == 2 * res.state.step
        assert counts["report"] == len(res.series)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 12)])
    def test_handed_out_fields_are_exactly_hermitian(self, monkeypatch, dim, n):
        # a half spectrum has implicit mirrors; its file form mirrors exactly
        grid = Grid(dim, n)
        res, seen = self.run(grid, monkeypatch, {})
        for f in seen + [res.field]:
            assert upper_mirror_gap(_full_spectrum(grid, f.data), grid) == 0.0


class TestEnergyBehaviour:
    def test_resolved_run_energy_monotone_and_audited(self, grid32_2d):
        u0 = random_band_limited_field(grid32_2d, seed=3, amplitude=0.5, kmax=8)
        for scheme in SCHEMES:
            res = integrate(u0, 0.25, SchemeConfig(scheme=scheme, dt=1e-3), report_every=1)
            audit = monotonicity_audit(res.series)
            assert audit.passed, (scheme, audit)
            assert blowup_monitor(res.series).healthy

    def test_dissipation_balance_halves_with_dt(self, grid32_2d):
        # left-rectangle balance |E_N - E_0 + sum dt D_n| is first order
        u0 = random_band_limited_field(grid32_2d, seed=3, amplitude=0.5, kmax=8)

        def balance(dt):
            res = integrate(u0, 0.25, SchemeConfig(scheme="etd_rk2", dt=dt), report_every=1)
            e = res.series.column("energy")
            d = res.series.column("dissipation")
            dts = np.diff(res.series.times)
            return abs(e[-1] - e[0] + float(np.sum(dts * d[:-1])))

        b_coarse, b_fine = balance(2e-3), balance(1e-3)
        assert 0.3 <= b_fine / b_coarse <= 0.7

    def test_overstepped_run_fails_audit(self, grid32_2d):
        # ten times the stable step: energy climbs, the audit has teeth
        u0 = random_band_limited_field(grid32_2d, seed=3, amplitude=0.5, kmax=8)
        res = integrate(u0, 2.0, SchemeConfig(scheme="etd1", dt=0.2), report_every=1)
        audit = monotonicity_audit(res.series)
        assert not audit.passed
        assert audit.max_energy_jump > 1.0


class TestTemporalOrder:
    @pytest.mark.parametrize(
        "scheme,dts,window",
        [
            ("etd1", (1e-5, 2.5e-4, 5e-4, 1e-3), (0.8, 1.3)),
            ("etd_rk2", (1.25e-4, 5e-4, 1e-3, 2e-3), (1.8, 2.3)),
            ("imex_bdf2", (1.25e-4, 5e-4, 1e-3, 2e-3), (1.8, 2.3)),
        ],
    )
    def test_nonlinear_orders(self, grid32_2d, scheme, dts, window):
        u0 = random_band_limited_field(
            grid32_2d, seed=5, decay_r=5.0, amplitude=0.5, kmax=6
        )
        rep = measure_temporal_order(
            u0, SchemeConfig(scheme=scheme, dt=1e-3), dts, t_end=0.04
        )
        assert rep.reliable, rep
        assert window[0] <= rep.order <= window[1], rep

    def test_richardson_consistent_with_nominal_order(self, grid32_2d):
        # two-run self-convergence: error(dt)/error(dt/2) ~ 2^order
        u0 = random_band_limited_field(
            grid32_2d, seed=5, decay_r=5.0, amplitude=0.5, kmax=6
        )
        for scheme in SCHEMES:
            cfg = SchemeConfig(scheme=scheme, dt=1e-3)
            nominal = cfg.order
            runs = {
                dt: integrate(u0, 0.04, SchemeConfig(scheme=scheme, dt=dt), report_every=10**9).field
                for dt in (1e-5, 5e-4, 1e-3)
            }
            e_fine = norm(runs[5e-4] - runs[1e-5], "l2")
            e_coarse = norm(runs[1e-3] - runs[1e-5], "l2")
            measured = math.log2(e_coarse / e_fine)
            assert measured >= nominal - 0.2, (scheme, measured)

    def test_linear_only_flagged_exact(self, grid32_2d):
        u0 = random_band_limited_field(grid32_2d, seed=4, amplitude=0.5, kmax=6)
        cfg = SchemeConfig(scheme="etd1", nonlinear=False, dt=1e-3)
        rep = measure_temporal_order(u0, cfg, [1e-4, 5e-4, 1e-3, 2e-3], t_end=0.02)
        assert rep.flag == "exact"
        assert math.isnan(rep.order)

    def test_linear_only_matches_exact_propagator(self, grid32_2d):
        # n steps of the pure linear flow = one application of e^{sigma t}
        u0 = random_band_limited_field(grid32_2d, seed=4, amplitude=0.5, kmax=6)
        cfg = SchemeConfig(scheme="etd_rk2", nonlinear=False, dt=1e-3)
        res = integrate(u0, 0.05, cfg, report_every=10**9)
        sig = linear_symbol(grid32_2d, DEFAULT_PARAMS)
        expect = Field(grid32_2d, np.exp(0.05 * sig) * to_spectral(u0).data, "spectral")
        assert norm(res.field - expect, "l2") <= 1e-12 * max(1.0, norm(expect, "l2"))

    def test_needs_three_step_sizes(self, grid16_2d):
        u0 = constant_field(grid16_2d, (0.0, 0.0, 0.5))
        with pytest.raises(UsageError, match="three"):
            measure_temporal_order(u0, SchemeConfig(), [1e-3, 2e-3])

    def test_fit_order_flags(self):
        rep = fit_order([1e-3, 2e-3, 4e-3], [1e-6, 2e-6, 4e-6])
        assert rep.reliable and rep.order == pytest.approx(1.0, abs=1e-12)
        bad = fit_order([1e-3, 2e-3, 4e-3], [2e-6, 1e-6, 4e-6])
        assert bad.flag == "unreliable" and not bad.reliable
        tiny = fit_order([1e-3, 2e-3, 4e-3], [1e-15, 2e-15, 3e-15], scale=1.0)
        assert tiny.flag == "exact"
        with pytest.raises(UsageError, match="order fit"):
            fit_order([1e-3], [1e-6])


class TestCheckpointResume:
    """A run split at a time its steps divide continues from the split as
    if it had never stopped: the run carries its Stepper across the split,
    so the state there and at the end match unsplit runs bit for bit."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_split_run_bit_exact(self, grid32_2d, scheme):
        # the clock reaches 0.05 only to roundoff: the remainder still takes
        # the nominal step, so imex_bdf2 keeps its history across the split
        u0 = random_band_limited_field(grid32_2d, seed=7, amplitude=0.5, kmax=10)
        cfg = SchemeConfig(scheme=scheme, dt=1e-3)
        full = integrate(u0, 0.1, cfg)
        half = integrate(u0, 0.05, cfg)
        samples, resumed = drain(trajectory(u0, 0.1, cfg, land_at=(0.05,)))
        at_split = [u for u, r in samples if r.t == half.state.t]
        assert len(at_split) == 1
        assert np.array_equal(at_split[0].data, half.field.data)
        assert np.array_equal(full.field.data, resumed.field.data)
        assert resumed.state.step == full.state.step
        assert resumed.state.t == full.state.t


class TestTwoStepHistory:
    """imex_bdf2 keeps (dt, u_{n-1}, N(u_{n-1})) inside its Stepper and
    uses it only for a step of the same dt."""

    def test_step_after_another_dt_is_a_fresh_etd_rk2_step(self, grid32_2d):
        # a history built at dt=1e-2 must not be reused at dt=2.5e-3: the
        # step bootstraps exactly as a fresh run does
        J = make_mollifier(grid32_2d, 0.2)
        uhat = to_spectral(random_band_limited_field(grid32_2d, seed=0, amplitude=0.5)).data
        bdf2 = Stepper(grid32_2d, SchemeConfig(scheme="imex_bdf2", dt=1e-2), J=J)
        mid = bdf2.advance(bdf2.advance(uhat, 1e-2), 1e-2)
        after = bdf2.advance(mid, 2.5e-3)
        rk2 = Stepper(grid32_2d, SchemeConfig(scheme="etd_rk2", dt=2.5e-3), J=J)
        assert np.array_equal(after, rk2.advance(mid, 2.5e-3))
        assert bdf2._history[0] == 2.5e-3 and bdf2._history[1] is mid

    def test_history_required_for_the_uninterrupted_run(self, grid32_2d):
        # restarting the second half on a fresh Stepper falls back to a
        # bootstrap step: still accurate, but no longer the identical
        # float sequence
        u0 = random_band_limited_field(grid32_2d, seed=7, amplitude=0.5, kmax=10)
        cfg = SchemeConfig(scheme="imex_bdf2", dt=1e-3)
        full = integrate(u0, 0.1, cfg)
        half = integrate(u0, 0.05, cfg)
        restarted = integrate(half.field, 0.05, cfg)
        assert not np.array_equal(full.field.data, restarted.field.data)
        assert norm(full.field - restarted.field, "l2") <= 1e-6


class TestAdaptive:
    def test_tracks_fixed_fine_reference(self, grid32_2d):
        u0 = random_band_limited_field(grid32_2d, seed=3, amplitude=0.5, kmax=8)
        ref = integrate(
            u0, 0.1, SchemeConfig(scheme="etd_rk2", dt=1e-5), report_every=10**9
        ).field
        res = integrate(
            u0,
            0.1,
            SchemeConfig(scheme="etd_rk2", dt=1e-3, adaptive=True, tol=1e-7, dt_max=0.05),
        )
        assert norm(res.field - ref, "l2") <= 1e-4
        # error control should not need more steps than the tolerance demands
        assert res.state.step < 100

    def test_collapse_below_dt_min_raises_blowup(self, grid32_2d):
        u0 = random_band_limited_field(grid32_2d, seed=3, amplitude=0.5, kmax=8)
        cfg = SchemeConfig(
            scheme="etd_rk2", dt=1e-4, adaptive=True, tol=1e-18, dt_min=1e-5
        )
        with pytest.raises(BlowUpError, match="dt_min") as exc:
            integrate(u0, 0.01, cfg)
        assert exc.value.series is not None and len(exc.value.series) >= 1

    def test_collapse_after_accepted_steps_appends_flagged_row(
        self, grid32_2d, monkeypatch
    ):
        # the controller gives up at step 3, past the one report at t = 0
        accept = Stepper.advance_adaptive

        def collapse_at_step_3(self, uhat, dt):
            if self.state.step == 3:
                raise BlowUpError("collapsed", t=self.state.t, step=self.state.step)
            return accept(self, uhat, dt)

        monkeypatch.setattr(Stepper, "advance_adaptive", collapse_at_step_3)
        u0 = random_band_limited_field(grid32_2d, seed=3, amplitude=0.5, kmax=8)
        cfg = SchemeConfig(scheme="etd_rk2", dt=1e-3, adaptive=True)
        with pytest.raises(BlowUpError) as exc:
            integrate(u0, 1.0, cfg, report_every=100)
        rows = exc.value.series.reports
        assert [r.flags for r in rows] == ["", "dt_collapse"]
        assert rows[-1].t == exc.value.t > 0.0
        assert math.isfinite(rows[-1].energy)
        assert exc.value.field.data.shape == (3,) + grid32_2d.spectral_shape


class TestRunKernel:
    """A Stepper tabulates the propagator of a step size once and keeps
    the tables of the last two sizes."""

    def count_builds(self, monkeypatch):
        dts = []
        build = LinearPropagator.build

        def counting(grid, dt, **kwargs):
            dts.append(dt)
            return build(grid, dt, **kwargs)

        monkeypatch.setattr(LinearPropagator, "build", counting)
        return dts

    def test_fixed_step_run_builds_the_step_and_the_short_last_step(
        self, grid16_2d, monkeypatch
    ):
        dts = self.count_builds(monkeypatch)
        u0 = random_band_limited_field(grid16_2d, seed=0, amplitude=0.5, kmax=4)
        res = integrate(u0, 0.0105, SchemeConfig(dt=1e-3))
        assert res.state.step == 11
        assert dts[0] == 1e-3 and dts[1] == pytest.approx(5e-4)
        assert len(dts) == 2

    def test_adaptive_run_keeps_the_step_and_half_step_tables(
        self, grid16_2d, monkeypatch
    ):
        # a step and its half per accepted step: 8 steps, 16 builds
        dts = self.count_builds(monkeypatch)
        u0 = random_band_limited_field(grid16_2d, seed=0, decay_r=3.0, amplitude=0.5)
        res = integrate(u0, 0.05, SchemeConfig(dt=1e-3, adaptive=True, tol=1e-6))
        assert res.state.t == pytest.approx(0.05)
        assert len(dts) <= 16


class TestInPlaceUpdates:
    """The steps build their updates in place, in arrays they own: the
    caller's spectrum, the held imex_bdf2 history and the N(u) symbols keep
    their bits, and the results equal the textbook formulas bit for bit."""

    @pytest.fixture()
    def setup(self, grid32_2d):
        J = make_mollifier(grid32_2d, 0.2)
        u0 = random_band_limited_field(grid32_2d, seed=3, amplitude=0.5, kmax=8)
        return grid32_2d, J, to_spectral(u0).data

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_advance_leaves_every_held_state_unchanged(self, setup, scheme):
        grid, J, uhat = setup
        stepper = Stepper(grid, SchemeConfig(scheme=scheme, dt=1e-3), J=J)
        symbols = nonlinear_symbols(grid, J=J)
        states, copies = [uhat], [uhat.copy()]
        for _ in range(3):  # the later imex_bdf2 steps read the history pair
            states.append(stepper.advance(states[-1], 1e-3))
            copies.append(states[-1].copy())
            assert all(np.array_equal(a, b) for a, b in zip(states, copies))
            if scheme == "imex_bdf2":
                dt, prev_field, prev_nonlinear = stepper._history
                assert dt == 1e-3 and prev_field is states[-2]
                assert np.array_equal(
                    prev_nonlinear, nonlinear_rhs(grid, prev_field, symbols)
                )

    @pytest.mark.parametrize("scheme", ("etd1", "etd_rk2"))
    def test_advance_adaptive_leaves_its_input_unchanged(self, setup, scheme):
        grid, J, uhat = setup
        before = uhat.copy()
        cfg = SchemeConfig(scheme=scheme, dt=1e-2, adaptive=True, tol=1e-8)
        new, taken, _ = Stepper(grid, cfg, J=J).advance_adaptive(uhat, 1e-2)
        assert taken < 1e-2  # at least one rejection retried from uhat
        assert np.array_equal(uhat, before)
        assert not np.array_equal(new, uhat)

    def test_nonlinear_rhs_leaves_state_and_symbols_unchanged(self, setup):
        grid, J, uhat = setup
        symbols = nonlinear_symbols(grid, J=J)
        before = [uhat.copy()] + [s.copy() for s in symbols]
        first = nonlinear_rhs(grid, uhat, symbols)
        again = nonlinear_rhs(grid, uhat, symbols)
        assert all(np.array_equal(a, b) for a, b in zip([uhat, *symbols], before))
        assert np.array_equal(first, again) and first is not again

    def test_exponential_steps_equal_the_textbook_formulas(self, setup):
        grid, J, uhat = setup
        dt = 1e-3
        lp = LinearPropagator.build(grid, dt, J=J)
        symbols = nonlinear_symbols(grid, J=J)
        nhat = nonlinear_rhs(grid, uhat, symbols)
        etd1 = a = lp.exp * uhat + dt * lp.phi1 * nhat
        etd_rk2 = a + dt * lp.phi2 * (nonlinear_rhs(grid, a, symbols) - nhat)
        for scheme, expect in (("etd1", etd1), ("etd_rk2", etd_rk2)):
            stepper = Stepper(grid, SchemeConfig(scheme=scheme, dt=dt), J=J)
            assert np.array_equal(stepper.advance(uhat, dt), expect)


class TestBlowUpEscalation:
    def test_unstable_run_raises_with_partial_series(self, grid32_2d):
        u0 = random_band_limited_field(
            grid32_2d, seed=2, decay_r=1.0, amplitude=40.0, kmax=10
        )
        with pytest.raises(BlowUpError) as exc:
            integrate(u0, 10.0, SchemeConfig(scheme="etd1", dt=0.5), report_every=1)
        err = exc.value
        assert err.t is not None and err.step is not None
        assert err.series is not None and len(err.series) >= 2
        assert not err.series.reports[-1].is_finite
        verdict = blowup_monitor(err.series)
        assert verdict.status == "blown-up"
        assert math.isfinite(verdict.first_t)

    def test_non_finite_initial_data_trips_immediately(self, grid16_2d):
        data = np.zeros((3,) + grid16_2d.shape)
        data[0, 1, 1] = float("nan")
        u0 = Field(grid16_2d, data, "physical")
        with pytest.raises(BlowUpError) as exc:
            integrate(u0, 0.01, SchemeConfig(dt=1e-3))
        assert exc.value.step == 0
        assert len(exc.value.series) == 1
        assert not exc.value.series.reports[0].is_finite
        with pytest.raises(BlowUpError):
            step(u0, SchemeConfig(dt=1e-3))
