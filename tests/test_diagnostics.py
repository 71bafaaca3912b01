"""Observable reports, time-series persistence, and trajectory audits.

Every report entry is checked against an independent direct-summation
oracle (plain sample sums plus the O(N^2) transform from oracles.py), so
a bug in the production spectral path cannot hide.
"""

import math

import numpy as np
import pytest

from llbar.diagnostics import (
    COLUMNS,
    AuditReport,
    BlowUpVerdict,
    EnergyReport,
    TimeSeries,
    blowup_monitor,
    monotonicity_audit,
    report,
)
from llbar.errors import DataError, UsageError
from llbar.grid import (
    SPECTRAL,
    Field,
    Grid,
    constant_field,
    norm,
    random_band_limited_field,
    to_spectral,
)
from llbar import mollifier
from llbar.integrator import SchemeConfig, Stepper
from llbar.mollifier import make_mollifier, verify_mollifier_properties
from llbar.physics import (
    DEFAULT_PARAMS,
    EffectiveFieldParams,
    FieldTerms,
    identity_suite,
    rhs,
)

from oracles import direct_dft

GENERAL_PARAMS = EffectiveFieldParams(chi=0.4, lambda_r=0.7, lambda_e=1.3, gamma=2.0)


def oracle_observables(u, p):
    """Every report entry from sample sums and the direct O(N^2) DFT."""
    g = u.grid
    s = u.data
    axes = tuple(range(1, g.dim + 1))
    dV = g.cell_volume
    w = dV / g.npoints  # Parseval weight for integrals of squares
    mag2 = np.sum(s * s, axis=0)

    # Bessel weights use the full wavenumber lattice; derivative weights
    # use the odd symbol (Nyquist zeroed), matching the package's
    # differentiation convention pinned down in the grid tests.  The two
    # differ only through above-band content (the cubic part of H).
    ksq = np.zeros(g.shape)
    ksq_d = np.zeros(g.shape)
    for axis in range(g.dim):
        k1 = 2 * np.pi * np.fft.fftfreq(g.n, d=g.dx)
        k1_odd = k1.copy()
        if g.n % 2 == 0:
            k1_odd[g.n // 2] = 0.0
        shape = [1] * g.dim
        shape[axis] = g.n
        ksq = ksq + k1.reshape(shape) ** 2
        ksq_d = ksq_d + k1_odd.reshape(shape) ** 2

    c = direct_dft(s, axes)
    csq = np.sum(np.abs(c) ** 2, axis=0)
    grad_sq = w * np.sum(ksq_d * csq)

    h = np.real(direct_dft(-ksq * c, axes, inverse=True)) + (1.0 / (2 * p.chi)) * (
        1.0 - mag2
    ) * s
    ch = direct_dft(h, axes)
    chsq = np.sum(np.abs(ch) ** 2, axis=0)

    return {
        "l2": math.sqrt(np.sum(mag2) * dV),
        "l4": (np.sum(mag2**2) * dV) ** 0.25,
        "linf": math.sqrt(np.max(mag2)),
        "h1": math.sqrt(w * np.sum((1.0 + ksq) * csq)),
        "h2": math.sqrt(w * np.sum((1.0 + ksq) ** 2 * csq)),
        "grad_l2": math.sqrt(grad_sq),
        "energy": (
            np.sum(mag2**2) * dV / (8 * p.chi)
            + 0.5 * grad_sq
            - np.sum(mag2) * dV / (4 * p.chi)
        ),
        "dissipation": p.lambda_r * w * np.sum(chsq)
        + p.lambda_e * w * np.sum(ksq_d * chsq),
        "heff_l2": math.sqrt(np.sum(h * h) * dV),
    }


def make_series(ts, energies=None, l2s=None, grads=None, flags=None):
    n = len(ts)
    energies = energies if energies is not None else [-1.0] * n
    l2s = l2s if l2s is not None else [1.0] * n
    grads = grads if grads is not None else [1.0] * n
    flags = flags if flags is not None else [""] * n
    series = TimeSeries()
    for t, e, l2, gr, fl in zip(ts, energies, l2s, grads, flags):
        series.append(
            EnergyReport(
                t=t,
                l2=l2,
                l4=l2,
                linf=1.0,
                h1=l2,
                h2=l2,
                grad_l2=gr,
                energy=e,
                dissipation=0.0,
                heff_l2=0.0,
                flags=fl,
            )
        )
    return series


class TestReport:
    @pytest.mark.parametrize("p", [DEFAULT_PARAMS, GENERAL_PARAMS])
    @pytest.mark.parametrize("dim,n,kmax", [(2, 24, 8), (3, 12, 4)])
    def test_matches_direct_summation_oracle(self, dim, n, kmax, p):
        g = Grid(dim, n)
        u = random_band_limited_field(g, seed=11, decay_r=2.0, amplitude=0.7, kmax=kmax)
        rep = report(u, 0.25, p)
        want = oracle_observables(u, p)
        assert rep.t == 0.25
        for name, expect in want.items():
            got = getattr(rep, name)
            assert got == pytest.approx(expect, rel=1e-11, abs=1e-13), name
        assert rep.flags == ""
        assert rep.is_finite

    def test_unit_constant_closed_forms(self):
        g = Grid(3, 16)
        v = g.volume
        rep = report(constant_field(g, (0.0, 0.0, 1.0)), 0.0)
        assert rep.l2 == pytest.approx(math.sqrt(v), rel=1e-13)
        assert rep.l4 == pytest.approx(v**0.25, rel=1e-13)
        assert rep.linf == pytest.approx(1.0, rel=1e-13)
        assert rep.grad_l2 == pytest.approx(0.0, abs=1e-12)
        assert rep.energy == pytest.approx(-v / 2.0, rel=1e-12)
        assert rep.dissipation == pytest.approx(0.0, abs=1e-12)
        assert rep.heff_l2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_field(self):
        g = Grid(2, 16)
        rep = report(constant_field(g, (0.0, 0.0, 0.0)), 1.0)
        assert rep.l2 == 0.0
        assert rep.energy == 0.0
        assert rep.heff_l2 == pytest.approx(0.0, abs=1e-13)

    def test_non_finite_data_yields_flagged_report(self):
        g = Grid(2, 16)
        data = np.zeros((3,) + g.shape)
        data[0, 3, 4] = float("nan")
        rep = report(Field(g, data, "physical"), 2.0, DEFAULT_PARAMS)
        assert rep.flags == "nan"
        assert not rep.is_finite
        assert rep.t == 2.0
        assert math.isnan(rep.l2) and math.isnan(rep.energy)

    def test_infinite_data_also_flagged(self):
        g = Grid(2, 16)
        data = np.zeros((3,) + g.shape)
        data[1, 0, 0] = float("inf")
        rep = report(Field(g, data, "physical"), 0.5)
        assert not rep.is_finite

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_ladder_and_nonnegative_dissipation(self, seed):
        g = Grid(2, 32)
        u = random_band_limited_field(g, seed=seed, decay_r=2.5, amplitude=0.8, kmax=10)
        rep = report(u, 0.0)
        assert rep.h2 >= rep.h1 >= rep.l2 > 0
        assert rep.dissipation >= 0.0
        assert rep.grad_l2 <= rep.h1

    # one coefficient without its conjugate partner on a self-mirrored
    # plane of the half lattice: the last-axis n/2 plane, the last-axis
    # zero plane, and the zero mode itself; no spectral Field holds it, so
    # report, integrate, step and rhs never see it
    @pytest.mark.parametrize(
        "index,value", [((1, 8), 1 + 2j), ((3, 0), 1 + 2j), ((0, 0), 1j)]
    )
    def test_conjugate_asymmetric_spectrum_rejected(self, index, value):
        g = Grid(2, 16)
        data = np.zeros((3,) + g.spectral_shape, dtype=np.complex128)
        data[(0,) + index] = value
        with pytest.raises(DataError, match="conjugate symmetry"):
            Field(g, data, SPECTRAL)


class TestH2Norm:
    """The studies' H2 is report()'s h2: grid.norm scales its Parseval sums
    in report()'s order, so the two agree bit for bit on every grid, off
    powers of two too."""

    @pytest.mark.parametrize("dim,n", [(2, 24), (3, 12)])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_as_the_report(self, dim, n, seed):
        u = random_band_limited_field(Grid(dim, n), seed=seed, decay_r=2.0, amplitude=0.7)
        for v in (u, to_spectral(u)):
            rep = report(v, 0.0)
            assert norm(v, "hs", s=2) == rep.h2
            assert norm(v, "hs", s=1) == rep.h1
            assert norm(v, "l2") == rep.l2


FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the numpy.fft n-d entry points called, in order."""
    calls = []
    for name in FFT_ENTRY_POINTS:

        def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestTransformBudget:
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 12)])
    def test_step_and_report_use_real_transforms(self, fft_calls, dim, n):
        g = Grid(dim, n)
        uhat = to_spectral(random_band_limited_field(g, seed=5, amplitude=0.5))
        stepper = Stepper(g, SchemeConfig(scheme="etd_rk2"), J=make_mollifier(g, 0.2))
        fft_calls.clear()
        stepper.advance(uhat.data, 1e-3)
        step_calls = list(fft_calls)
        fft_calls.clear()
        report(uhat, 0.0)
        assert step_calls and set(step_calls) <= {"rfftn", "irfftn"}
        assert fft_calls and set(fft_calls) <= {"rfftn", "irfftn"}
        assert len(fft_calls) <= 3

    @pytest.mark.parametrize("dim,n,budget", [(2, 16, 22), (3, 12, 23)], ids=["2-16", "3-12"])
    def test_identity_seed_evaluates_shared_terms_once(self, fft_calls, dim, n, budget):
        """One seed of the suite, its generated field included: every check
        reads one u_hat, one rhs per dealiasing choice, one smoothed state
        and one effective field, and the dissipation sums over the spectrum
        of H (3d: 67 transforms when each check built its own, 29 while the
        dissipation transformed each component of grad H back and forth)."""
        J = make_mollifier(Grid(dim, n), 0.2, "bump")
        fft_calls.clear()
        identity_suite(J, seeds=[0])
        assert len(fft_calls) <= budget

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 12)])
    def test_library_makes_no_complex_transform(self, fft_calls, monkeypatch, dim, n):
        """Only the seeded generator transforms on the full lattice, so the
        fields are made before counting, the property check's own seeded
        fields included: its generator hands over the field made ahead for
        each seed."""
        g = Grid(dim, n)
        u = random_band_limited_field(g, seed=0, amplitude=0.5, kmax=n // 6)
        made = {s: random_band_limited_field(g, seed=s, decay_r=3.0) for s in range(5)}
        made[99] = random_band_limited_field(g, seed=99, decay_r=0.0, kmax=n // 2 - 1)
        monkeypatch.setattr(
            mollifier, "random_band_limited_field", lambda grid, seed, **k: made[seed]
        )
        J = make_mollifier(g, 0.2, "bump")
        fft_calls.clear()
        rhs(u, J=J)
        terms = FieldTerms(u, J)
        terms.identity_l2()
        terms.identity_h1()
        terms.identity_cubic_expansion()
        terms.rhs_consistency_with_heff()
        terms.energy_chain_rule_gap()
        verify_mollifier_properties(J)
        assert fft_calls and set(fft_calls) <= {"rfftn", "irfftn"}


class TestTimeSeries:
    def test_append_requires_strict_increase(self):
        series = make_series([0.0, 0.1])
        with pytest.raises(UsageError, match="strictly"):
            series.append(make_series([0.1]).reports[0])
        with pytest.raises(UsageError, match="strictly"):
            series.append(make_series([0.05]).reports[0])

    def test_column_and_times(self):
        series = make_series([0.0, 0.1, 0.2], energies=[-1.0, -2.0, -3.0])
        assert np.array_equal(series.times, [0.0, 0.1, 0.2])
        assert np.array_equal(series.column("energy"), [-1.0, -2.0, -3.0])
        with pytest.raises(UsageError, match="unknown column"):
            series.column("momentum")
        with pytest.raises(UsageError, match="unknown column"):
            series.column("flags")

    def test_csv_round_trip_bit_exact(self, tmp_path):
        g = Grid(2, 16)
        series = TimeSeries(metadata={"scheme": "etd_rk2", "dt": "0.001"})
        for i, t in enumerate([0.0, 1.0 / 3.0, 2.0 / 3.0]):
            u = random_band_limited_field(g, seed=i, amplitude=0.6, kmax=5)
            series.append(report(u, t))
        path = tmp_path / "series.csv"
        series.write_csv(path)
        back = TimeSeries.read_csv(path)
        assert back.metadata == series.metadata
        assert len(back) == len(series)
        for a, b in zip(series.reports, back.reports):
            for name in COLUMNS[:-1]:
                assert getattr(a, name) == getattr(b, name), name
            assert a.flags == b.flags

    def test_csv_layout(self, tmp_path):
        series = make_series([0.0, 0.5], flags=["", "nan"])
        series.metadata["seed"] = "3"
        path = tmp_path / "layout.csv"
        series.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed = 3"
        assert lines[1] == ",".join(COLUMNS)
        assert lines[1].startswith("t,l2,l4,linf,h1,h2,grad_l2,energy,")
        assert lines[-1].endswith(",nan")
        assert len(lines) == 4

    def test_flagged_rows_survive_round_trip(self, tmp_path):
        series = make_series([0.0, 0.5], flags=["", "nan"])
        path = tmp_path / "flagged.csv"
        series.write_csv(path)
        back = TimeSeries.read_csv(path)
        assert back.reports[0].is_finite
        assert not back.reports[1].is_finite

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,l2\n0.0,1.0\n")
        with pytest.raises(DataError, match="header"):
            TimeSeries.read_csv(path)

    def test_read_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(COLUMNS) + "\n0.0,1.0,2.0\n")
        with pytest.raises(DataError, match="malformed"):
            TimeSeries.read_csv(path)

    def test_read_rejects_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# dt = 0.1\n")
        with pytest.raises(DataError, match="header"):
            TimeSeries.read_csv(path)


class TestBlowUpMonitor:
    def test_stationary_series_healthy(self):
        series = make_series([0.0, 0.1, 0.2], grads=[1.0, 1.0, 1.0])
        verdict = blowup_monitor(series)
        assert verdict.healthy
        assert verdict.status == "healthy"
        assert verdict.first_index is None

    def test_nan_at_index_seven(self):
        ts = [0.1 * i for i in range(10)]
        flags = [""] * 10
        flags[7] = "nan"
        grads = [1.0] * 10
        grads[7] = float("nan")
        series = make_series(ts, grads=grads, flags=flags)
        verdict = blowup_monitor(series)
        assert verdict.status == "blown-up"
        assert verdict.first_index == 7
        assert verdict.first_t == pytest.approx(0.7)

    def test_threshold_crossing(self):
        series = make_series([0.0, 0.1, 0.2, 0.3], grads=[1.0, 5.0, 2e3, 4e3])
        verdict = blowup_monitor(series)  # threshold 1e3 x grad0
        assert verdict.status == "blown-up"
        assert verdict.first_index == 2

    def test_warning_band(self):
        series = make_series([0.0, 0.1, 0.2], grads=[1.0, 15.0, 3.0])
        verdict = blowup_monitor(series)
        assert verdict.status == "warning"
        assert verdict.first_index == 1

    def test_first_offense_latched(self):
        # once a verdict fires, appending healthier reports never softens it
        grads = [1.0, 2e3, 1.0]
        series = make_series([0.0, 0.1, 0.2], grads=grads)
        assert blowup_monitor(series).status == "blown-up"
        series.append(make_series([0.9], grads=[1.0]).reports[0])
        after = blowup_monitor(series)
        assert after.status == "blown-up"
        assert after.first_index == 1

    def test_zero_initial_gradient_guard(self):
        # grad0 = 0 (constant data): no finite default threshold to trip
        series = make_series([0.0, 0.1], grads=[0.0, 5.0])
        assert blowup_monitor(series).healthy

    def test_empty_series_rejected(self):
        with pytest.raises(UsageError, match="nonempty"):
            blowup_monitor(TimeSeries())


class TestMonotonicityAudit:
    def test_decaying_energy_passes(self):
        series = make_series([0.0, 0.1, 0.2], energies=[-1.0, -1.5, -2.0])
        audit = monotonicity_audit(series, growth_constant=5.0)
        assert audit.passed
        assert audit.energy_ok and audit.l2_bound_ok
        assert audit.max_energy_jump == 0.0

    def test_energy_jump_beyond_tolerance_fails(self):
        series = make_series([0.0, 0.1, 0.2], energies=[-2.0, -2.0 + 1e-4, -2.0])
        audit = monotonicity_audit(series, growth_constant=5.0)
        assert not audit.energy_ok
        assert audit.max_energy_jump == pytest.approx(1e-4)
        assert "jump" in audit.detail

    def test_jump_tolerance_scales_with_energy_magnitude(self):
        # jump of 5e-8 against |E| = 10 sits inside 1e-8 * max(1, |E|)
        series = make_series([0.0, 0.1], energies=[-10.0, -10.0 + 5e-8])
        assert monotonicity_audit(series, growth_constant=5.0).energy_ok
        # the same jump against |E| = 1 is an offense
        series2 = make_series([0.0, 0.1], energies=[-1.0, -1.0 + 5e-8])
        assert not monotonicity_audit(series2, growth_constant=5.0).energy_ok

    def test_l2_growth_bound(self):
        # ||u||^2 growing like e^{3t} passes C=5, fails C=2
        ts = [0.0, 0.2, 0.4]
        l2s = [math.sqrt(math.exp(3 * t)) for t in ts]
        series = make_series(ts, l2s=l2s)
        assert monotonicity_audit(series, growth_constant=5.0).l2_bound_ok
        tight = monotonicity_audit(series, growth_constant=2.0)
        assert not tight.l2_bound_ok
        assert not tight.passed

    def test_needs_two_reports(self):
        with pytest.raises(UsageError, match="two"):
            monotonicity_audit(make_series([0.0]), growth_constant=5.0)
