"""End-to-end acceptance run: each headline guarantee of the suite is one
test, asserted at its documented tolerance and desk-scale grid. With
`pytest -v` every guarantee reports exactly one pass/fail line; each test
also prints the measured margin (visible with -s or -rA).

The nine guarantees: integral identities at scale, smoothing-family
properties, the energy-dissipation law, the smoothing-scale Cauchy rate,
the linear dispersion relation, stationary states, agreement of independent
discretizations, uniform H2 boundedness across the smoothing sweep, and
equivalence with direct-summation/finite-difference oracles.
"""

import numpy as np
import pytest
from oracles import direct_dft, fd_diff, fd_laplacian
from scipy.integrate import solve_ivp

from llbar.diagnostics import ENERGY_JUMP_TOL, monotonicity_audit
from llbar.experiments import run_eps_cauchy, run_linear_growth, run_uniqueness
from llbar.grid import (
    Grid,
    constant_field,
    gradient,
    inner_product,
    laplacian,
    norm,
    random_band_limited_field,
    to_spectral,
)
from llbar.integrator import SchemeConfig, integrate
from llbar.mollifier import KINDS, make_mollifier, verify_mollifier_properties
from llbar.physics import identity_suite

IDENTITY_CHECKS = (
    "identity_l2",
    "identity_h1",
    "orthogonality",
    "identity_cubic_expansion",
    "rhs_consistency_with_heff",
)


@pytest.fixture(scope="module")
def smoothing_sweep():
    """One shared smoothing-scale sweep at desk scale: 64^2, data with
    spectral decay exponent 5 (well inside H^6), eps halving 0.4 -> 0.05."""
    u0 = random_band_limited_field(Grid(2, 64), seed=0, decay_r=5.0, amplitude=0.5)
    return run_eps_cauchy(
        u0, (0.4, 0.2, 0.1, 0.05), t_end=0.1, scheme="etd_rk2", dt=1e-3
    )


def test_1_integral_identities_at_scale():
    """L2 and H1 identities, orthogonality, the cubic expansion, and
    rhs-vs-effective-field consistency: residual <= 1e-10 on 50 seeded
    fields at 64^2 plus a 3d spot check."""
    worst = 0.0
    for grid, seeds in ((Grid(2, 64), range(50)), (Grid(3, 32), range(3))):
        checks = [
            c for c in identity_suite(make_mollifier(grid, 0.2), seeds=seeds)
            if c.name in IDENTITY_CHECKS
        ]
        assert len(checks) == len(IDENTITY_CHECKS)
        for c in checks:
            # the worst seed's residual, NaN if any seed's is NaN
            assert c.measured <= 1e-10, (
                f"{c.name} on {grid.dim}d: worst residual {c.measured:.3e} "
                f"over {len(seeds)} seeds"
            )
        worst = max(worst, max(c.measured for c in checks))
    print(f"PASS integral identities: worst residual {worst:.3e} <= 1e-10")


def test_2_smoothing_family_properties():
    """Unit symbol at zero, range/monotonicity, derivative commutation,
    Linf contraction, self-adjointness at their exact tolerances; the
    approximation-rate slope >= 0.95; negative-power growth exponent
    <= k + 0.05 in every dimension, for both kernel kinds."""
    worst_slope, worst_growth_margin = np.inf, -np.inf
    for grid in (Grid(1, 64), Grid(2, 64), Grid(3, 32)):
        for kind in KINDS:
            rep = verify_mollifier_properties(make_mollifier(grid, 0.2, kind))
            failures = [
                c.name for c in rep.checks if not c.informational and not c.passed
            ]
            assert not failures, f"{kind} on {grid.dim}d failed: {failures}"
            for c in rep.checks:
                if c.name == "approx_rate_slope":
                    assert c.measured >= 0.95
                    worst_slope = min(worst_slope, c.measured)
                if c.name.startswith("growth_exponent_k") and not c.informational:
                    k = int(c.name[-1])
                    assert c.measured <= k + 0.05
                    worst_growth_margin = max(worst_growth_margin, c.measured - k)
    print(
        f"PASS smoothing family: min rate slope {worst_slope:.3f} >= 0.95, "
        f"max growth-exponent excess {worst_growth_margin:+.3f} <= +0.05"
    )


def test_3_energy_dissipation_law():
    """Resolved 64^2 run (|u0|_Linf = 0.5, t_end = 2): energy nonincreasing
    within 1e-8 per step, and the discrete balance |dE + sum dt*D| halves
    when dt halves."""
    u0 = random_band_limited_field(Grid(2, 64), seed=0, amplitude=0.5)
    assert ENERGY_JUMP_TOL == 1e-8  # the audit's per-step tolerance
    residual = {}
    for dt in (4e-3, 2e-3):
        res = integrate(
            u0, 2.0, SchemeConfig(scheme="etd_rk2", dt=dt), report_every=1
        )
        audit = monotonicity_audit(res.series, growth_constant=5.0)
        assert audit.energy_ok, f"dt={dt}: {audit.detail}"
        e = res.series.column("energy")
        d = res.series.column("dissipation")
        residual[dt] = abs(e[-1] - e[0] + dt * d[:-1].sum())
    ratio = residual[4e-3] / residual[2e-3]
    assert 1.7 <= ratio <= 2.35, f"balance ratio {ratio:.3f} not ~2"
    print(
        f"PASS dissipation law: max energy jump 0 within 1e-8/step, "
        f"balance residual ratio {ratio:.3f} (first order)"
    )


def test_4_smoothing_scale_cauchy_rate(smoothing_sweep):
    """Pairwise sup-in-time L2 differences across the eps sweep fit a
    log-log slope >= 0.9 against max(eps, eps')."""
    assert not smoothing_sweep.stationary
    assert smoothing_sweep.slope >= 0.9, f"slope {smoothing_sweep.slope:.4f}"
    print(
        f"PASS smoothing-scale rate: slope {smoothing_sweep.slope:.4f} >= 0.9 "
        f"over eps {[p[0] for p in smoothing_sweep.pairs[:1]]} .. 0.05"
    )


def test_5_linear_dispersion_relation():
    """Small-amplitude mode growth rates match the linear symbol
    -|k|^4 + |k|^2 + 2 to 1e-6 relative on |k|^2 in {0, 1, 2, 4, 9},
    including the neutral mode at |k|^2 = 2."""
    rep = run_linear_growth(
        Grid(2, 64),
        amplitude=1e-8,
        t_end=0.5,
        scheme="etd_rk2",
        dt=1e-3,
    )
    assert not rep.contaminated
    assert rep.max_rel_error <= 1e-6, f"max rel error {rep.max_rel_error:.3e}"
    table = {ksq: (sigma, rate) for ksq, sigma, rate, _ in rep.rows}
    assert set(table) == {0, 1, 2, 4, 9}
    assert table[2][0] == 0.0  # the exact neutral mode
    print(
        f"PASS linear dispersion: max relative rate error "
        f"{rep.max_rel_error:.3e} <= 1e-6 (neutral mode included)"
    )


def test_6_stationary_states():
    """(0,0,1) is preserved to 1e-12 over 1e4 steps; a constant field
    follows the scalar cubic law c' = 2c(1 - c^2) to 1e-6 on [0, 1]
    against an independent adaptive ODE reference."""
    grid = Grid(2, 32)
    u0 = constant_field(grid, (0.0, 0.0, 1.0))
    res = integrate(
        u0, 10.0, SchemeConfig(scheme="etd_rk2", dt=1e-3), report_every=1000
    )
    assert res.state.step == 10_000
    drift = norm(res.field - to_spectral(u0), "linf")
    assert drift <= 1e-12, f"equilibrium drift {drift:.3e}"

    c0 = 0.3
    ode = integrate(
        constant_field(Grid(2, 16), (0.0, 0.0, c0)),
        1.0,
        SchemeConfig(scheme="etd_rk2", dt=5e-4),
        report_every=20,
    )
    ts = ode.series.times
    ref = solve_ivp(
        lambda t, c: 2.0 * c * (1.0 - c * c),
        (0.0, float(ts[-1])),
        [c0],
        t_eval=ts,
        rtol=1e-12,
        atol=1e-14,
    )
    # for a constant field along e3 the pointwise Linf norm is exactly |c(t)|
    ode_err = float(np.max(np.abs(ode.series.column("linf") - ref.y[0])))
    assert ode_err <= 1e-6, f"ODE mismatch {ode_err:.3e}"
    print(
        f"PASS stationary states: drift {drift:.1e} <= 1e-12 over 1e4 steps, "
        f"cubic-law mismatch {ode_err:.3e} <= 1e-6"
    )


def test_7_independent_discretizations_agree():
    """Two discretizations of the limit flow (eps = 0) from the same u0 -
    differing in scheme and dt - agree at t_end within 3x the finer run's
    self-estimated discretization error."""
    rep = run_uniqueness(
        random_band_limited_field(Grid(2, 64), seed=7, decay_r=3.0, amplitude=0.5),
        t_end=0.25,
        scheme="etd_rk2",
        dt=1e-3,
        scheme_b="imex_bdf2",
        dt_b=5e-4,
        eps=0.0,
    )
    assert rep.est_a > 0 and rep.est_b > 0
    assert rep.passed, (
        f"final diff {rep.final_diff_l2:.3e} > 3x finer estimate "
        f"{rep.finer_estimate:.3e}"
    )
    print(
        f"PASS discretization agreement: final L2 diff {rep.final_diff_l2:.3e}"
        f" <= {3 * rep.finer_estimate:.3e} (3x finer self-estimate)"
    )


def test_8_uniform_h2_boundedness(smoothing_sweep):
    """Across the smoothing sweep, sup-in-time H2 norms vary by <= 10%."""
    spread = smoothing_sweep.h2_spread
    assert spread <= 0.10, f"H2 spread {spread:.2%}"
    print(f"PASS uniform boundedness: sup-t H2 spread {spread:.3%} <= 10%")


def test_9_oracle_equivalence():
    """Transforms, norms, inner products at 1e-12 against direct summation;
    derivative operators at 1e-8 against order-12 centered differences -
    all on 16-point-per-axis grids in every dimension."""
    spectral_tol, fd_tol = 1e-12, 1e-8
    worst_spec, worst_fd = 0.0, 0.0
    for dim in (1, 2, 3):
        grid = Grid(dim, 16)
        axes = tuple(range(1, dim + 1))  # data axis 0 is the component axis

        f = random_band_limited_field(grid, seed=5 + dim, decay_r=1.0, kmax=7)
        g = random_band_limited_field(grid, seed=50 + dim, decay_r=1.0, kmax=7)

        # forward transform vs direct O(N^2) summation, on the half lattice
        fs = to_spectral(f)
        dft = direct_dft(f.data, axes)
        err = np.max(np.abs(fs.data - dft[..., : grid.n // 2 + 1])) / np.max(np.abs(dft))
        assert err <= spectral_tol
        worst_spec = max(worst_spec, err)

        # norms vs explicit quadrature / lattice sums
        mag2 = np.sum(f.data**2, axis=0)
        for name, oracle in (
            ("l2", np.sqrt(np.sum(mag2) * grid.cell_volume)),
            ("l4", (np.sum(mag2**2) * grid.cell_volume) ** 0.25),
            ("linf", np.sqrt(np.max(mag2))),
        ):
            err = abs(norm(f, name) - oracle) / oracle
            assert err <= spectral_tol, name
            worst_spec = max(worst_spec, err)
        m = np.arange(grid.n)
        m = np.where(m <= grid.n // 2, m, m - grid.n) * (2 * np.pi / grid.box_length)
        ksq = sum(a**2 for a in np.meshgrid(*([m] * dim), indexing="ij"))
        h2_oracle = np.sqrt(
            np.sum((1.0 + ksq) ** 2 * np.abs(dft) ** 2)
            * grid.cell_volume / grid.npoints
        )
        err = abs(norm(f, "hs", s=2) - h2_oracle) / h2_oracle
        assert err <= spectral_tol
        worst_spec = max(worst_spec, err)

        ip_oracle = np.sum(f.data * g.data) * grid.cell_volume
        err = abs(inner_product(f, g) - ip_oracle) / abs(ip_oracle)
        assert err <= spectral_tol
        worst_spec = max(worst_spec, err)

        # derivatives vs high-order centered differences on smooth data
        smooth = random_band_limited_field(grid, seed=dim, decay_r=2.0, kmax=1)
        pairs = [
            (gradient(smooth)[0].data, fd_diff(smooth.data, 1, grid.dx, p=6)),
            (
                laplacian(smooth).data,
                fd_laplacian(smooth.data, axes, grid.dx, p=6),
            ),
            (
                laplacian(laplacian(smooth)).data,
                fd_laplacian(
                    fd_laplacian(smooth.data, axes, grid.dx, p=6),
                    axes, grid.dx, p=6,
                ),
            ),
        ]
        for ours, oracle in pairs:
            err = np.max(np.abs(ours - oracle)) / np.max(np.abs(oracle))
            assert err <= fd_tol
            worst_fd = max(worst_fd, err)
    print(
        f"PASS oracle equivalence: spectral worst {worst_spec:.3e} <= 1e-12, "
        f"finite-difference worst {worst_fd:.3e} <= 1e-8"
    )
