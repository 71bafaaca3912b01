"""Dynamics tests.

Oracles: high-order periodic finite differences for every derivative in the
right-hand side and the effective field, direct-summation DFT plus plain
sample sums for the energy, and closed-form constant-field reductions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llbar.diagnostics import report
from llbar.errors import DataError, UsageError
from llbar.grid import (
    SPECTRAL,
    Field,
    Grid,
    constant_field,
    inner_product,
    laplacian,
    norm,
    random_band_limited_field,
    to_physical,
    to_spectral,
)
from llbar.mollifier import PropertyCheck, make_mollifier, mollify
from llbar.physics import (
    CONSISTENCY_TOL,
    DEFAULT_PARAMS,
    IDENTITY_TOL,
    ORTHOGONALITY_TOL,
    EffectiveFieldParams,
    FieldTerms,
    gn_ratios,
    identity_suite,
    linear_symbol,
    lipschitz_probe,
    nonlinear_rhs,
    nonlinear_symbols,
    rhs,
)
from oracles import direct_dft, fd_laplacian

GENERAL_PARAMS = EffectiveFieldParams(chi=0.4, lambda_r=0.7, lambda_e=1.3, gamma=2.0)
BOTH_PARAMS = [DEFAULT_PARAMS, GENERAL_PARAMS]


def nonlinear_field(u, p=DEFAULT_PARAMS, J=None):
    """N(u) as a spectral Field: nonlinear_rhs maps spectrum arrays."""
    grid = u.grid
    symbols = nonlinear_symbols(grid, p, J)
    return Field(grid, nonlinear_rhs(grid, to_spectral(u).data, symbols), SPECTRAL)


def fd_rhs(u, p):
    """Five-term right-hand side with every derivative a 14th-order
    finite difference and every product pointwise."""
    grid = u.grid
    up = to_physical(u).data
    h = grid.dx
    axes = tuple(range(1, grid.dim + 1))
    lap = fd_laplacian(up, axes, h, p=7)
    bilap = fd_laplacian(lap, axes, h, p=7)
    usq = np.sum(up**2, axis=0)
    cube = usq * up
    out = -p.lambda_e * bilap
    out += p.laplacian_coeff * lap
    out += p.cubic_coeff * (up - cube)
    out += p.cubic_laplacian_coeff * fd_laplacian(cube, axes, h, p=7)
    out -= p.gamma * np.cross(up, lap, axis=0)
    return out


class TestEffectiveField:
    def test_zero_field(self, grid16_2d):
        h = FieldTerms(constant_field(grid16_2d, (0, 0, 0))).h
        assert np.all(h.data == 0)

    def test_unit_constant(self, grid16_2d):
        h = FieldTerms(constant_field(grid16_2d, (0, 0, 1))).h
        assert np.max(np.abs(h.data)) <= 1e-14

    def test_half_constant(self, grid16_2d):
        h = FieldTerms(constant_field(grid16_2d, (0, 0, 0.5))).h
        assert h.data[2] == pytest.approx(2 * 0.5 * (1 - 0.25), abs=1e-14)
        assert np.max(np.abs(h.data[:2])) <= 1e-15

    @pytest.mark.parametrize("p", BOTH_PARAMS, ids=["default", "general"])
    def test_matches_finite_difference_oracle(self, grid64_2d, p):
        u = random_band_limited_field(grid64_2d, seed=4, kmax=2, amplitude=0.5)
        h = FieldTerms(u, p=p).h
        up = to_physical(u).data
        lap = fd_laplacian(up, (1, 2), grid64_2d.dx, p=6)
        usq = np.sum(up**2, axis=0)
        expected = lap + (0.5 / p.chi) * (1 - usq) * up
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(h.data - expected)) <= 1e-10 * scale

    def test_nan_rejected(self, grid16_2d):
        u = constant_field(grid16_2d, (0, 0, 0.5))
        u.data[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            FieldTerms(u)


class TestRhs:
    def test_unit_constant_all_terms_vanish(self, grid16_2d):
        """F = 0 under five couplings whose term coefficients are linearly
        independent, so each of the five terms vanishes on its own."""
        u = constant_field(grid16_2d, (0, 0, 1))
        couplings = [
            DEFAULT_PARAMS,
            GENERAL_PARAMS,
            EffectiveFieldParams(chi=1.0, lambda_r=2.0, lambda_e=0.5, gamma=0.3),
            EffectiveFieldParams(chi=0.1, lambda_r=0.2, lambda_e=3.0, gamma=1.5),
            EffectiveFieldParams(chi=2.5, lambda_r=1.1, lambda_e=0.9, gamma=0.1),
        ]
        coeffs = [
            (p.lambda_e, p.laplacian_coeff, p.cubic_coeff, p.cubic_laplacian_coeff,
             p.gamma)
            for p in couplings
        ]
        assert np.linalg.matrix_rank(coeffs) == 5
        for p in couplings:
            assert norm(rhs(u, p), "l2") <= 1e-13

    def test_constant_reduces_to_scalar_ode(self, grid16_2d):
        c = 0.5
        f = to_physical(rhs(constant_field(grid16_2d, (0, 0, c))))
        assert f.data[2] == pytest.approx(2 * c * (1 - c * c), abs=1e-13)
        assert np.max(np.abs(f.data[:2])) <= 1e-14

    def test_small_mode_linearizes(self):
        """Amplitude-1e-6 single sine mode at |k| = 1: F = sigma(1) u + O(a^3)
        with sigma(1) = -1 + 1 + 2 = 2."""
        grid = Grid(dim=1, n=64)
        data = np.zeros((3, grid.n))
        data[0] = 1e-6 * np.sin(grid.x1)
        u = Field(grid, data, "physical")
        f = to_physical(rhs(u))
        dev = np.max(np.abs(f.data - 2 * data)) / np.max(np.abs(2 * data))
        assert dev <= 1e-9

    @pytest.mark.parametrize("p", BOTH_PARAMS, ids=["default", "general"])
    def test_matches_finite_difference_oracle(self, grid64_2d, p):
        u = random_band_limited_field(grid64_2d, seed=9, kmax=2, amplitude=0.5)
        f = to_physical(rhs(u, p)).data
        expected = fd_rhs(u, p)
        scale = np.max(np.abs(expected))
        # floor ~1e-10: spectral-side roundoff through the quartic symbol
        assert np.max(np.abs(f - expected)) <= 1e-9 * scale

    def test_terms_sum_to_total(self, grid32_2d):
        """rhs() against its five terms, each built from grid operators:
        the linear terms pass through J twice, the cubic and cross products
        of v = mask Ju are masked by the 2/3 rule and then smoothed once."""
        grid = grid32_2d
        u = random_band_limited_field(grid, seed=3, kmax=12)
        J = make_mollifier(grid, 0.2, "bump")
        mask = grid.dealias_mask
        ju = mollify(J, to_spectral(u))
        jju = mollify(J, ju)
        v = to_physical(ju * mask).data
        lap_v = to_physical(laplacian(ju * mask)).data

        def smoothed_product(data):
            return mollify(J, to_spectral(Field(grid, data, "physical")) * mask)

        cube = smoothed_product(np.sum(v**2, axis=0) * v)
        cross = smoothed_product(np.cross(v, lap_v, axis=0))
        for p in BOTH_PARAMS:
            terms = [
                laplacian(laplacian(jju)) * -p.lambda_e,
                laplacian(jju) * p.laplacian_coeff,
                (jju - cube) * p.cubic_coeff,
                laplacian(cube) * p.cubic_laplacian_coeff,
                cross * -p.gamma,
            ]
            total = rhs(u, p, J=J)
            gap = total - sum(terms[1:], terms[0])
            assert norm(gap, "l2") <= 1e-12 * norm(total, "l2")

    def test_nan_rejected(self, grid16_2d):
        u = constant_field(grid16_2d, (0, 0, 0.5))
        u.data[1, 2, 3] = np.inf
        with pytest.raises(DataError):
            rhs(u)


class TestRhsConsistencyWithHeff:
    """The five-term form against lambda_r H - lambda_e Lap H - gamma u x H."""

    @pytest.mark.parametrize("p", BOTH_PARAMS, ids=["default", "general"])
    def test_random_fields(self, grid32_2d, p):
        for seed in range(5):
            u = random_band_limited_field(grid32_2d, seed=seed, kmax=5)
            assert FieldTerms(u, p=p).rhs_consistency_with_heff() <= CONSISTENCY_TOL

    def test_rough_fields(self, grid32_2d):
        """Aliasing cancels between the paths: no band limit needed."""
        u = random_band_limited_field(grid32_2d, seed=0, kmax=15, decay_r=1.0)
        assert FieldTerms(u).rhs_consistency_with_heff() <= CONSISTENCY_TOL

    def test_single_mode(self):
        grid = Grid(dim=1, n=32)
        data = np.zeros((3, grid.n))
        data[0] = 0.3 * np.sin(grid.x1)
        terms = FieldTerms(Field(grid, data, "physical"))
        assert terms.rhs_consistency_with_heff() <= CONSISTENCY_TOL

    def test_unit_constant_absolute_convention(self, grid16_2d):
        res = FieldTerms(constant_field(grid16_2d, (0, 0, 1))).rhs_consistency_with_heff()
        assert res <= 1e-13  # degenerate scale: absolute residual

    def test_3d(self, grid32_3d):
        u = random_band_limited_field(grid32_3d, seed=2, kmax=5)
        assert FieldTerms(u).rhs_consistency_with_heff() <= CONSISTENCY_TOL


class TestIdentityL2:
    def test_zero_field(self, grid16_2d):
        rep = FieldTerms(constant_field(grid16_2d, (0, 0, 0))).identity_l2()
        assert rep.lhs == rep.rhs == 0.0
        assert rep.residual == 0.0

    def test_unit_constant(self, grid16_2d):
        rep = FieldTerms(constant_field(grid16_2d, (0, 0, 1))).identity_l2()
        v = grid16_2d.volume
        assert rep.lhs == pytest.approx(2 * v, rel=1e-13)
        assert rep.rhs == pytest.approx(2 * v, rel=1e-13)
        assert rep.residual <= 1e-13

    @pytest.mark.parametrize("p", BOTH_PARAMS, ids=["default", "general"])
    @pytest.mark.parametrize("eps", [None, 0.2])
    def test_random_fields(self, grid32_2d, p, eps):
        J = None if eps is None else make_mollifier(grid32_2d, eps)
        for seed in range(5):
            u = random_band_limited_field(grid32_2d, seed=seed, kmax=5)
            assert FieldTerms(u, J, p).identity_l2().residual <= IDENTITY_TOL

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        amplitude=st.floats(0.05, 2.0),
        eps=st.floats(0.05, 0.8),
    )
    def test_property(self, grid32_2d, seed, amplitude, eps):
        u = random_band_limited_field(grid32_2d, seed=seed, amplitude=amplitude, kmax=5)
        J = make_mollifier(grid32_2d, eps)
        assert FieldTerms(u, J).identity_l2().residual <= IDENTITY_TOL


class TestIdentityH1:
    def test_zero_field(self, grid16_2d):
        rep = FieldTerms(constant_field(grid16_2d, (0, 0, 0))).identity_h1()
        assert rep.lhs == rep.rhs == 0.0
        assert rep.extras["orthogonality"] == 0.0

    @pytest.mark.parametrize("p", BOTH_PARAMS, ids=["default", "general"])
    @pytest.mark.parametrize("eps", [None, 0.2])
    def test_random_fields(self, grid32_2d, p, eps):
        J = None if eps is None else make_mollifier(grid32_2d, eps)
        for seed in range(5):
            u = random_band_limited_field(grid32_2d, seed=seed, kmax=5)
            rep = FieldTerms(u, J, p).identity_h1()
            assert rep.residual <= IDENTITY_TOL
            assert rep.extras["orthogonality"] <= ORTHOGONALITY_TOL


class TestIdentityCubicExpansion:
    def test_constant_both_sides_zero(self, grid16_2d):
        rep = FieldTerms(constant_field(grid16_2d, (0.3, -0.1, 0.9))).identity_cubic_expansion()
        assert abs(rep.lhs) <= 1e-12
        assert abs(rep.rhs) <= 1e-12

    @pytest.mark.parametrize("eps", [None, 0.3])
    def test_random_fields(self, grid32_2d, eps):
        J = None if eps is None else make_mollifier(grid32_2d, eps)
        for seed in range(5):
            u = random_band_limited_field(grid32_2d, seed=seed, kmax=5)
            assert FieldTerms(u, J).identity_cubic_expansion().residual <= IDENTITY_TOL

    def test_3d(self, grid32_3d):
        u = random_band_limited_field(grid32_3d, seed=1, kmax=5)
        assert FieldTerms(u).identity_cubic_expansion().residual <= IDENTITY_TOL


class TestCrossTermOrthogonality:
    """(u x Lap u, u) = 0 and (u x Lap u, Lap u) = 0, pointwise geometry."""

    @pytest.mark.parametrize("seed", range(4))
    def test_integrated_orthogonality(self, grid32_2d, seed):
        u = random_band_limited_field(grid32_2d, seed=seed, kmax=10)
        up = to_physical(u)
        lap = to_physical(laplacian(u))
        crossed = Field(
            grid32_2d, np.cross(up.data, lap.data, axis=0), "physical"
        )
        scale = norm(crossed, "l2")
        for other in (up, lap):
            rel = abs(inner_product(crossed, other)) / (scale * norm(other, "l2"))
            assert rel <= 1e-11


class TestEnergy:
    def test_zero(self, grid16_2d):
        assert report(constant_field(grid16_2d, (0, 0, 0)), 0.0).energy == 0.0

    def test_unit_constant(self, grid16_2d):
        v = grid16_2d.volume
        assert report(constant_field(grid16_2d, (0, 0, 1)), 0.0).energy == pytest.approx(
            -v / 2, rel=1e-13
        )

    @pytest.mark.parametrize("p", BOTH_PARAMS, ids=["default", "general"])
    def test_matches_direct_summation_oracle(self, grid16_2d, p):
        grid = grid16_2d
        u = random_band_limited_field(grid, seed=6, kmax=4)
        up = to_physical(u).data
        spectrum = direct_dft(up, (1, 2))
        k_odd = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
        k_odd[grid.n // 2] = 0.0  # the odd symbol vanishes at Nyquist
        grad_sq = 0.0
        for ka in (k_odd[:, None], k_odd[None, :]):
            g = direct_dft(1j * ka[np.newaxis] * spectrum, (1, 2), inverse=True)
            grad_sq += np.sum(np.real(g) ** 2)
        grad_sq *= grid.cell_volume
        usq = np.sum(up**2, axis=0)
        l4 = np.sum(usq**2) * grid.cell_volume
        l2 = np.sum(usq) * grid.cell_volume
        expected = l4 / (8 * p.chi) + 0.5 * grad_sq - l2 / (4 * p.chi)
        assert report(u, 0.0, p).energy == pytest.approx(expected, rel=1e-11)


class TestDissipation:
    def test_zero_cases(self, grid16_2d):
        assert report(constant_field(grid16_2d, (0, 0, 1)), 0.0).dissipation <= 1e-26
        assert report(constant_field(grid16_2d, (0, 0, 0)), 0.0).dissipation == 0.0

    def test_matches_h1_norm_of_effective_field(self, grid32_2d):
        u = random_band_limited_field(grid32_2d, seed=8, kmax=8)
        h = FieldTerms(u).h
        expected = norm(h, "hs", s=1) ** 2
        assert report(u, 0.0).dissipation == pytest.approx(expected, rel=1e-11)

    def test_nonnegative(self, grid32_2d):
        for seed in range(4):
            u = random_band_limited_field(grid32_2d, seed=seed, kmax=8)
            assert report(u, 0.0, GENERAL_PARAMS).dissipation >= 0.0


class TestEnergyChainRule:
    """(F, dE/du) assembled from three pairings equals -D."""

    @pytest.mark.parametrize("p", BOTH_PARAMS, ids=["default", "general"])
    def test_random_fields(self, grid32_2d, p):
        for seed in range(5):
            u = random_band_limited_field(grid32_2d, seed=seed, kmax=5)
            assert FieldTerms(u, p=p).energy_chain_rule_gap() <= 1e-9


class TestStationarity:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_unit_constants_are_stationary(self, grid16_3d, seed):
        vec = np.random.default_rng(seed).normal(size=3)
        vec /= np.linalg.norm(vec)
        u = constant_field(grid16_3d, vec)
        assert norm(rhs(u), "l2") <= 1e-12

    def test_mollified_unit_constant(self, grid16_2d):
        u = constant_field(grid16_2d, (0, 0, 1))
        J = make_mollifier(grid16_2d, 0.3, "bump")
        assert norm(rhs(u, J=J), "l2") <= 1e-12


class TestMollifiedRhs:
    def test_eps_sweep_converges_to_raw_rhs(self, grid64_2d):
        u = random_band_limited_field(grid64_2d, seed=7, decay_r=5.0, kmax=10)
        base = rhs(u)
        eps_list = np.array([0.4, 0.2, 0.1, 0.05])
        gaps = np.array(
            [
                norm(rhs(u, J=make_mollifier(grid64_2d, float(e))) - base, "l2")
                for e in eps_list
            ]
        )
        assert np.all(np.diff(gaps) < 0)  # monotone in shrinking eps
        slope = np.polyfit(np.log(eps_list), np.log(gaps), 1)[0]
        assert slope >= 0.9

    def test_linear_terms_scale_with_amplitude(self, grid32_2d):
        """F_eps less its nonlinear part N_eps is linear in u."""
        u = random_band_limited_field(grid32_2d, seed=5, kmax=5)
        J = make_mollifier(grid32_2d, 0.2)
        a = 0.37
        scaled = Field(grid32_2d, a * u.data, "physical")
        big = rhs(u, J=J) - nonlinear_field(u, J=J)
        small = rhs(scaled, J=J) - nonlinear_field(scaled, J=J)
        gap = norm(small - big * a, "l2")
        assert gap <= 1e-12 * max(norm(big, "l2"), 1e-300)


    def test_non_finite_input_gives_non_finite_output(self, grid16_2d):
        """Inside a time step an overflowed stage must not raise: the
        non-finite result marks the step a blow-up."""
        half = np.zeros((3, 16, 9), dtype=np.complex128)
        half[0, 1, 1] = complex("inf")
        with np.errstate(invalid="ignore", over="ignore"):
            out = nonlinear_rhs(grid16_2d, half, nonlinear_symbols(grid16_2d))
        assert out.shape == half.shape
        assert not np.all(np.isfinite(out))


class TestSplitting:
    def test_symbol_values(self, grid32_2d):
        sym = linear_symbol(grid32_2d)
        assert sym.flat[0] == 2.0  # |k|^2 = 0
        ksq = grid32_2d.ksq
        assert np.allclose(sym, -(ksq**2) + ksq + 2.0, rtol=0, atol=1e-12)

    def test_neutral_mode(self):
        grid = Grid(dim=2, n=16)
        sym = linear_symbol(grid)
        m = grid.mode_numbers
        sel = (m[0] ** 2 + m[1] ** 2) == 2
        assert np.max(np.abs(sym[sel])) == 0.0  # sigma(|k|^2=2) = -4+2+2

    # "full": linear_symbol takes every linear term of F
    @pytest.mark.parametrize("p", BOTH_PARAMS, ids=["default", "general"])
    @pytest.mark.parametrize(
        "dim,n,kind,eps",
        [
            pytest.param(2, 32, "gaussian", None, id="None-full"),
            pytest.param(2, 32, "gaussian", 0.2, id="0.2-full"),
            pytest.param(2, 32, "bump", 0.2, id="bump-0.2-full"),
            pytest.param(3, 16, "gaussian", None, id="3d-None-full"),
            pytest.param(3, 16, "gaussian", 0.2, id="3d-0.2-full"),
            pytest.param(3, 16, "bump", 0.2, id="3d-bump-0.2-full"),
        ],
    )
    def test_reconstruction_is_exact(self, dim, n, kind, eps, p):
        grid = Grid(dim, n)
        J = None if eps is None else make_mollifier(grid, eps, kind)
        u = random_band_limited_field(grid, seed=1, kmax=5)
        uhat = to_spectral(u)
        sym = linear_symbol(grid, p, J)
        lin = Field(grid, sym * uhat.data, SPECTRAL)
        recon = lin + nonlinear_field(u, p, J)
        total = rhs(u, p, J=J)
        assert norm(recon - total, "l2") <= 1e-12 * norm(total, "l2")


class TestLipschitzProbe:
    def test_identical_fields_signaled(self, grid16_2d):
        u = random_band_limited_field(grid16_2d, seed=0, kmax=4)
        with pytest.raises(UsageError):
            lipschitz_probe(u, u, None)

    def test_against_zero_field(self, grid32_2d):
        u = random_band_limited_field(grid32_2d, seed=1, kmax=5, amplitude=0.1)
        zero = constant_field(grid32_2d, (0, 0, 0))
        J = make_mollifier(grid32_2d, 0.2)
        ratio = lipschitz_probe(u, zero, J)
        direct = norm(rhs(u, J=J), "hs", s=2.0) / norm(u, "hs", s=2.0)
        assert ratio == pytest.approx(direct, rel=1e-12)

    def test_family_is_bounded(self, grid32_2d):
        J = make_mollifier(grid32_2d, 0.2)
        ratios = []
        for seed in range(8):
            u = random_band_limited_field(grid32_2d, seed=seed, kmax=5)
            v = random_band_limited_field(grid32_2d, seed=seed + 100, kmax=5)
            for f in (u, v):
                fs = to_spectral(f)
                fs.data /= max(norm(f, "hs", s=2.0), 1e-300)
            ratios.append(lipschitz_probe(u, v, J))
        assert all(np.isfinite(r) and r > 0 for r in ratios)


class TestGnRatios:
    def test_finite_on_random_fields(self, grid32_2d):
        for seed in range(5):
            r = gn_ratios(random_band_limited_field(grid32_2d, seed=seed, kmax=8))
            assert set(r) == {"linf_h1_h2", "grad_l4"}
            assert all(np.isfinite(v) and v > 0 for v in r.values())

    def test_constant_field_guards(self, grid16_2d):
        r = gn_ratios(constant_field(grid16_2d, (0, 0, 1)))
        assert r["grad_l4"] == 0.0  # zero gradient: guarded, not NaN
        assert np.isfinite(r["linf_h1_h2"])


class TestParams:
    def test_defaults(self):
        p = EffectiveFieldParams()
        assert (p.chi, p.lambda_r, p.lambda_e, p.gamma) == (0.25, 1.0, 1.0, 1.0)
        assert p.cubic_coeff == 2.0
        assert p.cubic_laplacian_coeff == 2.0
        assert p.laplacian_coeff == -1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chi": 0.0},
            {"chi": -0.25},
            {"lambda_r": 0.0},
            {"lambda_e": -1.0},
            {"gamma": 0.0},
            {"chi": float("nan")},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(UsageError):
            EffectiveFieldParams(**kwargs)


class TestIdentitySuite:
    def test_all_rows_pass(self, grid32_2d):
        checks = identity_suite(make_mollifier(grid32_2d, 0.2), seeds=range(3))
        assert [c.name for c in checks] == [
            "identity_l2",
            "identity_h1",
            "orthogonality",
            "identity_cubic_expansion",
            "rhs_consistency_with_heff",
            "energy_chain_rule",
        ]
        assert all(c.passed for c in checks)

    @pytest.mark.parametrize(
        "dim,n,kind,p",
        [(2, 32, "gaussian", DEFAULT_PARAMS), (3, 16, "bump", GENERAL_PARAMS)],
        ids=["2d-gaussian-default", "3d-bump-general"],
    )
    def test_rows_equal_standalone_checks_bit_for_bit(self, dim, n, kind, p):
        """The suite evaluates each seed's shared terms once and drops the
        smoothed ones before the J-free checks; every one-seed check must
        still measure exactly what a fresh FieldTerms gives for that check
        alone, and a two-seed check the max of those, passing when both
        are within its bound."""
        grid = Grid(dim, n)
        J = make_mollifier(grid, 0.2, kind)
        per_seed = []
        for seed in range(2):
            rows = {c.name: c.measured for c in identity_suite(J, p, [seed])}
            u = random_band_limited_field(grid, seed=seed, kmax=n // 6)
            h1 = FieldTerms(u, J, p).identity_h1()
            assert rows["identity_l2"] == FieldTerms(u, J, p).identity_l2().residual
            assert rows["identity_h1"] == h1.residual
            assert rows["orthogonality"] == h1.extras["orthogonality"]
            cubic = FieldTerms(u, J, p).identity_cubic_expansion().residual
            assert rows["identity_cubic_expansion"] == cubic
            consistency = FieldTerms(u, J, p).rhs_consistency_with_heff()
            assert rows["rhs_consistency_with_heff"] == consistency
            chain = FieldTerms(u, J, p).energy_chain_rule_gap()
            assert rows["energy_chain_rule"] == chain
            # the chain rule's D is report()'s, bit for bit
            assert FieldTerms(u, J, p).dissipation == report(u, 0.0, p).dissipation
            per_seed.append(rows)
        for c in identity_suite(J, p, range(2)):
            assert c.measured == max(rows[c.name] for rows in per_seed)
            assert c.passed == all(rows[c.name] <= c.bound for rows in per_seed)

    def test_row_shape(self, grid16_2d):
        checks = identity_suite(make_mollifier(grid16_2d, 0.2), seeds=[0])
        assert all(type(c) is PropertyCheck for c in checks)
        assert [(c.name, c.bound) for c in checks] == [
            ("identity_l2", IDENTITY_TOL),
            ("identity_h1", IDENTITY_TOL),
            ("orthogonality", ORTHOGONALITY_TOL),
            ("identity_cubic_expansion", IDENTITY_TOL),
            ("rhs_consistency_with_heff", IDENTITY_TOL),
            ("energy_chain_rule", 1e-9),
        ]
        assert not any(c.informational for c in checks)

    def test_worst_seed_decides_and_nan_is_not_hidden(self, grid16_2d, monkeypatch):
        """A seed past the bound fails the check, and a NaN residual after
        a finite one is the measured value, not lost to the max."""
        J = make_mollifier(grid16_2d, 0.2)
        residuals = iter([1e-16, 2e-9, 1e-16, float("nan")])
        monkeypatch.setattr(FieldTerms, "energy_chain_rule_gap", lambda self: next(residuals))
        first, second = (identity_suite(J, seeds=range(2))[-1] for _ in range(2))
        assert (first.measured, first.passed) == (2e-9, False)
        assert math.isnan(second.measured) and not second.passed
