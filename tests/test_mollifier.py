"""Mollifier tests.

Oracles: the bump symbol tabulation against adaptive quadrature of the
physical kernel (independent of the fixed-node trapezoid sums used in the
library), and the gaussian symbol against direct circular convolution with
the periodized physical-space gaussian kernel.
"""

import math

import numpy as np
import pytest

from llbar.errors import UsageError
from llbar.grid import (
    Grid,
    constant_field,
    gradient,
    inner_product,
    norm,
    random_band_limited_field,
)
from llbar.mollifier import (
    MollifierSymbol,
    bump_profile,
    make_mollifier,
    mollify,
    verify_mollifier_properties,
)


def bump_oracle(r, dim):
    """Transform of the unit-mass radial bump via adaptive quadrature."""
    from scipy import integrate, special

    def rho(s):
        return math.exp(-1.0 / (1.0 - s * s)) if s < 1.0 else 0.0

    def quad(f, **kw):
        return integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12,
                              limit=800, **kw)[0]

    mass = quad(lambda s: rho(s) * s ** (dim - 1))
    if r == 0.0:
        return 1.0
    if dim == 1:
        return quad(rho, weight="cos", wvar=r) / mass
    if dim == 2:
        return quad(lambda s: rho(s) * special.j0(r * s) * s) / mass
    return quad(lambda s: rho(s) * s, weight="sin", wvar=r) / (r * mass)


class TestBumpProfile:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("r", [0.0, 0.7, 2.3, 6.0, 15.0, 40.0, 90.0, 181.0])
    def test_matches_quadrature_oracle(self, dim, r):
        """Raw tabulation agrees with an independent quadrature method, up
        to r = 181, the largest radial frequency of 2d n=256 at eps = 1."""
        assert bump_profile(r, dim) == pytest.approx(
            bump_oracle(r, dim), abs=1e-10
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_array_form_equals_scalar_calls(self, dim):
        r = np.linspace(0.0, 200.0, 401)
        values = bump_profile(r, dim)
        assert values.shape == r.shape
        assert np.array_equal(values, [bump_profile(float(x), dim) for x in r])

    def test_unit_normalization(self):
        for dim in (1, 2, 3):
            assert bump_profile(0.0, dim) == 1.0

    def test_has_negative_lobes(self):
        """The raw transform oscillates; clipping in make_mollifier is not
        a no-op."""
        assert bump_profile(6.0, 1) < 0.0

    def test_invalid_arguments(self):
        with pytest.raises(UsageError):
            bump_profile(1.0, 4)
        with pytest.raises(UsageError):
            bump_profile(-1.0, 2)
        with pytest.raises(UsageError):
            bump_profile(np.array([1.0, -1.0]), 2)


class TestGaussianKernel:
    def test_matches_periodized_kernel_convolution(self):
        """Symbol application equals direct circular convolution with the
        periodized physical gaussian (eps wide enough that the kernel's
        spectral tail is below roundoff at the Nyquist mode)."""
        grid = Grid(dim=1, n=64)
        eps, L = 0.35, grid.box_length
        x = grid.x1
        kernel = np.zeros(grid.n)
        for p in range(-6, 7):
            kernel += np.exp(-((x + p * L) ** 2) / (2 * eps**2))
        kernel /= math.sqrt(2 * math.pi) * eps
        f = random_band_limited_field(grid, seed=3, decay_r=1.0, kmax=20)
        J = make_mollifier(grid, eps, "gaussian")
        smoothed = mollify(J, f)
        for c in range(3):
            conv = grid.dx * np.array(
                [np.sum(np.roll(kernel[::-1], i + 1) * f.data[c]) for i in range(grid.n)]
            )
            assert np.max(np.abs(smoothed.data[c] - conv)) <= 1e-12 * max(
                np.max(np.abs(conv)), 1e-300
            )


class TestSymbolConstruction:
    @pytest.mark.parametrize("kind", ["gaussian", "bump"])
    def test_symbol_shape_invariants(self, grid32_2d, kind):
        J = make_mollifier(grid32_2d, 0.3, kind)
        assert J.values.shape == grid32_2d.spectral_shape
        assert J.values.flat[0] == 1.0
        assert J.values.max() <= 1.0 + 1e-14
        if kind == "gaussian":
            assert J.values.min() > 0.0
            assert J.clipped_shells == 0
        else:
            assert J.values.min() >= 0.0
            assert J.clipped_shells > 0  # side lobes really were clipped

    def test_radial_monotone(self, grid32_2d):
        for kind in ("gaussian", "bump"):
            J = make_mollifier(grid32_2d, 0.4, kind)
            k2u, inv = np.unique(grid32_2d.ksq, return_inverse=True)
            prof = np.full(k2u.shape, np.inf)
            np.minimum.at(prof, inv.reshape(-1), J.values.ravel())
            assert np.max(np.diff(prof), initial=0.0) <= 1e-14

    def test_eps_validation(self, grid16_2d):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(UsageError):
                make_mollifier(grid16_2d, bad)
        with pytest.raises(UsageError):
            make_mollifier(grid16_2d, 0.3, "box")

    def test_resolved_flag(self):
        grid = Grid(dim=2, n=64)  # dx ~ 0.0982
        assert make_mollifier(grid, 0.3).resolved
        assert not make_mollifier(grid, 0.1).resolved

    def test_deterministic(self, grid32_2d):
        a = make_mollifier(grid32_2d, 0.25, "bump")
        b = make_mollifier(grid32_2d, 0.25, "bump")
        assert np.array_equal(a.values, b.values)

    def test_constants_are_fixed_points(self, grid16_2d):
        u = constant_field(grid16_2d, (0.3, -0.2, 0.9))
        for kind in ("gaussian", "bump"):
            J = make_mollifier(grid16_2d, 0.5, kind)
            out = mollify(J, u)
            assert np.max(np.abs(out.data - u.data)) <= 1e-14


@pytest.fixture(scope="module")
def family(grid64_2d):
    return [
        random_band_limited_field(grid64_2d, seed=s, decay_r=3.0) for s in range(6)
    ]


class TestProperties:
    """The five structural properties, asserted directly at their tolerances."""

    @pytest.mark.parametrize("kind", ["gaussian", "bump"])
    def test_commutes_with_derivatives(self, grid64_2d, family, kind):
        J = make_mollifier(grid64_2d, 0.2, kind)
        for f in family:
            df = gradient(f)[0]
            a = mollify(J, df)
            b = gradient(mollify(J, f))[0]
            assert norm(a - b, "l2") <= 1e-12 * max(norm(b, "l2"), 1e-300)

    def test_linf_bound_gaussian(self, grid64_2d, family):
        J = make_mollifier(grid64_2d, 0.3, "gaussian")
        for f in family:
            ratio = norm(mollify(J, f), "linf") / norm(f, "linf")
            assert ratio <= 1.0 + 1e-10

    def test_linf_bound_bump(self, grid64_2d, family):
        J = make_mollifier(grid64_2d, 0.3, "bump")
        for f in family:
            ratio = norm(mollify(J, f), "linf") / norm(f, "linf")
            assert ratio <= 1.0 + 1e-6

    @pytest.mark.parametrize("kind", ["gaussian", "bump"])
    def test_self_adjoint(self, grid64_2d, family, kind):
        J = make_mollifier(grid64_2d, 0.2, kind)
        for f, g in zip(family, family[1:]):
            lhs = inner_product(mollify(J, f), g)
            rhs = inner_product(f, mollify(J, g))
            scale = max(norm(f, "l2") * norm(g, "l2"), 1e-300)
            assert abs(lhs - rhs) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["gaussian", "bump"])
    def test_approximation_rate(self, grid64_2d, family, kind):
        """|| J_eps g - g ||_{H^1} <= C eps || g ||_{H^2}, slope >= 0.95."""
        eps_sweep = np.array([0.2, 0.1, 0.05])
        g0 = family[0]
        h2 = norm(g0, "hs", s=2)
        diffs = []
        for e in eps_sweep:
            J = make_mollifier(grid64_2d, float(e), kind)
            diffs.append(norm(mollify(J, g0) - g0, "hs", s=1))
        diffs = np.array(diffs)
        slope = np.polyfit(np.log(eps_sweep), np.log(diffs), 1)[0]
        assert slope >= 0.95
        cvals = diffs / (eps_sweep * h2)
        assert np.max(cvals) <= 0.71  # gaussian theory gives 1/sqrt(2)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 64), (3, 32)])
    @pytest.mark.parametrize("kind", ["gaussian", "bump"])
    def test_growth_exponent_per_dimension(self, dim, n, kind):
        """Operator-norm exponent of ||J_eps . ||_{H^k} <= C eps^{-k} ||.||_{L2}
        stays at or below k in every dimension."""
        grid = Grid(dim=dim, n=n)
        eps_sweep = np.array([0.4, 0.2, 0.1, 0.05])
        for k in (1, 2):
            opnorms = []
            for e in eps_sweep:
                J = make_mollifier(grid, float(e), kind)
                opnorms.append(np.max((1.0 + grid.ksq) ** (k / 2.0) * J.values))
            slope = np.polyfit(np.log(1 / eps_sweep), np.log(opnorms), 1)[0]
            assert slope <= k + 0.05

    def test_fixed_field_growth_carries_volume_factor(self, grid64_2d):
        """A fixed flat-spectrum field measures exponent about k + d/2 for the
        Linf variant (gaussian kind), the dimension-dependence the report
        tracks without asserting."""
        report = verify_mollifier_properties(
            make_mollifier(grid64_2d, 0.2, "gaussian")
        )
        by_name = {c.name: c for c in report.checks}
        for k in (1, 2):
            entry = by_name[f"linf_growth_exponent_k{k}"]
            assert entry.informational
            assert abs(entry.measured - (k + 1.0)) <= 0.35


class TestVerifyReport:
    @pytest.mark.parametrize("kind", ["gaussian", "bump"])
    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 32)])
    def test_all_properties_pass(self, kind, dim, n):
        grid = Grid(dim=dim, n=n)
        report = verify_mollifier_properties(make_mollifier(grid, 0.3, kind))
        assert report.all_passed, report.to_text()
        asserted = [c for c in report.checks if not c.informational]
        assert len(asserted) >= 8

    def test_report_text(self, grid32_2d):
        report = verify_mollifier_properties(make_mollifier(grid32_2d, 0.3))
        text = report.to_text()
        assert "PASS" in text and "gaussian" in text

    def test_report_deterministic(self, grid32_2d):
        a = verify_mollifier_properties(make_mollifier(grid32_2d, 0.3, "bump"))
        b = verify_mollifier_properties(make_mollifier(grid32_2d, 0.3, "bump"))
        assert [c.measured for c in a.checks] == [c.measured for c in b.checks]
