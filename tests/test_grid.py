"""Spectral core tests.

Oracles: transforms against direct O(N^2) DFT summation, norms and inner
products against explicit quadrature sums, spectral derivatives against an
8th-order centered finite-difference stencil. The direct-summation checks
run on 16-point-per-axis grids at 1e-12, the finite-difference check on a
64-point axis at 1e-8.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llbar.errors import DataError, GridMismatchError, UsageError
from llbar.grid import (
    PHYSICAL,
    SPECTRAL,
    Field,
    Grid,
    constant_field,
    gradient,
    inner_product,
    laplacian,
    norm,
    random_band_limited_field,
    to_physical,
    to_spectral,
)
from llbar.mollifier import make_mollifier, mollify

SPECTRAL_TOL = 1e-12
FD_TOL = 1e-8


# -- oracle implementations ---------------------------------------------------


def dft_matrix(n):
    """Unnormalized forward DFT matrix, direct construction."""
    m = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(m, m) / n)


def direct_dft(data, dim):
    """Direct-summation DFT over the trailing dim axes (component axis first)."""
    n = data.shape[-1]
    w = dft_matrix(n)
    out = data.astype(np.complex128)
    # contract each spatial axis with the DFT matrix
    for axis in range(1, dim + 1):
        out = np.tensordot(w, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out

def signed_modes(n):
    m = np.arange(n)
    m = np.where(m <= n // 2, m, m - n)
    return m


def oracle_ksq(grid):
    """|xi|^2 lattice built from first principles (no grid internals)."""
    m = signed_modes(grid.n) * (2 * np.pi / grid.box_length)
    axes = np.meshgrid(*([m] * grid.dim), indexing="ij")
    return sum(a**2 for a in axes)


def fd_gradient_axis0(values, dx):
    """8th-order centered first derivative along axis 0, periodic."""
    coeffs = [(1, 4 / 5), (2, -1 / 5), (3, 4 / 105), (4, -1 / 280)]
    out = np.zeros_like(values)
    for j, c in coeffs:
        out += c * (np.roll(values, -j, axis=0) - np.roll(values, j, axis=0)) / dx
    return out


# -- grid construction --------------------------------------------------------


class TestGrid:
    def test_geometry(self, grid16_2d):
        g = grid16_2d
        assert g.shape == (16, 16)
        assert g.npoints == 256
        assert g.cell_volume * g.npoints == pytest.approx(g.volume, rel=1e-15)

    def test_wavenumber_lattice_symmetric(self, grid16_1d):
        """Lattice covers [-n/2, n/2) scaled by 2*pi/L."""
        k = grid16_1d.k1
        assert k[0] == 0.0
        assert k[1] == pytest.approx(2 * np.pi / grid16_1d.box_length * 1, rel=1e-15)
        assert k.min() == pytest.approx(-8.0, rel=1e-15)
        assert k.max() == pytest.approx(7.0, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=0, n=16),
            dict(dim=4, n=16),
            dict(dim=2, n=15),
            dict(dim=2, n=6),
            dict(dim=2, n=16, box_length=-1.0),
            dict(dim=2, n=16, box_length=math.inf),
            dict(dim=2, n=16, box_length=math.nan),
        ],
    )
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(UsageError):
            Grid(**kwargs)

    def test_dealias_mask_cutoff(self, grid16_2d):
        g = grid16_2d
        cutoff = g.n // 3
        mx, my = g.mode_numbers
        keep = (np.abs(mx) <= cutoff) & (np.abs(my) <= cutoff)
        assert np.array_equal(g.dealias_mask, keep)


# -- transforms vs direct summation --------------------------------------------


class TestTransformOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_forward_matches_direct_dft(self, dim):
        """FFT agrees with direct O(N^2) summation on 16-point-per-axis grids."""
        grid = Grid(dim=dim, n=16)
        f = random_band_limited_field(grid, seed=7, decay_r=1.0, kmax=7)
        fs = to_spectral(f)
        oracle = direct_dft(f.data, dim)[..., : grid.n // 2 + 1]
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(fs.data - oracle)) <= SPECTRAL_TOL * scale

    def test_round_trip_identity(self, grid16_2d):
        f = random_band_limited_field(grid16_2d, seed=3)
        back = to_physical(to_spectral(f))
        assert np.max(np.abs(back.data - f.data)) <= SPECTRAL_TOL * np.max(
            np.abs(f.data)
        )

    def test_conjugate_asymmetric_spectrum_rejected(self, grid16_1d):
        """A coefficient that is its own mirror must be real: otherwise the
        spectrum is reported, not silently projected to a real field."""
        data = np.zeros((3, 9), dtype=np.complex128)
        data[0, 8] = 1.0 + 2.0j  # the Nyquist mode is its own conjugate partner
        with pytest.raises(DataError, match="conjugate symmetry"):
            Field(grid16_1d, data, SPECTRAL)

    def test_transforms_do_not_mutate_input(self, grid16_2d):
        f = random_band_limited_field(grid16_2d, seed=11)
        snapshot = f.data.copy()
        to_spectral(f)
        norm(f, "l2")
        assert np.array_equal(f.data, snapshot)


class TestSameBits:
    """Grid.rfftn and Grid.irfftn write their passes into one buffer; the
    results must equal the library calls bit for bit, so a numpy whose
    pass order differs shows here and not as a drift in seeded outputs."""

    CASES = [
        (dim, n, lead)
        for dim, n in ((1, 64), (2, 64), (2, 256), (3, 32))
        for lead in ((3,), (6,))
    ]

    @staticmethod
    def sample(dim, n, lead):
        grid = Grid(dim=dim, n=n)
        rng = np.random.default_rng(dim * 1000 + n + lead[0])
        return grid, rng.standard_normal(lead + grid.shape), tuple(range(-dim, 0))

    @pytest.mark.parametrize("dim,n,lead", CASES)
    def test_forward_equals_library(self, dim, n, lead):
        grid, a, axes = self.sample(dim, n, lead)
        assert np.array_equal(grid.rfftn(a), np.fft.rfftn(a, axes=axes))

    @pytest.mark.parametrize("dim,n,lead", CASES)
    def test_inverse_equals_library_and_keeps_its_input(self, dim, n, lead):
        grid, a, axes = self.sample(dim, n, lead)
        spectrum = np.fft.rfftn(a, axes=axes)
        for data in (spectrum, spectrum.real.copy()):
            before = data.copy()
            got = grid.irfftn(data)
            assert np.array_equal(got, np.fft.irfftn(data, s=grid.shape, axes=axes))
            assert np.array_equal(data, before)

    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 32)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_field_equals_library_inverse(self, monkeypatch, dim, n, seed):
        grid = Grid(dim=dim, n=n)
        field = random_band_limited_field(grid, seed=seed, amplitude=0.5)
        library = np.fft.ifftn
        monkeypatch.setattr(
            np.fft, "ifftn", lambda a, axes=None, out=None: library(a, axes=axes)
        )
        assert np.array_equal(
            field.data, random_band_limited_field(grid, seed=seed, amplitude=0.5).data
        )

    BAND_CASES = [(dim, n) for dim in (1, 2, 3) for n in (8, 10, 16)] + [(2, 64), (2, 256), (3, 32)]

    @staticmethod
    def band_sample(dim, n):
        """A real sample and the spectrum of that sample cut to the 2/3
        band; n=10 puts the band edge n//3 below n/3."""
        grid = Grid(dim=dim, n=n)
        rng = np.random.default_rng(7 * n + dim)
        a = rng.standard_normal((3,) + grid.shape)
        return grid, a, grid.rfftn(a) * grid.dealias_mask

    @pytest.mark.parametrize("dim,n", BAND_CASES)
    def test_band_inverse_has_the_full_inverse_bits_and_keeps_its_input(self, dim, n):
        grid, _, spectrum = self.band_sample(dim, n)
        before = spectrum.copy()
        got = grid.band_irfftn(spectrum)
        assert got.dtype == np.float64 and got.shape == (3,) + grid.shape
        assert got.tobytes() == grid.irfftn(spectrum).tobytes()
        assert spectrum.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dim,n", BAND_CASES)
    def test_band_forward_has_the_full_forward_bits_in_band(self, dim, n):
        grid, a, _ = self.band_sample(dim, n)
        band = grid.dealias_mask
        got = grid.band_rfftn(a)
        assert got.shape == (3,) + grid.spectral_shape
        assert got[:, band].tobytes() == grid.rfftn(a)[:, band].tobytes()

    @pytest.mark.parametrize("dim,n,lines", [(2, 64, [22]), (3, 32, [121, 110, 352])])
    def test_band_passes_cover_only_the_band_lines(self, dim, n, lines):
        """At 3d n=32 the first complex pass makes 231 of the 544 lines of
        the half lattice and the second 352; at 2d n=64 the pass makes 22
        of 33 columns."""
        grid = Grid(dim=dim, n=n)
        spectral = np.empty(grid.spectral_shape)
        assert [spectral[index].size // n for _, index in grid.band_passes] == lines
        assert Grid(dim=1, n=n).band_passes == ()


# -- norms and inner products ---------------------------------------------------


class TestNorms:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_l2_matches_quadrature_oracle(self, dim):
        grid = Grid(dim=dim, n=16)
        f = random_band_limited_field(grid, seed=5, decay_r=1.5, kmax=7)
        oracle = np.sqrt(np.sum(f.data**2) * grid.cell_volume)
        assert norm(f, "l2") == pytest.approx(oracle, rel=SPECTRAL_TOL)

    def test_parseval(self, grid64_2d):
        """Quadrature and Parseval evaluations of L2 agree."""
        f = random_band_limited_field(grid64_2d, seed=1)
        quad = np.sqrt(np.sum(f.data**2) * grid64_2d.cell_volume)
        assert norm(f, "l2") == pytest.approx(quad, rel=SPECTRAL_TOL)

    def test_hs_matches_lattice_oracle(self, grid16_2d):
        g = grid16_2d
        f = random_band_limited_field(g, seed=9, decay_r=1.0, kmax=7)
        spectrum = direct_dft(f.data, g.dim)
        weight = (1.0 + oracle_ksq(g)) ** 2
        oracle = np.sqrt(
            np.sum(weight * np.abs(spectrum) ** 2) * g.cell_volume / g.npoints
        )
        assert norm(f, "hs", s=2) == pytest.approx(oracle, rel=SPECTRAL_TOL)

    def test_h0_equals_l2(self, grid16_2d):
        f = random_band_limited_field(grid16_2d, seed=2)
        assert norm(f, "hs", s=0) == pytest.approx(norm(f, "l2"), rel=SPECTRAL_TOL)

    def test_l4_and_linf_quadrature(self, grid16_2d):
        g = grid16_2d
        f = random_band_limited_field(g, seed=4)
        mag2 = np.sum(f.data**2, axis=0)
        l4_oracle = (np.sum(mag2**2) * g.cell_volume) ** 0.25
        linf_oracle = np.sqrt(np.max(mag2))
        assert norm(f, "l4") == pytest.approx(l4_oracle, rel=SPECTRAL_TOL)
        assert norm(f, "linf") == pytest.approx(linf_oracle, rel=SPECTRAL_TOL)

    def test_constant_field_norms(self, grid16_3d):
        """For u = (0,0,1): all Lp norms equal V^(1/p), Linf equals 1."""
        g = grid16_3d
        u = constant_field(g, (0.0, 0.0, 1.0))
        assert norm(u, "l2") == pytest.approx(np.sqrt(g.volume), rel=1e-14)
        assert norm(u, "l4") == pytest.approx(g.volume**0.25, rel=1e-14)
        assert norm(u, "linf") == pytest.approx(1.0, rel=1e-14)

    def test_hs_requires_order(self, grid16_1d):
        f = constant_field(grid16_1d, (1.0, 0.0, 0.0))
        with pytest.raises(UsageError):
            norm(f, "hs")
        with pytest.raises(UsageError):
            norm(f, "h2")

    def test_inner_product_matches_direct_sum(self, grid16_2d):
        g = grid16_2d
        f = random_band_limited_field(g, seed=6)
        h = random_band_limited_field(g, seed=7)
        oracle = np.sum(f.data * h.data) * g.cell_volume
        assert inner_product(f, h) == pytest.approx(oracle, rel=SPECTRAL_TOL)

    def test_grid_mismatch_rejected(self, grid16_2d, grid32_2d):
        f = constant_field(grid16_2d, (1.0, 0.0, 0.0))
        h = constant_field(grid32_2d, (1.0, 0.0, 0.0))
        with pytest.raises(GridMismatchError):
            inner_product(f, h)


# -- derivatives ----------------------------------------------------------------


class TestDerivatives:
    def test_gradient_matches_fd_oracle_1d(self):
        """Spectral d/dx vs 8th-order centered differences on a 64-point axis."""
        grid = Grid(dim=1, n=64)
        f = random_band_limited_field(grid, seed=0, decay_r=2.0, kmax=2)
        (gx,) = gradient(f)
        oracle = np.stack([fd_gradient_axis0(f.data[c], grid.dx) for c in range(3)])
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(gx.data - oracle)) <= FD_TOL * scale

    def test_gradient_matches_fd_oracle_2d(self):
        grid = Grid(dim=2, n=64)
        f = random_band_limited_field(grid, seed=1, decay_r=2.0, kmax=2)
        gx = gradient(f)[0]
        oracle = np.stack([fd_gradient_axis0(f.data[c], grid.dx) for c in range(3)])
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(gx.data - oracle)) <= FD_TOL * scale

    def test_gradient_exact_on_single_mode(self, grid16_1d):
        g = grid16_1d
        x = g.x1
        data = np.zeros((3, g.n))
        data[1] = np.sin(3 * x)
        f = Field(g, data, PHYSICAL)
        (gx,) = gradient(f)
        expected = 3 * np.cos(3 * x)
        assert np.max(np.abs(gx.data[1] - expected)) <= 1e-13 * 3

    def test_nyquist_mode_zeroed(self, grid16_1d):
        """Odd-derivative symbol must kill the Nyquist mode so output stays real."""
        g = grid16_1d
        data = np.zeros((3, g.n // 2 + 1), dtype=np.complex128)
        data[0, g.n // 2] = float(g.n)  # pure Nyquist content, real spectrum
        f = Field(g, data, SPECTRAL)
        (gx,) = gradient(f)
        assert np.max(np.abs(gx.data)) == 0.0

    def test_laplacian_matches_ibp(self, grid16_2d):
        """(lap f, g) = -(grad f, grad g) via independent code paths."""
        g = grid16_2d
        f = random_band_limited_field(g, seed=8)
        h = random_band_limited_field(g, seed=9)
        lhs = inner_product(laplacian(f), h)
        rhs = -sum(
            inner_product(df, dh) for df, dh in zip(gradient(f), gradient(h))
        )
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) <= SPECTRAL_TOL * scale

    def test_integration_by_parts_first_order(self, grid16_2d):
        g = grid16_2d
        f = random_band_limited_field(g, seed=10)
        h = random_band_limited_field(g, seed=11)
        for df, dh in zip(gradient(f), gradient(h)):
            lhs = inner_product(df, h)
            rhs = -inner_product(f, dh)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) <= SPECTRAL_TOL * scale


# -- multiplier algebra -----------------------------------------------------------


class TestMultipliers:
    def test_composition(self, grid16_2d):
        """Applying lap twice equals multiplying by |xi|^4 once."""
        g = grid16_2d
        f = random_band_limited_field(g, seed=12)
        twice = laplacian(laplacian(f))
        once = to_physical(Field(g, g.ksq**2 * to_spectral(f).data, SPECTRAL))
        scale = max(np.max(np.abs(once.data)), 1e-300)
        assert np.max(np.abs(twice.data - once.data)) <= SPECTRAL_TOL * scale

    def test_representation_preserved(self, grid16_2d):
        f = random_band_limited_field(grid16_2d, seed=14)
        fs = to_spectral(f)
        J = make_mollifier(grid16_2d, 0.3)
        for apply in (laplacian, lambda h: mollify(J, h)):
            assert apply(f).representation == PHYSICAL
            assert apply(fs).representation == SPECTRAL

    def test_symbol_shape_validated(self, grid16_2d, grid32_2d):
        """A mollifier symbol built on another grid is rejected."""
        J = make_mollifier(grid32_2d, 0.3)
        f = constant_field(grid16_2d, (1.0, 0.0, 0.0))
        with pytest.raises(GridMismatchError):
            mollify(J, f)


# -- seeded field generator --------------------------------------------------------


class TestRandomFields:
    def test_deterministic(self, grid32_2d):
        a = random_band_limited_field(grid32_2d, seed=21)
        b = random_band_limited_field(grid32_2d, seed=21)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self, grid32_2d):
        a = random_band_limited_field(grid32_2d, seed=21)
        b = random_band_limited_field(grid32_2d, seed=22)
        assert not np.array_equal(a.data, b.data)

    def test_band_limit_respected(self, grid32_2d):
        f = random_band_limited_field(grid32_2d, seed=23, kmax=5)
        fs = to_spectral(f)
        mx, my = grid32_2d.mode_numbers
        outside = (np.abs(mx) > 5) | (np.abs(my) > 5)
        assert np.max(np.abs(fs.data[:, outside])) <= 1e-12 * np.max(np.abs(fs.data))

    def test_amplitude_normalization(self, grid32_2d):
        f = random_band_limited_field(grid32_2d, seed=24, amplitude=0.5)
        assert norm(f, "linf") == pytest.approx(0.5, rel=1e-13)

    def test_spectrum_profile(self, grid32_2d):
        """Coefficient magnitudes follow (1+|xi|^2)^(-r) away from
        self-conjugate modes, up to the global rescale."""
        g = grid32_2d
        f = random_band_limited_field(g, seed=25, decay_r=2.0, kmax=9)
        fs = to_spectral(f)
        mx, my = g.mode_numbers
        probe = (mx == 3) & (my == 1)
        ref = (mx == 1) & (my == 0)
        expected_ratio = ((1.0 + 10.0) / (1.0 + 1.0)) ** -2.0
        measured = np.abs(fs.data[0][probe][0]) / np.abs(fs.data[0][ref][0])
        assert measured == pytest.approx(expected_ratio, rel=1e-10)

    def test_kmax_validation(self, grid16_2d):
        with pytest.raises(UsageError):
            random_band_limited_field(grid16_2d, seed=0, kmax=8)


# -- property-based checks ----------------------------------------------------------


class TestProperties:
    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([1, 2]))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed, dim):
        grid = Grid(dim=dim, n=16)
        f = random_band_limited_field(grid, seed=seed)
        back = to_physical(to_spectral(f))
        assert np.max(np.abs(back.data - f.data)) <= 1e-12 * max(
            np.max(np.abs(f.data)), 1e-300
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_parseval_property(self, seed):
        grid = Grid(dim=2, n=16)
        f = random_band_limited_field(grid, seed=seed)
        quad = np.sqrt(np.sum(f.data**2) * grid.cell_volume)
        assert norm(f, "l2") == pytest.approx(quad, rel=1e-12)

    @given(seed=st.integers(0, 10_000), scale=st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_multiplier_linearity(self, seed, scale):
        grid = Grid(dim=1, n=16)
        f = random_band_limited_field(grid, seed=seed)
        h = random_band_limited_field(grid, seed=seed + 1)
        left = laplacian(f + h * scale)
        right = laplacian(f) + laplacian(h) * scale
        bound = 1e-12 * max(np.max(np.abs(right.data)), 1.0)
        assert np.max(np.abs(left.data - right.data)) <= bound

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_sobolev_ordering(self, seed):
        """H^2 >= H^1 >= L2 pointwise in the multiplier, hence in the norm."""
        grid = Grid(dim=2, n=16)
        f = random_band_limited_field(grid, seed=seed)
        l2 = norm(f, "l2")
        h1 = norm(f, "hs", s=1)
        h2 = norm(f, "hs", s=2)
        assert h2 >= h1 * (1 - 1e-12)
        assert h1 >= l2 * (1 - 1e-12)
