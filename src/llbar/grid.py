"""Spectral core: periodic grids, R^3-valued fields, and Fourier-multiplier calculus.

Conventions. The torus is [0, L)^dim sampled on n points per axis. Forward
transforms are unnormalized and the inverse carries the 1/N factor (numpy's
default), so mode m on an axis represents the wavenumber xi = 2*pi*m/L with
m in [-n/2, n/2). L2 and H^s norms are evaluated spectrally via Parseval;
L4 and Linf use collocation quadrature of the pointwise Euclidean magnitude.
All operations are pure: they return new Field objects and never mutate
their inputs.

Half lattice. A real field's spectrum is Hermitian, u_hat(-m) = conj(u_hat(m)),
so the hot paths (time stepping, the nonlinear right-hand side and the
per-report observables) work on the real-transform half `[..., :n//2+1]`
of the last axis, the layout of numpy's rfftn/irfftn. Grid caches the
half-lattice symbols and the Parseval weights that count each mirrored
mode twice, cuts a full spectrum to its half, and expands a half spectrum
back to the full lattice, which Field keeps. The integrator holds its
state as a half spectrum and builds a full one only for data it hands out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, GridMismatchError, UsageError

PHYSICAL = "physical"
SPECTRAL = "spectral"

# Fields produced by real dynamics may carry at most this much relative
# imaginary contamination when transformed back to physical space.  Roundoff
# amplified through the quartic symbol reaches ~1e-11 relative on 64-per-axis
# grids; genuine conjugate-symmetry bugs sit at O(1).  The guard separates
# the two regimes.  check_conjugate_symmetry applies the same bound to the
# mismatch between u_hat(m) and conj(u_hat(-m)) without a transform.
IMAG_TOL = 1e-9


@dataclass(eq=False)
class Grid:
    """Uniform periodic grid on [0, L)^dim, same even point count n per axis."""

    dim: int
    n: int
    box_length: float = 2 * math.pi

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise UsageError(f"dim must be 1, 2, or 3, got {self.dim!r}")
        if not isinstance(self.n, int) or self.n < 8 or self.n % 2:
            raise UsageError(f"n must be an even integer >= 8, got {self.n!r}")
        if not (isinstance(self.box_length, (int, float)) and self.box_length > 0):
            raise UsageError(f"box_length must be positive, got {self.box_length!r}")

    # -- geometry -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n**self.dim

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def volume(self) -> float:
        return self.box_length**self.dim

    @cached_property
    def x1(self) -> np.ndarray:
        """Sample coordinates along one axis."""
        return np.arange(self.n) * self.dx

    # -- wavenumber lattice --------------------------------------------------

    @cached_property
    def k1(self) -> np.ndarray:
        """Wavenumbers along one axis, fft ordering."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def k(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumbers, broadcastable against grid-shaped arrays."""
        out = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n
            out.append(self.k1.reshape(shape))
        return tuple(out)

    @cached_property
    def k_odd(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumbers with the Nyquist mode zeroed.

        Odd-order derivative symbols must vanish at the Nyquist mode, else a
        real field acquires an imaginary response there.
        """
        out = []
        for axis, ka in enumerate(self.k):
            kz = ka.copy()
            idx = [slice(None)] * self.dim
            idx[axis] = self.n // 2
            kz[tuple(idx)] = 0.0
            out.append(kz)
        return tuple(out)

    @cached_property
    def ksq(self) -> np.ndarray:
        """|xi|^2 on the full lattice, shape == grid.shape."""
        out = np.zeros(self.shape)
        for ka in self.k:
            out = out + ka**2
        return out

    @cached_property
    def mode_numbers(self) -> tuple[np.ndarray, ...]:
        """Per-axis integer mode numbers m (signed, fft ordering)."""
        m1 = np.rint(np.fft.fftfreq(self.n, d=1.0 / self.n)).astype(int)
        out = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n
            out.append(m1.reshape(shape))
        return tuple(out)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep |m| <= n//3 on every axis."""
        cutoff = self.n // 3
        mask = np.ones(self.shape, dtype=bool)
        for ma in self.mode_numbers:
            mask = mask & (np.abs(ma) <= cutoff)
        return mask

    # -- half lattice (last axis 0..n//2, the rfftn layout) -------------------

    @cached_property
    def ksq_half(self) -> np.ndarray:
        return self.half_spectrum(self.ksq)

    @cached_property
    def dealias_mask_half(self) -> np.ndarray:
        return self.half_spectrum(self.dealias_mask)

    @cached_property
    def kodd_sq_half(self) -> np.ndarray:
        """Sum over axes of the Nyquist-zeroed k_odd^2: the gradient's
        Parseval symbol."""
        out = np.zeros(self.shape)
        for ka in self.k_odd:
            out = out + ka**2
        return self.half_spectrum(out)

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Multiplicity of each half-lattice mode in the full-lattice sum:
        1 on the self-mirrored last-axis planes 0 and n/2, else 2."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    def mode_density(self, half: np.ndarray) -> np.ndarray:
        """Sum over components of |u_hat|^2 per half-lattice mode, weighted
        so that its sum is the full-lattice Parseval sum."""
        return self.parseval_weights * np.sum(half.real**2 + half.imag**2, axis=0)

    def half_spectrum(self, full: np.ndarray) -> np.ndarray:
        """The half (..., n//2+1) of a full spectrum (a view)."""
        return full[..., : self.n // 2 + 1]

    def full_spectrum(self, half: np.ndarray) -> np.ndarray:
        """Expand a half spectrum (..., n//2+1) to the full Hermitian one:
        last-axis index j > n/2 holds conj(u_hat(-m))."""
        h = self.n // 2 + 1
        out = np.empty(half.shape[:-1] + (self.n,), dtype=np.complex128)
        out[..., :h] = half
        upper = _negate_modes(half[..., h - 2 : 0 : -1], tuple(range(-self.dim, -1)))
        np.conj(upper, out=out[..., h:])
        return out

    def compatible(self, other: "Grid") -> bool:
        return (
            self.dim == other.dim
            and self.n == other.n
            and self.box_length == other.box_length
        )


def _negate_modes(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """a with the mode at index i moved to index -i (mod n) on each axis."""
    if not axes:
        return a
    return np.roll(np.flip(a, axes), (1,) * len(axes), axes)


def _check_same_grid(a, b):
    ga = a.grid if isinstance(a, Field) else a
    gb = b.grid if isinstance(b, Field) else b
    if ga is not gb and not ga.compatible(gb):
        raise GridMismatchError(
            f"grid mismatch: {ga.dim}d n={ga.n} L={ga.box_length} vs "
            f"{gb.dim}d n={gb.n} L={gb.box_length}"
        )


@dataclass(eq=False)
class Field:
    """R^3-valued samples on a Grid, stored component-first, shape (3, *grid.shape).

    Physical data is float64; spectral data is complex128 in unnormalized
    forward-transform scaling.
    """

    grid: Grid
    data: np.ndarray
    representation: str = PHYSICAL

    def __post_init__(self):
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise UsageError(f"unknown representation {self.representation!r}")
        expected = (3,) + self.grid.shape
        if self.data.shape != expected:
            raise DataError(
                f"field data shape {self.data.shape} != expected {expected}"
            )
        if self.representation == PHYSICAL:
            if not np.isrealobj(self.data):
                raise DataError("physical field data must be real-valued")
            if self.data.dtype != np.float64:
                self.data = self.data.astype(np.float64)
        else:
            if self.data.dtype != np.complex128:
                self.data = self.data.astype(np.complex128)

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(1, self.grid.dim + 1))

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy(), self.representation)

    # Small arithmetic conveniences for same-representation fields.

    def _binary(self, other, op):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            if other.representation != self.representation:
                raise UsageError("cannot combine fields in different representations")
            return Field(self.grid, op(self.data, other.data), self.representation)
        return Field(self.grid, op(self.data, other), self.representation)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return Field(self.grid, self.data * scalar, self.representation)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.data, self.representation)


def constant_field(grid: Grid, vector) -> Field:
    """Spatially constant field with the given 3-vector value."""
    vec = np.asarray(vector, dtype=np.float64)
    if vec.shape != (3,):
        raise UsageError(f"constant value must be a 3-vector, got shape {vec.shape}")
    data = np.broadcast_to(vec.reshape((3,) + (1,) * grid.dim), (3,) + grid.shape)
    return Field(grid, np.ascontiguousarray(data), PHYSICAL)


# -- transforms ---------------------------------------------------------------


def to_spectral(f: Field) -> Field:
    if f.representation == SPECTRAL:
        return f
    data = np.fft.fftn(f.data, axes=f.spatial_axes)
    return Field(f.grid, data, SPECTRAL)


def to_physical(f: Field) -> Field:
    """Inverse transform; rejects spectra inconsistent with a real field."""
    if f.representation == PHYSICAL:
        return f
    data = np.fft.ifftn(f.data, axes=f.spatial_axes)
    scale = np.max(np.abs(data))
    imag = np.max(np.abs(data.imag))
    if scale > 0 and imag > IMAG_TOL * scale:
        raise DataError(
            f"non-real inverse transform: max |imag| = {imag:.3e} "
            f"exceeds {IMAG_TOL:.0e} x magnitude {scale:.3e} "
            "(spectrum lacks conjugate symmetry)"
        )
    return Field(f.grid, data.real.copy(), PHYSICAL)


def check_conjugate_symmetry(f: Field) -> None:
    """Reject a spectrum that no real field has, without a transform:
    u_hat(-m) must equal conj(u_hat(m)) to IMAG_TOL relative to the
    largest coefficient."""
    mismatch = _negate_modes(f.data, tuple(range(-f.grid.dim, 0)))
    np.conj(mismatch, out=mismatch)
    mismatch -= f.data
    gap = np.max(np.abs(mismatch))
    scale = np.max(np.abs(f.data))
    if scale > 0 and gap > IMAG_TOL * scale:
        raise DataError(
            f"spectral field is not Hermitian: max |u(m) - conj u(-m)| = "
            f"{gap:.3e} exceeds {IMAG_TOL:.0e} x largest coefficient "
            f"{scale:.3e} (spectrum lacks conjugate symmetry)"
        )


# -- multiplier operators -----------------------------------------------------


@dataclass(eq=False)
class MultiplierOp:
    """Diagonal Fourier operator: componentwise multiplication by a real,
    radially even symbol evaluated on the wavenumber lattice."""

    grid: Grid
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise DataError(
                f"symbol shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.isrealobj(self.values):
            raise DataError("multiplier symbols must be real")

    def compose(self, other: "MultiplierOp") -> "MultiplierOp":
        _check_same_grid(self.grid, other.grid)
        return MultiplierOp(
            self.grid, self.values * other.values, f"{self.name}*{other.name}"
        )


def multiplier(grid: Grid, symbol, name: str = "") -> MultiplierOp:
    """Build a MultiplierOp from a scalar function of |xi|^2."""
    values = np.asarray(symbol(grid.ksq), dtype=np.float64)
    values = np.broadcast_to(values, grid.shape).copy()
    return MultiplierOp(grid, values, name)


def laplacian_op(grid: Grid) -> MultiplierOp:
    return multiplier(grid, lambda k2: -k2, "laplacian")


def bilaplacian_op(grid: Grid) -> MultiplierOp:
    return multiplier(grid, lambda k2: k2**2, "bilaplacian")


def bessel_op(grid: Grid, s: float) -> MultiplierOp:
    return multiplier(grid, lambda k2: (1.0 + k2) ** (s / 2.0), f"bessel^{s}")


def apply_multiplier(op: MultiplierOp, f: Field) -> Field:
    """Apply a diagonal operator; preserves the input representation."""
    _check_same_grid(op.grid, f)
    fs = to_spectral(f)
    out = Field(f.grid, op.values[np.newaxis] * fs.data, SPECTRAL)
    return out if f.representation == SPECTRAL else to_physical(out)


def dealias(f: Field) -> Field:
    """Zero all modes outside the 2/3-rule band; preserves representation."""
    fs = to_spectral(f)
    out = Field(f.grid, fs.data * f.grid.dealias_mask[np.newaxis], SPECTRAL)
    return out if f.representation == SPECTRAL else to_physical(out)


def gradient(f: Field) -> tuple[Field, ...]:
    """Spectral partial derivatives along each axis, Nyquist mode zeroed.

    Returns one R^3-valued Field per axis, in the input's representation.
    """
    fs = to_spectral(f)
    out = []
    for ka in f.grid.k_odd:
        g = Field(f.grid, (1j * ka)[np.newaxis] * fs.data, SPECTRAL)
        out.append(g if f.representation == SPECTRAL else to_physical(g))
    return tuple(out)


# -- norms and inner products -------------------------------------------------


def _spectral_weighted_sq(f: Field, weight) -> float:
    fs = to_spectral(f)
    total = np.sum(weight * np.abs(fs.data) ** 2)
    return float(total) * f.grid.cell_volume / f.grid.npoints


def _magnitude_sq(f: Field) -> np.ndarray:
    p = to_physical(f)
    return np.sum(p.data**2, axis=0)


def norm(f: Field, kind: str, s: float | None = None) -> float:
    """Norm of an R^3-valued field.

    kind: "l2" | "l4" | "linf" | "hs" (Bessel H^s; requires s). L2 and H^s
    are Parseval sums; L4 and Linf are collocation quadratures of the
    pointwise Euclidean magnitude.
    """
    if kind == "l2":
        return math.sqrt(_spectral_weighted_sq(f, 1.0))
    if kind == "hs":
        if s is None:
            raise UsageError("H^s norm requires the order s")
        return math.sqrt(_spectral_weighted_sq(f, (1.0 + f.grid.ksq) ** s))
    if kind == "l4":
        m2 = _magnitude_sq(f)
        return float(np.sum(m2**2) * f.grid.cell_volume) ** 0.25
    if kind == "linf":
        return float(np.sqrt(np.max(_magnitude_sq(f))))
    raise UsageError(f"unknown norm kind {kind!r}")


def inner_product(f: Field, g: Field) -> float:
    """L2 pairing of real fields: integral of sum_i f_i g_i.

    Both spectral: Parseval sum (avoids an inverse transform that would
    amplify high-mode roundoff through stiff symbols). Otherwise:
    collocation quadrature.
    """
    _check_same_grid(f, g)
    if f.representation == SPECTRAL and g.representation == SPECTRAL:
        total = np.real(np.sum(f.data * np.conj(g.data)))
        return float(total) * f.grid.cell_volume / f.grid.npoints
    fp, gp = to_physical(f), to_physical(g)
    return float(np.sum(fp.data * gp.data) * f.grid.cell_volume)


# -- seeded random fields -----------------------------------------------------


def random_band_limited_field(
    grid: Grid,
    seed: int,
    decay_r: float = 3.0,
    amplitude: float = 1.0,
    kmax: int | None = None,
) -> Field:
    """Seeded real field with |u_hat(xi)| proportional to (1+|xi|^2)^(-decay_r).

    Phases are uniform and independent per mode and component; conjugate
    symmetry is imposed exactly, so the coefficient magnitudes follow the
    profile exactly away from the self-conjugate modes. Modes with any
    |m| > kmax are zeroed (default kmax = n//3, the dealias band). The result
    is rescaled so its pointwise Euclidean Linf norm equals `amplitude`.
    """
    if kmax is None:
        kmax = grid.n // 3
    if not 0 <= kmax <= grid.n // 2 - 1:
        raise UsageError(f"kmax must lie in [0, n/2 - 1], got {kmax}")
    rng = np.random.default_rng(seed)

    profile = (1.0 + grid.ksq) ** (-decay_r)
    band = np.ones(grid.shape, dtype=bool)
    for ma in grid.mode_numbers:
        band = band & (np.abs(ma) <= kmax)
    profile = profile * band

    # Pair each lattice point m with -m (mod n); keep the draw on the
    # lexicographically smaller member, mirror the conjugate to the other,
    # and give self-conjugate modes a random sign.
    rev = (-np.arange(grid.n)) % grid.n
    flip = np.ix_(*([rev] * grid.dim))
    key = np.arange(grid.npoints).reshape(grid.shape)
    key_flip = key[flip]

    data = np.empty((3,) + grid.shape, dtype=np.complex128)
    for c in range(3):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
        a = profile * np.exp(1j * theta)
        a_mirror = np.conj(a[flip])
        self_conj = profile * np.where(theta < np.pi, 1.0, -1.0)
        data[c] = np.where(
            key < key_flip, a, np.where(key > key_flip, a_mirror, self_conj)
        )

    phys = to_physical(Field(grid, data, SPECTRAL))
    peak = norm(phys, "linf")
    if peak == 0.0:
        raise DataError("generated field is identically zero")
    return Field(grid, phys.data * (amplitude / peak), PHYSICAL)
