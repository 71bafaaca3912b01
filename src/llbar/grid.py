"""Spectral core: periodic grids, R^3-valued fields, spectral derivatives and norms.

Conventions. The torus is [0, L)^dim sampled on n points per axis. Forward
transforms are unnormalized and the inverse carries the 1/N factor (numpy's
default), so mode m on an axis represents the wavenumber xi = 2*pi*m/L with
m in [-n/2, n/2). L2 and H^s norms are evaluated spectrally via Parseval;
L4 and Linf use collocation quadrature of the pointwise Euclidean magnitude.
All operations are pure: they return new Field objects and never mutate
their inputs.

Half lattice. A real field's spectrum is Hermitian, u_hat(-m) = conj(u_hat(m)),
so a spectral Field holds only the real-transform half `[..., :n//2+1]` of
the last axis, the layout of numpy's rfftn/irfftn, and every transform in
the package is real except the seeded generator's full-lattice draw. The
wavenumbers, symbols and dealiasing mask live on that lattice, and Parseval
sums weight each mode by how often it occurs in the full lattice. Spectral
data entering from outside is checked at Field construction: only the
self-mirrored planes (last-axis index 0 and n/2) can violate the symmetry.

One buffer per transform. A forward transform writes its real pass and
each complex pass into one output array; an inverse makes its leading
complex passes in place in one copy of its input, in the library's axis
order, and ends with the real pass. Both give numpy's rfftn/irfftn bits
exactly. The out= argument of numpy.fft they rely on needs numpy >= 2.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, GridMismatchError, UsageError

PHYSICAL = "physical"
SPECTRAL = "spectral"

# A spectrum of real data may miss conjugate symmetry by at most this much
# relative to its largest coefficient.  Transform roundoff, amplified
# through the quartic symbol, reaches ~1e-11 relative on 64-per-axis grids;
# genuine conjugate-symmetry bugs sit at O(1).  The guard separates the two
# regimes.
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
        if not (isinstance(self.box_length, (int, float)) and 0 < self.box_length < math.inf):
            raise UsageError(f"box_length must be positive and finite, got {self.box_length!r}")

    # -- geometry -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of the half lattice: the last axis keeps modes 0..n/2."""
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

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

    # -- wavenumber lattice (the half lattice) --------------------------------

    @cached_property
    def k1(self) -> np.ndarray:
        """Wavenumbers along one full axis, fft ordering."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def _per_axis(self, full: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, ...]:
        """One array per axis, broadcastable against half-lattice arrays:
        `full` along the leading axes, `last` along the last one."""
        out = []
        for axis in range(self.dim):
            values = last if axis == self.dim - 1 else full
            shape = [1] * self.dim
            shape[axis] = values.size
            out.append(values.reshape(shape))
        return tuple(out)

    @cached_property
    def k(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumbers; the last axis runs over 0..n/2."""
        return self._per_axis(self.k1, 2 * np.pi * np.fft.rfftfreq(self.n, d=self.dx))

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
        """|xi|^2, shape == spectral_shape."""
        return sum(ka**2 for ka in self.k)

    @cached_property
    def kodd_sq(self) -> np.ndarray:
        """Sum over axes of the Nyquist-zeroed k_odd^2: the gradient's
        Parseval symbol."""
        return sum(ka**2 for ka in self.k_odd)

    @cached_property
    def mode_numbers(self) -> tuple[np.ndarray, ...]:
        """Per-axis integer mode numbers m (signed, fft ordering; 0..n/2 on
        the last axis)."""
        m1 = np.rint(np.fft.fftfreq(self.n, d=1.0 / self.n)).astype(int)
        return self._per_axis(m1, np.arange(self.n // 2 + 1))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep |m| <= n//3 on every axis."""
        cutoff = self.n // 3
        mask = np.ones(self.spectral_shape, dtype=bool)
        for ma in self.mode_numbers:
            mask = mask & (np.abs(ma) <= cutoff)
        return mask

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

    # -- real transforms over the trailing dim axes ---------------------------

    def rfftn(self, a: np.ndarray) -> np.ndarray:
        """np.fft.rfftn over the trailing dim axes, every pass written into
        one output array."""
        out = np.empty(a.shape[: a.ndim - self.dim] + self.spectral_shape, np.complex128)
        return np.fft.rfftn(a, axes=tuple(range(-self.dim, 0)), out=out)

    def irfftn(self, a: np.ndarray) -> np.ndarray:
        """np.fft.irfftn(a, s=shape) over the trailing dim axes, with the
        leading complex passes made in place in one copy of a, in the
        library's axis order; a itself is never modified."""
        buf = np.array(a, dtype=np.complex128)
        for axis in range(-self.dim, -1):
            np.fft.ifft(buf, axis=axis, out=buf)
        return np.fft.irfftn(buf, s=(self.n,), axes=(-1,))

    def compatible(self, other: "Grid") -> bool:
        return (
            self.dim == other.dim
            and self.n == other.n
            and self.box_length == other.box_length
        )


def negate_modes(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
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


def check_conjugate_symmetry(a, axes, scale, what="spectral field") -> None:
    """Reject spectral data that no real field has, without a transform:
    u_hat(-m), the mode negated on `axes`, must equal conj(u_hat(m)) to
    IMAG_TOL relative to the largest coefficient `scale`."""
    gap = np.max(np.abs(a - np.conj(negate_modes(a, tuple(axes)))))
    if scale > 0 and gap > IMAG_TOL * scale:
        raise DataError(
            f"{what} is not Hermitian: max |u(m) - conj u(-m)| = "
            f"{gap:.3e} exceeds {IMAG_TOL:.0e} x largest coefficient "
            f"{scale:.3e} (spectrum lacks conjugate symmetry)"
        )


@dataclass(eq=False)
class Field:
    """R^3-valued samples on a Grid, stored component-first.

    Physical data is float64 of shape (3, *grid.shape); spectral data is
    the complex128 half spectrum of shape (3, *grid.spectral_shape), in
    unnormalized forward-transform scaling. Spectral data given here must
    be conjugate-symmetric (DataError otherwise).
    """

    grid: Grid
    data: np.ndarray
    representation: str = PHYSICAL

    def __post_init__(self):
        self._check_layout()
        if self.representation == SPECTRAL:
            # off the self-mirrored last-axis planes 0 and n/2, every
            # mode's mirror is implicit
            planes = self.data[..., [0, self.grid.n // 2]]
            scale = np.max(np.abs(self.data))
            check_conjugate_symmetry(planes, range(-self.grid.dim, -1), scale)

    def _check_layout(self):
        """Representation, shape and dtype: checked for every Field."""
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise UsageError(f"unknown representation {self.representation!r}")
        spectral = self.representation == SPECTRAL
        expected = (3,) + (self.grid.spectral_shape if spectral else self.grid.shape)
        if self.data.shape != expected:
            raise DataError(
                f"{self.representation} field data shape {self.data.shape} "
                f"!= expected {expected}"
            )
        if not spectral:
            if not np.isrealobj(self.data):
                raise DataError("physical field data must be real-valued")
            if self.data.dtype != np.float64:
                self.data = self.data.astype(np.float64)
        elif self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    def copy(self) -> "Field":
        return _derived(self.grid, self.data.copy(), self.representation)

    # Small arithmetic conveniences for same-representation fields.

    def _binary(self, other, op):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            if other.representation != self.representation:
                raise UsageError("cannot combine fields in different representations")
            return _derived(self.grid, op(self.data, other.data), self.representation)
        return _derived(self.grid, op(self.data, other), self.representation)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return _derived(self.grid, self.data * scalar, self.representation)

    __rmul__ = __mul__

    def __neg__(self):
        return _derived(self.grid, -self.data, self.representation)


def _derived(grid: Grid, data: np.ndarray, representation: str = SPECTRAL) -> Field:
    """A Field computed from validated Fields. It gets the layout check
    but not the conjugate-symmetry check: computed spectra inherit the
    symmetry, and the check would misread the roundoff left by a
    difference of nearly equal fields."""
    f = object.__new__(Field)
    f.grid, f.data, f.representation = grid, data, representation
    f._check_layout()
    return f


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
    return _derived(f.grid, f.grid.rfftn(f.data))


def to_physical(f: Field) -> Field:
    if f.representation == PHYSICAL:
        return f
    return Field(f.grid, f.grid.irfftn(f.data), PHYSICAL)


# -- derivatives --------------------------------------------------------------


def gradient(f: Field) -> tuple[Field, ...]:
    """Spectral partial derivatives along each axis, Nyquist mode zeroed.

    Returns one R^3-valued Field per axis, in the input's representation.
    """
    return tuple(_partials(f))


def _partials(f: Field):
    """The fields of gradient(f), made one at a time."""
    fs = to_spectral(f)
    for ka in f.grid.k_odd:
        g = _derived(f.grid, (1j * ka)[np.newaxis] * fs.data)
        yield g if f.representation == SPECTRAL else to_physical(g)


def laplacian(f: Field) -> Field:
    """Spectral Laplacian, the symbol -|xi|^2; in the input's representation."""
    out = _derived(f.grid, -f.grid.ksq * to_spectral(f).data)
    return out if f.representation == SPECTRAL else to_physical(out)


# -- norms and inner products -------------------------------------------------


def _spectral_weighted_sq(f: Field, weight) -> float:
    total = np.sum(weight * f.grid.mode_density(to_spectral(f).data))
    return float(total) * (f.grid.cell_volume / f.grid.npoints)


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
        pair = np.real(f.data * np.conj(g.data))
        total = np.sum(f.grid.parseval_weights * pair)
        return float(total) * (f.grid.cell_volume / f.grid.npoints)
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

    The draw and its inverse transform run on the full lattice, with a
    complex transform, which fixes the bits of seeded data.
    """
    if kmax is None:
        kmax = grid.n // 3
    if not 0 <= kmax <= grid.n // 2 - 1:
        raise UsageError(f"kmax must lie in [0, n/2 - 1], got {kmax}")
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)

    m1 = np.rint(np.fft.fftfreq(grid.n, d=1.0 / grid.n)).astype(int)
    ksq = np.zeros(grid.shape)
    band = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        ksq = ksq + grid.k1.reshape(shape) ** 2
        band = band & (np.abs(m1.reshape(shape)) <= kmax)
    profile = (1.0 + ksq) ** (-decay_r)
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

    phys = np.fft.ifftn(data, axes=tuple(range(1, grid.dim + 1)), out=data).real
    peak = float(np.sqrt(np.max(np.sum(phys**2, axis=0))))
    if peak == 0.0:
        raise DataError("generated field is identically zero")
    return Field(grid, phys * (amplitude / peak), PHYSICAL)
