"""Mollification operators realized as Fourier symbols.

Two kinds. "gaussian" uses the closed-form symbol exp(-eps^2 |xi|^2 / 2).
"bump" tabulates the transform of the standard compactly supported radial
bump rho(r) = exp(-1/(1-r^2)) normalized to unit mass; its raw transform
has small negative side lobes, so the operational symbol is clipped to
[0, 1] and made radially nonincreasing (running minimum), and the
construction records how many radial shells were touched.

The bump transform is a vectorized trapezoid sum over blocks of radial
shells, on the fixed nodes s_j = j/N of [0, 1) with the s = 0 weight
halved. The radial integrands are rho(s) cos(rs) in 1d and rho(s) s^2
sinc(rs) in 3d. In 2d the profile is the cosine transform of the Abel
projection P(x) = 2 int_0^sqrt(1-x^2) rho(sqrt(x^2+y^2)) dy, itself
tabulated once on the same nodes by the same rule, so no Bessel function
is needed. Each integrand is even in s and vanishes with all derivatives
at s = 1, so its periodic extension is smooth and the trapezoid rule
converges faster than any power of 1/N (Trefethen & Weideman, SIAM Rev.
56, 2014). Each weight vector is divided by its own sum, the discrete unit
mass, so the symbol is 1 at the origin.

Both symbols equal 1 at xi = 0, so constants are exact fixed points.
verify_mollifier_properties measures the five structural properties of a
smoothing family: derivative commutation, the maximum-principle bound,
self-adjointness, the O(eps) approximation rate, and the eps^(-k)
derivative-growth exponent (measured as an operator norm over the symbol
lattice; a fixed test field additionally picks up a dimensional volume
factor eps^(-d/2), which is measured and reported but not asserted).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .grid import (
    SPECTRAL,
    Field,
    Grid,
    _check_same_grid,
    _derived,
    gradient,
    inner_product,
    laplacian,
    norm,
    random_band_limited_field,
    to_physical,
    to_spectral,
)

KINDS = ("gaussian", "bump")

# -- bump kernel transform ------------------------------------------------------

# trapezoid nodes on [0, 1): at 256 the sums agree with adaptive quadrature
# to roundoff up to the largest shell of 2d n=256 at eps = 1 (r = 181);
# at 64 they miss by up to 2e-8
_NODES = 256

# shells per block of the (shells x nodes) kernel: each row's sum is its
# own, so blocks give the one-shot bits while the temporaries stay near
# 128 KB each (the 690 shells of 3d n=32 took a 7.5 MB peak in one shot)
_ROWS = 64


def _bump(r):
    """The unnormalized bump exp(-1/(1 - r^2)) inside the unit ball, 0 outside."""
    gap = 1.0 - np.square(r)
    inside = gap > 0.0
    return np.where(inside, np.exp(-1.0 / np.where(inside, gap, 1.0)), 0.0)


@lru_cache(maxsize=3)
def _shell_weights(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and unit-mass trapezoid weights of the radial transform.

    1d: rho(s), paired with cos. 3d: rho(s) s^2, paired with sinc. 2d: the
    Abel projection P(x) = 2 int_0^sqrt(1-x^2) rho(sqrt(x^2+y^2)) dy of the
    bump onto a line, by the same rule in y, paired with cos.
    """
    s = np.arange(_NODES) / _NODES
    if dim == 2:
        rows = _bump(np.hypot(s[:, None], s))
        rows[:, 0] *= 0.5
        w = rows.sum(axis=1)
    else:
        w = _bump(s) * s ** (dim - 1)
    w[0] *= 0.5
    return s, w / w.sum()


def bump_profile(r, dim: int):
    """Raw transform of the unit-mass radial bump at radial frequency r.

    r may be a float or an array of them. This is the unclipped
    tabulation; make_mollifier post-processes it. Exposed so its values can
    be checked against independent quadrature.
    """
    if dim not in (1, 2, 3):
        raise UsageError(f"dim must be 1, 2, or 3, got {dim}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise UsageError("radial frequency must be nonnegative")
    s, w = _shell_weights(dim)
    flat = r.reshape(-1)
    sums = np.empty_like(flat)
    for start in range(0, flat.size, _ROWS):
        rs = np.multiply.outer(flat[start : start + _ROWS], s)
        kernel = np.sinc(rs / np.pi) if dim == 3 else np.cos(rs)
        sums[start : start + _ROWS] = (kernel * w).sum(axis=-1)
    out = np.where(r == 0.0, 1.0, sums.reshape(r.shape))
    return out if out.ndim else float(out)


# -- symbol construction ----------------------------------------------------------


@dataclass(eq=False)
class MollifierSymbol:
    """A smoothing operator J_eps as a real symbol on the wavenumber lattice.

    resolved: eps >= 2 * grid spacing, i.e. the kernel is wider than the
    mesh and eps-asymptotics are trustworthy on this grid. Constructions
    below that scale are allowed (some sweeps need them) but flagged.
    clipped_shells: number of radial shells where the bump tabulation was
    altered by the clip/monotonize post-processing (0 for gaussian).
    """

    grid: Grid
    eps: float
    kind: str
    values: np.ndarray = dc_field(repr=False)
    resolved: bool = True
    clipped_shells: int = 0


def make_mollifier(grid: Grid, eps: float, kind: str = "gaussian") -> MollifierSymbol:
    if kind not in KINDS:
        raise UsageError(f"unknown mollifier kind {kind!r}; choose from {KINDS}")
    if not (isinstance(eps, (int, float)) and 0.0 < eps <= 1.0):
        raise UsageError(f"eps must lie in (0, 1], got {eps!r}")
    eps = float(eps)

    if kind == "gaussian":
        values = np.exp(-0.5 * eps * eps * grid.ksq)
        clipped = 0
    else:
        # every |k|^2 shell of the full lattice occurs on the half lattice
        k2_unique, inverse = np.unique(grid.ksq, return_inverse=True)
        raw = bump_profile(eps * np.sqrt(k2_unique), grid.dim)
        prof = np.minimum.accumulate(np.clip(raw, 0.0, 1.0))
        clipped = int(np.sum(np.abs(prof - raw) > 1e-15))
        values = prof[inverse].reshape(grid.spectral_shape)

    return MollifierSymbol(
        grid=grid,
        eps=eps,
        kind=kind,
        values=values,
        resolved=bool(eps >= 2.0 * grid.dx),
        clipped_shells=clipped,
    )


def mollify(J: MollifierSymbol, f: Field) -> Field:
    """Apply J to an R^3-valued field; preserves the input representation."""
    _check_same_grid(J.grid, f)
    out = _derived(f.grid, J.values * to_spectral(f).data)
    return out if f.representation == SPECTRAL else to_physical(out)


# -- property verification ----------------------------------------------------------


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    measured: float
    bound: float | None = None
    detail: str = ""
    informational: bool = False


@dataclass
class MollifierReport:
    J: MollifierSymbol
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        J = self.J
        lines = [
            f"mollifier property report: kind={J.kind} dim={J.grid.dim} "
            f"n={J.grid.n} eps={J.eps:g} resolved={J.resolved} "
            f"clipped_shells={J.clipped_shells}"
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            if c.informational:
                status = "INFO"
            bound = f" bound={c.bound:g}" if c.bound is not None else ""
            lines.append(
                f"  {status:4s} {c.name:28s} measured={c.measured: .6e}{bound}"
                + (f"  [{c.detail}]" if c.detail else "")
            )
        return "\n".join(lines)


def _rel(a: float, scale: float) -> float:
    return a / scale if scale > 0 else a


def verify_mollifier_properties(J: MollifierSymbol) -> MollifierReport:
    """Measure the five smoothing-family properties for J's kind on J's grid.

    Rate and growth measurements construct sibling symbols of the same kind
    at eps = 0.4, 0.2, 0.1, 0.05; growth is measured for derivative orders
    1 and 2. The field checks run on a small seeded family of smooth
    band-limited fields on J.grid.
    """
    grid = J.grid
    fields = [
        random_band_limited_field(grid, seed=s, decay_r=3.0, amplitude=1.0)
        for s in range(5)
    ]
    checks = []

    # symbol shape: normalization, range, radial monotonicity
    zero_defect = abs(float(J.values.flat[0]) - 1.0)
    checks.append(PropertyCheck(
        "symbol_at_zero", zero_defect <= 1e-14, zero_defect, 1e-14,
        "symbol(0) = 1 so constants are fixed points"))
    vmin, vmax = float(J.values.min()), float(J.values.max())
    range_ok = vmax <= 1.0 + 1e-14 and (vmin > 0.0 if J.kind == "gaussian"
                                         else vmin >= 0.0)
    checks.append(PropertyCheck(
        "symbol_range", range_ok, vmin, None,
        f"max={vmax:.6e}; strict positivity required for gaussian only"))
    k2u, inv = np.unique(grid.ksq, return_inverse=True)
    prof = np.full(k2u.shape, np.inf)
    np.minimum.at(prof, inv.reshape(-1), J.values.ravel())
    mono_defect = float(np.max(np.diff(prof), initial=0.0))
    checks.append(PropertyCheck(
        "symbol_radially_nonincreasing", mono_defect <= 1e-14, mono_defect, 1e-14))

    # (i) commutation with derivatives
    worst = 0.0
    for f in fields:
        df = gradient(f)[0]
        a = mollify(J, df)
        b = gradient(mollify(J, f))[0]
        worst = max(worst, _rel(norm(a - b, "l2"), max(norm(b, "l2"), 1e-300)))
    checks.append(PropertyCheck(
        "commutes_with_derivative", worst <= 1e-12, worst, 1e-12))

    # (ii) maximum-principle bound in Linf
    worst = 0.0
    for f in fields:
        worst = max(worst, norm(mollify(J, f), "linf") / norm(f, "linf"))
    linf_bound = 1.0 + (1e-10 if J.kind == "gaussian" else 1e-6)
    checks.append(PropertyCheck(
        "linf_bound", worst <= linf_bound, worst, linf_bound,
        "positivity is structural for gaussian; bump symbol is clipped, "
        f"{J.clipped_shells} shells altered"))

    # (iii) self-adjointness
    worst = 0.0
    for f, g in zip(fields, fields[1:]):
        lhs = inner_product(mollify(J, f), g)
        rhs = inner_product(f, mollify(J, g))
        scale = max(norm(f, "l2") * norm(g, "l2"), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(PropertyCheck("self_adjoint", worst <= 1e-12, worst, 1e-12))

    # (iv) O(eps) approximation: || J_eps g - g ||_{H^1} <= C eps ||g||_{H^2}
    eps_sweep = (0.4, 0.2, 0.1, 0.05)
    sweep = [make_mollifier(grid, e, J.kind) for e in eps_sweep]
    g0 = fields[0]
    h2 = norm(g0, "hs", s=2)
    diffs = np.array([norm(mollify(Je, g0) - g0, "hs", s=1) for Je in sweep])
    slope = float(np.polyfit(np.log(eps_sweep), np.log(diffs), 1)[0])
    cmax = float(np.max(diffs / (np.array(eps_sweep) * h2)))
    checks.append(PropertyCheck(
        "approx_rate_slope", slope >= 0.95, slope, 0.95,
        f"smooth fields sit in the O(eps^2) regime; C_max={cmax:.3e}"))
    checks.append(PropertyCheck(
        "approx_rate_constant", True, cmax, None,
        "measured C in ||J_eps g - g||_H1 <= C eps ||g||_H2", informational=True))

    # (v) derivative growth || J_eps f ||_{H^k} <= C eps^{-k} ||f||_{L2}:
    # asserted on the operator norm over the lattice, whose exponent is k.
    log_inv_eps = np.log(1.0 / np.array(eps_sweep))
    for k in (1, 2):
        opnorms = np.array([
            float(np.max((1.0 + grid.ksq) ** (k / 2.0) * Je.values))
            for Je in sweep
        ])
        gslope = float(np.polyfit(log_inv_eps, np.log(opnorms), 1)[0])
        checks.append(PropertyCheck(
            f"growth_exponent_k{k}", gslope <= k + 0.05, gslope, k + 0.05,
            "operator-norm realization"))

    # fixed-field realization: carries the extra eps^(-d/2) volume factor.
    flat = random_band_limited_field(grid, seed=99, decay_r=0.0,
                                     kmax=grid.n // 2 - 1)
    l2 = norm(flat, "l2")
    for k, derivative in ((1, lambda h: gradient(h)[0]), (2, laplacian)):
        vals = [norm(derivative(mollify(Je, flat)), "linf") / l2 for Je in sweep]
        fslope = float(np.polyfit(log_inv_eps, np.log(vals), 1)[0])
        checks.append(PropertyCheck(
            f"linf_growth_exponent_k{k}", True, fslope, None,
            f"fixed flat-spectrum field; expected about k + d/2 = {k + grid.dim / 2}",
            informational=True))

    return MollifierReport(J, checks)
