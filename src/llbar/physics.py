"""Dynamics of the vector field: the right-hand side, its split into a
linear symbol and a nonlinear part, and the checks of the energy method.

The evolution is u_t = F(u) with

    F(u) = -lambda_e Lap^2 u + (lambda_r - lambda_e/(2 chi)) Lap u
           + (lambda_r/(2 chi)) (1 - |u|^2) u
           + (lambda_e/(2 chi)) Lap(|u|^2 u) - gamma u x Lap u,

equivalently F(u) = lambda_r H - lambda_e Lap H - gamma u x H for the
effective field H = Lap u + (1/(2 chi)) (1 - |u|^2) u.  With the default
constants chi = 1/4 and lambda_r = lambda_e = gamma = 1 this is

    u_t = -Lap^2 u - Lap u + 2 (1 - |u|^2) u + 2 Lap(|u|^2 u) - u x Lap u.

A smoothing symbol J turns F into the regularized field
F_eps(u) = J[F-core applied to Ju] with the linear terms passing through
J twice, matching the composition mollify -> differentiate/multiply ->
mollify.

FieldTerms(u, J, p) evaluates the energy method's checks of one field;
identity_suite runs them over a seeded family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import DataError, UsageError
from .grid import (
    Field,
    Grid,
    _check_same_grid,
    _derived,
    _partials,
    gradient,
    inner_product,
    laplacian,
    norm,
    random_band_limited_field,
    to_physical,
    to_spectral,
)
from .mollifier import MollifierSymbol, PropertyCheck

IDENTITY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-11
CONSISTENCY_TOL = 1e-11
DEGENERATE_SCALE = 1e-14

# identity_suite's checks and tolerances, in its row order. The consistency
# floor on 64-per-axis grids sits near 1.5e-11 (fft roundoff through the
# quartic symbol), so the suite uses the common 1e-10 bound; the tighter
# CONSISTENCY_TOL is reserved for coarser grids where the floor is ~1e-13.
_SUITE = (("identity_l2", IDENTITY_TOL), ("identity_h1", IDENTITY_TOL),
          ("orthogonality", ORTHOGONALITY_TOL), ("identity_cubic_expansion", IDENTITY_TOL),
          ("rhs_consistency_with_heff", IDENTITY_TOL), ("energy_chain_rule", 1e-9))


@dataclass(frozen=True)
class EffectiveFieldParams:
    """Physical constants: susceptibility chi and the three couplings."""

    chi: float = 0.25
    lambda_r: float = 1.0
    lambda_e: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("chi", "lambda_r", "lambda_e", "gamma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise UsageError(f"{name} must be a positive finite real, got {v!r}")

    @property
    def cubic_coeff(self) -> float:
        return self.lambda_r / (2.0 * self.chi)

    @property
    def cubic_laplacian_coeff(self) -> float:
        return self.lambda_e / (2.0 * self.chi)

    @property
    def laplacian_coeff(self) -> float:
        return self.lambda_r - self.lambda_e / (2.0 * self.chi)


DEFAULT_PARAMS = EffectiveFieldParams()


def _require_finite(u: Field, where: str):
    if not np.all(np.isfinite(u.data)):
        raise DataError(f"non-finite values in the input field of {where}")


def _symbol(J: MollifierSymbol | None):
    return 1.0 if J is None else J.values


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise a x b of component-first arrays, written into one output;
    np.cross would first copy both inputs to move the component axis last,
    and stacking the three components copies them again."""
    out = np.empty_like(a)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def _quad(grid: Grid, values) -> float:
    """Collocation quadrature of a scalar sample array."""
    return float(np.sum(values)) * grid.cell_volume


def rhs(
    u: Field,
    p: EffectiveFieldParams = DEFAULT_PARAMS,
    J: MollifierSymbol | None = None,
    dealias: bool = True,
) -> Field:
    """The reference right-hand side F_eps(u) (F(u) without J), spectral.

    Cubic products are formed pointwise in physical space; with
    dealias=True the factors and the products are truncated by the
    2/3 rule, which keeps the quadratic identities clean at the
    1e-10 level instead of 1e-6.
    """
    _require_finite(u, "rhs")
    if J is not None:
        _check_same_grid(J.grid, u)
    grid = u.grid
    uhat = to_spectral(u).data
    rho = _symbol(J)
    ksq = grid.ksq
    mask = grid.dealias_mask if dealias else 1.0

    vhat = rho * uhat * mask  # smoothed state, spectral
    v = grid.irfftn(vhat)
    cube_hat = grid.rfftn(np.sum(v**2, axis=0) * v) * mask
    cross_hat = grid.rfftn(_cross(v, grid.irfftn(-ksq * vhat))) * mask

    # the five terms, summed in place in a fixed order that fixes the rounding
    rho2 = rho * rho
    data = -p.lambda_e * ksq**2 * rho2 * uhat  # bilaplacian
    data += -p.laplacian_coeff * ksq * rho2 * uhat  # Laplacian
    data += p.cubic_coeff * (rho2 * uhat - rho * cube_hat)  # cubic
    data += -p.cubic_laplacian_coeff * ksq * rho * cube_hat  # Laplacian of the cubic
    data += -p.gamma * rho * cross_hat  # cross product
    return _derived(grid, data)


def linear_symbol(
    grid: Grid,
    p: EffectiveFieldParams = DEFAULT_PARAMS,
    J: MollifierSymbol | None = None,
) -> np.ndarray:
    """Fourier symbol of the linear part used by exponential integrators,
    every linear-in-u term of F:

        sigma = -lambda_e |k|^4 - (lambda_r - lambda_e/(2 chi)) |k|^2
                + lambda_r/(2 chi)

    (defaults: -|k|^4 + |k|^2 + 2). With J the symbol carries the squared
    smoothing factor.
    """
    ksq = grid.ksq
    sigma = -p.lambda_e * ksq**2 - p.laplacian_coeff * ksq + p.cubic_coeff
    rho = _symbol(J)
    return sigma * rho * rho


def nonlinear_symbols(
    grid: Grid,
    p: EffectiveFieldParams = DEFAULT_PARAMS,
    J: MollifierSymbol | None = None,
) -> tuple:
    """The symbols of nonlinear_rhs on the half lattice: rho mask, -|k|^2,
    -(c + c_lap |k|^2) rho mask and gamma rho mask. A Stepper builds them
    once per run."""
    if J is not None:
        _check_same_grid(J.grid, grid)
    ksq = grid.ksq
    smooth = _symbol(J) * grid.dealias_mask
    cube = -(p.cubic_coeff + p.cubic_laplacian_coeff * ksq) * smooth
    return smooth, -ksq, cube, p.gamma * smooth


def nonlinear_rhs(grid: Grid, uhat: np.ndarray, symbols: tuple) -> np.ndarray:
    """F_eps(u) minus the linear_symbol part, from the half spectrum uhat
    (3, ..., n//2+1) of u to the half spectrum of the result; symbols is
    the tuple nonlinear_symbols built for the grid, constants and J.

    Only the genuinely nonlinear products are transformed, with real
    transforms: with v = mask rho u (the dealiased smoothed state),

        N = -rho mask [(c + c_lap |k|^2) F(|v|^2 v) + gamma F(v x Lap v)],

    c = cubic_coeff, c_lap = cubic_laplacian_coeff, which is rhs() less
    its linear_symbol part. Both spectra transformed back are zero outside
    the 2/3 band and both products are masked, so all four transforms are
    the grid's band transforms, with the bits of the full ones on every
    mode the result keeps. Non-finite input gives a non-finite result,
    not an exception: inside a time step that marks the step a blow-up.
    """
    smooth, lap, cube, cross = symbols
    vhat = smooth * uhat
    v = grid.band_irfftn(vhat)
    lap_v = grid.band_irfftn(np.multiply(lap, vhat, out=vhat))
    cross_hat = grid.band_rfftn(_cross(v, lap_v))
    # v is read by the cross product above before |v|^2 v overwrites it
    cube_hat = grid.band_rfftn(np.multiply(np.sum(v**2, axis=0), v, out=v))
    data = np.multiply(cube, cube_hat, out=cube_hat)
    data -= np.multiply(cross, cross_hat, out=cross_hat)
    return data


def lipschitz_probe(
    u: Field,
    v: Field,
    J: MollifierSymbol | None,
    p: EffectiveFieldParams = DEFAULT_PARAMS,
) -> float:
    """||F_eps(u) - F_eps(v)||_{H2} / ||u - v||_{H2}."""
    _check_same_grid(u, v)
    du = to_spectral(u) - to_spectral(v)
    denom = norm(du, "hs", s=2.0)
    if denom < DEGENERATE_SCALE:
        raise UsageError("lipschitz_probe needs two distinct fields")
    df = rhs(u, p, J=J) - rhs(v, p, J=J)
    return norm(df, "hs", s=2.0) / denom


# -- integral identities -------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Two independently computed sides of an integral identity."""

    name: str
    lhs: float
    rhs: float
    extras: dict = dc_field(default_factory=dict)

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs), 1.0)


class FieldTerms:
    """H, D and the checks of the energy method for one field u, smoothed by
    J (None: not smoothed) under the constants p. Each shared term is made
    once, on first use; non-finite u is refused (DataError)."""

    def __init__(
        self, u: Field, J: MollifierSymbol | None = None, p: EffectiveFieldParams = DEFAULT_PARAMS
    ):
        _require_finite(u, "FieldTerms")
        self.J, self.p, self.grid = J, p, u.grid
        self.uhat, self.up = to_spectral(u), to_physical(u)

    @cached_property
    def lap_u(self) -> Field:
        return laplacian(self.uhat)

    @cached_property
    def usq(self) -> np.ndarray:
        return np.sum(self.up.data**2, axis=0)

    @cached_property
    def rhs_j(self) -> Field:
        return rhs(self.uhat, self.p, J=self.J)

    @cached_property
    def rhs_raw(self) -> Field:
        return rhs(self.uhat, self.p, dealias=False)

    @cached_property
    def h(self) -> Field:
        """H = Lap u + (1/(2 chi)) (1 - |u|^2) u, in physical representation."""
        lap = to_physical(self.lap_u)
        data = lap.data + (0.5 / self.p.chi) * (1.0 - self.usq) * self.up.data
        return Field(self.grid, data, "physical")

    @cached_property
    def h_hat(self) -> Field:
        return to_spectral(self.h)

    @cached_property
    def h_sq(self) -> tuple[float, float]:
        """||H||^2 and ||grad H||^2, Parseval sums over the spectrum of H."""
        grid = self.grid
        parseval = grid.cell_volume / grid.npoints
        hdens = grid.mode_density(self.h_hat.data)
        return float(np.sum(hdens)) * parseval, float(np.sum(grid.kodd_sq * hdens)) * parseval

    @cached_property
    def dissipation(self) -> float:
        """D(u) = lambda_r ||H||^2 + lambda_e ||grad H||^2 = -dE/dt along the
        flow."""
        heff_sq, grad_h_sq = self.h_sq
        return self.p.lambda_r * heff_sq + self.p.lambda_e * grad_h_sq

    @cached_property
    def v(self) -> Field:
        return _derived(self.grid, _symbol(self.J) * self.uhat.data)

    @cached_property
    def vp(self) -> Field:
        return to_physical(self.v)

    @cached_property
    def vsq(self) -> np.ndarray:
        return np.sum(self.vp.data**2, axis=0)

    @cached_property
    def lap_v(self) -> Field:
        return laplacian(self.v)

    @cached_property
    def lap_vp(self) -> Field:
        return to_physical(self.lap_v)

    @cached_property
    def grad_terms(self) -> tuple[float, float, np.ndarray, float]:
        """What the checks read of grad v in physical space, in one pass:
        sum_j int (v . d_j v)^2, int |v|^2 |grad v|^2, |grad v|^2 pointwise
        and sum_j int (v . d_j v)(d_j v . Lap v)."""
        grid, vp, lap_vp = self.grid, self.vp.data, self.lap_vp.data
        sq_vdot = mixed = 0.0
        gradsq = np.zeros(grid.shape)
        for g in _partials(self.vp):  # one at a time: a third of the memory
            v_dot_g = np.sum(vp * g.data, axis=0)
            sq_vdot += _quad(grid, v_dot_g**2)
            mixed += _quad(grid, v_dot_g * np.sum(g.data * lap_vp, axis=0))
            gradsq += np.sum(g.data**2, axis=0)
        return sq_vdot, _quad(grid, self.vsq * gradsq), gradsq, mixed

    @cached_property
    def grad_sq(self) -> float:
        return sum(norm(g, "l2") ** 2 for g in gradient(self.v))

    @cached_property
    def cubic_pairing(self) -> float:
        """(Lap(|v|^2 v), Lap v), products raw, derivatives spectral."""
        cube_hat = self.grid.rfftn(self.vsq * self.vp.data)
        return inner_product(_derived(self.grid, -self.grid.ksq * cube_hat), self.lap_v)

    def drop_smoothed(self):
        """Free the J-dependent arrays, which the J-free checks never read."""
        for name in ("rhs_j", "v", "vp", "vsq", "lap_v", "lap_vp", "grad_terms"):
            vars(self).pop(name, None)

    def identity_l2(self) -> IdentityReport:
        """Pairing F_eps(u) with u against the closed-form quadratic ledger.

        With v = Ju and default constants:
        (F_eps(u), u) + ||Lap v||^2 + 2||v||_{L4}^4 + 4||v . grad v||^2
            + 2|| |v| |grad v| ||^2  =  ||grad v||^2 + 2||v||^2.
        """
        p = self.p
        pairing = inner_product(self.rhs_j, self.uhat)
        l4 = norm(self.vp, "l4") ** 4
        sq_vdot, vgrad, _, _ = self.grad_terms
        l2_sq = norm(self.v, "l2") ** 2
        clc = p.cubic_laplacian_coeff
        lhs = pairing + p.lambda_e * norm(self.lap_v, "l2") ** 2 + p.cubic_coeff * l4
        lhs += 2.0 * clc * sq_vdot + clc * vgrad
        rhs_val = -p.laplacian_coeff * self.grad_sq + p.cubic_coeff * l2_sq
        return IdentityReport("identity_l2", lhs, rhs_val)

    def identity_h1(self) -> IdentityReport:
        """Pairing F_eps(u) with -Lap u against the gradient-level ledger.

        Also evaluates the cross-term orthogonality
        (J(Ju x Lap Ju), Lap u) = 0 and stores its relative size under
        extras["orthogonality"].
        """
        p, grid = self.p, self.grid
        pairing = -inner_product(self.rhs_j, self.lap_u)
        grad_lap_sq = sum(norm(g, "l2") ** 2 for g in gradient(self.lap_v))
        sq_vdot, vgrad, _, _ = self.grad_terms
        lhs = pairing + p.lambda_e * grad_lap_sq
        lhs += 2.0 * p.cubic_coeff * sq_vdot + p.cubic_coeff * vgrad
        rhs_val = -p.laplacian_coeff * norm(self.lap_v, "l2") ** 2
        rhs_val += p.cubic_coeff * self.grad_sq
        rhs_val -= p.cubic_laplacian_coeff * self.cubic_pairing
        crossed = grid.rfftn(_cross(self.vp.data, self.lap_vp.data))
        smoothed_cross = _derived(grid, _symbol(self.J) * crossed)
        orth = inner_product(smoothed_cross, self.lap_u)
        orth_scale = norm(smoothed_cross, "l2") * norm(self.lap_u, "l2")
        orth_rel = abs(orth) / orth_scale if orth_scale >= DEGENERATE_SCALE else abs(orth)
        return IdentityReport("identity_h1", lhs, rhs_val, {"orthogonality": orth_rel})

    def identity_cubic_expansion(self) -> IdentityReport:
        """Product-rule expansion of 2 (Lap(|v|^2 v), Lap v), v = Ju:

        = 4||v . Lap v||^2 + 2|| |v| |Lap v| ||^2
          + 8 (grad v (v . grad v)^T, Lap v) + 4 (|grad v|^2 v, Lap v).

        Left side by spectral differentiation of the raw cubic product,
        right side entirely by pointwise products and quadrature.
        """
        grid, vp, lap_vp = self.grid, self.vp.data, self.lap_vp.data
        lhs = 2.0 * self.cubic_pairing
        v_dot_lap = np.sum(vp * lap_vp, axis=0)
        lapsq = np.sum(lap_vp**2, axis=0)
        _, _, gradsq, mixed = self.grad_terms
        rhs_val = 4.0 * _quad(grid, v_dot_lap**2)
        rhs_val += 2.0 * _quad(grid, self.vsq * lapsq)
        rhs_val += 8.0 * mixed
        rhs_val += 4.0 * _quad(grid, gradsq * v_dot_lap)
        return IdentityReport("identity_cubic_expansion", lhs, rhs_val)

    def rhs_consistency_with_heff(self) -> float:
        """Relative L2 gap between the five-term form of F(u) and
        lambda_r H - lambda_e Lap H - gamma u x H.

        Both paths use raw pointwise products (no dealiasing): truncation
        would break the exact cancellation u x (1-|u|^2)u = 0 that makes the
        two forms agree pointwise.  The comparison happens in spectral space;
        an inverse transform would amplify high-mode roundoff through the
        quartic symbol.
        """
        p, f1, h = self.p, self.rhs_raw, self.h.data
        lap_h = to_physical(laplacian(self.h_hat))
        f2 = p.lambda_r * h - p.lambda_e * lap_h.data - p.gamma * _cross(self.up.data, h)
        f2_hat = to_spectral(Field(self.grid, f2, "physical"))
        gap = norm(f1 - f2_hat, "l2")
        scale = norm(f1, "l2")
        return gap / scale if scale >= DEGENERATE_SCALE else gap

    def energy_chain_rule_gap(self) -> float:
        """Relative gap between the assembled pairing (F(u), dE/du) and -D(u).

        The energy E(u) = 1/(8 chi) ||u||_{L4}^4 + 1/2 ||grad u||^2
        - 1/(4 chi) ||u||^2 has the variational derivative
        1/(2 chi) |u|^2 u - Lap u - 1/(2 chi) u = -H, so combining the three
        pairings (F, |u|^2 u), (F, -Lap u), (F, u) with those weights must
        reproduce -D(u).
        """
        p, f, d = self.p, self.rhs_raw, self.dissipation
        cube_hat = to_spectral(Field(self.grid, self.usq * self.up.data, "physical"))
        combo = (
            inner_product(f, cube_hat) / (2.0 * p.chi)
            - inner_product(f, self.lap_u)
            - inner_product(f, self.uhat) / (2.0 * p.chi)
        )
        return abs(combo + d) / max(abs(d), 1.0)


# -- interpolation-inequality probes ------------------------------------------


def gn_ratios(u: Field) -> dict[str, float]:
    """Ratios lhs/rhs of the two interpolation inequalities used in the
    energy estimates; the hidden constants are calibrated, not assumed.

    linf_h1_h2:  ||u||_Linf     vs  ||u||_{H1}^{1/2} ||u||_{H2}^{1/2}
    grad_l4:     ||grad u||_{L4}^4  vs  ||grad Lap u||^{3/2} ||grad u||^{5/2}
    """
    grid = u.grid
    h1 = norm(u, "hs", s=1)
    h2 = norm(u, "hs", s=2)
    linf = norm(u, "linf")
    denom1 = math.sqrt(h1 * h2)
    r1 = linf / denom1 if denom1 >= DEGENERATE_SCALE else 0.0

    grads = gradient(u)
    gradsq = np.zeros(grid.shape)
    grad_l2_sq = 0.0
    for g in grads:
        gradsq += np.sum(to_physical(g).data ** 2, axis=0)
        grad_l2_sq += norm(g, "l2") ** 2
    grad_l4_4 = _quad(grid, gradsq**2)
    lap_u = laplacian(u)
    grad_lap_sq = sum(norm(g, "l2") ** 2 for g in gradient(lap_u))
    denom2 = grad_lap_sq ** 0.75 * grad_l2_sq ** 1.25
    r2 = grad_l4_4 / denom2 if denom2 >= DEGENERATE_SCALE else 0.0
    return {"linf_h1_h2": r1, "grad_l4": r2}


# -- batch verification -------------------------------------------------------


def identity_suite(
    J: MollifierSymbol, p: EffectiveFieldParams = DEFAULT_PARAMS, seeds=range(10)
) -> list[PropertyCheck]:
    """Run every integral identity over a seeded family of band-limited
    fields on J's grid; returns one check per identity, in _SUITE order.
    Its measured value is the worst residual over the seeds (NaN if any is
    NaN), and it passes when every seed is within the tolerance. Each
    field's shared terms are evaluated once.

    Fields are limited to |m| <= n//6 so that cubic products and quartic
    quadratures are alias-free and the residuals isolate genuine
    evaluator defects.
    """
    per_seed = []
    for seed in seeds:
        u = random_band_limited_field(J.grid, seed=seed, kmax=J.grid.n // 6)
        terms = FieldTerms(u, J, p)
        l2, h1, cubic = terms.identity_l2(), terms.identity_h1(), terms.identity_cubic_expansion()
        terms.drop_smoothed()
        per_seed.append((l2.residual, h1.residual, h1.extras["orthogonality"], cubic.residual,
                         terms.rhs_consistency_with_heff(), terms.energy_chain_rule_gap()))
    return [PropertyCheck(name, all(r <= tol for r in rs), float(np.max(rs)), tol)
            for (name, tol), rs in zip(_SUITE, zip(*per_seed))]
