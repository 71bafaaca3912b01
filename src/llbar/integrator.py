"""Time integration of u_t = F(u) with the stiff linear symbol exact.

The linear part sigma(xi) (defaults: -|xi|^4 + |xi|^2 + 2) is integrated
by its exponential; the remaining nonlinearity is advanced by exponential
Euler (etd1), the two-stage exponential Runge-Kutta scheme (etd_rk2), or
the semi-implicit two-step backward differentiation formula (imex_bdf2).
The imex_bdf2 history (dt, u_{n-1}, N(u_{n-1})) is private to the run's
Stepper; the first step, and any step of another dt than the history's
(a shortened landing step), bootstraps with one etd_rk2 step.

trajectory is the one stepping loop: a generator of the samples that
returns the run's result. integrate drains it.

The state, the propagator tables, N(u), the imex_bdf2 history, the
samples and the returned field all use the one spectral layout of
llbar.grid, the half lattice of real transforms.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .diagnostics import EnergyReport, TimeSeries, report
from .errors import BlowUpError, UsageError
from .grid import SPECTRAL, Field, Grid, _derived, norm, to_physical, to_spectral
from .mollifier import MollifierSymbol
from .physics import (
    DEFAULT_PARAMS,
    EffectiveFieldParams,
    linear_symbol,
    nonlinear_rhs,
    nonlinear_symbols,
)

SCHEMES = ("etd1", "etd_rk2", "imex_bdf2")
SCHEME_ORDER = {"etd1": 1, "etd_rk2": 2, "imex_bdf2": 2}

# adaptive stepping aims the next step at this fraction of the dt that the
# error estimate says would just meet tol
SAFETY = 0.9


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "etd_rk2"
    dt: float = 1e-3
    adaptive: bool = False
    dt_min: float = 1e-10
    dt_max: float = 1.0
    tol: float = 1e-6
    nonlinear: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise UsageError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not (0 < self.dt_min <= self.dt <= self.dt_max):
            raise UsageError(
                f"need 0 < dt_min <= dt <= dt_max, got "
                f"({self.dt_min}, {self.dt}, {self.dt_max})"
            )
        if self.tol <= 0:
            raise UsageError(f"tol must be positive, got {self.tol}")
        if self.adaptive and self.scheme == "imex_bdf2":
            raise UsageError("adaptive stepping supports the single-step schemes")

    @property
    def order(self) -> int:
        return SCHEME_ORDER[self.scheme]


@dataclass(frozen=True)
class LinearPropagator:
    """Tabulated e^{dt sigma}, phi1(dt sigma), phi2(dt sigma), and the
    products dt phi1 and dt phi2 that the exponential schemes apply."""

    symbol: np.ndarray
    exp: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    dt_phi1: np.ndarray
    dt_phi2: np.ndarray

    @classmethod
    def build(
        cls,
        grid: Grid,
        dt: float,
        p: EffectiveFieldParams = DEFAULT_PARAMS,
        J: MollifierSymbol | None = None,
    ) -> "LinearPropagator":
        sigma = linear_symbol(grid, p, J)
        z = dt * sigma
        phi1, phi2 = _phi1(z), _phi2(z)
        return cls(sigma, np.exp(z), phi1, phi2, dt * phi1, dt * phi2)


def _phi1(z):
    """(e^z - 1)/z, series near zero."""
    small = np.abs(z) < 1e-5
    zs = np.where(small, 1.0, z)
    direct = np.expm1(zs) / zs
    series = 1.0 + z / 2.0 + z * z / 6.0
    return np.where(small, series, direct)


def _phi2(z):
    """(e^z - 1 - z)/z^2, series near zero."""
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    direct = (np.expm1(zs) - zs) / (zs * zs)
    series = 0.5 + z / 6.0 + z * z / 24.0
    return np.where(small, series, direct)


@dataclass
class SchemeState:
    """The run's time and step count."""

    t: float = 0.0
    step: int = 0


@dataclass
class IntegrationResult:
    field: Field
    series: TimeSeries
    state: SchemeState


class Stepper:
    """Stateful single-run driver and the run's spectral kernel: it builds
    the symbols of N(u) once, keeps the propagator tables of the last two
    step sizes (a step and, under step doubling, its half) and, for the
    two-step scheme, holds the history (dt, u_{n-1}, N(u_{n-1}))."""

    def __init__(
        self,
        grid: Grid,
        cfg: SchemeConfig,
        p: EffectiveFieldParams = DEFAULT_PARAMS,
        J: MollifierSymbol | None = None,
    ):
        self.grid = grid
        self.cfg = cfg
        self.state = SchemeState()
        self._history = None
        self._symbols = nonlinear_symbols(grid, p, J)  # checks J's grid
        self._prop = lru_cache(maxsize=2)(partial(LinearPropagator.build, grid, p=p, J=J))

    def _nonlinear(self, uhat: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinear:
            return np.zeros_like(uhat)
        return nonlinear_rhs(self.grid, uhat, self._symbols)

    # The updates below are built in place in arrays the step owns (the
    # fresh N(u) and the stage), never in uhat or a held N(u). Each
    # in-place operation is the original product or sum with its operands
    # commuted, so the bits are those of the textbook formulas.

    def _etd1(self, uhat: np.ndarray, dt: float) -> np.ndarray:
        """exp uhat + dt phi1 N(uhat)."""
        lp = self._prop(dt)
        new = self._nonlinear(uhat)
        new *= lp.dt_phi1
        new += lp.exp * uhat
        return new

    def _etd_rk2(
        self, uhat: np.ndarray, dt: float, nhat: np.ndarray | None = None
    ) -> np.ndarray:
        """With a = exp uhat + dt phi1 N(uhat): a + dt phi2 (N(a) - N(uhat))."""
        lp = self._prop(dt)
        if nhat is None:
            nhat = self._nonlinear(uhat)
        a = lp.exp * uhat
        a += lp.dt_phi1 * nhat
        new = self._nonlinear(a)
        new -= nhat
        new *= lp.dt_phi2
        new += a
        return new

    def _bdf2(self, uhat: np.ndarray, dt: float) -> np.ndarray:
        # a history of another dt is stale: bootstrap as a fresh run does
        nhat = self._nonlinear(uhat)
        if self._history is None or self._history[0] != dt:
            new = self._etd_rk2(uhat, dt, nhat)
        else:
            _, prev_field, prev_nonlinear = self._history
            num = 4.0 * uhat - prev_field + 2.0 * dt * (2.0 * nhat - prev_nonlinear)
            new = num / (3.0 - 2.0 * dt * self._prop(dt).symbol)
        self._history = (dt, uhat, nhat)
        return new

    def advance(self, uhat: np.ndarray, dt: float) -> np.ndarray:
        """One step of size dt from the spectrum uhat (never modified);
        returns the new spectrum."""
        # Overflow in a diverging run is detected downstream as a non-finite
        # state and escalated to the blow-up signal; silence the interim
        # numpy warnings so the termination is clean.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.cfg.scheme == "etd1":
                return self._etd1(uhat, dt)
            if self.cfg.scheme == "etd_rk2":
                return self._etd_rk2(uhat, dt)
            return self._bdf2(uhat, dt)

    def advance_adaptive(self, uhat: np.ndarray, dt: float):
        """Step-doubling control: one dt step against two dt/2 steps.

        Returns (new spectrum, dt taken, next dt). Raises the blow-up
        signal when dt collapses below dt_min.
        """
        cfg = self.cfg
        p_ord = cfg.order
        while True:
            big = self.advance(uhat, dt)
            half = self.advance(self.advance(uhat, dt / 2.0), dt / 2.0)
            if np.all(np.isfinite(half)) and np.all(np.isfinite(big)):
                est = norm(_derived(self.grid, big - half), "l2") / (2.0**p_ord - 1.0)
                scale = max(1.0, norm(_derived(self.grid, half), "l2"))
            else:
                est, scale = float("inf"), 1.0
            if est <= cfg.tol * scale:
                if est == 0.0:
                    factor = 5.0
                else:
                    factor = SAFETY * (cfg.tol * scale / est) ** (1.0 / (p_ord + 1))
                next_dt = min(max(factor, 0.2), 5.0) * dt
                return half, dt, min(max(next_dt, cfg.dt_min), cfg.dt_max)
            dt = dt / 2.0
            if dt < cfg.dt_min:
                raise BlowUpError(
                    "step size collapsed below dt_min under error control",
                    t=self.state.t,
                    step=self.state.step,
                )


def step(
    u: Field,
    cfg: SchemeConfig,
    p: EffectiveFieldParams = DEFAULT_PARAMS,
    J: MollifierSymbol | None = None,
) -> Field:
    """One fixed step of the configured scheme (representation preserved).

    Raises the blow-up signal on non-finite input (step 0) or output
    (step 1).
    """
    if not np.all(np.isfinite(u.data)):
        raise BlowUpError("non-finite input state", t=0.0, step=0, field=u)
    stepper = Stepper(u.grid, cfg, p, J)
    out = _derived(u.grid, stepper.advance(to_spectral(u).data, cfg.dt))
    if not np.all(np.isfinite(out.data)):
        raise BlowUpError("non-finite state after one step", t=cfg.dt, step=1, field=out)
    return out if u.representation == SPECTRAL else to_physical(out)


def trajectory(
    u0: Field,
    t_end: float,
    cfg: SchemeConfig,
    p: EffectiveFieldParams = DEFAULT_PARAMS,
    J: MollifierSymbol | None = None,
    report_every: int = 10,
    metadata: dict | None = None,
    land_at: tuple = (),
) -> Generator[tuple[Field, EnergyReport], None, IntegrationResult]:
    """Advance u0 to t_end, yielding (u, report) at each sample (first
    step, every report_every-th, each of the increasing times land_at,
    last): u is a spectral Field over a read-only view of the state (a
    write to it raises), report the EnergyReport just appended to the
    series. Returns the IntegrationResult of integrate. The run lands on
    land_at as on t_end, shortening only the step that would pass one of
    them.

    A non-finite state, or an adaptive step size collapsing below
    dt_min, raises the blow-up signal carrying the partial series and the
    offending field; the series gains a final flagged report first
    ("nan"), or its row at the collapse time is flagged "dt_collapse"
    (appended when that time is past the last row), so on-disk records
    show the failure. Those flagged rows are not yielded.
    """
    if t_end < 0:
        raise UsageError(f"t_end must be nonnegative, got {t_end}")
    if report_every < 1:
        raise UsageError(f"report_every must be at least 1, got {report_every}")
    grid = u0.grid
    series = TimeSeries(metadata=dict(metadata or {}))
    stepper = Stepper(grid, cfg, p, J)
    st = stepper.state
    if any(b <= a for a, b in zip((0.0, *land_at), land_at)) or max((t_end, *land_at)) > t_end:
        raise UsageError(f"landing times must increase from t=0 to t_end, got {land_at}")
    if not np.all(np.isfinite(u0.data)):
        series.append(report(u0, st.t, p))
        raise BlowUpError(
            "non-finite initial data",
            t=st.t,
            step=st.step,
            series=series,
            field=u0,
        )
    uhat = to_spectral(u0).data
    del u0  # uhat is the state now: the start is freed by the first step

    def sample(uhat, force=False):
        if force or st.step % report_every == 0:
            if not series.reports or st.t > series.reports[-1].t:
                view = uhat.view()  # advance never writes its input
                view.flags.writeable = False
                u = _derived(grid, view)
                series.append(report(u, st.t, p))
                yield u, series.reports[-1]

    yield from sample(uhat, force=True)
    dt_next = cfg.dt
    for target in (*land_at, t_end):
        while True:
            remaining = target - st.t
            if remaining <= max(1e-9 * dt_next, 1e-12 * max(1.0, abs(target))):
                break  # landed on target up to roundoff
            # A remainder that matches the nominal step to roundoff takes the
            # nominal step, so landing on a time the steps divide leaves the
            # dt sequence (and the imex_bdf2 history) as in a run without
            # it; a genuinely partial remainder becomes one short step.
            dt = dt_next if remaining >= dt_next * (1.0 - 1e-9) else remaining
            if not cfg.adaptive:
                uhat = stepper.advance(uhat, dt)
                taken = dt
            else:
                try:
                    uhat, taken, dt_next = stepper.advance_adaptive(uhat, dt)
                except BlowUpError as exc:
                    exc.field = _derived(grid, uhat)
                    if st.t > series.reports[-1].t:
                        series.append(report(exc.field, st.t, p))
                    series.reports[-1] = replace(series.reports[-1], flags="dt_collapse")
                    exc.series = series
                    raise
            st.t += taken
            st.step += 1
            if not np.all(np.isfinite(uhat)):
                u = _derived(grid, uhat)
                series.append(report(u, st.t, p))
                raise BlowUpError(
                    f"non-finite state at t={st.t:.6g} (step {st.step})",
                    t=st.t,
                    step=st.step,
                    series=series,
                    field=u,
                )
            yield from sample(uhat)
        yield from sample(uhat, force=True)
    return IntegrationResult(_derived(grid, uhat), series, st)


def integrate(
    u0: Field,
    t_end: float,
    cfg: SchemeConfig,
    p: EffectiveFieldParams = DEFAULT_PARAMS,
    J: MollifierSymbol | None = None,
    report_every: int = 10,
    metadata: dict | None = None,
) -> IntegrationResult:
    """Drain trajectory: the final field, the sampled time series and the
    run's time and step count."""
    run = trajectory(u0, t_end, cfg, p, J, report_every, metadata)
    while True:
        try:
            next(run)
        except StopIteration as done:
            return done.value


@dataclass(frozen=True)
class OrderReport:
    order: float
    dts: tuple
    errors: tuple
    flag: str = ""  # "" | "exact" | "unreliable"

    @property
    def reliable(self) -> bool:
        return self.flag == ""


def fit_order(dts, errors, scale: float = 1.0) -> OrderReport:
    """Log-log slope of errors vs dt, with reliability flags.

    Errors at machine precision (all below 1e-12 x scale) carry no order
    information -> "exact"; errors that fail to shrink monotonically as dt
    shrinks -> "unreliable". dts and errors must be sorted by dt ascending.
    """
    dts = tuple(float(d) for d in dts)
    errors = tuple(float(e) for e in errors)
    if len(dts) != len(errors) or len(dts) < 2:
        raise UsageError("order fit needs matched dts/errors, at least two")
    if max(errors) <= 1e-12 * scale:
        return OrderReport(float("nan"), dts, errors, "exact")
    flag = "" if all(a < b for a, b in zip(errors, errors[1:])) else "unreliable"
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return OrderReport(slope, dts, errors, flag)


def measure_temporal_order(
    u0: Field,
    cfg: SchemeConfig,
    dts,
    t_end: float = 0.1,
    p: EffectiveFieldParams = DEFAULT_PARAMS,
    J: MollifierSymbol | None = None,
) -> OrderReport:
    """Self-convergence order: errors against the finest-dt run.

    The smallest dt serves as the reference and should sit well below the
    measured ones (a factor >= 4; otherwise the reference's own error
    biases the slope upward by roughly (1 - dt_ref/dt) per point).
    """
    dts = sorted(float(d) for d in dts)
    if len(dts) < 3:
        raise UsageError("order measurement needs at least three step sizes")
    finals = {}
    for dt in dts:
        run_cfg = replace(cfg, dt=dt, adaptive=False)
        finals[dt] = integrate(u0, t_end, run_cfg, p, J, report_every=10**9).field
    ref = finals[dts[0]]
    errors = [norm(finals[dt] - ref, "l2") for dt in dts[1:]]
    scale = max(1.0, norm(ref, "l2"))
    return fit_order(dts[1:], errors, scale)
