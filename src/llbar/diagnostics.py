"""Scalar observables along a trajectory, blow-up monitoring, and the
persisted time-series record.

The monitored quantity for blow-up is ||grad u||_{L2}: the solution
continues past a time horizon exactly while that norm stays finite, so
the monitor tracks it against a finite proxy threshold.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DataError, UsageError
from .grid import Field
from .physics import DEFAULT_PARAMS, EffectiveFieldParams, FieldTerms

# exact CSV column order
COLUMNS = (
    "t",
    "l2",
    "l4",
    "linf",
    "h1",
    "h2",
    "grad_l2",
    "energy",
    "dissipation",
    "heff_l2",
    "flags",
)

ENERGY_JUMP_TOL = 1e-8


@dataclass(frozen=True)
class EnergyReport:
    """One row of observables at time t."""

    t: float
    l2: float
    l4: float
    linf: float
    h1: float
    h2: float
    grad_l2: float
    energy: float
    dissipation: float
    heff_l2: float
    flags: str = ""

    @property
    def is_finite(self) -> bool:
        return "nan" not in self.flags

    def row(self) -> str:
        vals = [getattr(self, c) for c in COLUMNS[:-1]]
        return ",".join(f"{v:.17g}" for v in vals) + f",{self.flags}"


def report(
    u: Field, t: float, p: EffectiveFieldParams = DEFAULT_PARAMS
) -> EnergyReport:
    """Populate every observable; non-finite data yields a flagged report
    instead of an exception so the blow-up monitor can see it.  An entry
    that overflows during evaluation (finite data, huge norms) is flagged
    the same way.

    The norms of grid.norm(), the energy
    E(u) = 1/(8 chi) ||u||_{L4}^4 + 1/2 ||grad u||^2 - 1/(4 chi) ||u||^2,
    and the dissipation D and effective field H of physics.FieldTerms, from
    three real transforms: the Sobolev norms and the quadratic parts of E
    and D are Parseval sums over the half lattice, and only |u| and
    H = Lap u + (1/(2 chi)) (1 - |u|^2) u are sampled."""
    if not np.all(np.isfinite(u.data)):
        nan = float("nan")
        return EnergyReport(t, nan, nan, nan, nan, nan, nan, nan, nan, nan, "nan")
    grid = u.grid
    with np.errstate(over="ignore", invalid="ignore"):
        terms = FieldTerms(u, p=p)
        usq = terms.usq
        heff_sq, _ = terms.h_sq
        parseval = grid.cell_volume / grid.npoints
        bessel = 1.0 + grid.ksq
        dens = grid.mode_density(terms.uhat.data)
        l2_sq = float(np.sum(dens)) * parseval
        grad_sq = float(np.sum(grid.kodd_sq * dens)) * parseval
        l4_4 = float(np.sum(usq**2)) * grid.cell_volume
        rep = EnergyReport(
            t=t,
            l2=math.sqrt(l2_sq),
            l4=l4_4**0.25,
            linf=float(np.sqrt(np.max(usq))),
            h1=math.sqrt(float(np.sum(bessel * dens)) * parseval),
            h2=math.sqrt(float(np.sum((1.0 + grid.ksq) ** 2 * dens)) * parseval),
            grad_l2=math.sqrt(grad_sq),
            energy=l4_4 / (8.0 * p.chi) + 0.5 * grad_sq - l2_sq / (4.0 * p.chi),
            dissipation=terms.dissipation,
            heff_l2=math.sqrt(heff_sq),
        )
    values = [getattr(rep, c) for c in COLUMNS[1:-1]]
    if not np.all(np.isfinite(values)):
        rep = dataclasses.replace(rep, flags="nan")
    return rep


@dataclass
class TimeSeries:
    """Ordered reports plus immutable run metadata."""

    metadata: dict = dc_field(default_factory=dict)
    reports: list = dc_field(default_factory=list)

    def append(self, rep: EnergyReport):
        if self.reports and rep.t <= self.reports[-1].t:
            raise UsageError(
                f"time series must increase strictly: {rep.t} after "
                f"{self.reports[-1].t}"
            )
        self.reports.append(rep)

    def __len__(self):
        return len(self.reports)

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS[:-1]:
            raise UsageError(f"unknown column {name!r}")
        return np.array([getattr(r, name) for r in self.reports])

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    def write_csv(self, path):
        with open(path, "w") as fh:
            for key in sorted(self.metadata):
                fh.write(f"# {key} = {self.metadata[key]}\n")
            fh.write(",".join(COLUMNS) + "\n")
            for rep in self.reports:
                fh.write(rep.row() + "\n")

    @classmethod
    def read_csv(cls, path) -> "TimeSeries":
        series = cls()
        header_seen = False
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    series.metadata[key.strip()] = value.strip()
                    continue
                if not header_seen:
                    if line != ",".join(COLUMNS):
                        raise DataError(f"unexpected time-series header: {line!r}")
                    header_seen = True
                    continue
                parts = line.split(",")
                if len(parts) != len(COLUMNS):
                    raise DataError(f"malformed time-series row: {line!r}")
                vals = [float(x) for x in parts[:-1]]
                series.append(EnergyReport(*vals, flags=parts[-1]))
        if not header_seen:
            raise DataError(f"no time-series header found in {path}")
        return series


@dataclass(frozen=True)
class BlowUpVerdict:
    status: str  # "healthy" | "warning" | "blown-up"
    first_t: float | None = None
    first_index: int | None = None
    detail: str = ""

    @property
    def healthy(self) -> bool:
        return self.status == "healthy"


def blowup_monitor(series: TimeSeries) -> BlowUpVerdict:
    """Scan for the first offense against the gradient-norm criterion.

    blown-up: non-finite report, or ||grad u|| above 1e3 x its initial
    value; warning: growth beyond 10x the initial value. The first offense
    is latched: extending the series never softens the verdict.
    """
    if not series.reports:
        raise UsageError("blowup_monitor needs a nonempty series")
    grad0 = series.reports[0].grad_l2
    threshold = 1e3 * grad0 if grad0 > 0 else float("inf")
    warn_level = 10.0 * grad0 if grad0 > 0 else float("inf")
    warning_at = None
    for i, rep in enumerate(series.reports):
        if not rep.is_finite or not np.isfinite(rep.grad_l2):
            return BlowUpVerdict("blown-up", rep.t, i, "non-finite state")
        if rep.grad_l2 > threshold:
            return BlowUpVerdict(
                "blown-up",
                rep.t,
                i,
                f"gradient norm {rep.grad_l2:.3e} above threshold {threshold:.3e}",
            )
        if warning_at is None and rep.grad_l2 > warn_level:
            warning_at = (rep.t, i)
    if warning_at is not None:
        return BlowUpVerdict(
            "warning", warning_at[0], warning_at[1], "gradient norm grew beyond 10x"
        )
    return BlowUpVerdict("healthy")


@dataclass(frozen=True)
class AuditReport:
    max_energy_jump: float
    energy_ok: bool
    l2_bound_ok: bool
    growth_constant: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.energy_ok and self.l2_bound_ok


def monotonicity_audit(series: TimeSeries, growth_constant: float) -> AuditReport:
    """Check E nonincreasing between consecutive reports (within
    ENERGY_JUMP_TOL relative to max(1, |E|)) and the bound
    ||u(t)||_{L2}^2 <= ||u(t0)||_{L2}^2 e^{growth_constant (t - t0)}."""
    if len(series.reports) < 2:
        raise UsageError("monotonicity_audit needs at least two reports")
    e = series.column("energy")
    jumps = np.diff(e)
    max_jump = float(np.max(jumps, initial=0.0))
    scale = np.maximum(1.0, np.abs(e[:-1]))
    energy_ok = bool(np.all(jumps <= ENERGY_JUMP_TOL * scale))

    t = series.times
    l2sq = series.column("l2") ** 2
    bound = l2sq[0] * np.exp(growth_constant * (t - t[0]))
    l2_bound_ok = bool(np.all(l2sq <= bound * (1.0 + 1e-12)))
    detail = ""
    if not energy_ok:
        i = int(np.argmax(jumps / scale))
        detail = f"energy jump {jumps[i]:.3e} at t={t[i + 1]:.6g}"
    return AuditReport(max_jump, energy_ok, l2_bound_ok, growth_constant, detail)
