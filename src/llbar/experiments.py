"""Scripted studies: regularization-parameter convergence, uniqueness
cross-checks, linear growth-rate validation, and inequality-constant
calibration.

Every study is a pure function of its StudySpec (seeded data, fixed
cadence), so re-runs are bit-identical. "sup in t" always means the max
over the shared report cadence of the compared runs.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .diagnostics import blowup_monitor, monotonicity_audit
from .errors import BlowUpError, UsageError
from .grid import Field, Grid, norm, random_band_limited_field, to_spectral
from .integrator import SchemeConfig, integrate, trajectory
from .io import write_config
from .mollifier import make_mollifier, mollify
from .physics import DEFAULT_PARAMS, EffectiveFieldParams, gn_ratios, lipschitz_probe

STUDY_KINDS = ("eps_cauchy", "eps_limit", "uniqueness", "linear_growth", "gn_calibration")

# spectrum decay exponent of generated data (H^2 regularity)
SMOOTHNESS_H2 = 3.0

# the uniqueness legs are compared at the shared times j*t_end/SHARED_TIMES
SHARED_TIMES = 10


@dataclass(frozen=True)
class StudySpec:
    kind: str
    dim: int = 2
    n: int = 64
    box_length: float = 2 * math.pi
    seed: int = 0
    decay_r: float = SMOOTHNESS_H2
    amplitude: float = 0.5
    kmax: int | None = None
    eps_list: tuple = ()
    t_end: float = 0.5
    scheme: SchemeConfig = dc_field(default_factory=SchemeConfig)
    kernel: str = "gaussian"
    report_every: int = 10
    params: EffectiveFieldParams = DEFAULT_PARAMS
    outdir: str | None = None
    drop_largest_eps: bool = False
    # uniqueness studies compare (scheme, eps, kernel) against a second leg
    scheme_b: SchemeConfig | None = None
    kernel_b: str = "gaussian"
    eps_a: float = 0.0
    eps_b: float = 0.0
    # linear_growth: targeted squared mode magnitudes
    mode_ksq: tuple = (0, 1, 2, 4, 9)
    # gn_calibration family size
    family_size: int = 100

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise UsageError(f"unknown study kind {self.kind!r}; choose from {STUDY_KINDS}")
        if self.t_end <= 0:
            raise UsageError(f"t_end must be positive, got {self.t_end}")
        adaptive = self.scheme.adaptive or getattr(self.scheme_b, "adaptive", False)
        if adaptive and self.kind in ("eps_cauchy", "eps_limit", "uniqueness"):
            raise UsageError(f"{self.kind} compares legs stepped on fixed dt; drop --adaptive")
        if self.kind in ("eps_cauchy", "eps_limit"):
            need = 3 if self.kind == "eps_cauchy" else 2
            if len(self.eps_list) < need:
                raise UsageError(f"{self.kind} needs at least {need} eps values")
            if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
                raise UsageError(f"eps list must be strictly decreasing: {self.eps_list}")
            grid = self.grid()
            for eps in self.eps_list:
                make_mollifier(grid, eps, self.kernel)  # validates the range
        if self.kind == "linear_growth" and any(k < 0 for k in self.mode_ksq):
            raise UsageError(f"mode |m|^2 values must be nonnegative: {self.mode_ksq}")

    def grid(self) -> Grid:
        return Grid(self.dim, self.n, self.box_length)

    def initial_data(self) -> Field:
        return random_band_limited_field(
            self.grid(),
            seed=self.seed,
            decay_r=self.decay_r,
            amplitude=self.amplitude,
            kmax=self.kmax,
        )


def _study_metadata(spec: StudySpec, eps) -> dict:
    return {
        "kind": spec.kind,
        "grid": f"{spec.dim}d-n{spec.n}",
        "eps": "limit" if eps is None else repr(float(eps)),
        "scheme": spec.scheme.scheme,
        "seed": str(spec.seed),
    }


def _leg_start(u0, eps, kernel):
    """(J, start) of one leg: eps = 0 or None -> the limit flow (no
    mollifier) from u0; otherwise J_eps and the smoothed start J_eps u0."""
    if not eps:
        return None, to_spectral(u0)
    J = make_mollifier(u0.grid, eps, kernel)
    return J, mollify(J, to_spectral(u0))


def _leg(spec, u0, eps):
    """The samples of one leg of spec's scheme and kernel from _leg_start;
    a blow-up carries the leg's label and verdict."""
    J, start = _leg_start(u0, eps, spec.kernel)
    try:
        yield from trajectory(
            start, spec.t_end, spec.scheme, spec.params, J,
            report_every=spec.report_every, metadata=_study_metadata(spec, eps),
        )
    except BlowUpError as exc:
        raise _attach_verdict(exc, f"eps={eps}")


def _attach_verdict(exc: BlowUpError, label: str) -> BlowUpError:
    exc.verdict = blowup_monitor(exc.series) if exc.series is not None else None
    exc.study_label = label
    return exc


def sup_t_difference(snaps_a: dict, snaps_b: dict, kind: str = "l2", s=None) -> float:
    """max over shared cadence points of ||a(t) - b(t)|| (enforced shared)."""
    if set(snaps_a) != set(snaps_b):
        raise UsageError("compared runs must share their report cadence")
    return max(norm(snaps_a[k] - snaps_b[k], kind, s=s) for k in snaps_a)


def fit_loglog(x, y):
    """Least-squares slope/intercept of log y vs log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise UsageError("log-log fit needs positive data")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class RateReport:
    kind: str
    pairs: tuple  # ((eps_big, eps_small, sup_t_diff), ...)
    slope: float
    intercept: float
    dropped_largest: bool
    h2_sups: tuple  # ((eps-or-None, sup_t H2 norm), ...)
    stationary: bool = False

    @property
    def h2_spread(self) -> float:
        vals = [v for _, v in self.h2_sups]
        hi, lo = max(vals), min(vals)
        return 0.0 if hi == 0 else (hi - lo) / hi

    def summary(self) -> str:
        lines = [
            f"study: {self.kind}",
            f"pairs (eps_big, eps_small, sup_t L2 diff):",
        ]
        for a, b, d in self.pairs:
            lines.append(f"  ({a:g}, {b:g}) -> {d:.6e}")
        lines.append(
            f"log-log slope {self.slope:.4f} (intercept {self.intercept:.4f},"
            f" largest eps {'dropped' if self.dropped_largest else 'kept'})"
        )
        lines.append(f"sup_t H2 spread: {self.h2_spread:.4%}")
        if self.stationary:
            lines.append("stationary data: differences at roundoff, slope not meaningful")
        return "\n".join(lines)


def _eps_study(spec: StudySpec, against_limit: bool) -> RateReport:
    """Steps the legs in lockstep, one sample at a time in eps order, and
    holds only their current states: each pair's sup-in-t L2 difference
    and each leg's sup-in-t H2 are running maxima. A blow-up names the
    first leg to blow up, to within one report interval; legs that blow
    up in the same interval go in eps order."""
    u0 = spec.initial_data()
    eps_values = list(spec.eps_list) + ([None] if against_limit else [])
    m = len(spec.eps_list)
    if against_limit:
        pair_index = [(i, m) for i in range(m)]
    else:
        pair_index = list(itertools.combinations(range(m), 2))
    ys = [0.0] * len(pair_index)
    h2 = [-math.inf] * len(eps_values)
    for samples in zip(*(_leg(spec, u0, eps) for eps in eps_values), strict=True):
        if len({r.t for _, r in samples}) > 1:
            raise UsageError("compared runs must share their report cadence")
        ys = [
            max(d, norm(samples[i][0] - samples[j][0], "l2"))
            for d, (i, j) in zip(ys, pair_index)
        ]
        h2 = [max(h, r.h2) for h, (_, r) in zip(h2, samples)]
    pairs = [(eps_values[i], eps_values[j] or 0.0, d) for (i, j), d in zip(pair_index, ys)]
    xs = [eps_values[i] for i, _ in pair_index]  # the larger eps of each pair
    stationary = max(ys) <= 1e-12 * max(1.0, *h2)
    if stationary:
        slope, intercept = float("nan"), float("nan")
        dropped = False
    else:
        dropped = spec.drop_largest_eps
        if dropped:
            biggest = max(xs)
            keep = [i for i, x in enumerate(xs) if x < biggest]
            if len(keep) < 2:
                raise UsageError("cannot drop the largest eps: too few pairs left")
            xs = [xs[i] for i in keep]
            ys = [ys[i] for i in keep]
        slope, intercept = fit_loglog(xs, ys)

    report = RateReport(
        kind=spec.kind,
        pairs=tuple(pairs),
        slope=slope,
        intercept=intercept,
        dropped_largest=dropped,
        h2_sups=tuple(zip(eps_values, h2)),
        stationary=stationary,
    )
    _write_study_outputs(spec, report, _rate_rows(report))
    return report


def _rate_rows(report: RateReport):
    rows = ["eps_big,eps_small,sup_t_l2_diff"]
    rows += [f"{a:.17g},{b:.17g},{d:.17g}" for a, b, d in report.pairs]
    return rows


def run_eps_cauchy(spec: StudySpec) -> RateReport:
    """Pairwise sup-in-t L2 differences across the eps sweep; the slope of
    log(diff) vs log(max eps) estimates the first-order-in-eps rate."""
    if spec.kind != "eps_cauchy":
        raise UsageError(f"spec kind {spec.kind!r} is not eps_cauchy")
    return _eps_study(spec, against_limit=False)


def run_eps_limit(spec: StudySpec) -> RateReport:
    """Differences against the unregularized run; also records the sup-t H2
    norms whose spread measures uniform boundedness across eps."""
    if spec.kind != "eps_limit":
        raise UsageError(f"spec kind {spec.kind!r} is not eps_limit")
    return _eps_study(spec, against_limit=True)


@dataclass(frozen=True)
class UniquenessReport:
    final_diff_l2: float
    sup_diff_l2: float
    sup_diff_h2: float
    est_a: float
    est_b: float
    dt_a: float
    dt_b: float
    same_flow: bool  # both legs discretize the same equation

    @property
    def finer_estimate(self) -> float:
        return min(self.est_a, self.est_b)

    @property
    def passed(self) -> bool:
        # agreement within 3x the finer run's own error estimate; only
        # meaningful when both legs discretize the same equation
        return self.same_flow and self.final_diff_l2 <= 3.0 * self.finer_estimate

    def summary(self) -> str:
        return "\n".join(
            [
                "study: uniqueness",
                f"final L2 difference: {self.final_diff_l2:.6e}",
                f"sup_t L2 difference: {self.sup_diff_l2:.6e}",
                f"sup_t H2 difference: {self.sup_diff_h2:.6e}",
                f"self-estimates: a={self.est_a:.6e} (dt={self.dt_a:g}), "
                f"b={self.est_b:.6e} (dt={self.dt_b:g})",
                f"same flow: {self.same_flow}; "
                f"within 3x finer estimate: {self.passed}",
            ]
        )


def _leg_with_estimate(spec, u0, cfg, eps, kernel, label):
    """Run one leg at dt and dt/2, each landing on the shared times (legs
    with different dt share no step-count cadence); the dt/2 run is the
    leg's answer and ||u_dt - u_{dt/2}|| / (2^p - 1) its self-estimated
    error."""
    J, start = _leg_start(u0, eps, kernel)
    times = tuple(spec.t_end * j / SHARED_TIMES for j in range(1, SHARED_TIMES + 1))
    runs = []
    try:
        for run_cfg in (cfg, replace(cfg, dt=cfg.dt / 2.0)):
            run = trajectory(
                start, times[-1], run_cfg, spec.params, J, report_every=10**9, land_at=times
            )
            states = [u for u, _ in run]
            if len(states) != SHARED_TIMES + 1:
                raise UsageError(f"t_end={spec.t_end:g} leaves no step between shared times")
            runs.append(dict(zip((0.0, *times), states)))
    except BlowUpError as exc:
        raise _attach_verdict(exc, label)
    coarse, fine = runs
    return fine, sup_t_difference(coarse, fine) / (2.0**cfg.order - 1.0)


def _coarsened(cfg, est, est_target, t_end):
    """Raise cfg.dt so its self-estimate grows toward est_target.

    Capped at 16x per pass and at two steps between shared times, so a
    rescale can never jump straight past the stability boundary."""
    factor = (est_target / est) ** (1.0 / cfg.order)
    new_dt = min(
        cfg.dt * factor,
        16.0 * cfg.dt,
        t_end / (2.0 * SHARED_TIMES),
        cfg.dt_max,
    )
    return replace(cfg, dt=max(new_dt, cfg.dt))


def run_uniqueness(spec: StudySpec) -> UniquenessReport:
    """Two discretizations of the same initial data; when they discretize
    the same flow, their answers must agree within the finer error bar."""
    if spec.kind != "uniqueness":
        raise UsageError(f"spec kind {spec.kind!r} is not uniqueness")
    if spec.scheme_b is None:
        raise UsageError("uniqueness study needs a second configuration (scheme_b)")
    u0 = spec.initial_data()
    legs = [(spec.eps_a, spec.kernel, "leg a"), (spec.eps_b, spec.kernel_b, "leg b")]
    cfgs = [spec.scheme, spec.scheme_b]
    runs = [_leg_with_estimate(spec, u0, cfg, *leg) for cfg, leg in zip(cfgs, legs)]
    ests = [est for _, est in runs]
    # One rescaling pass toward matched accuracy so "3x the finer estimate"
    # compares runs of commensurate quality.  Always coarsen the *more
    # accurate* leg, within _coarsened's caps: refining the sloppier one can
    # demand arbitrarily many steps (a first-order leg chasing a second-order
    # one needs dt ~ est^1).  A leg already at a cap keeps its run.
    if all(est > 0 for est in ests) and not (0.1 <= ests[1] / ests[0] <= 10.0):
        i = int(ests[1] < ests[0])  # the more accurate leg
        cfg = _coarsened(cfgs[i], ests[i], ests[1 - i], spec.t_end)
        if cfg.dt != cfgs[i].dt:
            eps, kernel, label = legs[i]
            cfgs[i] = cfg
            runs[i] = _leg_with_estimate(spec, u0, cfg, eps, kernel, f"{label} (rescaled)")
    (snaps_a, est_a), (snaps_b, est_b) = runs
    last = max(snaps_a)
    same_flow = (spec.eps_a == spec.eps_b) and (
        spec.eps_a == 0 or spec.kernel == spec.kernel_b
    )
    report = UniquenessReport(
        final_diff_l2=norm(snaps_a[last] - snaps_b[last], "l2"),
        sup_diff_l2=sup_t_difference(snaps_a, snaps_b),
        sup_diff_h2=sup_t_difference(snaps_a, snaps_b, "hs", s=2),
        est_a=est_a,
        est_b=est_b,
        dt_a=cfgs[0].dt,
        dt_b=cfgs[1].dt,
        same_flow=same_flow,
    )
    rows = [
        "quantity,value",
        f"final_diff_l2,{report.final_diff_l2:.17g}",
        f"sup_diff_l2,{report.sup_diff_l2:.17g}",
        f"sup_diff_h2,{report.sup_diff_h2:.17g}",
        f"est_a,{report.est_a:.17g}",
        f"est_b,{report.est_b:.17g}",
    ]
    _write_study_outputs(spec, report, rows)
    return report


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple  # ((ksq, sigma, measured_rate, rel_error), ...)
    max_rel_error: float
    contaminated: bool
    contamination: float
    stationary: bool = False

    def summary(self) -> str:
        lines = ["study: linear_growth", "ksq sigma measured rel_error"]
        for ksq, sig, rate, rel in self.rows:
            lines.append(f"  {ksq:g} {sig:+.6g} {rate:+.9g} {rel:.3e}")
        lines.append(f"max relative error: {self.max_rel_error:.3e}")
        if self.stationary:
            lines.append("zero amplitude: nothing to measure, trivial pass")
        if self.contaminated:
            lines.append(
                f"FLAGGED: rates shift by {self.contamination:.3e} when the "
                "amplitude halves - cubic contamination, reduce the amplitude"
            )
        return "\n".join(lines)


def _mode_for_ksq(grid: Grid, ksq_target: int):
    """An integer mode with |m|^2 = ksq_target (axis-aligned first)."""
    limit = int(math.isqrt(ksq_target)) + 1
    for m1 in range(limit + 1):
        rem = ksq_target - m1 * m1
        if rem < 0:
            continue
        m2 = int(math.isqrt(rem))
        if m2 * m2 == rem:
            mode = [m1, m2] + [0] * (grid.dim - 2)
            if grid.dim == 1:
                if m2 != 0:
                    continue
                mode = [m1]
            return tuple(mode)
    raise UsageError(f"no lattice mode with |m|^2 = {ksq_target}")


def _seed_mode(grid: Grid, mode, amplitude) -> Field:
    phase = np.zeros(grid.shape)
    for axis, m in enumerate(mode):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        phase = phase + m * grid.x1.reshape(shape)
    data = np.zeros((3,) + grid.shape)
    data[2] = amplitude * np.cos(phase)
    return Field(grid, data, "physical")


def _measure_mode_rate(spec, grid, mode, amplitude):
    """Fit log |u_hat(mode, t)| vs t over the report cadence."""
    u0 = _seed_mode(grid, mode, amplitude)
    idx = tuple(m % grid.n for m in mode)
    run = trajectory(u0, spec.t_end, spec.scheme, spec.params, report_every=spec.report_every)
    ts, amps = np.array([(r.t, abs(u.data[(2,) + idx])) for u, r in run]).T
    if np.any(amps <= 0):
        raise UsageError(f"mode {mode} amplitude reached zero; shorten t_end")
    rate, _ = np.polyfit(ts, np.log(amps), 1)
    return float(rate)


def run_linear_growth(spec: StudySpec) -> GrowthReport:
    """Measured exponential rate of each seeded tiny mode vs the linear
    symbol sigma(k). A halved-amplitude rerun detects cubic contamination:
    the quadratic-in-amplitude rate shift must sit below 1e-9."""
    if spec.kind != "linear_growth":
        raise UsageError(f"spec kind {spec.kind!r} is not linear_growth")
    grid = spec.grid()
    p = spec.params
    amplitude = spec.amplitude
    if amplitude == 0.0:
        # stationary (zero) data: no mode to track, trivially consistent
        report = GrowthReport(
            rows=(), max_rel_error=0.0, contaminated=False, contamination=0.0,
            stationary=True,
        )
        _write_study_outputs(spec, report, ["ksq,sigma,measured_rate,rel_error"])
        return report
    rows = []
    contamination = 0.0
    for ksq_t in spec.mode_ksq:
        mode = _mode_for_ksq(grid, int(ksq_t))
        ksq = float(sum(m * m for m in mode)) * (2 * math.pi / grid.box_length) ** 2
        sigma = (
            -p.lambda_e * ksq**2
            - p.laplacian_coeff * ksq
            + p.cubic_coeff
        )
        rate = _measure_mode_rate(spec, grid, mode, amplitude)
        rate_half = _measure_mode_rate(spec, grid, mode, amplitude / 2.0)
        contamination = max(contamination, abs(rate - rate_half))
        rel = abs(rate - sigma) / max(abs(sigma), 1.0)
        rows.append((float(ksq_t), float(sigma), rate, rel))
    report = GrowthReport(
        rows=tuple(rows),
        max_rel_error=max(r[-1] for r in rows),
        contaminated=bool(contamination > 1e-9),
        contamination=contamination,
    )
    csv_rows = ["ksq,sigma,measured_rate,rel_error"]
    csv_rows += [f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}" for a, b, c, d in report.rows]
    _write_study_outputs(spec, report, csv_rows)
    return report


@dataclass(frozen=True)
class CalibrationReport:
    constants: dict

    def summary(self) -> str:
        lines = ["study: gn_calibration"]
        for key in sorted(self.constants):
            lines.append(f"  {key} = {self.constants[key]}")
        return "\n".join(lines)


def run_gn_calibration(spec: StudySpec) -> CalibrationReport:
    """Max observed constants of the interpolation inequalities and the
    smoothed-dynamics Lipschitz bound over a seeded field family; with an
    outdir they are written to constants.txt, which feeds the regression
    tests."""
    if spec.kind != "gn_calibration":
        raise UsageError(f"spec kind {spec.kind!r} is not gn_calibration")
    if spec.family_size < 100:
        raise UsageError("calibration needs a family of at least 100 fields")
    grid = spec.grid()
    ratios = {"linf_h1_h2": 0.0, "grad_l4": 0.0}
    fields = []
    for i in range(spec.family_size):
        u = random_band_limited_field(
            grid,
            seed=spec.seed + i,
            decay_r=(2.0, 3.0, 5.0)[i % 3],
            amplitude=(0.3, 0.5, 1.0)[(i // 3) % 3],
            kmax=(grid.n // 6, grid.n // 4)[i % 2],
        )
        fields.append(u)
        for key, val in gn_ratios(u).items():
            ratios[key] = max(ratios[key], val)

    J = make_mollifier(grid, 0.2, spec.kernel)
    lip = 0.0
    for i in range(0, 50):
        a = fields[i % len(fields)]
        b = fields[(i + 1) % len(fields)]
        sa, sb = norm(a, "hs", s=2), norm(b, "hs", s=2)
        ua = a * (1.0 / sa if sa > 1 else 1.0)  # keep the pair in the unit ball
        ub = b * (1.0 / sb if sb > 1 else 1.0)
        lip = max(lip, lipschitz_probe(ua, ub, J, spec.params))

    constants = {
        "gn_linf_h1_h2_max": f"{ratios['linf_h1_h2']:.17g}",
        "gn_grad_l4_max": f"{ratios['grad_l4']:.17g}",
        "lipschitz_h2_eps0.2_max": f"{lip:.17g}",
        "family_size": str(spec.family_size),
        "grid": f"{spec.dim}d-n{spec.n}",
    }
    report = CalibrationReport(constants=constants)
    if spec.outdir is not None:
        write_config(
            os.path.join(spec.outdir, "constants.txt"),
            constants,
            header="calibrated inequality constants (max over seeded family)",
        )
    return report


def find_stable_dt(grid: Grid, seed: int = 0) -> float:
    """Largest dt in a halving ladder whose probe run keeps the energy
    monotone and the gradient bounded; the audit-failure demonstrations
    use 10x this value.

    The probe is the seeded rough band-limited field of amplitude 0.5 and
    kmax = n/4 under the first-order scheme, whose stability window is the
    narrowest. The ladder starts at dt = 0.4 and halves up to 12 times;
    every rung integrates to max(0.5, 25 dt), so a large dt cannot pass on
    a one-step technicality.
    """
    u0 = random_band_limited_field(grid, seed=seed, amplitude=0.5, kmax=grid.n // 4)
    cfg = SchemeConfig(scheme="etd1")
    dt = 0.4
    for _ in range(12):
        try:
            horizon = max(0.5, 25 * dt)
            res = integrate(u0, horizon, replace(cfg, dt=dt), report_every=1)
            if monotonicity_audit(res.series).passed and blowup_monitor(res.series).healthy:
                return dt
        except BlowUpError:
            pass
        dt /= 2.0
    raise UsageError(f"no stable dt found above {dt:g} for this configuration")


def _write_study_outputs(spec: StudySpec, report, csv_rows):
    if spec.outdir is None:
        return
    base = os.path.join(spec.outdir, spec.kind)
    with open(base + ".csv", "w") as fh:
        fh.write("\n".join(csv_rows) + "\n")
    with open(base + ".txt", "w") as fh:
        fh.write(report.summary() + "\n")
