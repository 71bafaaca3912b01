"""Scripted studies: regularization-parameter convergence, uniqueness
cross-checks, linear growth-rate validation, and inequality-constant
calibration.

Each runner takes the values its study reads and is a pure function of
them (seeded data, fixed cadence), so re-runs are bit-identical; the ε and
uniqueness runners step on one fixed dt per leg. Each report states its own
gate: `failures()` lists the checks it failed. "sup in t" always means the
max over the shared report cadence of the compared runs.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import blowup_monitor, monotonicity_audit
from .errors import BlowUpError, UsageError
from .grid import Field, Grid, norm, random_band_limited_field, to_spectral
from .integrator import SchemeConfig, integrate, trajectory
from .mollifier import make_mollifier, mollify
from .physics import DEFAULT_PARAMS, gn_ratios, lipschitz_probe

# the uniqueness legs are compared at the shared times j*t_end/SHARED_TIMES
SHARED_TIMES = 10

# Grids of at least this many points step their eps legs on several cores.
# numpy's transforms release the GIL, so a second core steps one leg while
# the first steps another; on smaller grids the legs' Python work holds the
# GIL and threads lose. Threaded/serial wall time of an eps_limit study
# (five legs, one step and one report per sample; medians of 9 pairs on
# two cores): 2d n=32 (1,024 points) 1.94, 2d n=64 (4,096) 1.01, 2d n=80
# (6,400) 0.90, 3d n=20 (8,000) 0.83, 2d n=96 (9,216) 0.91, 2d n=128
# (16,384) 0.66, 3d n=32 (32,768) 0.61.
THREADED_POINTS = 8000


def _check_t_end(t_end):
    if t_end <= 0:
        raise UsageError(f"t_end must be positive, got {t_end}")


def _leg_start(u0, J):
    """The start of one leg: u0 for the limit flow (J None), else J u0."""
    return to_spectral(u0) if J is None else mollify(J, to_spectral(u0))


def _leg(u0, J, label, t_end, cfg, params, report_every):
    """The samples of one leg from _leg_start; a blow-up carries label."""
    try:
        yield from trajectory(
            _leg_start(u0, J), t_end, cfg, params, J, report_every=report_every
        )
    except BlowUpError as exc:
        exc.study_label = label
        raise


def _lanes(legs, npoints):
    """How many threads step the legs: one below THREADED_POINTS, else
    one per available core, at most one per leg."""
    if npoints < THREADED_POINTS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return min(len(legs), cores)


def _advance(legs):
    """next() of each leg, as (sample, None) or (None, exception); a leg
    that has ended gives (None, None)."""
    out = []
    for leg in legs:
        try:
            out.append((next(leg), None))
        except StopIteration:
            out.append((None, None))
        except Exception as exc:  # raised in eps order by _lockstep
            out.append((None, exc))
    return out


def _lockstep(legs, npoints):
    """Yield the legs' samples one sample at a time, as a tuple in leg
    order. For each sample every leg advances once: with k lanes
    (_lanes), lane i advances legs i, i + k, ...; the calling thread runs
    lane 0 and k - 1 worker threads the others. A leg does the same
    arithmetic on any thread, so the samples do not depend on k. When
    legs fail in one sample, the first failing leg's error is raised after
    every leg has finished that sample; legs that end at different samples
    do not share their report cadence."""
    lanes = _lanes(legs, npoints)
    shares = [legs[i::lanes] for i in range(lanes)]
    pool = None
    if lanes > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(lanes - 1, thread_name_prefix="eps-leg")
    try:
        while True:
            futures = [pool.submit(_advance, share) for share in shares[1:]]
            outcomes = [_advance(shares[0])] + [f.result() for f in futures]
            steps = [None] * len(legs)
            for i, lane in enumerate(outcomes):
                steps[i::lanes] = lane
            for _, exc in steps:
                if exc is not None:
                    raise exc
            done = [sample is None for sample, _ in steps]
            if all(done):
                return
            if any(done):
                raise UsageError("compared runs must share their report cadence")
            yield tuple(sample for sample, _ in steps)
    finally:
        if pool is not None:
            pool.shutdown()


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

    def failures(self) -> list[str]:
        """A first-order rate (slope >= 0.9) and sup-in-t H2 norms within
        10% of each other; stationary data passes."""
        if self.stationary:
            return []
        failed = []
        if self.slope < 0.9:
            failed.append(f"rate slope {self.slope:.4f} below 0.9")
        if self.h2_spread > 0.10:
            failed.append(f"sup-in-time H2 spread {self.h2_spread:.2%} above 10%")
        return failed


def _eps_study(
    kind, u0, eps_list, against_limit, *, t_end, scheme="etd_rk2", dt=1e-3,
    kernel="gaussian", report_every=10, params=DEFAULT_PARAMS, drop_largest=False,
    outdir=None,
) -> RateReport:
    """The eps study `kind` from u0: every leg steps with scheme at dt, the
    eps legs smooth with kernel, drop_largest leaves the largest eps out of
    the rate fit, and an outdir receives <kind>.csv and <kind>.txt.

    Steps the legs in lockstep, one sample at a time (_lockstep, on
    several cores for large grids), and holds only their current states:
    each pair's sup-in-t L2 difference and each leg's sup-in-t H2 are
    running maxima. A blow-up names the first leg to blow up, to within
    one report interval; legs that blow up in the same interval go in eps
    order."""
    _check_t_end(t_end)
    need = 3 if kind == "eps_cauchy" else 2
    if len(eps_list) < need:
        raise UsageError(f"{kind} needs at least {need} eps values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise UsageError(f"eps list must be strictly decreasing: {eps_list}")
    cfg = SchemeConfig(scheme=scheme, dt=dt)
    eps_values = list(eps_list) + ([None] if against_limit else [])
    legs = [  # each mollifier is built here, so an eps out of range fails before any step
        _leg(u0, None if eps is None else make_mollifier(u0.grid, eps, kernel),
             f"eps={eps}", t_end, cfg, params, report_every)
        for eps in eps_values
    ]
    m = len(eps_list)
    if against_limit:
        pair_index = [(i, m) for i in range(m)]
    else:
        pair_index = list(itertools.combinations(range(m), 2))
    ys = [0.0] * len(pair_index)
    h2 = [-math.inf] * len(eps_values)
    for samples in _lockstep(legs, u0.grid.npoints):
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
        dropped = drop_largest
        if dropped:
            biggest = max(xs)
            keep = [i for i, x in enumerate(xs) if x < biggest]
            if len(keep) < 2:
                raise UsageError("cannot drop the largest eps: too few pairs left")
            xs = [xs[i] for i in keep]
            ys = [ys[i] for i in keep]
        slope, intercept = fit_loglog(xs, ys)

    report = RateReport(
        kind=kind,
        pairs=tuple(pairs),
        slope=slope,
        intercept=intercept,
        dropped_largest=dropped,
        h2_sups=tuple(zip(eps_values, h2)),
        stationary=stationary,
    )
    _write_study_outputs(outdir, kind, report, _rate_rows(report))
    return report


def _rate_rows(report: RateReport):
    rows = ["eps_big,eps_small,sup_t_l2_diff"]
    rows += [f"{a:.17g},{b:.17g},{d:.17g}" for a, b, d in report.pairs]
    return rows


def run_eps_cauchy(u0: Field, eps_list, **study) -> RateReport:
    """Pairwise sup-in-t L2 differences across the eps sweep (at least three
    values, strictly decreasing) from u0; the slope of log(diff) vs
    log(max eps) estimates the first-order-in-eps rate. `study` is the
    keyword arguments of _eps_study."""
    return _eps_study("eps_cauchy", u0, eps_list, False, **study)


def run_eps_limit(u0: Field, eps_list, **study) -> RateReport:
    """Differences against the unregularized run (at least two eps values);
    also records the sup-t H2 norms whose spread measures uniform
    boundedness across eps."""
    return _eps_study("eps_limit", u0, eps_list, True, **study)


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

    def failures(self) -> list[str]:
        if self.passed:
            return []
        return [
            "discretizations disagree beyond 3x the finer self-estimate "
            "(or the two legs define different flows)"
        ]


def _leg_with_estimate(u0, cfg, eps, kernel, label, t_end, params):
    """Run one leg at dt and dt/2, each landing on the shared times (legs
    with different dt share no step-count cadence); the dt/2 run is the
    leg's answer and ||u_dt - u_{dt/2}|| / (2^p - 1) its self-estimated
    error. eps = 0 is the limit flow."""
    J = make_mollifier(u0.grid, eps, kernel) if eps else None
    start = _leg_start(u0, J)
    times = tuple(t_end * j / SHARED_TIMES for j in range(1, SHARED_TIMES + 1))
    runs = []
    try:
        for run_cfg in (cfg, replace(cfg, dt=cfg.dt / 2.0)):
            run = trajectory(
                start, times[-1], run_cfg, params, J, report_every=10**9, land_at=times
            )
            states = [u for u, _ in run]
            if len(states) != SHARED_TIMES + 1:
                raise UsageError(f"t_end={t_end:g} leaves no step between shared times")
            runs.append(dict(zip((0.0, *times), states)))
    except BlowUpError as exc:
        exc.study_label = label
        raise
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


def run_uniqueness(
    u0: Field, *, t_end, scheme_b, dt_b, scheme="etd_rk2", dt=1e-3, kernel="gaussian",
    kernel_b="gaussian", eps_a=0.0, eps_b=0.0, params=DEFAULT_PARAMS, outdir=None,
) -> UniquenessReport:
    """Two discretizations of u0, leg a (scheme, dt, kernel, eps_a) and leg
    b (scheme_b, dt_b, kernel_b, eps_b); when they discretize the same
    flow, their answers must agree within the finer error bar."""
    _check_t_end(t_end)
    legs = [(eps_a, kernel, "leg a"), (eps_b, kernel_b, "leg b")]
    cfgs = [SchemeConfig(scheme=scheme, dt=dt), SchemeConfig(scheme=scheme_b, dt=dt_b)]
    runs = [
        _leg_with_estimate(u0, cfg, *leg, t_end, params) for cfg, leg in zip(cfgs, legs)
    ]
    ests = [est for _, est in runs]
    # One rescaling pass toward matched accuracy so "3x the finer estimate"
    # compares runs of commensurate quality.  Always coarsen the *more
    # accurate* leg, within _coarsened's caps: refining the sloppier one can
    # demand arbitrarily many steps (a first-order leg chasing a second-order
    # one needs dt ~ est^1).  A leg already at a cap keeps its run.
    if all(est > 0 for est in ests) and not (0.1 <= ests[1] / ests[0] <= 10.0):
        i = int(ests[1] < ests[0])  # the more accurate leg
        cfg = _coarsened(cfgs[i], ests[i], ests[1 - i], t_end)
        if cfg.dt != cfgs[i].dt:
            eps, leg_kernel, label = legs[i]
            cfgs[i] = cfg
            runs[i] = _leg_with_estimate(
                u0, cfg, eps, leg_kernel, f"{label} (rescaled)", t_end, params
            )
    (snaps_a, est_a), (snaps_b, est_b) = runs
    last = max(snaps_a)
    same_flow = (eps_a == eps_b) and (eps_a == 0 or kernel == kernel_b)
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
    _write_study_outputs(outdir, "uniqueness", report, rows)
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

    def failures(self) -> list[str]:
        """Rates within 1e-6 relative of the symbol, uncontaminated; zero
        amplitude passes."""
        if self.stationary or (not self.contaminated and self.max_rel_error <= 1e-6):
            return []
        if self.contaminated:
            return ["cubic contamination detected; lower --amplitude"]
        return [f"max relative rate error {self.max_rel_error:.3e} above 1e-6"]


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


def _measure_mode_rate(grid, mode, amplitude, t_end, scheme, params, report_every):
    """Fit log |u_hat(mode, t)| vs t over the report cadence."""
    u0 = _seed_mode(grid, mode, amplitude)
    idx = tuple(m % grid.n for m in mode)
    run = trajectory(u0, t_end, scheme, params, report_every=report_every)
    ts, amps = np.array([(r.t, abs(u.data[(2,) + idx])) for u, r in run]).T
    if np.any(amps <= 0):
        raise UsageError(f"mode {mode} amplitude reached zero; shorten t_end")
    rate, _ = np.polyfit(ts, np.log(amps), 1)
    return float(rate)


def run_linear_growth(
    grid: Grid, *, t_end, amplitude, mode_ksq=(0, 1, 2, 4, 9), scheme=SchemeConfig(),
    report_every=10, params=DEFAULT_PARAMS, outdir=None,
) -> GrowthReport:
    """Measured exponential rate of a single mode of each squared magnitude
    in mode_ksq, seeded at amplitude, vs the linear symbol sigma(k). A
    halved-amplitude rerun detects cubic contamination: the
    quadratic-in-amplitude rate shift must sit below 1e-9. scheme is a
    SchemeConfig, adaptive or not."""
    _check_t_end(t_end)
    if any(k < 0 for k in mode_ksq):
        raise UsageError(f"mode |m|^2 values must be nonnegative: {mode_ksq}")
    if amplitude == 0.0:
        # stationary (zero) data: no mode to track, trivially consistent
        report = GrowthReport(
            rows=(), max_rel_error=0.0, contaminated=False, contamination=0.0,
            stationary=True,
        )
        csv_rows = ["ksq,sigma,measured_rate,rel_error"]
        _write_study_outputs(outdir, "linear_growth", report, csv_rows)
        return report
    stepping = (t_end, scheme, params, report_every)
    rows = []
    contamination = 0.0
    for ksq_t in mode_ksq:
        mode = _mode_for_ksq(grid, int(ksq_t))
        ksq = float(sum(m * m for m in mode)) * (2 * math.pi / grid.box_length) ** 2
        sigma = (
            -params.lambda_e * ksq**2
            - params.laplacian_coeff * ksq
            + params.cubic_coeff
        )
        rate = _measure_mode_rate(grid, mode, amplitude, *stepping)
        rate_half = _measure_mode_rate(grid, mode, amplitude / 2.0, *stepping)
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
    _write_study_outputs(outdir, "linear_growth", report, csv_rows)
    return report


@dataclass(frozen=True)
class CalibrationReport:
    constants: dict

    def summary(self) -> str:
        lines = ["study: gn_calibration"]
        for key in sorted(self.constants):
            lines.append(f"  {key} = {self.constants[key]}")
        return "\n".join(lines)


def run_gn_calibration(
    grid: Grid, *, seed=0, kernel="gaussian", params=DEFAULT_PARAMS, family_size=100
) -> CalibrationReport:
    """Max observed constants of the interpolation inequalities and the
    smoothed-dynamics Lipschitz bound over the seeded field family that
    starts at seed."""
    if family_size < 100:
        raise UsageError("calibration needs a family of at least 100 fields")
    ratios = {"linf_h1_h2": 0.0, "grad_l4": 0.0}
    fields = []
    for i in range(family_size):
        u = random_band_limited_field(
            grid,
            seed=seed + i,
            decay_r=(2.0, 3.0, 5.0)[i % 3],
            amplitude=(0.3, 0.5, 1.0)[(i // 3) % 3],
            kmax=(grid.n // 6, grid.n // 4)[i % 2],
        )
        fields.append(u)
        for key, val in gn_ratios(u).items():
            ratios[key] = max(ratios[key], val)

    J = make_mollifier(grid, 0.2, kernel)
    lip = 0.0
    for i in range(0, 50):
        a = fields[i % len(fields)]
        b = fields[(i + 1) % len(fields)]
        sa, sb = norm(a, "hs", s=2), norm(b, "hs", s=2)
        ua = a * (1.0 / sa if sa > 1 else 1.0)  # keep the pair in the unit ball
        ub = b * (1.0 / sb if sb > 1 else 1.0)
        lip = max(lip, lipschitz_probe(ua, ub, J, params))

    constants = {
        "gn_linf_h1_h2_max": f"{ratios['linf_h1_h2']:.17g}",
        "gn_grad_l4_max": f"{ratios['grad_l4']:.17g}",
        "lipschitz_h2_eps0.2_max": f"{lip:.17g}",
        "family_size": str(family_size),
        "grid": f"{grid.dim}d-n{grid.n}",
    }
    return CalibrationReport(constants=constants)


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


def _write_study_outputs(outdir, kind, report, csv_rows):
    if outdir is None:
        return
    base = os.path.join(outdir, kind)
    with open(base + ".csv", "w") as fh:
        fh.write("\n".join(csv_rows) + "\n")
    with open(base + ".txt", "w") as fh:
        fh.write(report.summary() + "\n")
