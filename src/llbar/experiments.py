"""Scripted studies: regularization-parameter convergence, uniqueness
cross-checks, linear growth-rate validation, and inequality-constant
calibration.

Each runner takes the values its study reads and is a pure function of
them (seeded data, fixed cadence), so re-runs are bit-identical. Every
stepping runner takes a scheme name and a dt, so each run steps on one
fixed dt, and a study steps each run through _leg; runs that are compared
sample by sample step through _fold_legs. Each report states its own
gate: `failures()` lists the checks it failed. "sup in t" always means
the max over the shared report cadence of the compared runs.
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
from .integrator import DT_MAX, SchemeConfig, integrate, trajectory
from .mollifier import make_mollifier, mollify
from .physics import DEFAULT_PARAMS, gn_ratios, linear_symbol, lipschitz_probe

# the uniqueness legs are compared at the shared times j*t_end/SHARED_TIMES
SHARED_TIMES = 10

# the seeded fields over which calibration takes its maxima
FAMILY_SIZE = 100

# Grids of at least this many points step their eps legs on several cores.
# numpy's transforms release the GIL, so a second core steps one leg while
# the first steps another; on smaller grids the legs' Python work holds the
# GIL and threads lose. Threaded/serial wall time of an eps_limit study
# (five legs, one step and one H2 norm per sample; medians of 9 pairs on
# two cores): 2d n=32 (1,024 points) 2.18, 2d n=64 (4,096) 1.25, 2d n=80
# (6,400) 0.82, 3d n=20 (8,000) 0.83, 2d n=96 (9,216) 0.79, 3d n=24
# (13,824) 0.68, 2d n=128 (16,384) 0.87, 3d n=32 (32,768) 0.70. Below
# 8,000 threads do not win 8 of 9 pairs in repeated sets: 2d n=72 (5,184)
# 0.92/0.97/1.07 (9, 6, 2 of 9 won), 2d n=76 (5,776) 0.97/1.03/1.02
# (7, 3, 4), 2d n=80 0.98/1.00/0.96 (5, 4, 6); each leg pinned to a thread.
THREADED_POINTS = 8000


def _check_t_end(t_end):
    if t_end <= 0:
        raise UsageError(f"t_end must be positive, got {t_end}")


def _leg(u0, J, label, t_end, cfg, params, report_every, land_at=()):
    """The samples of one leg from u0 (spectral unless J is None, the limit
    flow) smoothed by J, also at the times land_at; a blow-up carries label."""
    run = trajectory(u0 if J is None else mollify(J, u0), t_end, cfg, params, J,
                     report_every=report_every, land_at=land_at)
    del u0  # the run holds its start until its first step, as a lone leg does
    try:
        yield from run
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


def _fold_legs(legs, pairs, fold_leg, fold_pair, npoints):
    """Step the legs, calling fold_leg(i, sample) on each sample of leg i and
    fold_pair(p, sample_i, sample_j) on each sample both legs of pair p =
    (i, j) produce, in sample order. A pair folds sample k once both legs
    have it; a leg steps again once its pairs have folded its sample, which
    is freed first. The calling thread and _lanes - 1 workers step the ready
    leg with the lowest sample index, most pairs first. When a leg's k-th
    next() raises or ends, or a fold of sample k raises, every leg still
    runs to sample k; then the first of these at the lowest k (leg errors,
    ends, fold errors, in leg or pair order) is raised unless every leg
    ended there. Legs ending at different samples do not share a cadence."""
    import threading

    n = len(legs)
    partners = [[(p, sum(pr) - i) for p, pr in enumerate(pairs) if i in pr] for i in range(n)]
    held = [None] * n  # each leg's current sample
    produced = [0] * n  # how many samples each leg has produced
    pending = [0] * n  # per leg: its step in progress, then its sample's pair folds
    stops = []  # (k, rank: 0 leg error, 1 end, 2 fold error, leg or pair, exception)
    cond = threading.Condition()
    busy, over = 0, False

    def step(i):
        k = produced[i]
        try:
            sample = next(legs[i])
            fold_leg(i, sample)
        except Exception as exc:  # StopIteration: the leg has ended
            with cond:  # pending[i] stays 1: the leg never steps again
                stops.append((k, isinstance(exc, StopIteration), i, exc))
            return
        with cond:
            held[i], produced[i], pending[i] = sample, k + 1, 1 + len(partners[i])
            due = [(p, j) for p, j in partners[i] if produced[j] == k + 1]
        del sample
        for p, _ in due:  # both samples stay held until this fold is counted
            try:
                fold_pair(p, held[pairs[p][0]], held[pairs[p][1]])
            except Exception as exc:
                with cond:
                    stops.append((k, 2, p, exc))
        with cond:
            for leg in [i] * (len(due) + 1) + [j for _, j in due]:
                pending[leg] -= 1
                if not pending[leg]:
                    held[leg] = None

    def work():
        nonlocal busy, over
        while True:
            with cond:
                while not over:
                    bound = min((stop[0] for stop in stops), default=math.inf)
                    ready = [i for i in range(n) if not pending[i] and produced[i] <= bound]
                    if ready or not busy:
                        break
                    cond.wait()
                if over or not ready:
                    over = True
                    cond.notify_all()
                    return
                i = min(ready, key=lambda i: (produced[i], -len(partners[i]), i))
                pending[i], busy = 1, busy + 1
            try:
                step(i)
            finally:
                with cond:
                    busy -= 1
                    cond.notify_all()

    workers = [threading.Thread(target=work, daemon=True) for _ in range(1, _lanes(legs, npoints))]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        with cond:
            over = True
            cond.notify_all()
        for worker in workers:
            worker.join()
    k, rank, _, exc = min(stops, key=lambda stop: stop[:3])
    if rank != 1:
        raise exc
    if sum(stop[:2] == (k, 1) for stop in stops) < n:
        raise UsageError("compared runs must share their report cadence")


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
        lines.append(f"log-log slope {self.slope:.4f} (intercept {self.intercept:.4f})")
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
    kernel="gaussian", report_every=10, params=DEFAULT_PARAMS, outdir=None,
) -> RateReport:
    """The eps study `kind` from u0: every leg steps with scheme at dt, the
    eps legs smooth with kernel, the rate is fitted over every pair, and an
    outdir receives <kind>.csv and <kind>.txt.

    Folds the legs' samples as they come (_fold_legs, on several cores for
    large grids; eps_limit compares each eps leg with the limit leg only)
    and holds only the states a fold still needs: each pair's sup-in-t L2
    difference and each leg's sup-in-t H2 are running maxima. A blow-up
    names the first leg to blow up, to within one sample interval; legs
    that blow up in the same interval go in eps order."""
    _check_t_end(t_end)
    need = 3 if kind == "eps_cauchy" else 2
    if len(eps_list) < need:
        raise UsageError(f"{kind} needs at least {need} eps values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise UsageError(f"eps list must be strictly decreasing: {eps_list}")
    cfg = SchemeConfig(scheme=scheme, dt=dt)
    eps_values = list(eps_list) + ([None] if against_limit else [])
    start = to_spectral(u0)  # one forward transform for every leg
    legs = [  # each mollifier is built here, so an eps out of range fails before any step
        _leg(start, None if eps is None else make_mollifier(u0.grid, eps, kernel),
             f"eps={eps}", t_end, cfg, params, report_every)
        for eps in eps_values
    ]
    del start
    m = len(eps_list)
    if against_limit:
        pair_index = [(i, m) for i in range(m)]
    else:
        pair_index = list(itertools.combinations(range(m), 2))
    ys = [0.0] * len(pair_index)
    h2 = [-math.inf] * len(eps_values)

    def fold_leg(i, sample):
        h2[i] = max(h2[i], norm(sample[1], "hs", s=2))

    def fold_pair(p, a, b):
        if a[0] != b[0]:
            raise UsageError("compared runs must share their report cadence")
        ys[p] = max(ys[p], norm(a[1] - b[1], "l2"))

    _fold_legs(legs, pair_index, fold_leg, fold_pair, u0.grid.npoints)
    pairs = [(eps_values[i], eps_values[j] or 0.0, d) for (i, j), d in zip(pair_index, ys)]
    xs = [eps_values[i] for i, _ in pair_index]  # the larger eps of each pair
    stationary = max(ys) <= 1e-12 * max(1.0, *h2)
    if stationary:
        slope, intercept = float("nan"), float("nan")
    else:
        slope, intercept = fit_loglog(xs, ys)

    report = RateReport(
        kind=kind,
        pairs=tuple(pairs),
        slope=slope,
        intercept=intercept,
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

    @property
    def finer_estimate(self) -> float:
        return min(self.est_a, self.est_b)

    @property
    def passed(self) -> bool:
        # agreement within 3x the finer run's own error estimate
        return self.final_diff_l2 <= 3.0 * self.finer_estimate

    def summary(self) -> str:
        return "\n".join(
            [
                "study: uniqueness",
                f"final L2 difference: {self.final_diff_l2:.6e}",
                f"sup_t L2 difference: {self.sup_diff_l2:.6e}",
                f"sup_t H2 difference: {self.sup_diff_h2:.6e}",
                f"self-estimates: a={self.est_a:.6e} (dt={self.dt_a:g}), "
                f"b={self.est_b:.6e} (dt={self.dt_b:g})",
                f"within 3x finer estimate: {self.passed}",
            ]
        )

    def failures(self) -> list[str]:
        if self.passed:
            return []
        return ["discretizations disagree beyond 3x the finer self-estimate"]


def _leg_with_estimate(u0, cfg, J, label, t_end, params):
    """One leg from the spectral u0 at dt and dt/2, stepped together as one
    pair of _fold_legs and sampled at the shared times (runs with different
    dt share no step-count cadence): the leg's answer is the dt/2 run's
    states, one per shared time from t = 0, and max_t ||u_dt - u_{dt/2}|| /
    (2^p - 1) its self-estimated error. J None is the limit flow."""
    times = tuple(t_end * j / SHARED_TIMES for j in range(1, SHARED_TIMES + 1))
    runs = [
        _leg(u0, J, label, times[-1], run_cfg, params, 10**9, land_at=times)
        for run_cfg in (cfg, replace(cfg, dt=cfg.dt / 2.0))
    ]
    answer, diffs = [], []

    def keep(i, sample):  # the dt run's states go only into diffs
        if i == 1:
            answer.append(sample[1])

    def compare(p, coarse, fine):
        diffs.append(norm(coarse[1] - fine[1], "l2"))

    _fold_legs(runs, [(0, 1)], keep, compare, u0.grid.npoints)
    if len(answer) != SHARED_TIMES + 1:
        raise UsageError(f"t_end={t_end:g} leaves no step between shared times")
    return answer, max(diffs) / (2.0**cfg.order - 1.0)


def _coarsened(cfg, est, est_target, t_end):
    """Raise cfg.dt so its self-estimate grows toward est_target.

    Capped at 16x per pass and at two steps between shared times, so a
    rescale can never jump straight past the stability boundary."""
    factor = (est_target / est) ** (1.0 / cfg.order)
    new_dt = min(
        cfg.dt * factor,
        16.0 * cfg.dt,
        t_end / (2.0 * SHARED_TIMES),
        DT_MAX,
    )
    return replace(cfg, dt=max(new_dt, cfg.dt))


def run_uniqueness(
    u0: Field, *, t_end, scheme_b, dt_b, scheme="etd_rk2", dt=1e-3, eps=0.0,
    kernel="gaussian", params=DEFAULT_PARAMS, outdir=None,
) -> UniquenessReport:
    """Two discretizations of one flow from u0 (the limit flow for eps = 0,
    else the flow smoothed by the kernel at eps), leg a (scheme, dt) and
    leg b (scheme_b, dt_b); their answers must agree within the finer error
    bar."""
    _check_t_end(t_end)
    if max(dt, dt_b) > t_end / SHARED_TIMES * (1.0 + 1e-9):
        raise UsageError(f"dt {max(dt, dt_b):g} exceeds the interval between shared times; "
                         f"t_end={t_end:g} allows dt <= {t_end / SHARED_TIMES:g}")
    J = make_mollifier(u0.grid, eps, kernel) if eps else None
    u0 = to_spectral(u0)  # one forward transform for every run
    labels = ["leg a", "leg b"]
    cfgs = [SchemeConfig(scheme=scheme, dt=dt), SchemeConfig(scheme=scheme_b, dt=dt_b)]
    runs = [
        _leg_with_estimate(u0, cfg, J, label, t_end, params)
        for cfg, label in zip(cfgs, labels)
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
            cfgs[i] = cfg
            runs[i] = _leg_with_estimate(u0, cfg, J, f"{labels[i]} (rescaled)", t_end, params)
    (a, est_a), (b, est_b) = runs
    report = UniquenessReport(
        final_diff_l2=norm(a[-1] - b[-1], "l2"),
        sup_diff_l2=max(norm(ua - ub, "l2") for ua, ub in zip(a, b)),
        sup_diff_h2=max(norm(ua - ub, "hs", s=2) for ua, ub in zip(a, b)),
        est_a=est_a,
        est_b=est_b,
        dt_a=cfgs[0].dt,
        dt_b=cfgs[1].dt,
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
    """An integer mode with |m|^2 = ksq_target and every |m_i| <= n/2: the
    lexicographically first with no component past the second, else the
    first of all."""
    bound = min(grid.n // 2, math.isqrt(ksq_target))
    modes = [
        m for m in itertools.product(range(bound + 1), repeat=grid.dim)
        if sum(c * c for c in m) == ksq_target
    ]
    if not modes:
        raise UsageError(f"no lattice mode with |m|^2 = {ksq_target} on a grid of n={grid.n}")
    return min(modes, key=lambda m: (any(m[2:]), m))


def _seed_mode(grid: Grid, mode, amplitude) -> Field:
    phase = np.zeros(grid.shape)
    for axis, m in enumerate(mode):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        phase = phase + m * grid.x1.reshape(shape)
    data = np.zeros((3,) + grid.shape)
    data[2] = amplitude * np.cos(phase)
    return Field(grid, data, "physical")


def _measure_mode_rate(grid, mode, amplitude, t_end, cfg, params, report_every):
    """Fit log |u_hat(mode, t)| vs t over the report cadence."""
    u0 = _seed_mode(grid, mode, amplitude)
    idx = tuple(m % grid.n for m in mode)
    run = _leg(u0, None, f"mode {mode}", t_end, cfg, params, report_every)
    ts, amps = np.array([(t, abs(u.data[(2,) + idx])) for t, u in run]).T
    if np.any(amps <= 0):
        raise UsageError(f"mode {mode} amplitude reached zero; shorten t_end")
    rate, _ = np.polyfit(ts, np.log(amps), 1)
    return float(rate)


def run_linear_growth(
    grid: Grid, *, t_end, amplitude, mode_ksq=(0, 1, 2, 4, 9), scheme="etd_rk2", dt=1e-3,
    report_every=10, params=DEFAULT_PARAMS, outdir=None,
) -> GrowthReport:
    """Measured exponential rate of a single mode of each squared magnitude
    in mode_ksq, seeded at amplitude and stepped with scheme at dt, vs the
    linear symbol sigma(k). A halved-amplitude rerun, on the same steps,
    detects cubic contamination: the quadratic-in-amplitude rate shift must
    sit below 1e-9."""
    _check_t_end(t_end)
    if not mode_ksq:
        raise UsageError("linear_growth needs at least one mode |m|^2")
    if any(k < 0 for k in mode_ksq):
        raise UsageError(f"mode |m|^2 values must be nonnegative: {mode_ksq}")
    stationary = amplitude == 0.0  # zero data: no mode to track, trivially consistent
    stepping = (t_end, SchemeConfig(scheme=scheme, dt=dt), params, report_every)
    rows = []
    contamination = 0.0
    for ksq_t in () if stationary else mode_ksq:
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
        max_rel_error=max((r[-1] for r in rows), default=0.0),
        contaminated=bool(contamination > 1e-9),
        contamination=contamination,
        stationary=stationary,
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
    grid: Grid, *, seed=0, kernel="gaussian", params=DEFAULT_PARAMS
) -> CalibrationReport:
    """Max observed constants of the interpolation inequalities and the
    smoothed-dynamics Lipschitz bound over the FAMILY_SIZE seeded fields
    that start at seed."""
    ratios = {"linf_h1_h2": 0.0, "grad_l4": 0.0}
    fields = []
    for i in range(FAMILY_SIZE):
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
    for i in range(50):
        a, b = fields[i], fields[i + 1]
        sa, sb = norm(a, "hs", s=2), norm(b, "hs", s=2)
        ua = a * (1.0 / sa if sa > 1 else 1.0)  # keep the pair in the unit ball
        ub = b * (1.0 / sb if sb > 1 else 1.0)
        lip = max(lip, lipschitz_probe(ua, ub, J, params))

    constants = {
        "gn_linf_h1_h2_max": f"{ratios['linf_h1_h2']:.17g}",
        "gn_grad_l4_max": f"{ratios['grad_l4']:.17g}",
        "lipschitz_h2_eps0.2_max": f"{lip:.17g}",
        "family_size": str(FAMILY_SIZE),
        "grid": f"{grid.dim}d-n{grid.n}",
    }
    return CalibrationReport(constants=constants)


def find_stable_dt(grid: Grid, seed: int = 0, params=DEFAULT_PARAMS) -> float:
    """Largest dt in a halving ladder whose probe run under the couplings
    params keeps the energy monotone, ||u||_{L2}^2 within e^{2 sigma* t}
    of its start (sigma* the largest value of the linear symbol) and the
    gradient bounded; the audit-failure demonstrations use 10x this value.

    The probe is the seeded rough band-limited field of amplitude 0.5 and
    kmax = n/4 under the first-order scheme, whose stability window is the
    narrowest. The ladder starts at dt = 0.4 and halves up to 12 times;
    every rung integrates to max(0.5, 25 dt), so a large dt cannot pass on
    a one-step technicality.
    """
    u0 = random_band_limited_field(grid, seed=seed, amplitude=0.5, kmax=grid.n // 4)
    growth = 2.0 * float(np.max(linear_symbol(grid, params)))
    dt = 0.4
    for _ in range(12):
        try:
            horizon = max(0.5, 25 * dt)
            res = integrate(
                u0, horizon, SchemeConfig(scheme="etd1", dt=dt), params, report_every=1
            )
            audit = monotonicity_audit(res.series, growth_constant=growth)
            if audit.passed and blowup_monitor(res.series).healthy:
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
