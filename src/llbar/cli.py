"""Command-line entry point.

Subcommands
    simulate        integrate one trajectory, writing the diagnostic series
    verify          run the integral-identity and smoothing-property suites
    converge        run a scripted study (rates, agreement, growth)
    mollifier-check report the smoothing-family properties of one kernel
    calibrate       measure inequality constants and the stable step

Configuration is resolved as: command-line flag, else `--config` file value
(flat `key = value` lines), else the built-in default. The effective
configuration is echoed to the output directory, so outputs are a pure
function of that echo plus the seed. Nothing is written outside the output
directory; the directory itself defaults to $LLBAR_OUTDIR or ./out.

Exit codes: 0 all checks passed, 1 usage error, 2 a check failed,
3 blow-up, 4 malformed data or other I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .errors import BlowUpError, DataError, UsageError
from .experiments import (
    StudySpec,
    find_stable_dt,
    run_eps_cauchy,
    run_eps_limit,
    run_gn_calibration,
    run_linear_growth,
    run_uniqueness,
)
from .grid import Grid, random_band_limited_field
from .integrator import SCHEMES, SchemeConfig, integrate
from .io import ensure_outdir, load_snapshot, read_config, save_snapshot, write_config
from .mollifier import KINDS, make_mollifier, verify_mollifier_properties
from .physics import EffectiveFieldParams, identity_suite

CONVERGE_STUDIES = ("eps_cauchy", "eps_limit", "uniqueness", "linear_growth")


def _int_or_none(text):
    return None if text.lower() == "none" else int(text)


def _str_or_none(text):
    return None if text.lower() == "none" else text


def _bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _float_list(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _int_list(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# every configuration key: (converter for config-file values, built-in
# default); flags convert through argparse `type=` with the same functions.
# outdir falls back to $LLBAR_OUTDIR or ./out, and subcommand is the running
# one, which a config file may only repeat.
_KEYS = {
    "outdir": (str, None),
    "subcommand": (str, None),
    "dim": (int, 2),
    "n": (int, 64),
    "box_length": (float, 2 * math.pi),
    "chi": (float, 0.25),
    "lambda_r": (float, 1.0),
    "lambda_e": (float, 1.0),
    "gamma": (float, 1.0),
    "scheme": (str, "etd_rk2"),
    "dt": (float, 1e-3),
    "adaptive": (_bool, False),
    "tol": (float, 1e-6),
    "t_end": (float, 1.0),
    "report_every": (int, 10),
    "eps": (float, 0.0),
    "kernel": (str, "gaussian"),
    "seed": (int, 0),
    "amplitude": (float, 0.5),
    "decay_r": (float, 3.0),
    "kmax": (_int_or_none, None),
    "snapshot": (_str_or_none, None),
    "seeds": (int, 3),
    "study": (str, "eps_cauchy"),
    "eps_list": (_float_list, (0.4, 0.2, 0.1, 0.05)),
    "drop_largest": (_bool, False),
    "scheme_b": (str, "imex_bdf2"),
    "dt_b": (float, 5e-4),
    "kernel_b": (str, "gaussian"),
    "eps_a": (float, 0.0),
    "eps_b": (float, 0.0),
    "mode_ksq": (_int_list, (0, 1, 2, 4, 9)),
    "family_size": (int, 100),
    "write_calibration": (_bool, False),
}

# the random initial-data shape knobs; giving any of them together with a
# snapshot path is a conflict (exactly one initial-data source)
_GENERATOR_KEYS = ("amplitude", "decay_r", "kmax")

# converge --study linear_growth measures the linear regime: at the shared
# amplitude default the cubic terms shift its rates past the contamination
# check, so the study defaults to a tiny amplitude instead
LINEAR_GROWTH_AMPLITUDE = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems via our exception, not exit(2)."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    g = common.add_argument_group("configuration")
    g.add_argument("--config", help="flat key = value file; flags override it")
    g.add_argument("--outdir", help="output directory (default: $LLBAR_OUTDIR or ./out)")
    g.add_argument("--dim", type=int, help="spatial dimension (1, 2, or 3)")
    g.add_argument("--n", type=int, help="grid points per axis (even, >= 8)")
    g.add_argument("--box-length", dest="box_length", type=float, help="torus edge length")
    g.add_argument("--chi", type=float, help="susceptibility")
    g.add_argument("--lambda-r", dest="lambda_r", type=float, help="relaxation coupling")
    g.add_argument("--lambda-e", dest="lambda_e", type=float, help="exchange coupling")
    g.add_argument("--gamma", type=float, help="precession coupling")
    g.add_argument("--scheme", choices=sorted(SCHEMES), help="time integrator")
    g.add_argument("--dt", type=float, help="time step")
    g.add_argument("--adaptive", action=argparse.BooleanOptionalAction, default=None,
                   help="step-doubling adaptive dt (single-step schemes)")
    g.add_argument("--tol", type=float, help="adaptive local-error target")
    g.add_argument("--t-end", dest="t_end", type=float, help="final time")
    g.add_argument("--report-every", dest="report_every", type=int,
                   help="steps between diagnostic rows")
    g.add_argument("--eps", type=float, help="smoothing length; 0 = limit flow")
    g.add_argument("--kernel", choices=sorted(KINDS), help="smoothing kernel kind")
    g.add_argument("--seed", type=int, help="seed for generated initial data")
    g.add_argument("--amplitude", type=float, help="initial-data amplitude")
    g.add_argument("--decay-r", dest="decay_r", type=float,
                   help="initial-data spectral decay exponent")
    g.add_argument("--kmax", type=_int_or_none, help="initial-data band limit")
    g.add_argument("--snapshot", type=_str_or_none,
                   help="start from this snapshot instead of generated data")

    parser = _Parser(prog="llbar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate one trajectory and write its series")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="integral identities + smoothing properties")
    p.add_argument("--seeds", type=int, help="number of seeded fields per identity")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", parents=[common], help="run a scripted study")
    p.add_argument("--study", choices=CONVERGE_STUDIES)
    p.add_argument("--eps-list", dest="eps_list", type=_float_list,
                   help="comma-separated, strictly decreasing")
    p.add_argument("--drop-largest", dest="drop_largest",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="drop the largest eps from the rate fit")
    p.add_argument("--scheme-b", dest="scheme_b", choices=sorted(SCHEMES),
                   help="second leg scheme (uniqueness)")
    p.add_argument("--dt-b", dest="dt_b", type=float, help="second leg dt (uniqueness)")
    p.add_argument("--kernel-b", dest="kernel_b", choices=sorted(KINDS),
                   help="second leg kernel (uniqueness)")
    p.add_argument("--eps-a", dest="eps_a", type=float, help="first leg eps (uniqueness)")
    p.add_argument("--eps-b", dest="eps_b", type=float, help="second leg eps (uniqueness)")
    p.add_argument("--mode-ksq", dest="mode_ksq", type=_int_list,
                   help="squared mode magnitudes (linear_growth)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("mollifier-check", parents=[common],
                       help="smoothing-property report for one kernel")
    p.add_argument("--write-calibration", dest="write_calibration",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="also write the measured property constants")
    p.set_defaults(func=cmd_mollifier_check)

    p = sub.add_parser("calibrate", parents=[common],
                       help="measure inequality constants and the stable dt")
    p.add_argument("--family-size", dest="family_size", type=int)
    p.set_defaults(func=cmd_calibrate)

    return parser


def _resolve(args) -> dict:
    """Flag > config-file > default, tracking which keys the user set (a
    file value counts only when it differs from the default, so an echo
    replays); the result is echoed to <outdir>/effective-config.txt."""
    file_vals = {}
    if getattr(args, "config", None):
        for raw_key, raw_val in read_config(args.config).items():
            key = raw_key.replace("-", "_")
            if key not in _KEYS:
                raise UsageError(f"{args.config}: unknown configuration key {raw_key!r}")
            try:
                file_vals[key] = _KEYS[key][0](raw_val)
            except ValueError as exc:
                raise UsageError(f"{args.config}: bad value for {raw_key!r}: {exc}") from exc
        if file_vals.get("subcommand", args.subcommand) != args.subcommand:
            raise UsageError(
                f"{args.config}: configuration of subcommand "
                f"{file_vals['subcommand']!r}, not {args.subcommand!r}"
            )

    defaults = {key: default for key, (_, default) in _KEYS.items()}
    study = getattr(args, "study", None) or file_vals.get("study", defaults["study"])
    if args.subcommand == "converge" and study == "linear_growth":
        defaults["amplitude"] = LINEAR_GROWTH_AMPLITUDE
    cfg, given = {}, set()
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None or file_vals.get(key, default) != default:
            given.add(key)
        cfg[key] = flag if flag is not None else file_vals.get(key, default)

    if cfg["snapshot"]:
        conflicts = sorted(set(_GENERATOR_KEYS) & given)
        if conflicts:
            raise UsageError(
                "conflicting initial-data sources: snapshot together with "
                + ", ".join(conflicts)
            )
    cfg["outdir"] = ensure_outdir(
        cfg["outdir"] or os.environ.get("LLBAR_OUTDIR") or "out"
    )
    _echo_config(cfg)
    return cfg


def _echo_config(cfg: dict) -> None:
    def fmt(value):
        if value is None:
            return "none"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return str(value)

    write_config(
        os.path.join(cfg["outdir"], "effective-config.txt"),
        {key: fmt(value) for key, value in cfg.items()},
        header="effective configuration; outputs are a function of this and nothing else",
    )


def _grid(cfg) -> Grid:
    return Grid(cfg["dim"], cfg["n"], cfg["box_length"])


def _params(cfg) -> EffectiveFieldParams:
    return EffectiveFieldParams(
        chi=cfg["chi"],
        lambda_r=cfg["lambda_r"],
        lambda_e=cfg["lambda_e"],
        gamma=cfg["gamma"],
    )


def _scheme(cfg) -> SchemeConfig:
    return SchemeConfig(
        scheme=cfg["scheme"], dt=cfg["dt"], adaptive=cfg["adaptive"], tol=cfg["tol"]
    )


def _initial_data(cfg, grid):
    if cfg["snapshot"]:
        return load_snapshot(cfg["snapshot"], expected_grid=grid)
    return random_band_limited_field(
        grid,
        seed=cfg["seed"],
        decay_r=cfg["decay_r"],
        amplitude=cfg["amplitude"],
        kmax=cfg["kmax"],
    )


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _resolve(args)
    grid = _grid(cfg)
    J = make_mollifier(grid, cfg["eps"], cfg["kernel"]) if cfg["eps"] else None
    u0 = _initial_data(cfg, grid)
    series_path = os.path.join(cfg["outdir"], "series.csv")
    metadata = {
        "command": "simulate",
        "grid": f"{cfg['dim']}d-n{cfg['n']}",
        "scheme": cfg["scheme"],
        "eps": repr(cfg["eps"]),
        "seed": str(cfg["seed"]),
    }
    try:
        result = integrate(
            u0,
            cfg["t_end"],
            _scheme(cfg),
            _params(cfg),
            J,
            report_every=cfg["report_every"],
            metadata=metadata,
        )
    except BlowUpError as exc:
        if exc.series is not None and len(exc.series.reports):
            exc.series.write_csv(series_path)
        print(
            f"blow-up: {exc} -- partial series in {series_path}",
            file=sys.stderr,
        )
        return 3
    result.series.write_csv(series_path)
    save_snapshot(os.path.join(cfg["outdir"], "final.snap"), result.field)
    energies = result.series.column("energy")
    print(
        f"simulate: {result.state.step} steps to t={result.state.t:g}; "
        f"energy {energies[0]:.6e} -> {energies[-1]:.6e}; "
        f"series in {series_path}"
    )
    return 0


def cmd_verify(args) -> int:
    cfg = _resolve(args)
    if cfg["seeds"] < 1:
        raise UsageError(f"seeds must be at least 1, got {cfg['seeds']}")
    eps = cfg["eps"] or 0.2
    J = make_mollifier(_grid(cfg), eps, cfg["kernel"])
    rows = identity_suite(J, _params(cfg), seeds=range(cfg["seed"], cfg["seed"] + cfg["seeds"]))

    # aggregate each identity over its seeds: worst residual decides
    table = []
    for name in dict.fromkeys(r["check"] for r in rows):
        mine = [r for r in rows if r["check"] == name]
        worst = max(r["residual"] for r in mine)
        tol = mine[0]["tolerance"]
        table.append((name, worst, tol, all(r["passed"] for r in mine)))

    report = verify_mollifier_properties(J)
    for check in report.checks:
        if not check.informational:
            table.append((check.name, check.measured, check.bound, check.passed))

    width = max(len(name) for name, *_ in table)
    lines = [f"verification on {cfg['dim']}d n={cfg['n']} "
             f"(seeds {cfg['seed']}..{cfg['seed'] + cfg['seeds'] - 1}, eps={eps:g})"]
    for name, measured, bound, passed in table:
        bound_text = f"{bound:.3e}" if isinstance(bound, float) else "--"
        lines.append(
            f"  {name:<{width}}  {measured: .6e}  bound {bound_text:>10}  "
            f"{'PASS' if passed else 'FAIL'}"
        )
    failed = [name for name, _, _, passed in table if not passed]
    lines.append(
        f"{len(table) - len(failed)}/{len(table)} checks passed"
        + (f"; FAILED: {', '.join(failed)}" if failed else "")
    )
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(cfg["outdir"], "verify.txt"), "w") as fh:
        fh.write(text + "\n")
    return 2 if failed else 0


def _study_spec(cfg, kind) -> StudySpec:
    extras = {}
    if kind in ("eps_cauchy", "eps_limit"):
        extras = {"eps_list": cfg["eps_list"], "drop_largest_eps": cfg["drop_largest"]}
    elif kind == "uniqueness":
        extras = {
            "scheme_b": SchemeConfig(scheme=cfg["scheme_b"], dt=cfg["dt_b"]),
            "kernel_b": cfg["kernel_b"],
            "eps_a": cfg["eps_a"],
            "eps_b": cfg["eps_b"],
        }
    elif kind == "linear_growth":
        extras = {"mode_ksq": cfg["mode_ksq"]}
    elif kind == "gn_calibration":
        extras = {"family_size": cfg["family_size"]}
    return StudySpec(
        kind=kind,
        dim=cfg["dim"],
        n=cfg["n"],
        box_length=cfg["box_length"],
        seed=cfg["seed"],
        decay_r=cfg["decay_r"],
        amplitude=cfg["amplitude"],
        kmax=cfg["kmax"],
        t_end=cfg["t_end"],
        scheme=_scheme(cfg),
        kernel=cfg["kernel"],
        report_every=cfg["report_every"],
        params=_params(cfg),
        outdir=cfg["outdir"],
        **extras,
    )


def cmd_converge(args) -> int:
    cfg = _resolve(args)
    kind = cfg["study"]
    spec = _study_spec(cfg, kind)
    if kind == "eps_cauchy":
        report = run_eps_cauchy(spec)
    elif kind == "eps_limit":
        report = run_eps_limit(spec)
    elif kind == "uniqueness":
        report = run_uniqueness(spec)
    else:
        report = run_linear_growth(spec)
    print(report.summary())

    if kind in ("eps_cauchy", "eps_limit"):
        if report.stationary:
            return 0
        failed = []
        if report.slope < 0.9:
            failed.append(f"rate slope {report.slope:.4f} below 0.9")
        if report.h2_spread > 0.10:
            failed.append(f"sup-in-time H2 spread {report.h2_spread:.2%} above 10%")
        for reason in failed:
            print(f"check failed: {reason}", file=sys.stderr)
        return 2 if failed else 0
    if kind == "uniqueness":
        if report.passed:
            return 0
        print(
            "check failed: discretizations disagree beyond 3x the finer "
            "self-estimate (or the two legs define different flows)",
            file=sys.stderr,
        )
        return 2
    if report.stationary or (not report.contaminated and report.max_rel_error <= 1e-6):
        return 0
    reason = (
        "cubic contamination detected; lower --amplitude"
        if report.contaminated
        else f"max relative rate error {report.max_rel_error:.3e} above 1e-6"
    )
    print(f"check failed: {reason}", file=sys.stderr)
    return 2


def cmd_mollifier_check(args) -> int:
    cfg = _resolve(args)
    eps = cfg["eps"] or 0.2
    report = verify_mollifier_properties(make_mollifier(_grid(cfg), eps, cfg["kernel"]))
    text = report.to_text()
    print(text)
    with open(os.path.join(cfg["outdir"], "mollifier-report.txt"), "w") as fh:
        fh.write(text + "\n")
    if cfg["write_calibration"]:
        constants = {
            f"{cfg['kernel']}_eps{eps:g}_{check.name}": repr(check.measured)
            for check in report.checks
        }
        write_config(
            os.path.join(cfg["outdir"], "mollifier-calibration.txt"),
            constants,
            header="measured smoothing-property constants (per property id)",
        )
    return 0 if report.all_passed else 2


def cmd_calibrate(args) -> int:
    cfg = _resolve(args)
    # the study writes no file here: constants.txt also carries the stable dt
    spec = replace(_study_spec(cfg, "gn_calibration"), outdir=None)
    report = run_gn_calibration(spec)
    print(report.summary())

    path = os.path.join(cfg["outdir"], "constants.txt")
    dt_stable = find_stable_dt(_grid(cfg))
    key = f"dt_stable_{cfg['dim']}d_n{cfg['n']}"
    constants = {**report.constants, key: repr(dt_stable)}
    print(f"{key} = {dt_stable}")
    write_config(
        path,
        constants,
        header="calibrated constants: inequality-ratio maxima over the seeded\n"
        "family, Lipschitz bound of the smoothed dynamics, and stable dt",
    )
    print(f"wrote {path}")
    return 0


def _keep_freed_memory() -> None:
    """Let glibc keep freed arrays in the heap instead of unmapping them.

    A run allocates and frees the same temporaries on every step. Under
    glibc's default thresholds those above 128 KB are mmapped afresh and
    the heap is trimmed whenever 128 KB at its top fall free, so each step
    faults its pages in again: 1,000 steps of 2d n=64 took 120,000 to
    270,000 minor faults and a quarter of their wall time. Serving
    allocations below 32 MB from the heap, and trimming it only past 64 MB
    free, leaves a few hundred. Where there is no glibc this does nothing;
    no output depends on it.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        where = f" in {exc.study_label}" if getattr(exc, "study_label", None) else ""
        print(f"blow-up{where}: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
