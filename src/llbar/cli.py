"""Command-line entry point.

Subcommands
    simulate        integrate one trajectory, writing the diagnostic series
    verify          run the integral-identity and smoothing-property suites
    converge        run a scripted study (rates, agreement, growth)
    mollifier-check report the smoothing-family properties of one kernel
    calibrate       measure inequality constants and the stable step

Each run takes only the configuration keys its reader reads, as flags and
as `--config` file keys; the reader is the subcommand, or for `converge`
its `--study`. Any other key is a usage error. `llbar <cmd> --help` lists
the subcommand's flags (for `converge`, those of all its studies). A key
resolves as: command-line flag, else `--config` file value (flat `key =
value` lines), else the built-in default. The effective configuration, the
reader's keys only, is echoed to the output directory unless the run ends
in a usage error, so outputs are a pure function of that echo plus the
seed. Nothing is written outside the output directory; the directory
itself defaults to $LLBAR_OUTDIR or ./out.

Exit codes: 0 all checks passed, 1 usage error, 2 a check failed,
3 blow-up, 4 malformed data or other I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections import namedtuple

from .errors import BlowUpError, DataError, UsageError
from .experiments import (
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


# the readers of configuration keys: each subcommand other than converge,
# and each converge study; then the groups of them that read the same keys
_SUBCOMMANDS = ("simulate", "verify", "mollifier-check", "calibrate")
_ALL = _SUBCOMMANDS + CONVERGE_STUDIES
_FLOWS = ("simulate", "verify", "calibrate") + CONVERGE_STUDIES  # couplings
_STEPPED = ("simulate",) + CONVERGE_STUDIES  # step in time
_EPS_STUDIES = ("eps_cauchy", "eps_limit")
_SEEDED_STUDIES = _EPS_STUDIES + ("uniqueness",)  # step seeded data, maybe smoothed
_KERNELS = tuple(sorted(KINDS))

# every configuration key: converter (for config-file values, and argparse
# `type=` of its flag), built-in default, the readers that read it, help
# text, and the values it may take. A run takes exactly the keys its reader
# reads, as --key-with-dashes flags and as config-file keys. outdir falls
# back to $LLBAR_OUTDIR or ./out. The echo also names the running
# subcommand, which a config file may only repeat.
_Key = namedtuple("_Key", "convert default reads help choices", defaults=(None,))
_KEYS = {
    "outdir": _Key(str, None, _ALL, "output directory (default: $LLBAR_OUTDIR or ./out)"),
    "dim": _Key(int, 2, _ALL, "spatial dimension (1, 2, or 3)"),
    "n": _Key(int, 64, _ALL, "grid points per axis (even, >= 8)"),
    "box_length": _Key(float, 2 * math.pi, _ALL, "torus edge length"),
    "chi": _Key(float, 0.25, _FLOWS, "susceptibility"),
    "lambda_r": _Key(float, 1.0, _FLOWS, "relaxation coupling"),
    "lambda_e": _Key(float, 1.0, _FLOWS, "exchange coupling"),
    "gamma": _Key(float, 1.0, _FLOWS, "precession coupling"),
    "scheme": _Key(str, "etd_rk2", _STEPPED, "time integrator", SCHEMES),
    "dt": _Key(float, 1e-3, _STEPPED, "time step"),
    "adaptive": _Key(_bool, False, ("simulate",),
                     "step-doubling adaptive dt (single-step schemes)"),
    "tol": _Key(float, 1e-6, ("simulate",), "adaptive local-error target"),
    "t_end": _Key(float, 1.0, _STEPPED, "final time"),
    "report_every": _Key(int, 10, ("simulate", "linear_growth") + _EPS_STUDIES,
                         "steps between samples (diagnostic rows in simulate)"),
    "eps": _Key(float, 0.0, ("simulate", "verify", "mollifier-check", "uniqueness"),
                "smoothing length; 0 = limit flow"),
    "kernel": _Key(str, "gaussian", _SUBCOMMANDS + _SEEDED_STUDIES, "smoothing kernel kind",
                   _KERNELS),
    "seed": _Key(int, 0, ("simulate", "verify", "calibrate") + _SEEDED_STUDIES,
                 "seed for generated initial data"),
    "amplitude": _Key(float, 0.5, _STEPPED, "initial-data amplitude"),
    "decay_r": _Key(float, 3.0, ("simulate",) + _SEEDED_STUDIES,
                    "initial-data spectral decay exponent"),
    "kmax": _Key(_int_or_none, None, ("simulate",) + _SEEDED_STUDIES, "initial-data band limit"),
    "snapshot": _Key(_str_or_none, None, ("simulate",),
                     "start from this snapshot instead of generated data"),
    "seeds": _Key(int, 3, ("verify",), "number of seeded fields per identity"),
    "study": _Key(str, "eps_cauchy", CONVERGE_STUDIES, "scripted study", CONVERGE_STUDIES),
    "eps_list": _Key(_float_list, (0.4, 0.2, 0.1, 0.05), _EPS_STUDIES,
                     "comma-separated, strictly decreasing"),
    "scheme_b": _Key(str, "imex_bdf2", ("uniqueness",), "second leg scheme (uniqueness)", SCHEMES),
    "dt_b": _Key(float, 5e-4, ("uniqueness",), "second leg dt (uniqueness)"),
    "mode_ksq": _Key(_int_list, (0, 1, 2, 4, 9), ("linear_growth",),
                     "squared mode magnitudes (linear_growth)"),
    "write_calibration": _Key(_bool, False, ("mollifier-check",),
                              "also write the measured property constants"),
}

# the random initial-data shape knobs; giving any of them together with a
# snapshot path is a conflict (exactly one initial-data source)
_GENERATOR_KEYS = ("amplitude", "decay_r", "kmax")

# defaults that differ by reader, as {(reader, key): default}. verify and
# mollifier-check check a smoothing symbol, which the limit flow (eps = 0)
# does not have. The linear_growth study measures the linear regime: at the
# shared amplitude default the cubic terms shift its rates past the
# contamination check.
_READER_DEFAULTS = {
    ("verify", "eps"): 0.2,
    ("mollifier-check", "eps"): 0.2,
    ("linear_growth", "amplitude"): 1e-8,
}


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems via our exception, not exit(2)."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="llbar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, func, text in (
        ("simulate", cmd_simulate, "integrate one trajectory and write its series"),
        ("verify", cmd_verify, "integral identities + smoothing properties"),
        ("converge", cmd_converge, "run a scripted study"),
        ("mollifier-check", cmd_mollifier_check, "smoothing-property report for one kernel"),
        ("calibrate", cmd_calibrate, "measure inequality constants and the stable dt"),
    ):
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key = value file; flags override it")
        for key, k in _KEYS.items():
            if not any(reader in k.reads for reader in _readers(name)):
                continue
            flag = "--" + key.replace("_", "-")
            if k.convert is _bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=k.help)
            else:
                p.add_argument(flag, type=k.convert, choices=k.choices, help=k.help)
    return parser


def _readers(cmd) -> tuple:
    """The readers a subcommand's run may have: converge's studies, or cmd."""
    return CONVERGE_STUDIES if cmd == "converge" else (cmd,)


def _resolve(args) -> dict:
    """Flag > config-file > default over the keys of the run's reader (the
    subcommand, or converge's study), tracking which keys the user set (a
    file value counts only when it differs from the default, so an echo
    replays). Writes nothing."""
    cmd = args.subcommand
    offered = {key: k for key, k in _KEYS.items() if any(r in k.reads for r in _readers(cmd))}
    file_vals = {}
    if args.config:
        raw = read_config(args.config)
        other = raw.pop("subcommand", cmd)
        if other != cmd:
            raise UsageError(
                f"{args.config}: configuration of subcommand {other!r}, not {cmd!r}"
            )
        for raw_key, raw_val in raw.items():
            key = raw_key.replace("-", "_")
            k = offered.get(key)
            if k is None:
                raise UsageError(f"{args.config}: {cmd} reads no configuration key {raw_key!r}")
            try:
                value = k.convert(raw_val)
                if k.choices and value not in k.choices:
                    raise ValueError(f"{value!r} is not one of {', '.join(k.choices)}")
            except ValueError as exc:
                raise UsageError(f"{args.config}: bad value for {raw_key!r}: {exc}") from exc
            file_vals[key] = value

    reader, label = cmd, cmd
    if cmd == "converge":
        reader = args.study or file_vals.get("study", _KEYS["study"].default)
        label = f"converge --study {reader}"
    cfg, given = {"subcommand": cmd}, set()
    for key, k in offered.items():
        flag = getattr(args, key)
        if reader not in k.reads:
            if flag is not None:
                raise UsageError(f"{label} reads no --{key.replace('_', '-')}")
            if key in file_vals:
                raise UsageError(f"{args.config}: {label} reads no configuration key {key!r}")
            continue
        default = _READER_DEFAULTS.get((reader, key), k.default)
        value = file_vals.get(key, default)
        if flag is not None or value != default:
            given.add(key)
        cfg[key] = flag if flag is not None else value

    if cfg.get("snapshot"):
        conflicts = sorted(set(_GENERATOR_KEYS) & given)
        if conflicts:
            raise UsageError(
                "conflicting initial-data sources: snapshot together with "
                + ", ".join(conflicts)
            )
    cfg["outdir"] = cfg["outdir"] or os.environ.get("LLBAR_OUTDIR") or "out"
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


def _initial_data(cfg, grid):
    if cfg.get("snapshot"):
        return load_snapshot(cfg["snapshot"], expected_grid=grid)
    return random_band_limited_field(
        grid,
        seed=cfg["seed"],
        decay_r=cfg["decay_r"],
        amplitude=cfg["amplitude"],
        kmax=cfg["kmax"],
    )


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(cfg) -> int:
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
            SchemeConfig(
                scheme=cfg["scheme"], dt=cfg["dt"], adaptive=cfg["adaptive"], tol=cfg["tol"]
            ),
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


def cmd_verify(cfg) -> int:
    if cfg["seeds"] < 1:
        raise UsageError(f"seeds must be at least 1, got {cfg['seeds']}")
    eps = cfg["eps"]
    J = make_mollifier(_grid(cfg), eps, cfg["kernel"])
    seeds = range(cfg["seed"], cfg["seed"] + cfg["seeds"])
    checks = identity_suite(J, _params(cfg), seeds=seeds)
    checks += [c for c in verify_mollifier_properties(J).checks if not c.informational]

    width = max(len(c.name) for c in checks)
    lines = [f"verification on {cfg['dim']}d n={cfg['n']} "
             f"(seeds {seeds[0]}..{seeds[-1]}, eps={eps:g})"]
    for c in checks:
        bound_text = "--" if c.bound is None else f"{c.bound:.3e}"
        lines.append(
            f"  {c.name:<{width}}  {c.measured: .6e}  bound {bound_text:>10}  "
            f"{'PASS' if c.passed else 'FAIL'}"
        )
    failed = [c.name for c in checks if not c.passed]
    lines.append(
        f"{len(checks) - len(failed)}/{len(checks)} checks passed"
        + (f"; FAILED: {', '.join(failed)}" if failed else "")
    )
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(cfg["outdir"], "verify.txt"), "w") as fh:
        fh.write(text + "\n")
    return 2 if failed else 0


def cmd_converge(cfg) -> int:
    study = cfg["study"]
    grid = _grid(cfg)
    common = {"t_end": cfg["t_end"], "scheme": cfg["scheme"], "dt": cfg["dt"],
              "params": _params(cfg), "outdir": cfg["outdir"]}
    if study == "linear_growth":
        report = run_linear_growth(
            grid, amplitude=cfg["amplitude"], mode_ksq=cfg["mode_ksq"],
            report_every=cfg["report_every"], **common,
        )
    else:
        u0 = _initial_data(cfg, grid)
        common["kernel"] = cfg["kernel"]
        if study == "uniqueness":
            report = run_uniqueness(
                u0, scheme_b=cfg["scheme_b"], dt_b=cfg["dt_b"], eps=cfg["eps"], **common
            )
        else:
            run = run_eps_cauchy if study == "eps_cauchy" else run_eps_limit
            report = run(u0, cfg["eps_list"], report_every=cfg["report_every"], **common)
    print(report.summary())
    failures = report.failures()
    for reason in failures:
        print(f"check failed: {reason}", file=sys.stderr)
    return 2 if failures else 0


def cmd_mollifier_check(cfg) -> int:
    eps = cfg["eps"]
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


def cmd_calibrate(cfg) -> int:
    grid = _grid(cfg)
    report = run_gn_calibration(grid, seed=cfg["seed"], kernel=cfg["kernel"], params=_params(cfg))
    print(report.summary())

    path = os.path.join(cfg["outdir"], "constants.txt")
    dt_stable = find_stable_dt(grid, params=_params(cfg))
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


def _run(args) -> int:
    """Run the subcommand on its resolved configuration, then echo that to
    the output directory, also after a blow-up or a data error. A run
    refused as a usage error writes no echo, so it keeps one already
    there, and removes the output directory if it made it and left it
    empty."""
    cfg = _resolve(args)
    made = not os.path.isdir(cfg["outdir"])
    ensure_outdir(cfg["outdir"])
    refused = False
    try:
        return args.func(cfg)
    except UsageError:
        refused = True
        if made:
            with contextlib.suppress(OSError):  # not empty: the run wrote there
                os.rmdir(cfg["outdir"])
        raise
    finally:
        if not refused:
            _echo_config(cfg)


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        return _run(_build_parser().parse_args(argv))
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
