"""Benchmark of the `llbar` command on three workloads from the paper.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every round runs the workload once through `llbar.cli.main` in a fresh
process and checks its output files (checks.py). Rounds repeat with the
same inputs while another round still fits in S seconds (at least one
round; S defaults to run_seconds of BENCHMARK.json). With --trace 0 the
run reports the median over its rounds of wall_s and peak_rss_mb, and of
setup_s over its rounds and the set-up-only processes after each; with
--trace 1 it makes one traced round (spans and FFT counts, tracing.py), a
tracemalloc round when the workload runs a study, and plain rounds that
give the tracing overhead, and reports the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The program is built
from `src/` of the checkout that holds this file; outputs go to
`.perfbench_out/` there. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

DT = 1e-3  # the llbar default step, used by both stepping workloads
EPS_LIST = (0.4, 0.2, 0.1, 0.05)  # the llbar default eps sweep
SWEEP_T = 0.01  # T of eps_limit_3d_n32
VERIFY_K = 10  # K of identities_3d_n32
DEADLINE_S = 170.0  # a run ends within 180 s whatever the program does
# set-up-only processes after each timed round: set-up is short and noisy,
# so it takes more samples than a round gives
SETUPS_PER_ROUND = 3


def _simulate(seed):
    argv = ["simulate", "--n", "64", "--t-end", "2", "--eps", "0.1", "--seed", str(seed)]
    return argv, round(2.0 / DT), lambda out, rc: checks.check_simulate(out, rc, 2.0, 201)


def _eps_limit(seed):
    argv = ["converge", "--study", "eps_limit", "--dim", "3", "--n", "32", "--decay-r", "5",
            "--report-every", "1", "--t-end", repr(SWEEP_T), "--seed", str(seed)]
    legs = len(EPS_LIST) + 1
    return argv, legs * round(SWEEP_T / DT), \
        lambda out, rc: checks.check_eps_limit(out, rc, EPS_LIST)


def _identities(seed):
    argv = ["verify", "--dim", "3", "--n", "32", "--kernel", "bump",
            "--seeds", str(VERIFY_K), "--seed", str(seed)]
    return argv, VERIFY_K, lambda out, rc: checks.check_verify(out, rc, seed, VERIFY_K)


WORKLOADS = {
    "simulate_2d_n64": _simulate,
    "eps_limit_3d_n32": _eps_limit,
    "identities_3d_n32": _identities,
}

# every per-layer metric and its unit; the last four come from the parent
# (import times, the tracemalloc round, the plain rounds), not from spans
LAYER_UNITS = {
    **{name: unit for name, (unit, _) in tracing.SPAN_METRICS.items()},
    **{name: unit for name, (unit, _) in tracing.COUNT_METRICS.items()},
    "mollifier.import_s": "s",
    "cli.import_s": "s",
    "experiments.traced_peak_mb": "MB",
    "trace.overhead_s": "s",
}


@dataclass
class Round:
    """One checked invocation: the child's record (None if it did not
    complete), the problems the checks found, and its duration."""

    record: dict | None
    problems: list
    seconds: float

    @property
    def ok(self):
        return not self.problems


class Runner:
    def __init__(self, workload, seed):
        self.seed = seed % 2**31
        self.argv, self.ops, self.check = WORKLOADS[workload](self.seed)
        self.base = OUT / workload
        self.started = time.perf_counter()
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def left(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, mode, argv, outdir, importtime=False):
        """Run child.py; returns (record or None, stderr text)."""
        outdir.mkdir(parents=True)
        result = outdir / "result.json"
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [str(HERE / "child.py"), str(result), mode] + argv
        try:
            proc = subprocess.run(cmd, cwd=outdir, env=self.env, capture_output=True,
                                  text=True, timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            return None, "timed out"
        (outdir / "stdout.txt").write_text(proc.stdout)
        (outdir / "stderr.txt").write_text(proc.stderr)
        if proc.returncode != 0 or not result.exists():
            return None, proc.stderr
        record = json.loads(result.read_text())
        if not Path(record["llbar_file"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"llbar was imported from {record['llbar_file']}, not {SRC}")
        return record, proc.stderr

    def warm_up(self):
        """Compile and cache the program's modules once, untimed."""
        self.base.mkdir(parents=True)
        subprocess.run([sys.executable, "-c", "import llbar.cli"], cwd=self.base,
                       env=self.env, check=True, timeout=max(self.left(), 1.0))

    def setup_sample(self):
        """Set-up time of one more fresh process, or None if it failed."""
        self.count += 1
        record, _ = self.child("setup", [], self.base / f"s{self.count}")
        return None if record is None else record["setup_s"]

    def round(self, mode="plain", importtime=False):
        self.count += 1
        outdir = self.base / f"r{self.count}"
        t = time.perf_counter()
        record, stderr = self.child(mode, self.argv + ["--outdir", str(outdir / "llbar")],
                                    outdir, importtime)
        if record is None:
            problems = [f"run did not complete: {stderr.strip()[-300:]}"]
        else:
            problems = self.check(outdir / "llbar", record["returncode"])
        return Round(record, problems, time.perf_counter() - t), stderr

    def repeat(self, seconds, rounds, setups=None):
        """Plain rounds, each followed by SETUPS_PER_ROUND set-up samples when
        `setups` is a list, while another such step still fits in the budget."""
        start, steps = time.perf_counter(), []
        while True:
            t = time.perf_counter()
            rounds.append(self.round()[0])
            if setups is not None:
                setups += [self.setup_sample() for _ in range(SETUPS_PER_ROUND)]
            steps.append(time.perf_counter() - t)
            typical = statistics.median(steps)
            if time.perf_counter() - start + typical > seconds or self.left() < 2 * typical:
                return


def import_times(stderr):
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out.setdefault(name.strip(), int(cumulative) / 1e6)
    return out


def timed_run(runner, seconds):
    rounds, setups = [], []
    runner.repeat(seconds, rounds, setups)
    done = [r.record for r in rounds if r.record is not None]
    metrics = {}
    if done and None not in setups:
        setups += [r["setup_s"] for r in done]
        metrics["wall_s"] = {"value": statistics.median(r["wall_s"] for r in done), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(r["peak_rss_mb"] for r in done),
                                  "unit": "MB"}
    return rounds, metrics, []


def traced_run(runner, seconds):
    start = time.perf_counter()
    traced, stderr = runner.round("trace", importtime=True)
    rounds = [traced]
    layers, not_reached, missing = {}, [], set()
    if traced.record is not None:
        layers = dict(traced.record["layers"])
        not_reached, missing = traced.record["not_reached"], set(traced.record["missing"])
        imports = import_times(stderr)
        if "llbar.mollifier" in imports:
            layers["mollifier.import_s"] = imports["llbar.mollifier"]
        if "llbar.cli" in imports:  # nests the package and every module it loads
            layers["cli.import_s"] = imports["llbar.cli"]
        layers["experiments.traced_peak_mb"] = 0.0
        if traced.record["study_seen"]:
            memory = runner.round("memory")[0]
            rounds.append(memory)
            if memory.record is not None:
                layers["experiments.traced_peak_mb"] = memory.record["study_peak_mb"]
    plain = []
    runner.repeat(max(seconds - (time.perf_counter() - start), 0.0), plain)
    rounds += plain
    walls = [r.record["wall_s"] for r in plain if r.record is not None]
    if traced.record is not None and walls:
        layers["trace.overhead_s"] = traced.record["wall_s"] - statistics.median(walls)
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name not in layers:
            missing.add(name)
        metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}
    notes = [f"not reached: {m}" for m in not_reached]
    notes += [f"missing: {m}" for m in sorted(missing)]
    return rounds, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "llbar" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'llbar'} is missing", file=sys.stderr)
        return 2

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    runner = Runner(args.workload, args.seed)
    runner.warm_up()
    run = traced_run if args.trace else timed_run
    rounds, metrics, notes = run(runner, args.seconds)

    failed_rounds = [r for r in rounds if not r.ok]
    for i, r in enumerate(rounds, 1):
        line = f"round {i}: {r.seconds:.2f} s, " + ("ok" if r.ok else "; ".join(r.problems))
        print(line)
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    summary = {
        "correct": not failed_rounds and len(metrics) > 0,
        "attempted": len(rounds) * runner.ops,
        "failed": len(failed_rounds) * runner.ops,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
