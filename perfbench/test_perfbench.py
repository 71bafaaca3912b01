"""Tests of the benchmark itself: every output check accepts genuine
output and rejects a corrupted copy; the span arithmetic and the traced
child report what they should.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
from llbar.cli import main as llbar_main  # noqa: E402

EPS_LIST = (0.4, 0.2, 0.1, 0.05)


def _run(outdir, *argv):
    rc = llbar_main(list(argv) + ["--outdir", str(outdir)])
    assert rc == 0
    return outdir


@pytest.fixture(scope="module")
def simulate_out(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("sim"), "simulate", "--n", "16", "--t-end", "0.02",
                "--eps", "0.1", "--seed", "3")


@pytest.fixture(scope="module")
def eps_out(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("eps"), "converge", "--study", "eps_limit", "--dim", "2",
                "--n", "16", "--decay-r", "5", "--report-every", "1", "--t-end", "0.005")


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("ver"), "verify", "--dim", "2", "--n", "16",
                "--kernel", "bump", "--seeds", "2", "--seed", "5")


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


# -- simulate -------------------------------------------------------------------


def test_simulate_accepts_genuine_output(simulate_out):
    assert checks.check_simulate(simulate_out, 0, 0.02, 3) == []


def test_simulate_rejects_perturbed_snapshot(simulate_out, tmp_path):
    out = _copy(simulate_out, tmp_path)
    raw = bytearray((out / "final.snap").read_bytes())
    end = raw.find(b"\n\n") + 2
    data = np.frombuffer(bytes(raw[end:]), dtype="<c16") * (1 + 1e-6)
    (out / "final.snap").write_bytes(bytes(raw[:end]) + data.astype("<c16").tobytes())
    problems = checks.check_simulate(out, 0, 0.02, 3)
    assert any("final energy" in p for p in problems)
    assert any("final L2" in p for p in problems)


def test_simulate_rejects_energy_rise(simulate_out, tmp_path):
    out = _copy(simulate_out, tmp_path)
    path = out / "series.csv"
    lines = path.read_text().splitlines()
    cells = lines[-2].split(",")
    cells[7] = repr(float(cells[7]) + 1.0)
    lines[-2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("energy rises" in p for p in checks.check_simulate(out, 0, 0.02, 3))


def test_simulate_rejects_short_series_and_exit_code(simulate_out, tmp_path):
    out = _copy(simulate_out, tmp_path)
    path = out / "series.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    problems = checks.check_simulate(out, 0, 0.02, 3)
    assert any("series rows" in p for p in problems)
    assert any("series ends" in p for p in problems)
    assert checks.check_simulate(simulate_out, 3, 0.02, 3) == ["exit code 3"]


# -- eps_limit ------------------------------------------------------------------


def test_eps_limit_accepts_genuine_output(eps_out):
    assert checks.check_eps_limit(eps_out, 0, EPS_LIST) == []


def test_eps_limit_rejects_swapped_rows(eps_out, tmp_path):
    out = _copy(eps_out, tmp_path)
    path = out / "eps_limit.csv"
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_eps_limit(out, 0, EPS_LIST) != []


def test_eps_limit_rejects_flat_rate(eps_out, tmp_path):
    out = _copy(eps_out, tmp_path)
    rows = ["eps_big,eps_small,sup_t_l2_diff"]
    rows += [f"{e!r},0,{d!r}" for e, d in zip(EPS_LIST, (1e-2, 9e-3, 8e-3, 7e-3))]
    (out / "eps_limit.csv").write_text("\n".join(rows) + "\n")
    assert any("below 0.9" in p for p in checks.check_eps_limit(out, 0, EPS_LIST))


def test_eps_limit_rejects_h2_spread(eps_out, tmp_path):
    out = _copy(eps_out, tmp_path)
    path = out / "eps_limit.txt"
    text = path.read_text()
    start = text.index("sup_t H2 spread: ") + len("sup_t H2 spread: ")
    path.write_text(text[:start] + "12.5000%\n")
    assert any("H2 spread" in p for p in checks.check_eps_limit(out, 0, EPS_LIST))


# -- verify ---------------------------------------------------------------------


def test_verify_accepts_genuine_output(verify_out):
    assert checks.check_verify(verify_out, 0, 5, 2) == []


def _verify_line(out, name):
    return next(line for line in (out / "verify.txt").read_text().splitlines()
                if line.split() and line.split()[0] == name)


def test_verify_rejects_residual_above_bound(verify_out, tmp_path):
    out = _copy(verify_out, tmp_path)
    line = _verify_line(out, "identity_h1")
    _edit(out / "verify.txt", line, line.replace(line.split()[1], "2.000000e-10"))
    assert any("identity_h1" in p for p in checks.check_verify(out, 0, 5, 2))


def test_verify_rejects_failed_or_dropped_property(verify_out, tmp_path):
    out = _copy(verify_out, tmp_path)
    line = _verify_line(out, "approx_rate_slope")
    _edit(out / "verify.txt", line, line.replace(line.split()[1], " 9.000000e-01"))
    assert any("approx_rate_slope" in p for p in checks.check_verify(out, 0, 5, 2))
    _edit(out / "verify.txt", _verify_line(out, "self_adjoint") + "\n", "")
    assert any("checks listed" in p for p in checks.check_verify(out, 0, 5, 2))


def test_verify_rejects_other_seeds(verify_out):
    assert any("seeds" in p for p in checks.check_verify(verify_out, 0, 5, 3))


# -- tracing --------------------------------------------------------------------


def test_self_time_and_field_partition():
    spans = [
        ["identity_suite", 0.0, 10.0, -1, None],
        ["field", 1.0, 2.0, 0, None],
        ["fft", 2.0, 3.0, 0, None],
        ["field", 4.0, 5.0, 0, None],
        ["fft", 6.0, 6.5, 0, None],
        ["fft", 7.0, 7.5, 0, None],
        ["advance", 20.0, 24.0, -1, None],
        ["nonlinear_rhs", 20.5, 23.0, 6, None],
        ["fft", 21.0, 22.0, 7, None],
    ]
    m = tracing.span_metrics(spans)
    assert m["physics.identity_field_ms"] == pytest.approx(4500.0)  # 3 s and 6 s
    assert m["grid.transforms_per_field"] == 1.5
    assert m["grid.transforms_per_step"] == 1.0
    assert m["physics.nonlinear_rhs_ms"] == pytest.approx(1500.0)  # 2.5 s less its fft
    assert m["integrator.advance_self_ms"] == pytest.approx(1500.0)  # 4 s less 2.5 s
    assert m["grid.transform_s"] == pytest.approx(3.0)
    assert "experiments.leg_s" not in m and m["diagnostics.reports"] == 0


def _traced(tmp_path, name):
    outdir = tmp_path / name
    outdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(outdir / "r.json"), "trace",
         "simulate", "--n", "16", "--t-end", "0.02", "--eps", "0.1",
         "--outdir", str(outdir / "out")],
        cwd=outdir, env=env, check=True, capture_output=True)
    return json.loads((outdir / "r.json").read_text())


def test_traced_child_reports_every_layer_metric_with_repeatable_counts(tmp_path):
    first, second = _traced(tmp_path, "a"), _traced(tmp_path, "b")
    assert first["returncode"] == 0 and first["missing"] == []
    assert set(first["layers"]) == set(tracing.SPAN_METRICS) | set(tracing.COUNT_METRICS)
    # simulate runs no study and no identity suite
    assert set(first["not_reached"]) == {
        "experiments.leg_s", "experiments.compare_s", "grid.transforms_per_field",
        "physics.identity_field_ms", "mollifier.properties_s"}
    assert all(first["layers"][m] == 0.0 for m in first["not_reached"])
    counts = [m for m, (unit, _) in {**tracing.SPAN_METRICS, **tracing.COUNT_METRICS}.items()
              if unit in ("count", "B")]
    assert {m: first["layers"][m] for m in counts} == {m: second["layers"][m] for m in counts}
    assert first["layers"]["diagnostics.reports"] == 3
    assert first["layers"]["physics.nonlinear_rhs_per_step"] == 2
