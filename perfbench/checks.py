"""Output checks for the benchmark workloads.

Each check reads the files one `llbar` invocation wrote and returns a list
of problems (empty when the output is accepted). The checks rest on
computations made here with plain numpy (own wavenumbers, own spectral
derivatives, own quadrature, own least-squares fit) or on properties the
method must have (energy dissipation, first order in eps, uniform H^2
bounds, the acceptance tolerances stated in the README). They never compare
against a stored copy of earlier output, and they import nothing from
`llbar`.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

# LLBar default susceptibility; the workloads run with default couplings,
# whose energy is E = 1/(8 chi)||u||_L4^4 + 1/2||grad u||^2 - 1/(4 chi)||u||^2.
CHI = 0.25

SERIES_COLUMNS = "t,l2,l4,linf,h1,h2,grad_l2,energy,dissipation,heff_l2,flags"

# Identity residual bounds of the README's acceptance guarantees (1e-10 for
# every identity residual); the chain-rule gap carries its documented 1e-9.
IDENTITY_BOUNDS = {
    "identity_l2": 1e-10,
    "identity_h1": 1e-10,
    "orthogonality": 1e-10,
    "identity_cubic_expansion": 1e-10,
    "rhs_consistency_with_heff": 1e-10,
    "energy_chain_rule": 1e-9,
}

# Smoothing-family properties at their exact tolerances: (bound, kind),
# kind "max" means measured <= bound, "min" means measured >= bound.
PROPERTY_BOUNDS = {
    "symbol_at_zero": (1e-14, "max"),
    "symbol_range": (0.0, "min"),
    "symbol_radially_nonincreasing": (1e-14, "max"),
    "commutes_with_derivative": (1e-12, "max"),
    "linf_bound": (1.0 + 1e-6, "max"),
    "self_adjoint": (1e-12, "max"),
    "approx_rate_slope": (0.95, "min"),
    "growth_exponent_k1": (1.0 + 0.05, "max"),
    "growth_exponent_k2": (2.0 + 0.05, "max"),
}

_VERIFY_ROW = re.compile(r"^\s+(\S+)\s+(\S+)\s+bound\s+(\S+)\s+(PASS|FAIL)$")


class OutputError(Exception):
    """An output file is missing or does not parse."""


# -- readers ------------------------------------------------------------------


def read_series(path):
    """(metadata dict, rows as a float array, flags list) of a series CSV."""
    meta, rows, flags, header = {}, [], [], False
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif not header:
            if line != SERIES_COLUMNS:
                raise OutputError(f"unexpected series header {line!r}")
            header = True
        elif line:
            parts = line.split(",")
            if len(parts) != 11:
                raise OutputError(f"malformed series row {line!r}")
            rows.append([float(x) for x in parts[:-1]])
            flags.append(parts[-1])
    if not header:
        raise OutputError(f"no series header in {path}")
    return meta, np.array(rows).reshape(-1, 10), flags


def read_snapshot(path):
    """(box_length, field data shaped (3, n, ..., n), is_spectral)."""
    raw = Path(path).read_bytes()
    magic = b"LLBAR1\n"
    if not raw.startswith(magic):
        raise OutputError(f"bad snapshot magic in {path}")
    end = raw.find(b"\n\n", len(magic))
    if end < 0:
        raise OutputError(f"no snapshot header end in {path}")
    head = dict(
        line.split("=", 1) for line in raw[len(magic):end].decode("ascii").split("\n")
    )
    dim, n = int(head["dim"]), int(head["n"])
    spectral = head["representation"] == "spectral"
    dtype = np.dtype("<c16" if spectral else "<f8")
    body = raw[end + 2:]
    if len(body) != 3 * n**dim * dtype.itemsize:
        raise OutputError(f"snapshot body of {len(body)} bytes in {path}")
    data = np.frombuffer(body, dtype=dtype).reshape((3,) + (n,) * dim)
    return float(head["box_length"]), data, spectral


# -- independent observables ----------------------------------------------------


def energy_and_l2(box_length, data, spectral):
    """Energy and L2 norm of a snapshot, by Parseval sums over own
    wavenumbers and a collocation quadrature for the L4 term."""
    dim, n = data.ndim - 1, data.shape[1]
    axes = tuple(range(1, dim + 1))
    uhat = data if spectral else np.fft.fftn(data, axes=axes)
    npoints = n**dim
    cell = (box_length / n) ** dim
    modes = np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])
    k_odd = 2.0 * math.pi / box_length * np.where(modes == -n // 2, 0, modes)
    power = np.sum(np.abs(uhat) ** 2, axis=0)
    l2_sq = float(np.sum(power)) * cell / npoints
    grad_sq = 0.0
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = n
        grad_sq += float(np.sum(k_odd.reshape(shape) ** 2 * power)) * cell / npoints
    u = np.fft.ifftn(uhat, axes=axes).real
    l4_4 = float(np.sum(np.sum(u * u, axis=0) ** 2)) * cell
    energy = l4_4 / (8.0 * CHI) + 0.5 * grad_sq - l2_sq / (4.0 * CHI)
    return energy, math.sqrt(l2_sq)


def loglog_slope(x, y):
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    dx = lx - lx.mean()
    return float(np.sum(dx * (ly - ly.mean())) / np.sum(dx * dx))


def _rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


# -- workload checks --------------------------------------------------------------


def check_simulate(outdir, returncode, t_end, rows):
    """Series complete to t_end, energy nonincreasing, final snapshot's
    energy and L2 norm recomputed here equal to the last series row."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    outdir = Path(outdir)
    try:
        _, series, flags = read_series(outdir / "series.csv")
        box_length, data, spectral = read_snapshot(outdir / "final.snap")
    except (OSError, OutputError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if len(series) != rows:
        problems.append(f"{len(series)} series rows, expected {rows}")
    if len(series) == 0:
        return problems + ["empty series"]
    if abs(series[-1, 0] - t_end) > 1e-9 * max(1.0, t_end):
        problems.append(f"series ends at t={series[-1, 0]!r}, expected {t_end}")
    if any(flags) or not np.all(np.isfinite(series)):
        problems.append("flagged or non-finite series rows")
    if np.any(np.diff(series[:, 0]) <= 0):
        problems.append("series times do not increase")
    energy = series[:, 7]
    jumps = np.diff(energy)
    allowed = 1e-8 * np.maximum(1.0, np.abs(energy[:-1]))
    if np.any(jumps > allowed):
        i = int(np.argmax(jumps - allowed))
        problems.append(f"energy rises by {jumps[i]:.3e} after t={series[i, 0]:.6g}")
    mine_e, mine_l2 = energy_and_l2(box_length, data, spectral)
    if _rel_gap(mine_e, energy[-1]) > 1e-10:
        problems.append(f"final energy {energy[-1]!r} but snapshot gives {mine_e!r}")
    if _rel_gap(mine_l2, series[-1, 1]) > 1e-10:
        problems.append(f"final L2 {series[-1, 1]!r} but snapshot gives {mine_l2!r}")
    return problems


def check_eps_limit(outdir, returncode, eps_list):
    """Rows in the requested eps order against the limit flow, differences
    strictly falling with eps, refitted slope >= 0.9 (first order in eps),
    sup-in-time H^2 spread <= 10%."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    outdir = Path(outdir)
    try:
        lines = (outdir / "eps_limit.csv").read_text().splitlines()
        summary = (outdir / "eps_limit.txt").read_text()
        if lines[0] != "eps_big,eps_small,sup_t_l2_diff":
            raise OutputError(f"unexpected header {lines[0]!r}")
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        spread = float(re.search(r"sup_t H2 spread: (\S+)%", summary).group(1))
        reported = float(re.search(r"log-log slope (\S+)", summary).group(1))
    except (OSError, OutputError, IndexError, ValueError, AttributeError) as exc:
        return [f"unreadable output: {exc}"]
    if table.shape != (len(eps_list), 3):
        return [f"{len(table)} rows, expected one per eps in {eps_list}"]
    problems = []
    if list(table[:, 0]) != list(eps_list) or np.any(table[:, 1] != 0.0):
        problems.append(f"rows are not (eps, 0) for eps in {eps_list}")
    diffs = table[:, 2]
    if not np.all(diffs > 0) or not np.all(np.diff(diffs) < 0):
        problems.append(f"sup-in-time differences do not fall strictly: {diffs}")
        return problems
    slope = loglog_slope(table[:, 0], diffs)
    if slope < 0.9:
        problems.append(f"refitted slope {slope:.4f} below 0.9")
    if abs(slope - reported) > 5e-5:
        problems.append(f"reported slope {reported} but the rows give {slope:.6f}")
    if spread > 10.0:
        problems.append(f"sup-in-time H2 spread {spread}% above 10%")
    return problems


def check_verify(outdir, returncode, seed, seeds):
    """Every identity residual and smoothing property within its
    acceptance bound, over exactly the requested seeded fields."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        text = (Path(outdir) / "verify.txt").read_text().splitlines()
    except OSError as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if not text or f"(seeds {seed}..{seed + seeds - 1}," not in text[0]:
        problems.append(f"header does not name seeds {seed}..{seed + seeds - 1}")
    measured = {}
    for line in text[1:]:
        m = _VERIFY_ROW.match(line)
        if m:
            measured[m.group(1)] = (float(m.group(2)), m.group(4))
    expected = set(IDENTITY_BOUNDS) | set(PROPERTY_BOUNDS)
    if set(measured) != expected:
        problems.append(f"checks listed {sorted(measured)} != {sorted(expected)}")
    for name, bound in IDENTITY_BOUNDS.items():
        value, verdict = measured.get(name, (math.inf, "missing"))
        if not value <= bound or verdict != "PASS":
            problems.append(f"{name} residual {value:.3e} ({verdict}), bound {bound:.0e}")
    for name, (bound, kind) in PROPERTY_BOUNDS.items():
        value, verdict = measured.get(name, (math.nan, "missing"))
        ok = value <= bound if kind == "max" else value >= bound
        if not ok or verdict != "PASS":
            problems.append(f"{name} measured {value:.6e} ({verdict}), {kind} {bound:g}")
    total = len(expected)
    if not text or text[-1] != f"{total}/{total} checks passed":
        problems.append("summary line does not report every check passed")
    return problems
