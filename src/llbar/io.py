"""Binary field snapshots, run checkpoints, and flat key=value files.

Snapshot layout: an ascii magic line, a short ascii header (key=value,
one per line, blank line terminator), then the raw little-endian array
bytes. No timestamps anywhere: a file's bytes are a pure function of the
data, so reruns with the same seed produce identical files.

Spectral data is stored on the full Hermitian lattice, (3, n, ..., n),
although a spectral Field holds only its real-transform half: writing
expands the half by conjugate mirroring, and loading rejects a file whose
upper half is not the mirror of its lower half before cutting it back.

Checkpoint layout: one snapshot of the state field, then a scheme-state
header (t, dt, step, and when there is a history, the key it was built
under: dt, the four constants, J's eps and kind), then zero or two more
spectral arrays for the two-step scheme's history. Loading reconstructs
everything needed to continue the run bit-exactly.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import GridMismatchError, SnapshotFormatError, UsageError
from .grid import PHYSICAL, SPECTRAL, Field, Grid, check_conjugate_symmetry, negate_modes
from .integrator import HistoryKey, SchemeState
from .physics import EffectiveFieldParams

SNAPSHOT_MAGIC = b"LLBAR1\n"
CHECKPOINT_MAGIC = b"LLBARCK1\n"

_DTYPES = {SPECTRAL: np.dtype("<c16"), PHYSICAL: np.dtype("<f8")}


def _write_header(fh, pairs):
    for key, value in pairs:
        fh.write(f"{key}={value}\n".encode("ascii"))
    fh.write(b"\n")


def _read_header(fh, path):
    pairs = {}
    while True:
        line = fh.readline()
        if line == b"\n":
            return pairs
        if not line.endswith(b"\n"):
            raise SnapshotFormatError(f"truncated header in {path}")
        key, sep, value = line[:-1].decode("ascii", "replace").partition("=")
        if not sep:
            raise SnapshotFormatError(f"malformed header line in {path}: {line!r}")
        pairs[key] = value


def _read_exact(fh, nbytes, path):
    # a header can claim more bytes than the file holds; check before
    # read(), which would allocate the claimed size up front
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have < nbytes:
        raise SnapshotFormatError(f"truncated data in {path}: wanted {nbytes} bytes, got {have}")
    return fh.read(nbytes)


def _full_spectrum(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Expand a half spectrum (..., n//2+1) to the full Hermitian one:
    last-axis index j > n/2 holds conj(u_hat(-m))."""
    h = grid.n // 2 + 1
    out = np.empty(half.shape[:-1] + (grid.n,), dtype=np.complex128)
    out[..., :h] = half
    upper = negate_modes(half[..., h - 2 : 0 : -1], tuple(range(-grid.dim, -1)))
    np.conj(upper, out=out[..., h:])
    return out


def _write_field_body(fh, g: Grid, representation: str, data: np.ndarray):
    _write_header(
        fh,
        [
            ("version", "1"),
            ("representation", representation),
            ("dim", g.dim),
            ("n", g.n),
            ("box_length", repr(g.box_length)),
        ],
    )
    if representation == SPECTRAL:
        data = _full_spectrum(g, data)
    fh.write(np.ascontiguousarray(data, dtype=_DTYPES[representation]).tobytes())


def _read_field_body(fh, path) -> Field:
    head = _read_header(fh, path)
    try:
        representation = head["representation"]
        dtype = _DTYPES[representation]
        # an impossible grid (UsageError is a ValueError) is malformed data
        grid = Grid(int(head["dim"]), int(head["n"]), float(head["box_length"]))
    except (KeyError, ValueError) as exc:
        raise SnapshotFormatError(f"bad snapshot header in {path}: {exc}") from exc
    nbytes = 3 * grid.npoints * dtype.itemsize
    raw = _read_exact(fh, nbytes, path)
    data = np.frombuffer(raw, dtype=dtype).reshape((3,) + grid.shape)
    if representation == SPECTRAL:
        # the full lattice must mirror itself; keep its half
        axes = range(-grid.dim, 0)
        check_conjugate_symmetry(data, axes, np.max(np.abs(data)), f"spectrum in {path}")
        data = data[..., : grid.n // 2 + 1]
    return Field(grid, data.copy(), representation)


def save_snapshot(path, field: Field) -> None:
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        _write_field_body(fh, field.grid, field.representation, field.data)


def load_snapshot(path, expected_grid: Grid | None = None) -> Field:
    """Read a field snapshot; bit-exact inverse of save_snapshot.

    With expected_grid supplied, a shape/box mismatch is a
    GridMismatchError (the file is valid, just for another run). A
    spectrum without conjugate symmetry is a DataError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"bad magic in {path}: {magic!r}")
        field = _read_field_body(fh, path)
        if fh.read(1):
            raise SnapshotFormatError(f"trailing bytes in {path}")
    _check_grid(field.grid, expected_grid, path)
    return field


def _check_grid(got: Grid, expected: Grid | None, path):
    if expected is not None and not got.compatible(expected):
        raise GridMismatchError(
            f"snapshot {path} holds a {got.dim}d n={got.n} box={got.box_length:g} "
            f"field, run expects {expected.dim}d n={expected.n} "
            f"box={expected.box_length:g}"
        )


def save_checkpoint(path, field: Field, state: SchemeState, dt: float) -> None:
    """Persist the integration state: field + (t, dt, step) + history."""
    has_history = state.prev_field is not None
    pairs = [
        ("t", repr(state.t)),
        ("dt", repr(float(dt))),
        ("step", state.step),
        ("history", int(has_history)),
    ]
    if has_history:
        key, p = state.history_key, state.history_key.params
        values = (key.dt, p.chi, p.lambda_r, p.lambda_e, p.gamma, key.eps)
        text = ",".join(repr(float(v)) for v in values)
        pairs.append(("history_key", f"{text},{key.kernel},{int(key.nonlinear)}"))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        _write_field_body(fh, field.grid, field.representation, field.data)
        _write_header(fh, pairs)
        if has_history:
            for data in (state.prev_field, state.prev_nonlinear):
                _write_field_body(fh, field.grid, SPECTRAL, data)


def load_checkpoint(path, expected_grid: Grid | None = None):
    """Returns (field, SchemeState, dt); inverse of save_checkpoint."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise SnapshotFormatError(f"bad magic in {path}: {magic!r}")
        field = _read_field_body(fh, path)
        head = _read_header(fh, path)
        try:
            t = float(head["t"])
            dt = float(head["dt"])
            step = int(head["step"])
            has_history = bool(int(head["history"]))
            history_key = None
            if has_history:
                *values, kernel, nonlinear = head["history_key"].split(",")
                key_dt, chi, lambda_r, lambda_e, gamma, eps = (float(v) for v in values)
                params = EffectiveFieldParams(chi, lambda_r, lambda_e, gamma)
                history_key = HistoryKey(key_dt, params, kernel, eps, bool(int(nonlinear)))
        except (KeyError, ValueError) as exc:
            raise SnapshotFormatError(f"bad checkpoint header in {path}: {exc}") from exc
        history = []
        for _ in range(2 * has_history):
            hist = _read_field_body(fh, path)
            if not hist.grid.compatible(field.grid) or hist.representation != SPECTRAL:
                raise SnapshotFormatError(
                    f"history field in {path} does not match the state: "
                    f"{hist.grid.dim}d n={hist.grid.n} {hist.representation} "
                    f"against {field.grid.dim}d n={field.grid.n} {SPECTRAL}"
                )
            history.append(hist.data)
        prev_field, prev_nonlinear = history or (None, None)
        if fh.read(1):
            raise SnapshotFormatError(f"trailing bytes in {path}")
    _check_grid(field.grid, expected_grid, path)
    state = SchemeState(
        t=t,
        step=step,
        prev_field=prev_field,
        prev_nonlinear=prev_nonlinear,
        history_key=history_key,
    )
    return field, state, dt


def read_config(path) -> dict:
    """Flat `key = value` text: one pair per line, # comments, blank lines.

    Values stay strings; interpretation belongs to the consumer. Duplicate
    keys are an error (silent override hides typos in run configs).
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise UsageError(
                    f"{path}:{lineno}: expected `key = value`, got {line.rstrip()!r}"
                )
            key = key.strip()
            if not key:
                raise UsageError(f"{path}:{lineno}: empty key")
            if key in out:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def write_config(path, mapping, header: str | None = None) -> None:
    """Inverse of read_config (keys sorted for diff-stable output)."""
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for key in sorted(mapping):
            fh.write(f"{key} = {mapping[key]}\n")


def ensure_outdir(path) -> str:
    path = os.fspath(path)
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise UsageError(f"output directory {path!r} not writable: {exc}") from exc
    return path
