"""Binary field snapshots and flat key=value files.

Snapshot layout: an ascii magic line, a short ascii header (key=value,
one per line, blank line terminator), then the raw little-endian array
bytes. No timestamps anywhere: a file's bytes are a pure function of the
data, so reruns with the same seed produce identical files.

Spectral data is stored on the full Hermitian lattice, (3, n, ..., n),
although a spectral Field holds only its real-transform half: writing
expands the half by conjugate mirroring, and loading rejects a file whose
upper half is not the mirror of its lower half before cutting it back.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import GridMismatchError, SnapshotFormatError, UsageError
from .grid import PHYSICAL, SPECTRAL, Field, Grid, check_conjugate_symmetry, negate_modes

SNAPSHOT_MAGIC = b"LLBAR1\n"

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


def save_snapshot(path, field: Field) -> None:
    g, representation, data = field.grid, field.representation, field.data
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
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
        head = _read_header(fh, path)
        try:
            representation = head["representation"]
            dtype = _DTYPES[representation]
            # an impossible grid (UsageError is a ValueError) is malformed data
            grid = Grid(int(head["dim"]), int(head["n"]), float(head["box_length"]))
        except (KeyError, ValueError) as exc:
            raise SnapshotFormatError(f"bad snapshot header in {path}: {exc}") from exc
        raw = _read_exact(fh, 3 * grid.npoints * dtype.itemsize, path)
        data = np.frombuffer(raw, dtype=dtype).reshape((3,) + grid.shape)
        if representation == SPECTRAL:
            # the full lattice must mirror itself; keep its half
            axes = range(-grid.dim, 0)
            check_conjugate_symmetry(data, axes, np.max(np.abs(data)), f"spectrum in {path}")
            data = data[..., : grid.n // 2 + 1]
        if fh.read(1):
            raise SnapshotFormatError(f"trailing bytes in {path}")
    if expected_grid is not None and not grid.compatible(expected_grid):
        raise GridMismatchError(
            f"snapshot {path} holds a {grid.dim}d n={grid.n} box={grid.box_length:g} "
            f"field, run expects {expected_grid.dim}d n={expected_grid.n} "
            f"box={expected_grid.box_length:g}"
        )
    return Field(grid, data.copy(), representation)


def read_config(path) -> dict:
    """Flat `key = value` text: one pair per line, # comments, blank lines.
    A # opens a comment at the start of a line or after whitespace, so a
    value may contain one (`snapshot = u#1.snap`).

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
            text = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
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
