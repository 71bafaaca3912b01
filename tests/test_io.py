"""File formats: snapshots and run configuration.

The binary format carries raw IEEE-754 bytes, so every round trip below
is asserted bit-exact.
"""

import numpy as np
import pytest

from llbar.errors import DataError, GridMismatchError, SnapshotFormatError, UsageError
from llbar.grid import Grid, random_band_limited_field, to_physical, to_spectral
from llbar.io import (
    SNAPSHOT_MAGIC,
    check_config_value,
    ensure_outdir,
    load_snapshot,
    read_config,
    save_snapshot,
    write_config,
)


def sample_field(grid, seed=0):
    return random_band_limited_field(grid, seed=seed, amplitude=0.5, kmax=max(2, grid.n // 4))


# header edits that name a grid no Grid accepts: odd n, dim 4, negative
# or infinite box
IMPOSSIBLE_GRIDS = [
    pytest.param(b"\nn=8\n", b"\nn=7\n", id="odd-n"),
    pytest.param(b"\ndim=2\n", b"\ndim=4\n", id="dim-4"),
    pytest.param(b"\nbox_length=", b"\nbox_length=-", id="negative-box"),
    pytest.param(b"\nbox_length=6.283185307179586\n", b"\nbox_length=inf\n", id="infinite-box"),
]


def rewrite_first(path, old, new):
    blob = path.read_bytes()
    assert old in blob
    path.write_bytes(blob.replace(old, new, 1))


def corrupt_upper_half(path):
    """Add 1 to the last coefficient of a spectral snapshot's body: last
    axis index n - 1, above n/2, whose mirror stays unchanged."""
    blob = bytearray(path.read_bytes())
    last = np.frombuffer(bytes(blob[-16:]), dtype="<c16") + 1.0
    blob[-16:] = last.tobytes()
    path.write_bytes(bytes(blob))


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 12), (3, 8)])
    def test_physical_round_trip_bit_exact(self, tmp_path, dim, n):
        field = to_physical(sample_field(Grid(dim, n), seed=dim))
        path = tmp_path / "state.snap"
        save_snapshot(path, field)
        back = load_snapshot(path)
        assert back.grid.compatible(field.grid)
        assert back.representation == field.representation
        assert back.data.dtype == field.data.dtype
        assert np.array_equal(back.data, field.data)

    def test_spectral_round_trip_bit_exact(self, tmp_path):
        field = to_spectral(sample_field(Grid(2, 16), seed=5))
        path = tmp_path / "state.snap"
        save_snapshot(path, field)
        back = load_snapshot(path)
        assert back.representation == "spectral"
        assert back.data.dtype == np.complex128
        assert np.array_equal(back.data, field.data)

    def test_non_default_box_round_trip(self, tmp_path):
        grid = Grid(2, 8, box_length=1.5)
        field = to_physical(sample_field(grid))
        path = tmp_path / "state.snap"
        save_snapshot(path, field)
        back = load_snapshot(path)
        assert back.grid.box_length == 1.5
        assert np.array_equal(back.data, field.data)

    def test_same_field_same_bytes(self, tmp_path):
        field = to_physical(sample_field(Grid(2, 16)))
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        save_snapshot(a, field)
        save_snapshot(b, field)
        assert a.read_bytes() == b.read_bytes()

    def test_expected_grid_accepts_match(self, tmp_path):
        grid = Grid(2, 16)
        path = tmp_path / "state.snap"
        save_snapshot(path, to_physical(sample_field(grid)))
        load_snapshot(path, expected_grid=grid)

    @pytest.mark.parametrize("other", [Grid(2, 32), Grid(3, 16), Grid(2, 16, 1.0)])
    def test_expected_grid_rejects_mismatch(self, tmp_path, other):
        path = tmp_path / "state.snap"
        save_snapshot(path, to_physical(sample_field(Grid(2, 16))))
        with pytest.raises(GridMismatchError):
            load_snapshot(path, expected_grid=other)


class TestSnapshotErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "state.snap"
        path.write_bytes(b"NOTAFORMAT\n" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_snapshot(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "state.snap"
        path.write_bytes(b"")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "state.snap"
        save_snapshot(path, to_physical(sample_field(Grid(2, 8))))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "state.snap"
        save_snapshot(path, to_physical(sample_field(Grid(2, 8))))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            load_snapshot(path)

    def test_malformed_header_line(self, tmp_path):
        path = tmp_path / "state.snap"
        path.write_bytes(SNAPSHOT_MAGIC + b"version 1\n\n")
        with pytest.raises(SnapshotFormatError, match="header"):
            load_snapshot(path)

    def test_non_numeric_header_value(self, tmp_path):
        path = tmp_path / "state.snap"
        save_snapshot(path, to_physical(sample_field(Grid(2, 8))))
        blob = path.read_bytes().replace(b"n=8", b"n=abc")
        path.write_bytes(blob)
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    @pytest.mark.parametrize("old, new", IMPOSSIBLE_GRIDS)
    def test_impossible_grid_header(self, tmp_path, old, new):
        path = tmp_path / "state.snap"
        save_snapshot(path, to_physical(sample_field(Grid(2, 8))))
        rewrite_first(path, old, new)
        with pytest.raises(SnapshotFormatError, match="bad snapshot header"):
            load_snapshot(path)

    def test_spectrum_without_mirror_rejected(self, tmp_path):
        # the file holds the full lattice; its upper half must mirror the lower
        path = tmp_path / "state.snap"
        save_snapshot(path, to_spectral(sample_field(Grid(2, 8))))
        corrupt_upper_half(path)
        with pytest.raises(DataError, match="conjugate symmetry"):
            load_snapshot(path)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        mapping = {"scheme": "etd_rk2", "dt": "0.001", "n": "64"}
        write_config(path, mapping)
        assert read_config(path) == mapping

    def test_keys_sorted_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, {"zeta": "1", "alpha": "2"})
        lines = path.read_text().splitlines()
        assert lines == ["alpha = 2", "zeta = 1"]

    def test_header_written_as_comments_and_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, {"dt": "0.001"}, header="calibrated on 64^2\nline two")
        text = path.read_text()
        assert text.startswith("# calibrated on 64^2\n# line two\n")
        assert read_config(path) == {"dt": "0.001"}

    def test_comments_blanks_and_inline_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# full-line comment\n"
            "\n"
            "scheme = etd1   # inline comment\n"
            "  dt=0.5\n"
        )
        assert read_config(path) == {"scheme": "etd1", "dt": "0.5"}

    def test_hash_inside_a_value_round_trips(self, tmp_path):
        # a # opens a comment only at the start of a line or after whitespace
        path = tmp_path / "run.cfg"
        values = {"snapshot": "u#1.snap", "label": "a#b#"}
        write_config(path, values, header="echo")
        assert read_config(path) == values
        path.write_text("snapshot = u#1.snap #the start\n#dt = 1\n")
        assert read_config(path) == {"snapshot": "u#1.snap"}

    @pytest.mark.parametrize(
        "value", ["u #1.snap", "#u.snap", "u\t#1", " u.snap", "u.snap ", "a\nb", "a\rb"]
    )
    def test_value_that_would_not_read_back_is_refused(self, tmp_path, value):
        # read_config of `snapshot = u #1.snap` gives `u`: such a value is
        # refused, by name, and no file is written
        path = tmp_path / "run.cfg"
        with pytest.raises(UsageError, match="'snapshot' would not replay"):
            write_config(path, {"snapshot": value, "n": "16"})
        assert not path.exists()
        with pytest.raises(UsageError, match="'snapshot'"):
            check_config_value("snapshot", value)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dt = 1\ndt = 2\n")
        with pytest.raises(UsageError, match=r":2: duplicate key 'dt'"):
            read_config(path)

    def test_missing_separator(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dt 0.5\n")
        with pytest.raises(UsageError, match=r":1: expected"):
            read_config(path)

    def test_empty_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("= 0.5\n")
        with pytest.raises(UsageError, match="empty key"):
            read_config(path)

    def test_non_utf8_file_is_usage_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"dt = 0.5\n\xff\xfe\x00binary\n")
        with pytest.raises(UsageError, match="not UTF-8"):
            read_config(path)

    def test_value_may_contain_spaces(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, {"label": "two words"})
        assert read_config(path) == {"label": "two words"}


class TestEnsureOutdir:
    def test_creates_nested_directory(self, tmp_path):
        target = tmp_path / "a" / "b" / "c"
        assert ensure_outdir(target) == str(target)
        assert target.is_dir()
        assert list(target.iterdir()) == []  # probe file cleaned up

    def test_existing_directory_ok(self, tmp_path):
        assert ensure_outdir(tmp_path) == str(tmp_path)

    def test_path_through_regular_file_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(UsageError, match="not writable"):
            ensure_outdir(blocker / "sub")
