"""Command-line behavior: exit codes, config resolution, and on-disk outputs.

Exit-code contract: 0 all checks passed, 1 usage error, 2 a check failed,
3 blow-up, 4 malformed data or other I/O failure.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from llbar.cli import _KEYS, _build_parser, main
from llbar.diagnostics import TimeSeries
from llbar.grid import Grid, constant_field, random_band_limited_field, to_spectral
from llbar.io import load_snapshot, read_config, save_snapshot, write_config
from llbar.mollifier import make_mollifier
from llbar.physics import identity_suite


def run(*args):
    return main(list(args))


@pytest.fixture()
def outdir(tmp_path):
    return str(tmp_path / "out")


# the keys each converge study reads, found in its run_* function
_STUDY = {"outdir", "dim", "n", "box_length", "chi", "lambda_r", "lambda_e", "gamma",
          "scheme", "dt", "t_end", "study"}
_EPS_STUDY = _STUDY | {"report_every", "kernel", "seed", "amplitude", "decay_r", "kmax",
                       "eps_list"}
STUDY_READS = {
    "eps_cauchy": _EPS_STUDY,
    "eps_limit": _EPS_STUDY,
    "uniqueness": _STUDY | {"eps", "kernel", "seed", "amplitude", "decay_r", "kmax",
                            "scheme_b", "dt_b"},
    "linear_growth": _STUDY | {"report_every", "amplitude", "mode_ksq"},
}

# the keys each subcommand reads, found in its cmd_* function; converge
# offers those of all its studies
READS = {
    "simulate": {"outdir", "dim", "n", "box_length", "chi", "lambda_r", "lambda_e", "gamma",
                 "scheme", "dt", "adaptive", "tol", "t_end", "report_every", "eps", "kernel",
                 "seed", "amplitude", "decay_r", "kmax", "snapshot"},
    "verify": {"outdir", "dim", "n", "box_length", "chi", "lambda_r", "lambda_e", "gamma",
               "eps", "kernel", "seed", "seeds"},
    "converge": set().union(*STUDY_READS.values()),
    "mollifier-check": {"outdir", "dim", "n", "box_length", "eps", "kernel",
                        "write_calibration"},
    "calibrate": {"outdir", "dim", "n", "box_length", "chi", "lambda_r", "lambda_e", "gamma",
                  "kernel", "seed"},
}

# a valid value of every key other than outdir, as a config file spells it;
# "true" marks the on/off keys, whose flag takes no value
VALUES = {
    "dim": "2", "n": "16", "box_length": "6.0", "chi": "0.3", "lambda_r": "1.5",
    "lambda_e": "1.5", "gamma": "0.5", "scheme": "etd1", "dt": "0.002", "adaptive": "true",
    "tol": "1e-5", "t_end": "0.02", "report_every": "1", "eps": "0.3", "kernel": "bump",
    "seed": "1", "amplitude": "0.4", "decay_r": "4.0", "kmax": "4", "snapshot": "u.snap",
    "seeds": "1", "study": "eps_limit", "eps_list": "0.4,0.2", "scheme_b": "etd1",
    "dt_b": "0.001", "mode_ksq": "0,1", "write_calibration": "true",
}

# keys no reader reads any more, with a value their readers took: every
# subcommand and every study refuses them like any unknown key
REMOVED = {"drop_largest": "true", "kernel_b": "bump", "eps_a": "0.1", "eps_b": "0.1",
           "family_size": "100"}
VALUES.update(REMOVED)

# keys some converge study read once and only simulate reads now: every
# study refuses them like any key converge does not offer
LEFT_CONVERGE = {"adaptive", "tol"}

UNREAD = [(cmd, key) for cmd, keys in READS.items() for key in VALUES if key not in keys]
STUDY_UNREAD = [(study, key) for study, keys in STUDY_READS.items() for key in VALUES
                if key in (READS["converge"] | set(REMOVED) | LEFT_CONVERGE) - keys]


def write_stationary_snapshot(path, n=32):
    """u = (0, 0, 1): unit length everywhere, an equilibrium of the flow."""
    grid = Grid(2, n)
    save_snapshot(path, constant_field(grid, (0.0, 0.0, 1.0)))
    return grid


class TestVerify:
    def test_defaults_pass_every_check(self, outdir, capsys):
        assert run("verify", "--outdir", outdir) == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        assert text.count("PASS") >= 8  # identities plus smoothing properties

    def test_report_written_to_outdir(self, outdir):
        assert run("verify", "--n", "16", "--seeds", "1", "--outdir", outdir) == 0
        report = open(os.path.join(outdir, "verify.txt")).read()
        assert report.count("PASS") >= 8
        assert "checks passed" in report

    def test_bump_kernel_and_custom_eps(self, outdir):
        assert run("verify", "--n", "16", "--seeds", "1", "--kernel", "bump",
                   "--eps", "0.3", "--outdir", outdir) == 0

    def test_general_parameters_accepted(self, outdir):
        assert run("verify", "--n", "16", "--seeds", "1", "--chi", "0.5",
                   "--lambda-e", "2.0", "--gamma", "0.5", "--outdir", outdir) == 0

    def test_identity_rows_are_the_suite_checks_as_printed(self, outdir):
        assert run("verify", "--n", "16", "--seeds", "2", "--outdir", outdir) == 0
        lines = open(os.path.join(outdir, "verify.txt")).read().splitlines()
        checks = identity_suite(make_mollifier(Grid(2, 16), 0.2), seeds=range(2))
        assert [line.split() for line in lines[1 : 1 + len(checks)]] == [
            [c.name, f"{c.measured:.6e}", "bound", f"{c.bound:.3e}", "PASS"] for c in checks
        ]


class TestUsageErrors:
    def test_odd_grid_size(self, outdir, capsys):
        assert run("verify", "--n", "63", "--outdir", outdir) == 1
        assert "even" in capsys.readouterr().err

    def test_unknown_flag(self, outdir):
        assert run("verify", "--frobnicate", "--outdir", outdir) == 1

    def test_missing_subcommand(self):
        assert run() == 1

    def test_bad_scheme_name(self, outdir):
        assert run("simulate", "--scheme", "rk9", "--outdir", outdir) == 1

    def test_nonpositive_chi(self, outdir):
        assert run("verify", "--n", "16", "--chi", "-1", "--outdir", outdir) == 1

    def test_unknown_config_key_named(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.01\nbogus_key = 3\n")
        assert run("simulate", "--config", str(cfg), "--outdir", outdir) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_unparseable_config_value_named(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = not-a-number\n")
        assert run("simulate", "--config", str(cfg), "--outdir", outdir) == 1
        assert "dt" in capsys.readouterr().err

    def test_snapshot_conflicts_with_generator_knobs(self, tmp_path, outdir, capsys):
        snap = str(tmp_path / "u0.snap")
        write_stationary_snapshot(snap)
        code = run("simulate", "--snapshot", snap, "--amplitude", "0.7",
                   "--n", "32", "--outdir", outdir)
        assert code == 1
        assert "amplitude" in capsys.readouterr().err

    def test_snapshot_grid_mismatch(self, tmp_path, outdir):
        snap = str(tmp_path / "u0.snap")
        write_stationary_snapshot(snap, n=32)
        assert run("simulate", "--snapshot", snap, "--n", "64",
                   "--outdir", outdir) == 1

    def test_non_utf8_config_is_usage_error(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(bytes(range(256)))
        assert run("simulate", "--config", str(cfg), "--outdir", outdir) == 1
        assert f"usage error: {cfg}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, key", UNREAD)
    def test_unread_key_rejected_as_flag(self, outdir, capsys, cmd, key):
        flag = "--" + key.replace("_", "-")
        value = [] if VALUES[key] == "true" else [VALUES[key]]
        assert run(cmd, flag, *value, "--outdir", outdir) == 1
        assert "usage error:" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("cmd, key", UNREAD)
    def test_unread_key_rejected_in_config(self, tmp_path, outdir, capsys, cmd, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {VALUES[key]}\n")
        assert run(cmd, "--config", str(cfg), "--outdir", outdir) == 1
        err = capsys.readouterr().err
        assert f"usage error: {cfg}: {cmd} reads no configuration key {key!r}" in err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("study, key", STUDY_UNREAD)
    def test_unread_study_key_rejected_as_flag(self, outdir, capsys, study, key):
        flag = "--" + key.replace("_", "-")
        value = [] if VALUES[key] == "true" else [VALUES[key]]
        assert run("converge", "--study", study, flag, *value, "--outdir", outdir) == 1
        err = capsys.readouterr().err
        if key not in READS["converge"]:  # no study has the flag
            assert f"usage error: unrecognized arguments: {flag}" in err
        else:
            assert f"usage error: converge --study {study} reads no {flag}\n" in err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("study, key", STUDY_UNREAD)
    def test_unread_study_key_rejected_in_config(self, tmp_path, outdir, capsys, study, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"study = {study}\n{key} = {VALUES[key]}\n")
        assert run("converge", "--config", str(cfg), "--outdir", outdir) == 1
        err = capsys.readouterr().err
        reader = "converge" if key not in READS["converge"] else f"converge --study {study}"
        assert f"usage error: {cfg}: {reader} reads no configuration key {key!r}" in err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize(
        "argv",
        [
            ("converge", "--study", "eps_limit", "--n", "16", "--eps-l", "0.4,0.2"),
            ("mollifier-check", "--n", "16", "--write"),
        ],
        ids=["converge", "mollifier-check"],
    )
    def test_abbreviated_flag_rejected(self, outdir, capsys, argv):
        # a prefix of a flag is not that flag
        assert run(*argv, "--outdir", outdir) == 1
        assert "usage error: unrecognized arguments: " in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", "16", "--eps", "0"),
            ("simulate", "--n", "63"),
            ("simulate", "--n", "16", "--chi", "-1"),
            ("converge", "--study", "eps_limit", "--n", "16", "--eps-list", "0.4"),
        ],
    )
    def test_usage_error_writes_no_echo(self, tmp_path, capsys, argv):
        # the echo of an earlier run in the outdir survives a refused run
        out = tmp_path / "out"
        out.mkdir()
        echo = out / "effective-config.txt"
        echo.write_text("subcommand = verify\n")
        assert run(*argv, "--outdir", str(out)) == 1
        assert "usage error:" in capsys.readouterr().err
        assert echo.read_text() == "subcommand = verify\n"
        assert [path.name for path in out.iterdir()] == ["effective-config.txt"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", "16", "--eps", "0"),
            ("converge", "--study", "eps_limit", "--n", "16", "--eps-list", "0.4"),
        ],
    )
    def test_usage_error_removes_the_outdir_it_made(self, tmp_path, capsys, argv):
        # an empty directory that was there before the run stays
        made, kept = tmp_path / "made", tmp_path / "kept"
        kept.mkdir()
        for out in (made, kept):
            assert run(*argv, "--outdir", str(out)) == 1
        assert capsys.readouterr().err.count("usage error:") == 2
        assert not made.exists()
        assert kept.is_dir() and not any(kept.iterdir())

    @pytest.mark.parametrize(
        "cmd, key, value",
        [
            ("simulate", "kernel", "foo"),
            ("simulate", "scheme", "rk9"),
            ("converge", "study", "gn_calibration"),
            ("converge", "scheme_b", "rk9"),
        ],
    )
    def test_config_value_outside_choices_named(self, tmp_path, outdir, capsys, cmd, key, value):
        cfg = tmp_path / "run.cfg"
        study = "study = uniqueness\n" if key.endswith("_b") else ""
        cfg.write_text(f"n = 16\nt_end = 0.01\n{study}{key} = {value}\n")
        assert run(cmd, "--config", str(cfg), "--outdir", outdir) == 1
        assert f"usage error: {cfg}: bad value for {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "16", "--t-end", "0.01", "--eps", "-0.3"),
            ("converge", "--study", "uniqueness", "--n", "16", "--t-end", "0.01", "--eps", "-0.3"),
            ("verify", "--n", "16", "--seeds", "1", "--eps", "-1"),
            ("verify", "--n", "16", "--seeds", "1", "--eps", "0"),
            ("mollifier-check", "--n", "16", "--eps", "-1"),
            ("mollifier-check", "--n", "16", "--eps", "0"),
            ("verify", "--n", "16", "--seeds", "0"),
            ("converge", "--study", "linear_growth", "--n", "16", "--mode-ksq=-1"),
            ("converge", "--study", "linear_growth", "--n", "16", "--mode-ksq="),
            ("simulate", "--box-length", "inf", "--n", "16", "--t-end", "0.01"),
            ("verify", "--n", "16", "--seeds", "1", "--seed", "-1"),
            ("simulate", "--n", "16", "--t-end", "0.01", "--seed", "-1"),
            ("converge", "--study", "eps_limit", "--n", "16", "--t-end", "0.01", "--seed", "-3"),
        ],
    )
    def test_out_of_range_value_is_usage_error(self, outdir, capsys, argv):
        # a negative eps is not the limit flow, the limit flow has no
        # smoothing symbol to check, zero seeds check nothing,
        # no lattice mode has a negative |m|^2, an empty mode list measures
        # nothing, an infinite box has no lattice at all, and the seeded
        # generator takes no negative seed
        assert run(*argv, "--outdir", outdir) == 1
        assert "usage error:" in capsys.readouterr().err


class TestDataErrors:
    def test_missing_snapshot_file(self, tmp_path, outdir):
        assert run("simulate", "--snapshot", str(tmp_path / "no.snap"),
                   "--outdir", outdir) == 4

    def test_corrupt_snapshot(self, tmp_path, outdir):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"garbage")
        assert run("simulate", "--snapshot", str(bad), "--outdir", outdir) == 4

    def test_snapshot_with_impossible_grid(self, tmp_path, outdir, capsys):
        bad = tmp_path / "bad.snap"
        write_stationary_snapshot(bad, n=32)
        bad.write_bytes(bad.read_bytes().replace(b"\nn=32\n", b"\nn=7\n", 1))
        assert run("simulate", "--snapshot", str(bad), "--outdir", outdir) == 4
        assert "bad snapshot header" in capsys.readouterr().err

    def test_snapshot_with_infinite_box(self, tmp_path, outdir, capsys):
        bad = tmp_path / "bad.snap"
        write_stationary_snapshot(bad, n=32)
        box = b"\nbox_length=6.283185307179586\n"
        bad.write_bytes(bad.read_bytes().replace(box, b"\nbox_length=inf\n", 1))
        assert run("simulate", "--snapshot", str(bad), "--outdir", outdir) == 4
        assert "bad snapshot header" in capsys.readouterr().err

    def test_snapshot_header_claiming_more_than_the_file_holds(self, tmp_path, outdir, capsys):
        # 3 x 4096^3 doubles (1.6 TB) claimed by a 400-byte file: rejected
        # from the file size, before any buffer of the claimed size exists
        bad = tmp_path / "bad.snap"
        head = b"LLBAR1\nversion=1\nrepresentation=physical\ndim=3\nn=4096\nbox_length=1.0\n\n"
        bad.write_bytes(head + bytes(400 - len(head)))
        assert run("simulate", "--snapshot", str(bad), "--outdir", outdir) == 4
        assert "truncated data" in capsys.readouterr().err

    def test_snapshot_spectrum_without_mirror(self, tmp_path, outdir, capsys):
        # bump the last coefficient of the full-lattice body: its mirror in
        # the lower half stays as it was
        bad = tmp_path / "bad.snap"
        u = random_band_limited_field(Grid(2, 16), seed=0, amplitude=0.5)
        save_snapshot(bad, to_spectral(u))
        blob = bytearray(bad.read_bytes())
        blob[-16:] = (np.frombuffer(bytes(blob[-16:]), dtype="<c16") + 1.0).tobytes()
        bad.write_bytes(bytes(blob))
        assert run("simulate", "--snapshot", str(bad), "--n", "16",
                   "--outdir", outdir) == 4
        assert "conjugate symmetry" in capsys.readouterr().err


class TestSimulate:
    def test_writes_series_snapshot_and_config(self, outdir):
        assert run("simulate", "--n", "16", "--t-end", "0.05", "--eps", "0.1",
                   "--outdir", outdir) == 0
        series = TimeSeries.read_csv(os.path.join(outdir, "series.csv"))
        assert series.metadata["command"] == "simulate"
        assert series.metadata["grid"] == "2d-n16"
        assert len(series) >= 2
        final = load_snapshot(os.path.join(outdir, "final.snap"))
        assert final.grid.compatible(Grid(2, 16))
        assert os.path.exists(os.path.join(outdir, "effective-config.txt"))

    def test_stationary_snapshot_keeps_energy_constant(self, tmp_path, outdir):
        snap = str(tmp_path / "flat.snap")
        write_stationary_snapshot(snap)
        assert run("simulate", "--snapshot", snap, "--n", "32",
                   "--t-end", "0.1", "--outdir", outdir) == 0
        energy = TimeSeries.read_csv(os.path.join(outdir, "series.csv")).column("energy")
        assert energy.max() - energy.min() == 0.0

    def test_blow_up_exits_3_with_partial_series(self, outdir, capsys):
        code = run("simulate", "--n", "32", "--scheme", "etd1", "--dt", "0.5",
                   "--t-end", "10", "--amplitude", "40", "--kmax", "10",
                   "--outdir", outdir)
        assert code == 3
        assert "blow-up" in capsys.readouterr().err
        series = TimeSeries.read_csv(os.path.join(outdir, "series.csv"))
        assert series.reports[-1].flags == "nan"  # the flagged failure row
        assert not os.path.exists(os.path.join(outdir, "final.snap"))

    def test_blow_up_inside_a_stage_exits_3_with_flagged_series(self, outdir, capsys):
        # the etd_rk2 stage value overflows first: N(u) of it must not raise
        code = run("simulate", "--n", "32", "--t-end", "1", "--dt", "0.05",
                   "--amplitude", "5", "--outdir", outdir)
        assert code == 3
        assert "blow-up" in capsys.readouterr().err
        series = TimeSeries.read_csv(os.path.join(outdir, "series.csv"))
        assert series.reports[-1].flags == "nan"
        assert not os.path.exists(os.path.join(outdir, "final.snap"))

    def test_adaptive_collapse_exits_3_with_series(self, outdir, capsys):
        code = run("simulate", "--n", "16", "--t-end", "0.01", "--adaptive",
                   "--tol", "1e-18", "--outdir", outdir)
        assert code == 3
        assert "collapsed" in capsys.readouterr().err
        series = TimeSeries.read_csv(os.path.join(outdir, "series.csv"))
        assert len(series) >= 1 and series.reports[0].t == 0.0
        assert series.reports[-1].flags == "dt_collapse"
        assert not os.path.exists(os.path.join(outdir, "final.snap"))

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_report_every_below_one_is_usage_error(self, outdir, capsys, value):
        assert run("simulate", "--n", "16", "--t-end", "0.01",
                   "--report-every", value, "--outdir", outdir) == 1
        assert "report_every" in capsys.readouterr().err

    def test_zero_t_end_reports_initial_state(self, outdir):
        assert run("simulate", "--n", "16", "--t-end", "0", "--outdir", outdir) == 0
        series = TimeSeries.read_csv(os.path.join(outdir, "series.csv"))
        assert len(series) == 1
        assert series.reports[0].t == 0.0


class TestConfigResolution:
    def test_flag_overrides_file_overrides_default(self, tmp_path, outdir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.01\nn = 16\nt-end = 0.02\n")
        assert run("simulate", "--config", str(cfg), "--dt", "0.002",
                   "--outdir", outdir) == 0
        echoed = read_config(os.path.join(outdir, "effective-config.txt"))
        assert echoed["dt"] == "0.002"  # flag wins
        assert echoed["n"] == "16"  # file wins over default 64
        assert echoed["t_end"] == "0.02"  # dashed file key normalized
        assert echoed["scheme"] == "etd_rk2"  # untouched default

    def test_echo_is_deterministic(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert run("verify", "--n", "16", "--seeds", "1", "--outdir", out) == 0

        def normalized(out):
            text = open(os.path.join(out, "effective-config.txt")).read()
            return text.replace(out, "OUT")

        assert normalized(out_a) == normalized(out_b)

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from-env"
        monkeypatch.setenv("LLBAR_OUTDIR", str(envdir))
        assert run("verify", "--n", "16", "--seeds", "1") == 0
        assert (envdir / "verify.txt").exists()

    def test_outdir_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LLBAR_OUTDIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        assert run("verify", "--n", "16", "--seeds", "1",
                   "--outdir", str(chosen)) == 0
        assert (chosen / "verify.txt").exists()
        assert not (tmp_path / "ignored").exists()

    def test_echo_replays_to_identical_series(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("simulate", "--n", "16", "--t-end", "0.05",
                   "--outdir", str(first)) == 0
        assert run("simulate", "--config", str(first / "effective-config.txt"),
                   "--outdir", str(second)) == 0
        series = "series.csv"
        assert (second / series).read_bytes() == (first / series).read_bytes()

    def test_snapshot_echo_replays_to_identical_series(self, tmp_path):
        snap = str(tmp_path / "flat.snap")
        write_stationary_snapshot(snap, n=16)
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("simulate", "--snapshot", snap, "--n", "16", "--t-end", "0.05",
                   "--outdir", str(first)) == 0
        assert run("simulate", "--config", str(first / "effective-config.txt"),
                   "--outdir", str(second)) == 0
        series = "series.csv"
        assert (second / series).read_bytes() == (first / series).read_bytes()

    def test_hash_in_snapshot_name_replays_from_echo(self, tmp_path):
        # the echo reads `snapshot = .../u#1.snap`: a # inside a value opens no comment
        snap = str(tmp_path / "u#1.snap")
        write_stationary_snapshot(snap, n=16)
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("simulate", "--snapshot", snap, "--n", "16", "--t-end", "0.05",
                   "--outdir", str(first)) == 0
        echo = first / "effective-config.txt"
        assert read_config(str(echo))["snapshot"] == snap
        assert run("simulate", "--config", str(echo), "--outdir", str(second)) == 0
        series = "series.csv"
        assert (second / series).read_bytes() == (first / series).read_bytes()

    @pytest.mark.parametrize("key", ["snapshot", "outdir"])
    def test_value_whose_echo_would_not_replay_is_refused(self, tmp_path, capsys, key):
        # `snapshot = .../u #1.snap` would read back as `.../u`: the run is
        # refused, naming the key, before it writes or steps anything
        snap = str(tmp_path / "u #1.snap")
        write_stationary_snapshot(snap, n=16)
        source = ["--snapshot", snap] if key == "snapshot" else []
        out = tmp_path / ("out #1" if key == "outdir" else "out")
        assert run("simulate", "--n", "16", *source, "--outdir", str(out)) == 1
        assert f"of {key!r} would not replay" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["u #1.snap"]

    def test_snapshot_none_as_flag_or_file_value_means_generated_data(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snapshot = none\n")
        flag, filed = tmp_path / "flag", tmp_path / "file"
        assert run("simulate", "--snapshot", "none", "--n", "16", "--t-end", "0.05",
                   "--outdir", str(flag)) == 0
        assert run("simulate", "--config", str(cfg), "--n", "16", "--t-end", "0.05",
                   "--outdir", str(filed)) == 0
        series = "series.csv"
        assert (flag / series).read_bytes() == (filed / series).read_bytes()

    def test_snapshot_with_generator_value_in_config_still_conflicts(
        self, tmp_path, outdir, capsys
    ):
        snap = str(tmp_path / "flat.snap")
        write_stationary_snapshot(snap, n=16)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"snapshot = {snap}\nn = 16\namplitude = 0.7\n")
        assert run("simulate", "--config", str(cfg), "--outdir", outdir) == 1
        assert "amplitude" in capsys.readouterr().err

    def test_config_of_another_subcommand_rejected(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subcommand = verify\nn = 16\n")
        assert run("simulate", "--config", str(cfg), "--outdir", outdir) == 1
        assert "verify" in capsys.readouterr().err

    def test_flags_and_config_keys_agree(self):
        """Each subcommand's flags are exactly the keys it reads (converge:
        those of its studies), and the one key table gives each subcommand
        and each study exactly the keys it reads; every key of the table is
        some subcommand's flag."""
        parser = _build_parser()
        subparsers = parser._subparsers._group_actions[0].choices
        assert set(subparsers) == set(READS)
        for name, sub in subparsers.items():
            mine = {a.dest for a in sub._actions} - {"help", "config"}
            assert mine == READS[name], (name, sorted(mine ^ READS[name]))
        readers = {**{cmd: keys for cmd, keys in READS.items() if cmd != "converge"},
                   **STUDY_READS}
        for reader, keys in readers.items():
            assert {key for key, k in _KEYS.items() if reader in k.reads} == keys, reader
        assert set(_KEYS) == set().union(*READS.values())

    @pytest.mark.parametrize(
        "argv, output",
        [
            (("verify", "--n", "16", "--seeds", "1", "--kernel", "bump"), "verify.txt"),
            (("mollifier-check", "--n", "16", "--kernel", "bump", "--write-calibration"),
             "mollifier-report.txt"),
            (("calibrate", "--n", "16"), "constants.txt"),
            (("converge", "--study", "uniqueness", "--n", "16", "--t-end", "0.1"),
             "uniqueness.csv"),
            (("converge", "--study", "eps_cauchy", "--n", "16", "--decay-r", "5",
              "--t-end", "0.02"), "eps_cauchy.csv"),
            (("converge", "--study", "eps_limit", "--n", "16", "--decay-r", "5",
              "--t-end", "0.02"), "eps_limit.csv"),
            (("converge", "--study", "linear_growth", "--n", "16", "--t-end", "0.1",
              "--mode-ksq", "1"), "linear_growth.csv"),
        ],
        ids=["verify", "mollifier-check", "calibrate", "converge", "converge-eps_cauchy",
             "converge-eps_limit", "converge-linear_growth"],
    )
    def test_every_subcommand_echo_replays(self, tmp_path, argv, output):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(*argv, "--outdir", str(first)) == 0
        echo = first / "effective-config.txt"
        keys = STUDY_READS[argv[2]] if argv[0] == "converge" else READS[argv[0]]
        assert set(read_config(str(echo))) == keys | {"subcommand"}
        assert run(argv[0], "--config", str(echo), "--outdir", str(second)) == 0
        assert (second / output).read_bytes() == (first / output).read_bytes()

    @pytest.mark.parametrize("cmd, report", [("verify", "verify.txt"),
                                             ("mollifier-check", "mollifier-report.txt")])
    def test_check_subcommands_echo_the_eps_they_use(self, outdir, cmd, report):
        argv = (cmd, "--n", "16") + (("--seeds", "1") if cmd == "verify" else ())
        assert run(*argv, "--outdir", outdir) == 0
        assert read_config(os.path.join(outdir, "effective-config.txt"))["eps"] == "0.2"
        assert "eps=0.2" in open(os.path.join(outdir, report)).read()

    def test_nothing_written_outside_outdir(self, tmp_path, monkeypatch, outdir):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run("simulate", "--n", "16", "--t-end", "0.02",
                   "--outdir", outdir) == 0
        assert list(workdir.iterdir()) == []


class TestConverge:
    def test_eps_cauchy_passes_and_writes_study_files(self, outdir, capsys):
        code = run("converge", "--study", "eps_cauchy", "--n", "32",
                   "--decay-r", "5", "--t-end", "0.1", "--outdir", outdir)
        assert code == 0
        assert "slope" in capsys.readouterr().out
        assert os.path.exists(os.path.join(outdir, "eps_cauchy.csv"))
        assert os.path.exists(os.path.join(outdir, "eps_cauchy.txt"))

    def test_uniqueness_default_pair_agrees(self, outdir):
        assert run("converge", "--study", "uniqueness", "--n", "32",
                   "--seed", "7", "--t-end", "0.25", "--outdir", outdir) == 0

    def test_uniqueness_of_a_smoothed_flow_agrees(self, outdir):
        assert run("converge", "--study", "uniqueness", "--n", "16", "--t-end", "0.1",
                   "--eps", "0.1", "--kernel", "bump", "--outdir", outdir) == 0
        echo = read_config(os.path.join(outdir, "effective-config.txt"))
        assert (echo["eps"], echo["kernel"]) == ("0.1", "bump")

    def test_linear_growth_passes_at_tiny_amplitude(self, outdir):
        assert run("converge", "--study", "linear_growth", "--n", "32",
                   "--amplitude", "1e-8", "--t-end", "0.5",
                   "--outdir", outdir) == 0

    def test_linear_growth_defaults_to_the_linear_regime(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("converge", "--study", "linear_growth", "--n", "32",
                   "--t-end", "0.5", "--outdir", str(first)) == 0
        echo = first / "effective-config.txt"
        assert read_config(str(echo))["amplitude"] == "1e-08"
        assert run("converge", "--config", str(echo), "--outdir", str(second)) == 0
        csv = "linear_growth.csv"
        assert (second / csv).read_bytes() == (first / csv).read_bytes()

    def test_linear_growth_keeps_a_given_amplitude(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("converge", "--study", "linear_growth", "--n", "32",
                   "--amplitude", "0.5", "--t-end", "0.5",
                   "--outdir", str(first)) == 2
        echo = first / "effective-config.txt"
        assert read_config(str(echo))["amplitude"] == "0.5"
        assert run("converge", "--config", str(echo), "--outdir", str(second)) == 2

    def test_linear_growth_contamination_fails_check(self, outdir, capsys):
        code = run("converge", "--study", "linear_growth", "--n", "32",
                   "--amplitude", "1e-2", "--t-end", "0.5", "--outdir", outdir)
        assert code == 2
        assert "contamination" in capsys.readouterr().err

    def test_stationary_data_short_circuits_to_pass(self, outdir, capsys):
        code = run("converge", "--study", "eps_cauchy", "--n", "16",
                   "--amplitude", "0", "--t-end", "0.05", "--outdir", outdir)
        assert code == 0
        assert "stationary" in capsys.readouterr().out

    def test_h2_spread_above_bound_fails_check(self, outdir, capsys):
        code = run("converge", "--study", "eps_limit", "--n", "32",
                   "--eps-list", "1.0,0.7,0.5", "--decay-r", "2",
                   "--t-end", "0.05", "--outdir", outdir)
        assert code == 2
        assert "check failed: sup-in-time H2 spread" in capsys.readouterr().err

    @pytest.mark.parametrize("study", ["eps_cauchy", "eps_limit"])
    def test_eps_study_rejects_adaptive_before_any_leg(self, outdir, capsys, study):
        code = run("converge", "--study", study, "--n", "16", "--t-end", "0.05",
                   "--report-every", "1", "--adaptive", "--tol", "1e-7",
                   "--outdir", outdir)
        assert code == 1
        assert "--adaptive" in capsys.readouterr().err

    def test_uniqueness_rejects_adaptive_before_any_leg(self, outdir, capsys):
        code = run("converge", "--study", "uniqueness", "--n", "16", "--t-end", "0.1",
                   "--adaptive", "--outdir", outdir)
        assert code == 1
        assert "--adaptive" in capsys.readouterr().err

    def test_uniqueness_refuses_a_dt_above_the_shared_interval(self, outdir, capsys):
        # leg a's dt = 1e-3 is twice t_end / 10
        code = run("converge", "--study", "uniqueness", "--n", "16", "--t-end", "0.005",
                   "--outdir", outdir)
        assert code == 1
        assert "t_end=0.005 allows dt <= 0.0005" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_linear_growth_rejects_adaptive_before_any_step(self, outdir, capsys):
        # the halved-amplitude run is compared with the full one on the same steps
        code = run("converge", "--study", "linear_growth", "--n", "16", "--t-end", "0.1",
                   "--adaptive", "--outdir", outdir)
        assert code == 1
        assert "--adaptive" in capsys.readouterr().err

    def test_eps_study_blow_up_names_the_leg(self, outdir, capsys):
        code = run("converge", "--study", "eps_limit", "--n", "16", "--dt", "0.05",
                   "--amplitude", "5", "--t-end", "1", "--outdir", outdir)
        assert code == 3
        assert "blow-up in eps=0.4: non-finite state" in capsys.readouterr().err

    def test_unknown_study_rejected(self, outdir):
        assert run("converge", "--study", "warp_drive", "--outdir", outdir) == 1


class TestMollifierCheck:
    def test_report_written_and_passes(self, outdir):
        assert run("mollifier-check", "--n", "32", "--eps", "0.2",
                   "--outdir", outdir) == 0
        text = open(os.path.join(outdir, "mollifier-report.txt")).read()
        assert "PASS" in text

    def test_write_calibration_records_measured_constants(self, outdir):
        assert run("mollifier-check", "--n", "32", "--kernel", "bump",
                   "--eps", "0.2", "--write-calibration",
                   "--outdir", outdir) == 0
        constants = read_config(os.path.join(outdir, "mollifier-calibration.txt"))
        assert "bump_eps0.2_approx_rate_slope" in constants
        assert float(constants["bump_eps0.2_approx_rate_slope"]) > 0.95


class TestCalibrate:
    def test_writes_constants_with_stable_dt(self, outdir):
        assert run("calibrate", "--n", "32", "--outdir", outdir) == 0
        constants = read_config(os.path.join(outdir, "constants.txt"))
        assert float(constants["dt_stable_2d_n32"]) > 0
        assert float(constants["gn_linf_h1_h2_max"]) > 0
        assert float(constants["lipschitz_h2_eps0.2_max"]) > 0

    def test_stable_dt_measured_under_the_run_couplings(self, outdir):
        # the default couplings give 0.05 here
        assert run("calibrate", "--n", "16", "--lambda-e", "0.5", "--outdir", outdir) == 0
        constants = read_config(os.path.join(outdir, "constants.txt"))
        assert constants["dt_stable_2d_n16"] == "0.1"

    def test_constants_written_once(self, outdir, monkeypatch):
        written = []

        def recording(path, *args, **kwargs):
            written.append(os.path.basename(path))
            write_config(path, *args, **kwargs)

        monkeypatch.setattr("llbar.cli.write_config", recording)
        assert run("calibrate", "--n", "32", "--outdir", outdir) == 0
        assert written.count("constants.txt") == 1


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "llbar.cli", "verify", "--n", "16",
             "--seeds", "1", "--outdir", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "llbar.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("simulate", "verify", "converge", "mollifier-check",
                     "calibrate"):
            assert name in proc.stdout

    def test_import_loads_no_scipy(self):
        """The runtime needs numpy only; scipy is a test dependency."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, llbar.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_thread_pool(self):
        """The eps studies import their thread pool only when they start one."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, llbar.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator")
    def test_steps_reuse_freed_memory(self, tmp_path):
        """200 steps at 2d n=64 fault in a few hundred pages; with freed
        arrays unmapped and the heap trimmed they took over 20,000."""
        code = (
            "import resource, sys, llbar.cli\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "rc = llbar.cli.main(sys.argv[1:])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(rc, after - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "simulate", "--n", "64", "--t-end", "0.2",
             "--outdir", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        rc, faults = map(int, proc.stdout.split()[-2:])
        assert rc == 0
        assert faults < 5000
