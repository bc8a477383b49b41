"""Command-line interface behavior."""

import json
import os

import pytest

import latsub.experiments
import latsub.mz
from latsub.cli import main
from latsub.index_sets import hyperbolic_cross
from latsub.lattice import GeneratorSearchError, Rank1Lattice, is_reconstructing


def test_lattice_search_and_audit(tmp_path, capsys):
    index_path = tmp_path / "cross.txt"
    hyperbolic_cross(2, 1.0, 4.0).save(index_path)
    lattice_path = tmp_path / "lat.txt"
    rc = main(["lattice-search", "--index-set", str(index_path),
               "--seed", "7", "--out", str(lattice_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "oversampling" in out
    lat = Rank1Lattice.load(lattice_path)
    assert is_reconstructing(lat, hyperbolic_cross(2, 1.0, 4.0))

    audit_path = tmp_path / "audit.json"
    rc = main(["mz-audit", "--lattice", str(lattice_path),
               "--index-set", str(index_path), "--out", str(audit_path)])
    assert rc == 0
    report = json.loads(audit_path.read_text())
    assert report["exact_quadrature"] is True
    assert abs(report["A"] - 1.0) < 1e-9
    assert report["num_points"] == lat.size


def test_mz_audit_above_dense_cap_exits_2(tmp_path, capsys, monkeypatch):
    lattice_path = tmp_path / "lat.txt"
    Rank1Lattice(dimension=1, generator=[1], size=16).save(lattice_path)
    monkeypatch.setattr(latsub.mz, "DENSE_CAP_BYTES", 16 * 8 * 8)  # |I| <= 8
    rc = main(["mz-audit", "--lattice", str(lattice_path),
               "--d", "1", "--gamma", "1.0", "--radius", "4.0"])  # |I| = 9
    captured = capsys.readouterr()
    assert rc == 2
    assert ("error: |I| = 9 needs a dense Gram matrix of 1296 bytes, above "
            "DENSE_CAP_BYTES = 1024: it is not formed") in captured.err


def test_mz_audit_lattice_beyond_int64_range_exits_2(tmp_path, capsys):
    # refused when the file is read, before any M-length array exists
    lattice_path = tmp_path / "lat.txt"
    lattice_path.write_text(f"2 {2**40 + 39} {2**39} 12345\n")
    rc = main(["mz-audit", "--lattice", str(lattice_path),
               "--d", "2", "--gamma", "1.0", "--radius", "2.0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: lattice size 1099511627815 exceeds" in captured.err


def test_lattice_search_from_cross_flags(capsys):
    rc = main(["lattice-search", "--d", "2", "--gamma", "1.0",
               "--radius", "3.0", "--seed", "0"])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("2 ")


def test_exp1_run_and_exit_code(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["exp1", "--d", "2", "--gamma", "0.5", "--radii", "4,8,16",
               "--seed", "3", "--reps", "2", "--out", str(out_dir),
               "--strategies", "full", "--format", "both"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert os.path.exists(out_dir / "report.json")
    assert os.path.exists(out_dir / "error_vs_frequencies.csv")


def test_memory_cap_below_every_round_skips_and_summarizes(tmp_path, capsys):
    rc = main(["exp1", "--d", "2", "--gamma", "0.5", "--radii", "4,8", "--seed", "3",
               "--reps", "2", "--strategies", "full,random_sub", "--mem-cap", "1",
               "--out", str(tmp_path / "capped")])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    summary = [line for line in captured.out.splitlines() if line.startswith("skipped")]
    # the rounds at M = 29 and 59: fixed bytes plus round, no row bytes
    assert summary == ["skipped 8 rows: needs 37536 bytes, over the memory cap of 1; "
                       "needs 43840 bytes, over the memory cap of 1"]
    report = json.loads((tmp_path / "capped" / "report.json").read_text())
    assert len(report["rows"]) == 8 and all(row["skipped"] for row in report["rows"])


@pytest.mark.parametrize("argv, loaded, message", [
    (["exp1", "--strategies", "full,full"], {},
     "strategies must be distinct, got ('full', 'full')"),
    (["exp1", "--radii", "4,4"], {},
     "radii schedule must be sorted strictly ascending, got (4.0, 4.0)"),
    (["exp1"], {"radii": []}, "radii schedule must not be empty"),
    (["exp2", "--seed", "-1"], {}, "seed must be >= 0, got -1"),
    (["exp2"], {"solver_iterations": 0}, "solver_iterations must be >= 1, got 0"),
], ids=["repeated-strategy", "repeated-radius", "empty-radii", "negative-seed",
        "no-solver-iterations"])
def test_config_refused_before_any_output(tmp_path, capsys, argv, loaded, message):
    # each once ran: repeated strategies and radii wrote every CSV line twice,
    # empty radii wrote header-only CSVs, and the others failed only after
    # the first lattice search had run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dimension": 2, "radii": [4.0], "repetitions": 1,
                                    "strategies": ["full"],
                                    "output_dir": str(tmp_path / "out"), **loaded}))
    rc = main([*argv, "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not os.path.exists(tmp_path / "out")


def test_exp2_infeasible_b_exits_nonzero(tmp_path, capsys):
    rc = main(["exp2", "--d", "2", "--gamma", "0.5", "--radii", "4",
               "--b", "1.0001", "--seed", "0", "--reps", "1",
               "--out", str(tmp_path / "bad")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "1 + 1/" in captured.err


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dimension": 2, "smoothness": 1.5, "gamma": 0.5, "radii": [4.0, 8.0],
        "repetitions": 1, "seed": 5, "strategies": ["full"],
        "output_dir": str(tmp_path / "from_file")}))
    rc = main(["exp1", "--config", str(cfg_path),
               "--out", str(tmp_path / "overridden")])
    capsys.readouterr()
    assert rc == 0
    assert os.path.exists(tmp_path / "overridden" / "report.json")
    assert not os.path.exists(tmp_path / "from_file")


def test_assertion_failure_exit_code(tmp_path, capsys):
    # tiny crosses with few draws genuinely violate the aliasing finding
    # for some seeds; the CLI must surface that as a nonzero exit code
    rc = main(["exp1", "--d", "2", "--gamma", "0.5", "--radii", "2,4",
               "--seed", "1", "--reps", "3", "--out", str(tmp_path / "v"),
               "--strategies", "full,random_sub"])
    captured = capsys.readouterr()
    if rc == 1:
        assert "assertion failed" in captured.err
    else:
        assert rc == 0


def test_generator_search_error_exits_2(tmp_path, capsys, monkeypatch):
    def no_generator(index_set, rng_seed):
        raise GeneratorSearchError("no generator within the injected budget")

    monkeypatch.setattr(latsub.experiments, "search_generator", no_generator)
    rc = main(["exp1", "--d", "2", "--gamma", "0.5", "--radii", "4",
               "--reps", "1", "--strategies", "full", "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: no generator within the injected budget" in captured.err


_CROSS = ["--d", "2", "--gamma", "1.0", "--radius", "2.0"]


@pytest.mark.parametrize("argv", [
    ["mz-audit", "--lattice", "{empty}", *_CROSS],
    ["mz-audit", "--lattice", "{missing}", *_CROSS],
    ["lattice-search", "--index-set", "{missing}"],
    ["lattice-search", "--index-set", "{empty}"],
    ["exp1", "--config", "{missing}"],
    ["exp1", "--config", "{unknown_field}"],
    ["exp1", "--config", "{not_object}"],
    ["lattice-search", *_CROSS, "--out", "{missing}/lat.txt"],
    ["lattice-search", "--d", "2", "--gamma", "1.0"],
    ["mz-audit", "--lattice", "{over_long}", *_CROSS],
    ["mz-audit", "--lattice", "{beyond_int64}", *_CROSS],
    ["lattice-search", *_CROSS, "--seed", "-1"],
], ids=["audit-empty", "audit-missing", "search-missing", "search-empty",
        "exp1-missing", "exp1-unknown-field", "exp1-not-object", "search-out-unwritable",
        "search-no-radius", "audit-over-long", "audit-beyond-int64", "search-negative-seed"])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    paths = {name: tmp_path / f"{name}.txt"
             for name in ("empty", "missing", "unknown_field", "not_object", "over_long",
                          "beyond_int64")}
    paths["empty"].write_text("")
    paths["over_long"].write_text("2 101 1 5 7\n")
    paths["beyond_int64"].write_text("2 101 1 99999999999999999999\n")
    paths["unknown_field"].write_text(json.dumps({"dimension": 2, "oversampling": 3}))
    paths["not_object"].write_text("[2, 0.5]")
    rc = main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    if "{unknown_field}" in argv:
        assert "unknown fields: ['oversampling']" in err[0]
    if "{not_object}" in argv:
        assert "must hold a JSON object" in err[0]
    if argv == ["lattice-search", "--d", "2", "--gamma", "1.0"]:
        assert "provide --index-set or all of --d/--gamma/--radius" in err[0]
    if "{over_long}" in argv:
        assert "must hold d = 2 generator entries, got 3" in err[0]
    if "{beyond_int64}" in argv:
        assert "generator entries must fit in int64" in err[0]
    if "-1" in argv:
        assert err[0] == "error: rng_seed must be >= 0, got -1"


@pytest.mark.parametrize("content", ["", "2 10", "2 101 1 5 7\n",
                                     "2 101 1 99999999999999999999\n"],
                         ids=["empty", "truncated", "over-long", "beyond-int64"])
def test_broken_lattice_cache_file_is_a_miss(tmp_path, capsys, content):
    # a run killed while writing the cache could once leave such a file, and
    # every later run with that --out then failed until it was deleted
    argv = ["exp1", "--d", "2", "--gamma", "0.5", "--radii", "4", "--seed", "3",
            "--reps", "1", "--strategies", "full"]
    assert main([*argv, "--out", str(tmp_path / "cold")]) == 0
    (cold,) = (tmp_path / "cold" / "lattice_cache").iterdir()
    broken = tmp_path / "warm" / "lattice_cache" / cold.name
    broken.parent.mkdir(parents=True)
    broken.write_text(content)
    rc = main([*argv, "--out", str(tmp_path / "warm")])
    assert rc == 0, capsys.readouterr().err
    assert os.listdir(broken.parent) == [cold.name]  # no temporary file left
    assert broken.read_text() == cold.read_text()


@pytest.mark.parametrize("field, value, expected", [
    ("radii", 5, "a list of float"),
    ("repetitions", "3", "int"),
    ("dimension", "5", "int"),
    ("b", None, "float"),
])
@pytest.mark.parametrize("command", ["exp1", "exp2"])
def test_mistyped_config_field_exits_2_naming_it(tmp_path, capsys, command, field,
                                                 value, expected):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dimension": 2, "radii": [4.0], "repetitions": 1,
                                    "output_dir": str(tmp_path / "out"), field: value}))
    rc = main([command, "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.splitlines() == [
        f"error: config field {field} expects {expected}, got {value!r}"]
    assert "Traceback" not in captured.out + captured.err
    assert not os.path.exists(tmp_path / "out")
