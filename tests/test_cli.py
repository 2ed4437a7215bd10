"""Experiment-runner CLI: descriptor grammar, config merge, exit codes, output."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from sphsolve import cli, moments, solver
from sphsolve.cli import (
    ANALYZE_CSV_HEADER,
    CSV_HEADER,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    ValidationError,
    parse_f_descriptor,
    parse_sweep_descriptor,
    read_config_file,
    resolve_points_descriptor,
    sweep_rule_name,
)
from sphsolve import (ContinuousKernel, NonFiniteInputError, SingularKernel,
                      SingularSystemError, mesh_norm, mz_constant,
                      run_experiment)


# ------------------------------------------------------------- descriptors

def test_kernel_descriptor_grammar() -> None:
    parse = SingularKernel.parse
    # h == 1 is algebraic:0; one still names it on input, alone
    assert parse("one") == parse("alg:0") == SingularKernel.one()
    assert parse("alg:-0.5") == SingularKernel.algebraic(-0.5)
    assert parse("algebraic:-0.5") == SingularKernel.algebraic(-0.5)
    assert parse("log") == SingularKernel.log()
    assert parse("mixed:-0.5:-0.25") == SingularKernel.mixed(-0.5, -0.25)
    for bad in ("one:1", "alg", "alg:x", "mixed:-0.5", "poly:2"):
        with pytest.raises(ValueError, match=f"'{bad}'.*mixed:NU1:NU2"):
            parse(bad)
    # the constructor's own check passes through
    with pytest.raises(ValueError, match="exponent must be > -1"):
        parse("alg:-1")


def test_K_descriptor_grammar() -> None:
    parse = ContinuousKernel.parse
    assert parse("const:2.5") == ContinuousKernel.constant(2.5)
    assert parse("sin:10") == ContinuousKernel.sin_scaled(10.0)
    assert parse("cos:10") == ContinuousKernel.cos_scaled(10.0)
    for bad in ("const", "sin:x", "tan:1", "sin:1:2", "custom"):
        with pytest.raises(ValueError, match=f"'{bad}'.*cos:C"):
            parse(bad)
    with pytest.raises(NonFiniteInputError, match="not finite"):
        parse("sin:inf")


@pytest.mark.parametrize("value", [1.2345678, 0.1, 1e-7, -0.1234567])
def test_descriptors_round_trip_through_describe(value) -> None:
    for K in (ContinuousKernel.constant(value),
              ContinuousKernel.sin_scaled(value),
              ContinuousKernel.cos_scaled(value)):
        assert ContinuousKernel.parse(K.describe()) == K
    for h in (SingularKernel.one(), SingularKernel.log(),
              SingularKernel.algebraic(value),
              SingularKernel.mixed(-1.0, -abs(value) / 2.0)):
        assert SingularKernel.parse(h.describe()) == h
    # the pinned short forms stay short
    assert ContinuousKernel.constant(1.0).describe() == "const:1"
    assert ContinuousKernel.sin_scaled(10.0).describe() == "sin:10"
    assert ContinuousKernel.cos_scaled(0.5).describe() == "cos:0.5"


def test_f_descriptor_grammar() -> None:
    assert parse_f_descriptor("const:1.5") == 1.5
    assert parse_f_descriptor("const:auto") is None
    for bad in ("1.5", "const:", "auto", "const:one"):
        with pytest.raises(ValidationError):
            parse_f_descriptor(bad)


def test_points_descriptor_sources(tmp_path) -> None:
    rule = resolve_points_descriptor("equal_area:50", "equal")
    assert rule.m == 50
    rule = resolve_points_descriptor("random:40:7", "equal")
    assert rule.label == "random:40:7"
    # bundled name, bare path, file: prefix
    assert resolve_points_descriptor("td010_00121.txt", "equal").m == 121
    p = tmp_path / "two.txt"
    p.write_text("0 0 1\n0 0 -1\n")
    assert resolve_points_descriptor(str(p), "equal").m == 2
    assert resolve_points_descriptor(f"file:{p}", "equal").m == 2


def test_points_descriptor_validation(tmp_path) -> None:
    with pytest.raises(ValidationError, match="not found"):
        resolve_points_descriptor(f"file:{tmp_path}/nope.txt", "equal")
    with pytest.raises(ValidationError, match="not found"):
        resolve_points_descriptor("no_such_bundle.txt", "equal")
    with pytest.raises(ValidationError, match="weight"):
        resolve_points_descriptor("equal_area:10", "file")
    with pytest.raises(ValidationError, match="weight"):
        resolve_points_descriptor("random:10:1", "file")
    with pytest.raises(ValidationError, match="bad --points"):
        resolve_points_descriptor("lattice:10", "equal")
    # the rule constructors reject m = 0 themselves
    for empty in ("equal_area:0", "random:0:1"):
        with pytest.raises(ValueError, match="m must be >= 1"):
            resolve_points_descriptor(empty, "equal")


def test_sweep_descriptor_and_rule_names() -> None:
    assert list(parse_sweep_descriptor("n=10:5:35")) == [10, 15, 20, 25, 30, 35]
    assert list(parse_sweep_descriptor("n=7:1:7")) == [7]
    for bad in ("10:5:35", "n=10:0:35", "n=35:5:10", "n=a:5:b"):
        with pytest.raises(ValidationError):
            parse_sweep_descriptor(bad)
    # t = floor(1.2 n), m = (t+1)^2
    assert sweep_rule_name(10) == ("td012_00169.txt", 169)
    assert sweep_rule_name(15) == ("td018_00361.txt", 361)
    assert sweep_rule_name(35) == ("td042_01849.txt", 1849)


def test_run_config_round_trip() -> None:
    config = RunConfig(subcommand="solve", points="equal_area:100",
                       kernel="log", K="const:1", f="const:auto", n=5)
    again = RunConfig(**json.loads(json.dumps(dataclasses.asdict(config))))
    assert again == config


# ------------------------------------------------------------- config files

def test_config_file_parsing(tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# preset\nkernel = log\nn = 6\npoints=td010_00121.txt\n")
    merged = read_config_file(cfg)
    assert merged == {"kernel": "log", "n": 6, "points": "td010_00121.txt"}

    cfg.write_text("flavor = chocolate\n")
    with pytest.raises(ValidationError, match=r"run\.cfg:1.*unknown key"):
        read_config_file(cfg)

    cfg.write_text("n = six\n")
    with pytest.raises(ValidationError, match="integer"):
        read_config_file(cfg)

    cfg.write_text("kernel = log\nweights = auto\n")
    with pytest.raises(ValidationError,
                       match=r"run\.cfg:2: weights must be one of equal \| file"):
        read_config_file(cfg)

    cfg.write_text("just a line\n")
    with pytest.raises(ValidationError, match="key=value"):
        read_config_file(cfg)

    with pytest.raises(ValidationError, match="not found"):
        read_config_file(tmp_path / "missing.cfg")


def test_config_file_supplies_and_flags_override(tmp_path, capsys) -> None:
    cfg = tmp_path / "m.cfg"
    cfg.write_text("kernel=log\nn=4\n")
    assert cli.main(["moments", "--config", str(cfg)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "l,mu,method"
    assert len(lines) == 6  # header + l = 0..4

    assert cli.main(["moments", "--config", str(cfg), "--n", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # the explicit flag wins over the file


@pytest.mark.parametrize("entry, message", [("n = -1", "--n must be >= 0"),
                                            ("grid = 0", "--grid must be >= 1"),
                                            ("seed = -1", "--seed must be >= 0")])
def test_config_file_values_are_range_checked(entry, message, tmp_path,
                                              capsys) -> None:
    # the same bounds as for the flags, before any output is written
    out = tmp_path / "never.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"kernel=log\nK=const:1\nf=const:auto\nn=5\n"
                   f"points=td010_00121.txt\nout={out}\n{entry}\n")
    assert cli.main(["solve", "--config", str(cfg)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "error:" in captured.err and message in captured.err


@pytest.mark.parametrize("kind", ["directory", "non-ascii"])
def test_unreadable_config_file_exits_2(kind, tmp_path, capsys) -> None:
    # IsADirectoryError and UnicodeDecodeError are validation errors too
    cfg = tmp_path
    if kind == "non-ascii":
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("kernel=log\nn=4  # caf\u00e9\n".encode("latin-1"))
    assert cli.main(["moments", "--config", str(cfg)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


SUBCOMMAND_FLAGS = {
    "analyze": {"--points", "--weights", "--n"},
    "moments": {"--kernel", "--n"},
    "solve": {"--kernel", "--K", "--f", "--n", "--points", "--weights",
              "--grid", "--seed"},
    "experiment": {"--id", "--n", "--sweep", "--points", "--weights",
                   "--grid", "--seed"},
}


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_FLAGS))
def test_subcommand_flag_sets(name) -> None:
    # every subcommand also takes --config and --out
    parser = cli._build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {option for action in sub.choices[name]._actions
             for option in action.option_strings}
    assert flags == SUBCOMMAND_FLAGS[name] | {"-h", "--help", "--config",
                                              "--out"}


# ------------------------------------------------------------- subcommands

def test_moments_subcommand_csv(capsys) -> None:
    assert cli.main(["moments", "--kernel", "log", "--n", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "l,mu,method"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert float(rows[0][1]) == pytest.approx(math.pi * (4 * math.log(2) - 2))
    assert float(rows[1][1]) == pytest.approx(-math.pi)
    assert rows[0][2] == "closed_form"


def test_moments_out_json(tmp_path, capsys) -> None:
    out = tmp_path / "mom.json"
    assert cli.main(["moments", "--kernel", "alg:-0.5", "--n", "3",
                     "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["kernel"] == "algebraic:-0.5"
    assert payload["config"]["subcommand"] == "moments"
    assert len(payload["values"]) == 4
    # the kernel field keeps every digit the flag gave
    assert cli.main(["moments", "--kernel", "alg:-0.1234567", "--n", "0",
                     "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert json.loads(out.read_text())["kernel"] == "algebraic:-0.1234567"
    # --kernel one is h == 1, which the JSON names algebraic:0
    payloads = []
    for kernel in ("one", "alg:0"):
        assert cli.main(["moments", "--kernel", kernel, "--n", "6",
                         "--out", str(out)]) == EXIT_OK
        payloads.append(json.loads(out.read_text()))
    capsys.readouterr()
    assert [p["kernel"] for p in payloads] == ["algebraic:0"] * 2
    assert payloads[0]["values"] == payloads[1]["values"] == [
        4.0 * math.pi] + [0.0] * 6


def test_moments_out_csv_with_json_mirror(tmp_path, capsys) -> None:
    # the one --out rule: a non-.json path gets stdout's CSV plus a mirror
    out = tmp_path / "m.csv"
    assert cli.main(["moments", "--kernel", "log", "--n", "4",
                     "--out", str(out)]) == EXIT_OK
    assert out.read_text() == capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "l,mu,method"
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["kernel"] == "log" and len(payload["values"]) == 5


def test_moments_that_overflow_exit_2(capsys) -> None:
    # 2^(nu+3) in mu_0 overflows float64 for nu of 1021 and more
    assert cli.main(["moments", "--kernel", "alg:1e300",
                     "--n", "2"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "moments must be finite" in captured.err


def test_analyze_subcommand(tmp_path, capsys) -> None:
    out = tmp_path / "report.csv"
    assert cli.main(["analyze", "--points", "equal_area:400", "--n", "1",
                     "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "equal_area:400" in printed and "eta=" in printed

    lines = out.read_text().strip().splitlines()
    assert lines[0] == ANALYZE_CSV_HEADER == (
        "n,eta,lambda_min,lambda_max,exact_to,mesh_norm")
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert 0.0 < float(fields[1]) < 1.0  # eta at n=1 for a decent layout
    # every value reads back as its report field, bit for bit
    report = mz_constant(resolve_points_descriptor("equal_area:400", "equal"), 1)
    for name, text in zip(lines[0].split(","), fields, strict=True):
        value = getattr(report, name)
        assert type(value)(text) == value, name

    mirror = json.loads(out.with_suffix(".json").read_text())
    assert mirror["rule"]["m"] == 400
    assert mirror["report"] == dataclasses.asdict(report)


def test_analyze_json_only_output(tmp_path, capsys) -> None:
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--points", "random:300:3", "--n", "2",
                     "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["config"]["points"] == "random:300:3"
    assert not out.with_suffix(".csv").exists()


def test_analyze_writes_the_rules_mesh_norm(tmp_path, capsys) -> None:
    # analyze writes the exact mesh norm, under the same CSV header
    out = tmp_path / "x.csv"
    assert cli.main(["analyze", "--points", "random:4000:1", "--n", "10",
                     "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    header, row = out.read_text().strip().splitlines()
    assert header == ANALYZE_CSV_HEADER
    h = float(row.split(",")[header.split(",").index("mesh_norm")])
    points = resolve_points_descriptor("random:4000:1", "equal").points
    assert h == mesh_norm(points)


def test_solve_auto_rhs_constant_solution(tmp_path, capsys) -> None:
    # const:auto builds f = 1 - c mu_0 so phi == 1 exactly
    out = tmp_path / "run.csv"
    code = cli.main(["solve", "--kernel", "log", "--K", "const:1",
                     "--f", "const:auto", "--n", "5",
                     "--points", "td010_00121.txt", "--out", str(out)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    row = lines[1].split(",")
    assert float(row[4]) <= 1e-10  # uniform error against phi == 1

    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["config"]["kernel"] == "log"
    assert payload["records"][0]["m"] == 121
    assert RunConfig(**payload["config"]).subcommand == "solve"


def test_solve_computes_the_degree_n_moments_once(monkeypatch,
                                                  capsys) -> None:
    # mu_0 of const:auto comes from the degree-0 moments, so only
    # solve_stage1 computes them to degree n: for the mixed family, one
    # Gauss-Jacobi rule of n + 20 nodes, not two
    degrees = []

    def recording(kernel, n):
        degrees.append(n)
        return moments.modified_moments(kernel, n)

    monkeypatch.setattr(cli, "modified_moments", recording)
    monkeypatch.setattr(solver, "modified_moments", recording)
    assert cli.main(["solve", "--kernel", "mixed:-0.5:-0.5", "--K",
                     "const:0.02", "--f", "const:auto", "--n", "10",
                     "--points", "td020_00441.txt"]) == EXIT_OK
    assert degrees.count(10) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[1].split(",")[4]) <= 1e-12  # against phi == 1


def test_solve_explicit_f_constant_K_scales_solution(capsys) -> None:
    # with K = const c and f = const v the solution is v / (1 - c mu_0)
    assert cli.main(["solve", "--kernel", "one", "--K", "const:0.01",
                     "--f", "const:2", "--n", "0",
                     "--points", "equal_area:100", "--grid", "500"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[1].split(",")[4]) <= 1e-10


def reject_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def test_solve_oscillatory_K_reports_nan_error(tmp_path, capsys) -> None:
    # no known exact solution: uniform_error column is nan, exit still 0
    out = tmp_path / "run.csv"
    assert cli.main(["solve", "--kernel", "one", "--K", "sin:10",
                     "--f", "const:1", "--n", "3",
                     "--points", "equal_area:64", "--grid", "200",
                     "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert math.isnan(float(lines[1].split(",")[4]))
    assert math.isnan(float(out.read_text().splitlines()[1].split(",")[4]))
    # the mirror is strict JSON: the nan of the CSV is null there
    mirror = json.loads(out.with_suffix(".json").read_text(),
                        parse_constant=reject_constant)
    assert mirror["records"][0]["uniform_error"] is None


def test_solve_auto_rhs_requires_constant_K(capsys) -> None:
    code = cli.main(["solve", "--kernel", "one", "--K", "sin:10",
                     "--f", "const:auto", "--n", "3",
                     "--points", "equal_area:64"])
    assert code == EXIT_VALIDATION
    assert "const:auto" in capsys.readouterr().err


def test_experiment_single_run(tmp_path, capsys) -> None:
    out = tmp_path / "exp3.csv"
    code = cli.main(["experiment", "--id", "3", "--n", "5",
                     "--points", "td010_00121.txt", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    row = lines[1].split(",")
    assert row[0] == "3" and row[1] == "5" and row[2] == "121"
    assert float(row[4]) <= 1e-10
    capsys.readouterr()


def test_experiment_sweep_uses_bundled_designs(tmp_path, capsys) -> None:
    out = tmp_path / "sweep.csv"
    code = cli.main(["experiment", "--id", "3", "--sweep", "n=10:5:15",
                     "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    n_m = [(r.split(",")[1], r.split(",")[2]) for r in lines[1:]]
    assert n_m == [("10", "169"), ("15", "361")]


def test_experiment_sweep_skips_missing_designs(capsys) -> None:
    # n = 7 needs t = 8 (m = 81), which is not bundled: warn, then fail
    # because nothing in the sweep matched
    code = cli.main(["experiment", "--id", "1", "--sweep", "n=7:1:7"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "skipping" in captured.err
    assert "matched no bundled designs" in captured.err


def test_experiment_flag_validation(capsys) -> None:
    # exactly one of --n / --sweep
    assert cli.main(["experiment", "--id", "1"]) == EXIT_VALIDATION
    assert cli.main(["experiment", "--id", "1", "--n", "5", "--sweep",
                     "n=5:5:10"]) == EXIT_VALIDATION
    # sweep picks its own points
    assert cli.main(["experiment", "--id", "1", "--sweep", "n=10:5:10",
                     "--points", "equal_area:10"]) == EXIT_VALIDATION
    # unknown preset
    assert cli.main(["experiment", "--id", "9", "--n", "5",
                     "--points", "equal_area:10"]) == EXIT_VALIDATION
    capsys.readouterr()


def test_sweep_rejects_weights_from_file(tmp_path, capsys) -> None:
    # the bundled designs of a sweep carry no weight column, as with
    # --points td010_00121.txt --weights file; from a flag or a config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("weights = file\n")
    for extra in (["--weights", "file"], ["--config", str(cfg)]):
        code = cli.main(["experiment", "--id", "3", "--sweep", "n=10:5:10",
                         *extra])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION, extra
        assert captured.out == ""
        assert "weight column" in captured.err
    assert cli.main(["experiment", "--id", "3", "--n", "5", "--points",
                     "td010_00121.txt", "--weights", "file"]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_validation_failures_exit_2_before_any_output(tmp_path, capsys) -> None:
    out = tmp_path / "never.csv"
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 1\n0 1\n")  # line 2 has two columns
    cases = [
        ["solve", "--kernel", "poly:3", "--K", "const:1", "--f", "const:1",
         "--n", "2", "--points", "equal_area:10", "--out", str(out)],
        ["solve", "--kernel", "log", "--K", "const:1", "--f", "const:1",
         "--n", "-1", "--points", "equal_area:10", "--out", str(out)],
        ["solve", "--kernel", "log", "--K", "const:1", "--f", "const:1",
         "--n", "2", "--points", f"file:{tmp_path}/ghost.txt",
         "--out", str(out)],
        ["solve", "--kernel", "log", "--K", "const:1", "--f", "const:1",
         "--n", "2", "--out", str(out)],  # missing --points entirely
        ["analyze", "--points", "equal_area:100", "--n", "-2",
         "--out", str(out)],
        # a malformed file is read before the CSV header is printed
        ["experiment", "--id", "3", "--n", "2", "--points", f"file:{bad}",
         "--out", str(out)],
    ]
    for argv in cases:
        assert cli.main(argv) == EXIT_VALIDATION, argv
        assert not out.exists()
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == "", argv


def test_singular_system_exits_3(capsys) -> None:
    # two equal-weight poles with c w = 1/2 exactly: singular collocation.
    # c w = 1/m on td10 is singular to working precision: f = 1e300
    # overflows the solve, which the solver names before any warning
    for f, points, message in (
            ("const:1", "equal_area:2", "is singular"),
            ("const:1e300", "td010_00121.txt",
             "the low-rank solve is not finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", "--kernel", "one",
                             "--K", "const:0.07957747154594767",
                             "--f", f, "--n", "0",
                             "--points", points, "--grid", "10"])
        assert code == EXIT_NUMERICAL, f
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err
        assert message in captured.err


@pytest.mark.parametrize("plan, failing_call", [
    (["--n", "5", "--points", "td010_00121.txt"], 1),
    (["--sweep", "n=10:5:15"], 2)], ids=["n", "sweep"])
@pytest.mark.parametrize("error, code", [
    (SingularSystemError("the dense-lu solve is not finite"), EXIT_NUMERICAL),
    (MemoryError("Unable to allocate"), EXIT_VALIDATION)],
    ids=["singular", "memory"])
def test_failed_experiment_prints_nothing(plan, failing_call, error, code,
                                          monkeypatch, tmp_path,
                                          capsys) -> None:
    # rows are printed and --out written only once every solve has returned
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == failing_call:
            raise error
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", failing)
    out = tmp_path / "exp.csv"
    assert cli.main(["experiment", "--id", "3", *plan,
                     "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert len(calls) == failing_call
    assert captured.out == "" and not out.exists()
    assert not out.with_suffix(".json").exists()
    assert str(error) in captured.err


def test_out_of_memory_exits_2(monkeypatch, tmp_path, capsys) -> None:
    # numpy's failed allocation is a MemoryError; raised here by a patched
    # analysis, so nothing is allocated
    def no_memory(rule, n):
        raise MemoryError("Unable to allocate 24.3 GiB for an array with "
                          "shape (57100, 57100) and data type float64")

    monkeypatch.setattr(cli, "mz_constant", no_memory)
    out = tmp_path / "report.csv"
    assert cli.main(["analyze", "--points", "equal_area:400", "--n", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(
        "error: not enough memory: Unable to allocate 24.3 GiB")


def test_csv_determinism_excluding_timing(tmp_path, capsys) -> None:
    argv = ["experiment", "--id", "3", "--n", "5",
            "--points", "td010_00121.txt"]
    runs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()
        runs.append([",".join(r.split(",")[:-1]) for r in rows])
    capsys.readouterr()
    assert runs[0] == runs[1]  # byte-identical minus the seconds column


def test_emit_results_header_only(tmp_path) -> None:
    out = tmp_path / "empty.csv"
    config = RunConfig(subcommand="experiment", id=1, out=str(out))
    cli.emit_results([], config)
    assert out.read_text() == CSV_HEADER + "\n"
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["records"] == []
    assert payload["config"]["id"] == 1


def test_grid_option_controls_error_measurement(capsys) -> None:
    # identical seeds agree; the error column is grid-dependent in general
    argv = ["solve", "--kernel", "log", "--K", "const:1", "--f", "const:auto",
            "--n", "5", "--points", "td010_00121.txt"]
    assert cli.main(argv + ["--grid", "300", "--seed", "11"]) == EXIT_OK
    first = capsys.readouterr().out.strip().splitlines()[1]
    assert cli.main(argv + ["--grid", "300", "--seed", "11"]) == EXIT_OK
    second = capsys.readouterr().out.strip().splitlines()[1]
    assert first.split(",")[:-1] == second.split(",")[:-1]


def test_non_finite_input_exits_2(capsys) -> None:
    # NonFiniteInputError is a ValueError: the validation exit code
    for K, f in (("const:1", "const:nan"), ("sin:10", "const:inf"),
                 ("const:nan", "const:1")):
        code = cli.main(["solve", "--kernel", "log", "--K", K, "--f", f,
                         "--n", "5", "--points", "td010_00121.txt",
                         "--grid", "10"])
        assert code == EXIT_VALIDATION, (K, f)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "not finite" in captured.err


def test_non_finite_K_constant_exits_2(capsys) -> None:
    # a sin or cos K with c = inf is named before any solver work
    for K in ("sin:inf", "cos:nan"):
        code = cli.main(["solve", "--kernel", "log", "--K", K, "--f",
                         "const:1", "--n", "5", "--points", "td010_00121.txt",
                         "--grid", "10"])
        assert code == EXIT_VALIDATION, K
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err and "c = " in captured.err


def test_json_mirror_records_solver_path(tmp_path, capsys) -> None:
    for K, f, path in (("const:1", "const:auto", "low-rank"),
                       ("sin:10", "const:1", "dense-lu")):
        out = tmp_path / f"{path}.csv"
        assert cli.main(["solve", "--kernel", "log", "--K", K, "--f", f,
                         "--n", "5", "--points", "td010_00121.txt",
                         "--grid", "10", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["records"][0]["solver_path"] == path
        assert out.read_text().splitlines()[0] == CSV_HEADER
    capsys.readouterr()
