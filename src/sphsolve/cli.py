"""Command-line experiment runner.

Subcommands:

* ``analyze``    MZ diagnostics of a quadrature rule at degree n.
* ``moments``    modified moments of a singular kernel up to degree n.
* ``solve``      one custom solve (kernel, K, f, degree, points).
* ``experiment`` one of the four presets, by id, optionally swept over n.

Point descriptors: ``file:PATH`` (a bare path or a bundled file name also
works), ``equal_area:M``, ``random:M:SEED``; the kernel descriptors are read
by SingularKernel.parse and ContinuousKernel.parse.  A config file of
``key=value`` lines may supply any flag, checked as the flag is (type,
range, choices); explicit flags override it.  ``--out PATH`` works alike
for every subcommand: a ``.json`` path gets only the JSON (configuration
echo plus results), any other path the results as CSV plus that JSON at
the same stem with suffix ``.json``.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .experiments import (DEFAULT_GRID_SEED, DEFAULT_GRID_SIZE, EXPERIMENT_IDS,
                          ExperimentRecord, run_experiment, run_spec)
from .moments import SingularKernel, modified_moments
from .mz import mz_constant
from .pointsets import (PointFileError, QuadratureRule, bundled_pointset_path,
                        bundled_pointsets, equal_area_points, load_pointset,
                        random_rule)
from .solver import ContinuousKernel, ProblemSpec, SingularSystemError
from .sphere import uniform_random_points

__all__ = ["main", "RunConfig", "ValidationError", "emit_results",
           "CSV_HEADER"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

CSV_HEADER = "experiment,n,m,eta,uniform_error,residual,seconds"


class ValidationError(ValueError):
    """Bad arguments, descriptors, or referenced files; exit code 2."""


def _flag(default=None, **argparse_kwargs):
    """A RunConfig field that is a flag; its metadata are the keyword
    arguments of the flag's add_argument (type str unless given)."""
    return field(default=default, metadata=argparse_kwargs)


@dataclass(frozen=True)
class RunConfig:
    """Canonical, JSON-serializable echo of one invocation.

    Every field after subcommand is a flag, --NAME, and a config-file key
    of the same name.  Descriptor fields keep their string form so a JSON
    re-parse reproduces the config exactly.
    """

    subcommand: str
    points: str | None = _flag(
        help="file:PATH | equal_area:M | random:M:SEED | path | bundled name")
    weights: str = _flag("equal", choices=("equal", "file"))
    kernel: str | None = _flag(help=SingularKernel.GRAMMAR)
    K: str | None = _flag(help=ContinuousKernel.GRAMMAR)
    f: str | None = _flag(help="const:VALUE | const:auto")
    n: int | None = _flag(type=int)
    id: int | None = _flag(type=int)
    sweep: str | None = _flag(help="n=LO:STEP:HI over bundled designs with "
                                   "m = (floor(1.2 n)+1)^2")
    grid: int = _flag(DEFAULT_GRID_SIZE, type=int)
    seed: int = _flag(DEFAULT_GRID_SEED, type=int)
    out: str | None = _flag(help="output path: CSV plus a .json mirror, or "
                                 "only the JSON for a .json path")


_FLAGS = {f.name: f.metadata for f in dataclasses.fields(RunConfig)
          if f.name != "subcommand"}


# ------------------------------------------------------------- descriptors

def parse_f_descriptor(text: str) -> float | None:
    """Constant right-hand side value, or None meaning const:auto."""
    parts = text.split(":")
    if len(parts) == 2 and parts[0] == "const":
        if parts[1] == "auto":
            return None
        try:
            return float(parts[1])
        except ValueError:
            pass
    raise ValidationError(
        f"bad --f {text!r}: expected const:VALUE | const:auto")


def resolve_points_descriptor(desc: str, weight_mode: str) -> QuadratureRule:
    """Validate a descriptor and load its rule.

    Every subcommand resolves its rules before it prints anything, so a
    missing or malformed point file exits 2 with no output.
    """
    load_mode = "equal" if weight_mode == "equal" else "from_file"

    def from_path(path: Path):
        if not path.exists():
            raise ValidationError(f"point file not found: {path}")
        return load_pointset(path, weight_mode=load_mode)

    if desc.startswith("file:"):
        return from_path(Path(desc[5:]))
    for pattern, make in ((r"equal_area:(\d+)", equal_area_points),
                          (r"random:(\d+):(\d+)", random_rule)):
        m = re.fullmatch(pattern, desc)
        if m:
            if weight_mode != "equal":
                raise ValidationError(f"{desc!r} carries no weight column; "
                                      f"use --weights equal")
            return make(*map(int, m.groups()))
    if ":" in desc:
        raise ValidationError(
            f"bad --points {desc!r}: expected file:PATH | equal_area:M | "
            f"random:M:SEED | a path | a bundled file name")
    path = Path(desc)
    if path.exists():
        return from_path(path)
    try:
        return from_path(bundled_pointset_path(desc))
    except FileNotFoundError:
        raise ValidationError(
            f"point file not found: {desc!r} (not a path, not bundled; "
            f"bundled sets: {', '.join(bundled_pointsets())})") from None


def parse_sweep_descriptor(text: str) -> range:
    m = re.fullmatch(r"n=(\d+):(\d+):(\d+)", text)
    if not m:
        raise ValidationError(f"bad --sweep {text!r}: expected n=LO:STEP:HI")
    lo, step, hi = (int(g) for g in m.groups())
    if step < 1 or lo > hi:
        raise ValidationError(f"bad --sweep {text!r}: need STEP >= 1, LO <= HI")
    return range(lo, hi + 1, step)


def sweep_rule_name(n: int) -> tuple[str, int]:
    """Bundled t-design file used at degree n: t = floor(1.2 n), m = (t+1)^2."""
    t = (6 * n) // 5
    m = (t + 1) ** 2
    return f"td{t:03d}_{m:05d}.txt", m


# ------------------------------------------------------------------ output

def _emit(config: RunConfig, header: str, rows: list[str],
          payload: dict) -> None:
    """Write config.out, if set: a .json path gets {"config": ..., **payload}
    alone; any other path gets the CSV header and rows, and that JSON goes
    to the same stem with suffix .json.  Missing directories are made."""
    if not config.out:
        return
    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix != ".json":
        out.write_text("".join(line + "\n" for line in [header, *rows]),
                       encoding="ascii")
        out = out.with_suffix(".json")
    out.write_text(json.dumps({"config": dataclasses.asdict(config),
                               **payload}, indent=2) + "\n", encoding="ascii")


def emit_results(records: list[ExperimentRecord], config: RunConfig) -> None:
    """The solve/experiment records to config.out, as _emit writes them."""
    _emit(config, CSV_HEADER, [rec.csv_row() for rec in records],
          {"records": [dataclasses.asdict(r) for r in records]})


# -------------------------------------------------------------- subcommands

def _require(config: RunConfig, *fields: str) -> None:
    for name in fields:
        if getattr(config, name) is None:
            raise ValidationError(
                f"{config.subcommand} requires --{name} "
                f"(flag or config-file entry)")


ANALYZE_CSV_HEADER = "n,eta,lambda_min,lambda_max,exact_to,mesh_norm,degree_bound"
MOMENTS_CSV_HEADER = "l,mu,method"


def _cmd_analyze(config: RunConfig) -> int:
    _require(config, "points", "n")
    rule = resolve_points_descriptor(config.points, config.weights)
    report = mz_constant(rule, config.n)
    print(f"{rule.label}: {report.summary()}")
    row = (f"{report.n},{report.eta:.17g},{report.lambda_min:.17g},"
           f"{report.lambda_max:.17g},{report.exact_to},"
           f"{report.mesh_norm:.17g},{report.degree_bound:.17g}")
    _emit(config, ANALYZE_CSV_HEADER, [row],
          {"rule": {"label": rule.label, "m": rule.m},
           "report": dataclasses.asdict(report)})
    return EXIT_OK


def _cmd_moments(config: RunConfig) -> int:
    _require(config, "kernel", "n")
    kernel = SingularKernel.parse(config.kernel)
    mom = modified_moments(kernel, config.n)
    rows = [f"{l},{v:.17g},{mom.method}" for l, v in enumerate(mom.values)]
    print("\n".join([MOMENTS_CSV_HEADER, *rows]))
    _emit(config, MOMENTS_CSV_HEADER, rows,
          {"kernel": kernel.describe(), "method": mom.method,
           "values": list(mom.values)})
    return EXIT_OK


def _check_finite(record: ExperimentRecord) -> ExperimentRecord:
    if not (math.isfinite(record.eta) and math.isfinite(record.residual)):
        raise SingularSystemError(
            f"non-finite diagnostics (eta={record.eta}, "
            f"residual={record.residual})")
    return record


def _cmd_solve(config: RunConfig) -> int:
    _require(config, "kernel", "K", "f", "n", "points")
    kernel = SingularKernel.parse(config.kernel)
    K = ContinuousKernel.parse(config.K)
    f_const = parse_f_descriptor(config.f)
    if f_const is None and K.family != "constant":
        raise ValidationError(
            "--f const:auto needs a constant K (const:C); give an explicit "
            "--f const:VALUE for oscillatory kernels")
    rule = resolve_points_descriptor(config.points, config.weights)
    grid = uniform_random_points(config.grid, seed=config.seed)

    mom = modified_moments(kernel, config.n)
    mu0 = float(mom.values[0])
    if f_const is None:
        # Right-hand side making phi == 1 exact: f = 1 - c mu_0.
        f_value, exact = 1.0 - K.c * mu0, 1.0
    elif K.family == "constant":
        denom = 1.0 - K.c * mu0
        exact = f_const / denom if denom != 0.0 else None
        f_value = f_const
    else:
        f_value, exact = f_const, None
    spec = ProblemSpec(kernel=kernel, K=K, f=f_value, n=config.n, rule=rule)
    record = _check_finite(run_spec(spec, exact, grid))
    print(CSV_HEADER)
    print(record.csv_row())
    emit_results([record], config)
    return EXIT_OK


def _cmd_experiment(config: RunConfig) -> int:
    _require(config, "id")
    if config.id not in EXPERIMENT_IDS:
        raise ValidationError(
            f"--id must be one of {list(EXPERIMENT_IDS)}, got {config.id}")
    if (config.sweep is None) == (config.n is None):
        raise ValidationError("experiment needs exactly one of --n or --sweep")

    plan: list[tuple[int, QuadratureRule]] = []  # every rule loaded first
    if config.sweep is not None:
        if config.points is not None:
            raise ValidationError(
                "--sweep chooses its own bundled designs; drop --points")
        degrees = parse_sweep_descriptor(config.sweep)
        available = set(bundled_pointsets())
        for n in degrees:
            name, m = sweep_rule_name(n)
            if name not in available:
                print(f"warning: no bundled design with m={m} for n={n}; "
                      f"skipping", file=sys.stderr)
                continue
            plan.append((n, load_pointset(bundled_pointset_path(name))))
        if not plan:
            raise ValidationError(
                f"sweep {config.sweep!r} matched no bundled designs")
    else:
        _require(config, "points")
        plan.append((config.n,
                     resolve_points_descriptor(config.points, config.weights)))

    grid = uniform_random_points(config.grid, seed=config.seed)
    records = []
    print(CSV_HEADER)
    for n, rule in plan:
        record = _check_finite(run_experiment(config.id, n, rule, grid=grid))
        records.append(record)
        print(record.csv_row())
    emit_results(records, config)
    return EXIT_OK


# subcommand -> (run, help, flags): the one list of each subcommand's flags,
# read by _build_parser and build_config.  Every subcommand also takes
# --config FILE.
_SUBCOMMANDS = {
    "analyze": (_cmd_analyze, "MZ diagnostics of a rule at degree n",
                ("points", "weights", "n", "out")),
    "moments": (_cmd_moments, "modified moments of a kernel up to n",
                ("kernel", "n", "out")),
    "solve": (_cmd_solve, "one custom solve",
              ("kernel", "K", "f", "n", "points", "weights", "grid", "seed",
               "out")),
    "experiment": (_cmd_experiment, "run a preset (1..4)",
                   ("id", "n", "sweep", "points", "weights", "grid", "seed",
                    "out")),
}


# ------------------------------------------------------------ parsing/merge

def read_config_file(path) -> dict:
    """key=value lines, # comments; keys are the flag names, an integer
    flag's value must be an integer, and a flag with choices takes one."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    merged: dict = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _FLAGS:
                raise ValidationError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    f"{', '.join(sorted(_FLAGS))}")
            try:
                merged[key] = _FLAGS[key].get("type", str)(value)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: {key} needs an integer, "
                    f"got {value!r}") from None
            choices = _FLAGS[key].get("choices", (merged[key],))
            if merged[key] not in choices:
                raise ValidationError(
                    f"{path}:{lineno}: {key} must be one of "
                    f"{' | '.join(choices)}, got {value!r}")
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphsolve",
        description="Product-integration solver for weakly singular "
                    "Fredholm equations on the sphere.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="key=value file supplying any flag below; "
                            "explicit flags win")
        for flag in flags:
            p.add_argument(f"--{flag}", default=None, **_FLAGS[flag])
    return parser


def build_config(argv=None) -> RunConfig:
    """The config file's values overridden by explicit flags; n, grid and
    seed are range-checked here, once, whichever of the two gave them."""
    args = _build_parser().parse_args(argv)
    values = read_config_file(args.config) if args.config else {}
    for flag in _SUBCOMMANDS[args.subcommand][2]:
        if getattr(args, flag) is not None:
            values[flag] = getattr(args, flag)
    for flag, low in (("n", 0), ("grid", 1), ("seed", 0)):
        if values.get(flag, low) < low:
            raise ValidationError(f"--{flag} must be >= {low}, "
                                  f"got {values[flag]}")
    return RunConfig(subcommand=args.subcommand, **values)


def main(argv=None) -> int:
    try:
        config = build_config(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _SUBCOMMANDS[config.subcommand][0](config)
    except (SingularSystemError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        # Before ValueError: LinAlgError subclasses it.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, PointFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
