"""Command-line experiment runner.

Subcommands:

* ``analyze``    MZ diagnostics of a quadrature rule at degree n.
* ``moments``    modified moments of a singular kernel up to degree n.
* ``solve``      one custom solve (kernel, K, f, degree, points).
* ``experiment`` one of the four presets, by id, optionally swept over n.

Point descriptors: ``file:PATH`` (a bare path or a bundled file name also
works), ``equal_area:M``, ``random:M:SEED``.  A config file of ``key=value``
lines may supply any flag; explicit flags override it.  Results go to a CSV
(header ``experiment,n,m,eta,uniform_error,residual,seconds``) plus a JSON
mirror carrying the full configuration echo.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .experiments import (DEFAULT_GRID_SEED, DEFAULT_GRID_SIZE, EXPERIMENT_IDS,
                          ExperimentRecord, run_experiment)
from .moments import SingularKernel, modified_moments
from .mz import MZReport, mz_constant
from .pointsets import (PointFileError, QuadratureRule, bundled_pointset_path,
                        bundled_pointsets, equal_area_points, load_pointset,
                        random_rule)
from .solver import (ContinuousKernel, ProblemSpec, SingularSystemError,
                     solve_stage1, uniform_error)
from .sphere import uniform_random_points

__all__ = ["main", "RunConfig", "ValidationError", "emit_results",
           "CSV_HEADER"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

CSV_HEADER = "experiment,n,m,eta,uniform_error,residual,seconds"

_INT_KEYS = frozenset({"n", "id", "grid", "seed"})
_CONFIG_KEYS = frozenset({"points", "weights", "kernel", "K", "f", "n", "id",
                          "sweep", "grid", "seed", "out"})


class ValidationError(ValueError):
    """Bad arguments, descriptors, or referenced files; exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Canonical, JSON-serializable echo of one invocation.

    Descriptor fields keep their string form so a JSON re-parse reproduces
    the config exactly.
    """

    subcommand: str
    points: str | None = None
    weights: str = "equal"
    kernel: str | None = None
    K: str | None = None
    f: str | None = None
    n: int | None = None
    id: int | None = None
    sweep: str | None = None
    grid: int = DEFAULT_GRID_SIZE
    seed: int = DEFAULT_GRID_SEED
    out: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(**d)


# ------------------------------------------------------------- descriptors

def parse_kernel_descriptor(text: str) -> SingularKernel:
    parts = text.split(":")
    try:
        if parts[0] == "one" and len(parts) == 1:
            return SingularKernel.one()
        if parts[0] in ("alg", "algebraic") and len(parts) == 2:
            return SingularKernel.algebraic(float(parts[1]))
        if parts[0] == "log" and len(parts) == 1:
            return SingularKernel.log()
        if parts[0] == "mixed" and len(parts) == 3:
            return SingularKernel.mixed(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ValidationError(f"bad --kernel {text!r}: {exc}") from None
    raise ValidationError(
        f"bad --kernel {text!r}: expected one | alg:NU | log | mixed:NU1:NU2")


def parse_K_descriptor(text: str) -> ContinuousKernel:
    parts = text.split(":")
    if len(parts) == 2:
        maker = {"const": ContinuousKernel.constant,
                 "sin": ContinuousKernel.sin_scaled,
                 "cos": ContinuousKernel.cos_scaled}.get(parts[0])
        if maker is not None:
            try:
                return maker(float(parts[1]))
            except ValueError as exc:
                raise ValidationError(f"bad --K {text!r}: {exc}") from None
    raise ValidationError(
        f"bad --K {text!r}: expected const:C | sin:C | cos:C")


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


def resolve_points_descriptor(desc: str, weight_mode: str):
    """Validate a descriptor; return a zero-argument loader.

    File existence is checked here, before any heavy work; the possibly
    expensive parse happens when the loader is called.
    """
    if weight_mode not in ("equal", "file"):
        raise ValidationError(f"bad --weights {weight_mode!r}: "
                              f"expected equal | file")
    load_mode = "equal" if weight_mode == "equal" else "from_file"

    def from_path(path: Path):
        if not path.exists():
            raise ValidationError(f"point file not found: {path}")
        return lambda: load_pointset(path, weight_mode=load_mode)

    if desc.startswith("file:"):
        return from_path(Path(desc[5:]))
    m = re.fullmatch(r"equal_area:(\d+)", desc)
    if m:
        if weight_mode != "equal":
            raise ValidationError("equal_area carries no weight column; "
                                  "use --weights equal")
        count = int(m.group(1))
        if count < 1:
            raise ValidationError(f"equal_area needs m >= 1, got {count}")
        return lambda: equal_area_points(count)
    m = re.fullmatch(r"random:(\d+):(\d+)", desc)
    if m:
        if weight_mode != "equal":
            raise ValidationError("random points carry no weight column; "
                                  "use --weights equal")
        count, seed = int(m.group(1)), int(m.group(2))
        if count < 1:
            raise ValidationError(f"random needs m >= 1, got {count}")
        return lambda: random_rule(count, seed)
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

def _record_dict(record: ExperimentRecord) -> dict:
    return dataclasses.asdict(record)


def emit_results(records: list[ExperimentRecord], config: RunConfig,
                 out_path) -> None:
    """CSV at out_path plus a JSON mirror (same stem, .json) with the config."""
    out = Path(out_path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
    payload = {"config": config.to_dict(),
               "records": [_record_dict(r) for r in records]}
    with open(out.with_suffix(".json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _emit_json(payload: dict, out_path) -> None:
    out = Path(out_path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# -------------------------------------------------------------- subcommands

def _require(config: RunConfig, *fields: str) -> None:
    for name in fields:
        if getattr(config, name) is None:
            raise ValidationError(
                f"{config.subcommand} requires --{name} "
                f"(flag or config-file entry)")


def _evaluation_grid(config: RunConfig):
    if config.grid < 1:
        raise ValidationError(f"--grid must be >= 1, got {config.grid}")
    return uniform_random_points(config.grid, seed=config.seed)


ANALYZE_CSV_HEADER = "n,eta,lambda_min,lambda_max,exact_to,mesh_norm,degree_bound"


def _cmd_analyze(config: RunConfig) -> int:
    _require(config, "points", "n")
    if config.n < 0:
        raise ValidationError(f"--n must be >= 0, got {config.n}")
    loader = resolve_points_descriptor(config.points, config.weights)
    rule = loader()
    report = mz_constant(rule, config.n)
    print(f"{rule.label}: {report.summary()}")
    if config.out:
        out = Path(config.out)
        payload = {"config": config.to_dict(),
                   "rule": {"label": rule.label, "m": rule.m},
                   "report": dataclasses.asdict(report)}
        if out.suffix == ".json":
            _emit_json(payload, out)
        else:
            if out.parent and not out.parent.exists():
                out.parent.mkdir(parents=True, exist_ok=True)
            row = (f"{report.n},{report.eta:.17g},{report.lambda_min:.17g},"
                   f"{report.lambda_max:.17g},{report.exact_to},"
                   f"{report.mesh_norm:.17g},{report.degree_bound:.17g}")
            with open(out, "w", encoding="ascii") as fh:
                fh.write(ANALYZE_CSV_HEADER + "\n" + row + "\n")
            _emit_json(payload, out.with_suffix(".json"))
    return EXIT_OK


def _cmd_moments(config: RunConfig) -> int:
    _require(config, "kernel", "n")
    if config.n < 0:
        raise ValidationError(f"--n must be >= 0, got {config.n}")
    kernel = parse_kernel_descriptor(config.kernel)
    mom = modified_moments(kernel, config.n)
    print("l,mu,method")
    for l, v in enumerate(mom.values):
        print(f"{l},{v:.17g},{mom.method}")
    if config.out:
        _emit_json({"config": config.to_dict(),
                    "kernel": kernel.describe(), "method": mom.method,
                    "values": list(mom.values)}, config.out)
    return EXIT_OK


def _solve_record(kernel: SingularKernel, K: ContinuousKernel,
                  f_value: float, exact: float | None, n: int,
                  rule: QuadratureRule, grid, experiment: int = 0
                  ) -> ExperimentRecord:
    start = time.perf_counter()
    spec = ProblemSpec(kernel=kernel, K=K, f=f_value, n=n, rule=rule)
    sol = solve_stage1(spec)
    err = uniform_error(sol, exact, grid) if exact is not None else math.nan
    seconds = time.perf_counter() - start
    return ExperimentRecord(experiment=experiment, n=n, m=rule.m,
                            eta=sol.gamma[2], uniform_error=err,
                            residual=sol.residual, seconds=seconds,
                            condition_estimate=sol.condition_estimate,
                            rule_label=rule.label, f=f_value,
                            solver_path=sol.path)


def _check_finite(record: ExperimentRecord) -> ExperimentRecord:
    if not (math.isfinite(record.eta) and math.isfinite(record.residual)):
        raise SingularSystemError(
            f"non-finite diagnostics (eta={record.eta}, "
            f"residual={record.residual})")
    return record


def _cmd_solve(config: RunConfig) -> int:
    _require(config, "kernel", "K", "f", "n", "points")
    if config.n < 0:
        raise ValidationError(f"--n must be >= 0, got {config.n}")
    kernel = parse_kernel_descriptor(config.kernel)
    K = parse_K_descriptor(config.K)
    f_const = parse_f_descriptor(config.f)
    if f_const is None and K.family != "constant":
        raise ValidationError(
            "--f const:auto needs a constant K (const:C); give an explicit "
            "--f const:VALUE for oscillatory kernels")
    loader = resolve_points_descriptor(config.points, config.weights)
    grid = _evaluation_grid(config)
    rule = loader()

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
    record = _check_finite(_solve_record(kernel, K, f_value, exact,
                                         config.n, rule, grid))
    print(CSV_HEADER)
    print(record.csv_row())
    if config.out:
        emit_results([record], config, config.out)
    return EXIT_OK


def _cmd_experiment(config: RunConfig) -> int:
    _require(config, "id")
    if config.id not in EXPERIMENT_IDS:
        raise ValidationError(
            f"--id must be one of {list(EXPERIMENT_IDS)}, got {config.id}")
    if (config.sweep is None) == (config.n is None):
        raise ValidationError("experiment needs exactly one of --n or --sweep")

    plan: list[tuple[int, object]] = []  # (n, loader)
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
            path = bundled_pointset_path(name)
            plan.append((n, lambda p=path: load_pointset(p)))
        if not plan:
            raise ValidationError(
                f"sweep {config.sweep!r} matched no bundled designs")
    else:
        if config.n < 0:
            raise ValidationError(f"--n must be >= 0, got {config.n}")
        _require(config, "points")
        plan.append((config.n,
                     resolve_points_descriptor(config.points, config.weights)))

    grid = _evaluation_grid(config)
    records = []
    print(CSV_HEADER)
    for n, loader in plan:
        record = _check_finite(run_experiment(config.id, n, loader(),
                                              grid=grid))
        records.append(record)
        print(record.csv_row())
    if config.out:
        emit_results(records, config, config.out)
    return EXIT_OK


_COMMANDS = {"analyze": _cmd_analyze, "moments": _cmd_moments,
             "solve": _cmd_solve, "experiment": _cmd_experiment}


# ------------------------------------------------------------ parsing/merge

def read_config_file(path) -> dict:
    """key=value lines, # comments; keys match the CLI flag names."""
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
            if key not in _CONFIG_KEYS:
                raise ValidationError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    f"{', '.join(sorted(_CONFIG_KEYS))}")
            if key in _INT_KEYS:
                try:
                    merged[key] = int(value)
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: {key} needs an integer, "
                        f"got {value!r}") from None
            else:
                merged[key] = value
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphsolve",
        description="Product-integration solver for weakly singular "
                    "Fredholm equations on the sphere.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="key=value file supplying any flag below; "
                            "explicit flags win")
        p.add_argument("--out", default=None,
                       help="output path (CSV plus JSON mirror, or JSON for "
                            "analyze/moments)")

    p = sub.add_parser("analyze", help="MZ diagnostics of a rule at degree n")
    add_common(p)
    p.add_argument("--points", default=None,
                   help="file:PATH | equal_area:M | random:M:SEED | "
                        "path | bundled name")
    p.add_argument("--weights", default=None, choices=("equal", "file"))
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("moments", help="modified moments of a kernel up to n")
    add_common(p)
    p.add_argument("--kernel", default=None,
                   help="one | alg:NU | log | mixed:NU1:NU2")
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("solve", help="one custom solve")
    add_common(p)
    p.add_argument("--kernel", default=None,
                   help="one | alg:NU | log | mixed:NU1:NU2")
    p.add_argument("--K", default=None, help="const:C | sin:C | cos:C")
    p.add_argument("--f", default=None, help="const:VALUE | const:auto")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--points", default=None)
    p.add_argument("--weights", default=None, choices=("equal", "file"))
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("experiment", help="run a preset (1..4)")
    add_common(p)
    p.add_argument("--id", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sweep", default=None,
                   help="n=LO:STEP:HI over bundled designs with "
                        "m = (floor(1.2 n)+1)^2")
    p.add_argument("--points", default=None)
    p.add_argument("--weights", default=None, choices=("equal", "file"))
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def build_config(argv=None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    file_cfg = read_config_file(args.config) if args.config else {}

    def pick(key, fallback=None):
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, fallback)
        return value

    return RunConfig(
        subcommand=args.subcommand,
        points=pick("points"),
        weights=pick("weights", "equal"),
        kernel=pick("kernel"),
        K=pick("K"),
        f=pick("f"),
        n=pick("n"),
        id=pick("id"),
        sweep=pick("sweep"),
        grid=pick("grid", DEFAULT_GRID_SIZE),
        seed=pick("seed", DEFAULT_GRID_SEED),
        out=pick("out"),
    )


def main(argv=None) -> int:
    try:
        config = build_config(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _COMMANDS[config.subcommand](config)
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
