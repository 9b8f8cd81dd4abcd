"""Command-line entry points: construct, analyze, simulate.

construct  binary base matrix -> greedy lifting, written as a compact
           quasi-cyclic nbalist file plus a JSON construction report.
analyze    any matrix file (base text, full or compact nbalist) -> rate
           bound, degree profile, distance ceiling, girth, cycle/ACE
           spectrum.
simulate   compact/full nbalist + JSON simulation config -> frame-error
           results plus a reproducibility manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

from . import __version__
from .alist_io import (
    AlistFormatError,
    load_matrix_file,
    parse_qc,
    serialize_qc,
    sha256_of_file,
)
from .base_graph import (
    BaseMatrix,
    all_cycles,
    check_depth,
    cycle_ace,
    girth,
    inf_or_int,
    validate,
)
from .channel import CodeInstance, SimConfig, run_monte_carlo
from .lifter import (
    ConstructionConfig,
    Lifting,
    cycles_eliminated,
    distance_upper_bound,
    expanded_girth,
    greedy_lift,
)

# codes whose distance ceiling falls below this are flagged as floor-prone
LOW_DISTANCE_THRESHOLD = 100


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------
def cmd_construct(args) -> int:
    base = BaseMatrix.from_file(args.base)
    # a flag left out takes ConstructionConfig's default
    given = {
        "depth": args.depth,
        "trials_per_edge": args.trials,
        "rng_seed": args.seed,
        "cycle_cap": args.cycle_cap,
    }
    cfg = ConstructionConfig(
        s=args.s, q=args.q, **{k: v for k, v in given.items() if v is not None}
    )
    if args.seed is None:
        print(f"seed defaulted to {cfg.rng_seed}")
    lifting, report = greedy_lift(base, cfg)

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_qc(lifting))
    report_path = args.out + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    n_symbols = base.n * cfg.s
    k_floor = n_symbols - base.m * cfg.s
    print(f"wrote {args.out} and {report_path}")
    print(f"N={n_symbols} K>={k_floor} q={cfg.q} s={cfg.s}")
    print(f"ace vector: {report.ace}")
    print(f"expanded girth: {inf_or_int(report.expanded_girth)}")
    for length, (unelim, elim) in sorted(report.cycle_counts.items()):
        print(f"length {length}: {elim} eliminated, {unelim} surviving")
    return 0


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def _analyze_base(base: BaseMatrix, depth: int, lifting: Lifting | None) -> None:
    cycles = all_cycles(base, depth)
    diag = validate(base)
    print(f"base matrix: {diag.m} x {diag.n}")
    rate = diag.rate_lower_bound
    print(f"rate lower bound: {rate} ({float(rate):.4f})")
    degrees = sorted(set(diag.column_degrees))
    profile = ", ".join(
        f"{d}x{diag.column_degrees.count(d)}" for d in degrees
    )
    print(f"column weights: {profile}")
    for note in diag.warnings:
        print(f"warning: {note}")
    if diag.column_regular and diag.column_weight is not None and diag.column_weight >= 1:
        bound = distance_upper_bound(diag.column_weight, diag.m)
        print(f"distance upper bound: {bound}")
        if bound <= LOW_DISTANCE_THRESHOLD:
            print(
                f"warning: distance upper bound {bound} <= {LOW_DISTANCE_THRESHOLD}; "
                "error-floor prone"
            )
    print(f"base girth: {inf_or_int(girth(base))}")

    if lifting is not None:
        eliminated = dict(zip(cycles, cycles_eliminated(lifting, cycles)))
    for length in range(4, depth + 1, 2):
        of_len = [c for c in cycles if c.length == length]
        if not of_len:
            print(f"length {length}: no cycles")
            continue
        aces = [cycle_ace(base, c) for c in of_len]
        line = f"length {length}: {len(of_len)} cycles, min ACE {min(aces)}"
        if lifting is not None:
            surviving = [cycle_ace(base, c) for c in of_len if not eliminated[c]]
            if surviving:
                line += f"; {len(surviving)} surviving, min ACE {min(surviving)}"
            else:
                line += "; all eliminated (e = inf)"
        print(line)


def cmd_analyze(args) -> int:
    check_depth(args.depth)  # before loading: a full nbalist never reads the depth
    obj = load_matrix_file(args.matrix)
    if isinstance(obj, BaseMatrix):
        _analyze_base(obj, args.depth, None)
        return 0
    if isinstance(obj, Lifting):
        _analyze_base(obj.base, args.depth, obj)
        print(f"circulant size: {obj.s}, field order: {obj.field.q}")
        print(f"expanded girth: {inf_or_int(expanded_girth(obj))}")
        return 0
    field, h = obj
    code = CodeInstance(field, h)
    print(f"expanded matrix: {h.shape[0]} x {h.shape[1]} over GF({field.q})")
    print(f"N={code.n} K={code.k} rank={code.rank} rate={code.rate:.4f}")
    print(f"girth: {inf_or_int(girth(h))}")
    return 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def _load_sim_config(path) -> SimConfig:
    """The JSON config as a SimConfig, which checks the values."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("simulation config must be a JSON object")
    known = {
        "modulation",
        "snr_db",
        "max_frames",
        "max_errors",
        "decoder_max_iterations",
        "seed",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
    for key in ("modulation", "snr_db", "max_frames"):
        if key not in data:
            raise ValueError(f"simulation config lacks required key '{key}'")
    if "seed" in data:
        data["rng_seed"] = data.pop("seed")
    return SimConfig(**data)


def cmd_simulate(args) -> int:
    obj = load_matrix_file(args.matrix)
    if isinstance(obj, Lifting):
        field, h = obj.field, obj.expand()
    elif isinstance(obj, BaseMatrix):
        raise ValueError("simulate needs a lifted matrix file, not a binary base matrix")
    else:
        field, h = obj
    cfg = _load_sim_config(args.config)
    code = CodeInstance(field, h)
    result = run_monte_carlo(code, cfg)

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(result.to_text())
    config = dataclasses.asdict(cfg)
    manifest = {
        "command": "simulate",
        "artifact_version": __version__,
        "seed": config.pop("rng_seed"),
        "config": config,
        "inputs": {
            "matrix": {"path": str(args.matrix), "sha256": sha256_of_file(args.matrix)},
            "sim_config": {
                "path": str(args.config),
                "sha256": sha256_of_file(args.config),
            },
        },
    }
    manifest_path = args.out + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} and {manifest_path}")
    print(f"N={code.n} K={code.k} rate={code.rate:.4f}")
    print(result.to_text(), end="")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbqc",
        description="non-binary quasi-cyclic LDPC construction, analysis and simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="lift a binary base matrix")
    c.add_argument("base", help="base matrix text file ('m n' header then 0/1 rows)")
    c.add_argument("--s", type=int, required=True, help="circulant size")
    c.add_argument("--q", type=int, required=True, help="field order (power of 2)")
    c.add_argument("--depth", type=int, help="maximal cycle length (even)")
    c.add_argument("--trials", type=int, help="redraws per edge")
    c.add_argument("--seed", type=int, help="RNG seed (printed if defaulted)")
    c.add_argument("--cycle-cap", type=int, dest="cycle_cap")
    c.add_argument("--out", required=True, help="output nbalist path")
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="report code parameters of a matrix file")
    a.add_argument("matrix", help="base matrix text or nbalist file")
    a.add_argument("--depth", type=int, default=8, help="cycle spectrum depth")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("simulate", help="Monte-Carlo frame-error simulation")
    s.add_argument("matrix", help="nbalist file (compact or full)")
    s.add_argument("config", help="JSON simulation config")
    s.add_argument("--out", required=True, help="output results path")
    s.set_defaults(func=cmd_simulate)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # warnings reach the user as one line each, without the source location;
    # the filters, and the format library callers see, stay as they are
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, AlistFormatError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
