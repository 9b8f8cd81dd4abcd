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

import numpy as np

from . import __version__
from .alist_io import AlistFormatError, load_matrix_file, serialize_qc, sha256_of_file
from .base_graph import (
    BaseMatrix,
    ace_text,
    all_cycles,
    check_depth,
    cycle_aces,
    girth,
    inf_or_int,
)
from .channel import CodeInstance, SimConfig, build_code, run_monte_carlo
from .lifter import (
    ConstructionConfig,
    Lifting,
    check_field_order,
    check_int,
    cycles_eliminated,
    distance_upper_bound,
    expanded_girth,
    greedy_lift,
    rate_lower_bound,
)

# codes whose distance ceiling falls below this are flagged as floor-prone
LOW_DISTANCE_THRESHOLD = 100


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------
def cmd_construct(args) -> int:
    base = BaseMatrix.from_file(args.base)
    given = {}
    # an error names the flag that was typed, not the config field it sets
    for flag, name, value in (
        ("--s", "s", args.s),
        ("--trials", "trials_per_edge", args.trials),
        ("--seed", "rng_seed", args.seed),
    ):
        if value is not None:
            given[name] = check_int(flag, value, ConstructionConfig.lows[name])
    check_field_order("--q", args.q)
    if args.depth is not None:
        given["depth"] = check_depth(args.depth, "--depth")
    # a flag left out takes ConstructionConfig's default
    cfg = ConstructionConfig(q=args.q, **given)
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
    print(f"ace vector: {ace_text(report.ace)}")
    print(f"expanded girth: {inf_or_int(report.expanded_girth)}")
    for length, (unelim, elim) in sorted(report.cycle_counts.items()):
        print(f"length {length}: {elim} eliminated, {unelim} surviving")
    return 0


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def _analyze_base(base: BaseMatrix, depth: int, lifting: Lifting | None) -> None:
    degrees = base.column_degrees
    if not any(degrees):
        raise ValueError("degenerate base matrix: no nonzero entries")
    cycles = all_cycles(base, depth)
    print(f"base matrix: {base.m} x {base.n}")
    rate = rate_lower_bound(base)
    print(f"rate lower bound: {rate} ({float(rate):.4f})")
    profile = ", ".join(f"{d}x{degrees.count(d)}" for d in sorted(set(degrees)))
    print(f"column weights: {profile}")
    if 0 in degrees:
        print("warning: matrix has all-zero columns")
    if 0 in base.row_degrees:
        print("warning: matrix has all-zero rows")
    if len(set(degrees)) == 1:
        bound = distance_upper_bound(degrees[0], base.m)
        print(f"distance upper bound: {bound}")
        if bound <= LOW_DISTANCE_THRESHOLD:
            print(
                f"warning: distance upper bound {bound} <= {LOW_DISTANCE_THRESHOLD}; "
                "error-floor prone"
            )
    print(f"base girth: {inf_or_int(girth(base))}")

    aces = cycle_aces(base, cycles)
    if lifting is not None:
        eliminated = cycles_eliminated(lifting, cycles)
    for length in range(4, depth + 1, 2):
        of_len = cycles.lengths == length
        if not of_len.any():
            print(f"length {length}: no cycles")
            continue
        line = f"length {length}: {np.count_nonzero(of_len)} cycles, min ACE {aces[of_len].min()}"
        if lifting is not None:
            surviving = aces[of_len & ~eliminated]
            if surviving.size:
                line += f"; {surviving.size} surviving, min ACE {surviving.min()}"
            else:
                line += "; all eliminated (e = inf)"
        print(line)


def cmd_analyze(args) -> int:
    check_depth(args.depth, "--depth")  # before loading: a full nbalist never reads the depth
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
    print(f"girth: {inf_or_int(girth(BaseMatrix(h != 0)))}")
    return 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def _load_sim_config(path) -> SimConfig:
    """The JSON config as a SimConfig, which checks the values; `seed` is rng_seed,
    checked here so that an error names the key that was typed."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("simulation config must be a JSON object")
    keys = {f.name: f for f in dataclasses.fields(SimConfig)}
    keys["seed"] = keys.pop("rng_seed")
    unknown = set(data) - set(keys)
    if unknown:
        raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
    for key, f in keys.items():
        if f.default is dataclasses.MISSING and key not in data:
            raise ValueError(f"simulation config lacks required key '{key}'")
    if "seed" in data:
        data["rng_seed"] = check_int("seed", data.pop("seed"), 0)
    return SimConfig(**data)


def cmd_simulate(args) -> int:
    obj = load_matrix_file(args.matrix)
    if isinstance(obj, BaseMatrix):
        raise ValueError("simulate needs a lifted matrix file, not a binary base matrix")
    cfg = _load_sim_config(args.config)
    code = build_code(obj) if isinstance(obj, Lifting) else CodeInstance(*obj)
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
    c.add_argument("--q", type=int, required=True, help="field order: a power of 2, 2 to 256")
    c.add_argument("--depth", type=int, help="maximal cycle length: even, 4 to 12")
    c.add_argument("--trials", type=int, help="redraws per edge")
    c.add_argument("--seed", type=int, help="RNG seed (printed if defaulted)")
    c.add_argument("--out", required=True, help="output nbalist path")
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="report code parameters of a matrix file")
    a.add_argument("matrix", help="base matrix text or nbalist file")
    a.add_argument("--depth", type=int, default=8, help="cycle spectrum depth: even, 4 to 12")
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
        except (ValueError, AlistFormatError, OSError, json.JSONDecodeError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
