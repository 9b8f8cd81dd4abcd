"""The benchmark's workloads: set-up, one timed job, output checks, metrics.

Each workload makes the calls one `nbqc` subcommand makes, on fixed input
files from inputs/ whose sha256 digests are verified at set-up.  The run
seed is the only other input: it becomes the construction seed or the
channel seed.

A traced job swaps the public entry points listed by `setup_targets` and
`job_targets` for span recorders (see tracing.py); the per-cycle
elimination test inside `greedy_lift` is deliberately not wrapped.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nbqc import alist_io, base_graph, channel, lifter
from nbqc.alist_io import AlistFormatError
from nbqc.base_graph import BaseMatrix
from nbqc.channel import CodeInstance, QspaDecoder, SimConfig, wilson_interval
from nbqc.lifter import ConstructionConfig, Lifting

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
REFERENCE = HERE / "reference.json"

CONSTRUCT_BASES = (("base_4x33.txt", 140), ("base_8x66.txt", 70))
CONSTRUCT_Q = 64
CONSTRUCT_DEPTH = 8
CONSTRUCT_TRIALS = 10
CYCLE_CAP = 100_000  # the `nbqc construct --cycle-cap` default
MAX_ITERATIONS = 30


class InputError(RuntimeError):
    """A stored input file is missing or does not match its recorded digest."""


def verified_input(name: str) -> Path:
    path = INPUTS / name
    with open(INPUTS / "inputs.json", encoding="utf-8") as fh:
        want = json.load(fh)["sha256"].get(name)
    try:
        got = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise InputError(f"cannot read input {name}: {exc}") from None
    if got != want:
        raise InputError(f"input {name} has sha256 {got}, recorded {want}")
    return path


def load_reference(workload: str) -> dict:
    """Outputs recorded per seed by record.py."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(workload, {})
    except FileNotFoundError:
        return {}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# construct_paper_d8
# ----------------------------------------------------------------------
@dataclass
class LiftingOutput:
    key: str
    alist: str
    report: str
    trials: int
    accepted: int


def write_construct_outputs(lifting: Lifting, report, path: Path) -> tuple[str, str]:
    """Write the .alist and .report.json with the bytes `nbqc construct` writes."""
    alist = alist_io.serialize_qc(lifting)
    report_text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    path.write_text(alist, encoding="utf-8")
    Path(str(path) + ".report.json").write_text(report_text, encoding="utf-8")
    return alist, report_text


def elimination_sweep(lifting: Lifting, cycles, min_seconds: float, sweep: dict) -> list[bool]:
    """`cycle_eliminated` over every cycle, timed per cycle length.

    Each length is swept repeatedly until `min_seconds` have passed; the
    (tests, seconds) totals are added to `sweep[length]`.
    """
    status = [False] * len(cycles)
    by_len: dict[int, list[int]] = defaultdict(list)
    for k, c in enumerate(cycles):
        by_len[c.length].append(k)
    for length, idxs in sorted(by_len.items()):
        tests, t0 = 0, time.perf_counter()
        while True:
            for k in idxs:
                status[k] = lifter.cycle_eliminated(lifting, cycles[k])
            tests += len(idxs)
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        sweep[length][0] += tests
        sweep[length][1] += elapsed
    return status


def final_assignment_from_log(report: dict, lifting: Lifting) -> dict:
    """Per edge, the last accepted (shift, beta) of the report, else (0, 1)."""
    out = {pos: (0, 1) for pos in lifting.base.ones()}
    for line in report["accepted_log"]:
        edge, z, beta, _ = line.split(" ", 3)
        i, j = (int(v) for v in edge[len("edge=(") : -1].split(","))
        out[(i, j)] = (int(z[2:]), int(beta[5:]))
    return out


class ConstructPaperD8:
    name = "construct_paper_d8"

    def __init__(self) -> None:
        self.reference = load_reference(self.name)

    def setup(self):
        return [(BaseMatrix.from_file(verified_input(f)), s) for f, s in CONSTRUCT_BASES]

    def setup_targets(self):
        return [(BaseMatrix, "from_file", "base_graph.load")]

    def job(self, bases, seed: int, outdir: Path) -> list[LiftingOutput]:
        outputs = []
        for base, s in bases:
            cfg = ConstructionConfig(
                s=s,
                q=CONSTRUCT_Q,
                depth=CONSTRUCT_DEPTH,
                trials_per_edge=CONSTRUCT_TRIALS,
                rng_seed=seed,
                cycle_cap=CYCLE_CAP,
            )
            lifting, report = lifter.greedy_lift(base, cfg)
            key = f"{base.m}x{base.n}_s{s}"
            alist, report_text = write_construct_outputs(
                lifting, report, outdir / f"{key}.alist"
            )
            outputs.append(
                LiftingOutput(key, alist, report_text, report.trials_total, report.trials_accepted)
            )
        return outputs

    def job_targets(self, record: dict):
        record["cycles"] = []
        return [
            (lifter, "greedy_lift", "lifter.greedy_lift"),
            (lifter, "all_cycles", "base_graph.all_cycles", record["cycles"].append),
            (lifter, "expanded_girth", "lifter.expanded_girth"),
            (lifter, "girth", "base_graph.girth"),
            (Lifting, "expand", "ring.expand"),
            (sys.modules[__name__], "write_construct_outputs", "alist_io.write"),
        ]

    def digests(self, outputs) -> list:
        return [(o.key, sha256_text(o.alist), sha256_text(o.report)) for o in outputs]

    def check(self, bases, seed: int, outputs, sweep: dict, sweep_seconds: float = 0.0):
        """One list of failures per lifting.

        Any seed: the .alist round-trips through parse_qc, agrees with the
        report's accepted log, and the report's ACE vector and cycle counts
        equal a recomputation with cycle_eliminated over all_cycles.
        Recorded seeds: both files are byte-identical to the recorded ones.
        """
        recorded = self.reference.get(str(seed))
        failures = []
        for (base, s), out in zip(bases, outputs):
            errs: list[str] = []
            failures.append(errs)
            try:
                lifting = alist_io.parse_qc(out.alist)
            except AlistFormatError as exc:
                errs.append(f"{out.key}: .alist does not parse: {exc}")
                continue
            if alist_io.serialize_qc(lifting) != out.alist:
                errs.append(f"{out.key}: .alist does not round-trip through parse_qc")
            if lifting.base != base or lifting.s != s or lifting.field.q != CONSTRUCT_Q:
                errs.append(f"{out.key}: .alist describes another base, s or q")
                continue
            report = json.loads(out.report)
            logged = final_assignment_from_log(report, lifting)
            actual = {pos: (m.shift, m.beta) for pos, m in lifting.assignment.items()}
            if logged != actual:
                bad = sorted(pos for pos in actual if actual[pos] != logged[pos])
                errs.append(f"{out.key}: .alist disagrees with the accepted log at {bad[:3]}")
            cycles = base_graph.all_cycles(base, CONSTRUCT_DEPTH, cap=CYCLE_CAP)
            eliminated = elimination_sweep(lifting, cycles, sweep_seconds, sweep)
            counts, ace = {}, []
            for length in range(4, CONSTRUCT_DEPTH + 1, 2):
                idxs = [k for k, c in enumerate(cycles) if c.length == length]
                elim = sum(eliminated[k] for k in idxs)
                counts[str(length)] = {"uneliminated": len(idxs) - elim, "eliminated": elim}
                surviving = [
                    base_graph.cycle_ace(base, cycles[k]) for k in idxs if not eliminated[k]
                ]
                ace.append(min(surviving) if surviving else "inf")
            if report["cycle_counts"] != counts:
                errs.append(f"{out.key}: report cycle counts differ from the recomputation")
            if report["ace"] != ace:
                errs.append(f"{out.key}: report ACE {report['ace']} != recomputed {ace}")
            if recorded is not None:
                want = recorded[out.key]
                if sha256_text(out.alist) != want["alist_sha256"]:
                    errs.append(f"{out.key}: .alist differs from the recorded seed-{seed} output")
                if sha256_text(out.report) != want["report_sha256"]:
                    errs.append(f"{out.key}: .report.json differs from the recorded seed-{seed} output")
        return failures

    def traced_check(self, state, record: dict) -> list[str]:
        return []

    def job_counts(self, outputs) -> tuple[int, int]:
        """(liftings, greedy trials) of one job."""
        return len(outputs), sum(o.trials for o in outputs)

    def per_layer(self, bases, job, setup_tracer, sweep) -> dict:
        t = job.tracer
        own = t.self_times()
        cycle_lists = job.record["cycles"]
        by_len = Counter(c.length for cycles in cycle_lists for c in cycles)
        n_cycles = sum(by_len.values())
        elim_tests = 0
        for (base, _), cycles in zip(bases, cycle_lists):
            for c in cycles:
                support = base.bits[np.ix_(sorted(c.rows), sorted(c.cols))]
                elim_tests += 1 + CONSTRUCT_TRIALS * int(support.sum())
        trials = sum(o.trials for o in job.outputs)
        accepted = sum(o.accepted for o in job.outputs)
        all_cycles_s = t.duration("base_graph.all_cycles")
        trial_loop_s = own["lifter.greedy_lift"]
        out = {
            "base_graph.all_cycles_s": all_cycles_s,
            "base_graph.cycles": n_cycles,
            "base_graph.cycles_per_s": n_cycles / all_cycles_s,
            "base_graph.girth_s": t.duration("base_graph.girth"),
            "lifter.greedy_lift_s": t.duration("lifter.greedy_lift"),
            "lifter.trial_loop_s": trial_loop_s,
            "lifter.expanded_girth_s": t.duration("lifter.expanded_girth"),
            "lifter.trials": trials,
            "lifter.trials_accepted": accepted,
            "lifter.accept_ratio": accepted / trials,
            "lifter.elim_tests": elim_tests,
            "lifter.elim_tests_per_s": elim_tests / trial_loop_s,
            "ring.expand_s": t.duration("ring.expand"),
            "alist_io.write_s": t.duration("alist_io.write"),
        }
        for length in range(4, CONSTRUCT_DEPTH + 1, 2):
            out[f"base_graph.cycles.len{length}"] = by_len[length]
            tests, seconds = sweep[length]
            out[f"lifter.elim_sweep_per_s.len{length}"] = tests / seconds if seconds else 0.0
        return out


# ----------------------------------------------------------------------
# simulate workloads
# ----------------------------------------------------------------------
@dataclass
class SimState:
    lifting: Lifting
    code: CodeInstance


def dense_syndrome_failures(code: CodeInstance, words: np.ndarray) -> int:
    """Words with a nonzero dense H.c, using log/exp tables, not mul_table."""
    field = code.field
    log = np.array(field.log_table, dtype=np.int64)
    exp = np.array(field.exp_table, dtype=np.int64)
    h = code.h
    h_log, h_nz = log[h], h != 0
    chunk = max(1, 4_000_000 // h.size)
    bad = 0
    for lo in range(0, len(words), chunk):
        w = words[lo : lo + chunk]
        prod = exp[(h_log[None, :, :] + log[w][:, None, :]) % (field.q - 1)]
        prod[~(h_nz[None, :, :] & (w != 0)[:, None, :])] = 0
        bad += int(np.bitwise_xor.reduce(prod, axis=2).any(axis=1).sum())
    return bad


class Simulate:
    def __init__(self, name, lifting_file, base_file, modulation, snr_db, frames) -> None:
        self.name = name
        self.lifting_file = lifting_file
        self.base_file = base_file
        self.modulation = modulation
        self.snr_db = snr_db
        self.frames = frames
        self.reference = load_reference(name)

    def config(self, seed: int) -> SimConfig:
        return SimConfig(
            modulation=self.modulation,
            snr_db=(self.snr_db,),
            max_frames=self.frames,
            max_errors=self.frames,
            decoder_max_iterations=MAX_ITERATIONS,
            rng_seed=seed,
        )

    def setup(self) -> SimState:
        """Load, expand, RREF and decoder set-up, as `nbqc simulate` does."""
        lifting = alist_io.load_matrix_file(verified_input(self.lifting_file))
        code = CodeInstance(lifting.field, lifting.expand())
        code.decoder()
        return SimState(lifting, code)

    def setup_targets(self):
        return [
            (alist_io, "load_matrix_file", "alist_io.load"),
            (Lifting, "expand", "ring.expand"),
            (CodeInstance, "__init__", "channel.code_init"),
            (channel, "gf_rref", "linalg.rref"),
            (QspaDecoder, "__init__", "channel.decoder_init"),
        ]

    def job(self, state: SimState, seed: int, outdir: Path):
        return channel.run_monte_carlo(state.code, self.config(seed))

    def job_targets(self, record: dict):
        record["sent"], record["decoded"], record["demapped"] = [], [], []
        return [
            (channel, "run_monte_carlo", "channel.run_monte_carlo"),
            (CodeInstance, "encode", "channel.encode", record["sent"].append),
            (channel, "modulate", "channel.modulate"),
            (channel, "symbol_likelihoods", "channel.demap", record["demapped"].append),
            (QspaDecoder, "decode_batch", "channel.decode", record["decoded"].append),
        ]

    def digests(self, result) -> list:
        return [result.to_text()]

    def check(self, state: SimState, seed: int, result, sweep: dict, sweep_seconds: float = 0.0):
        """One list of failures for the run_monte_carlo call.

        Any seed: the stored lifting lies on the stored base matrix, the
        frame count is the configured one, and the results text carries
        the same frames, errors and 95% Wilson interval as the result.
        Recorded seeds: frames, errors and summed iterations equal the
        recorded ones, and the recorded BLER lies in this run's interval.
        """
        errs: list[str] = []
        if state.lifting.base != BaseMatrix.from_file(verified_input(self.base_file)):
            errs.append(f"{self.lifting_file} does not lie on {self.base_file}")
        (pt,) = result.points
        iterations = self.job_counts(result)[1]
        if pt.frames != self.frames or not 0 <= pt.errors <= pt.frames:
            errs.append(f"{pt.frames} frames with {pt.errors} errors; configured {self.frames}")
        if not 0 <= pt.avg_iterations <= MAX_ITERATIONS:
            errs.append(f"average iterations {pt.avg_iterations} outside [0, {MAX_ITERATIONS}]")
        fields = result.to_text().splitlines()[1].split()
        lo, hi = wilson_interval(pt.errors, pt.frames)
        if [int(fields[1]), int(fields[2])] != [pt.frames, pt.errors] or [
            float(fields[4]),
            float(fields[5]),
        ] != [float(f"{lo:.6e}"), float(f"{hi:.6e}")]:
            errs.append(f"results text {fields} disagrees with the result")
        recorded = self.reference.get(str(seed))
        if recorded is not None:
            got = {"frames": pt.frames, "errors": pt.errors, "iterations": iterations}
            if got != recorded:
                errs.append(f"seed {seed}: {got} != recorded {recorded}")
            if not lo <= recorded["errors"] / recorded["frames"] <= hi:
                errs.append(f"seed {seed}: recorded BLER outside this run's 95% interval")
        return [errs]

    def traced_check(self, state: SimState, record: dict) -> list[str]:
        """Every frame decode_batch reports converged has a zero dense syndrome."""
        bad = sum(
            dense_syndrome_failures(state.code, words[converged])
            for words, converged, _ in record["decoded"]
        )
        return [f"{bad} converged frames have a nonzero syndrome"] if bad else []

    def job_counts(self, result) -> tuple[int, int]:
        """(frames, summed decoder iterations) of one job."""
        (pt,) = result.points
        return pt.frames, round(pt.avg_iterations * pt.frames)

    def per_layer(self, state: SimState, job, setup_tracer, sweep) -> dict:
        t = job.tracer
        rec = job.record
        frame_iters = sum(int(iters.sum()) for _, _, iters in rec["decoded"])
        detected_fail = sum(int((~conv).sum()) for _, conv, _ in rec["decoded"])
        undetected = sum(
            int((conv & (words != sent).any(axis=1)).sum())
            for (words, conv, _), sent in zip(rec["decoded"], rec["sent"])
        )
        symbols = sum(p.shape[0] * p.shape[1] for p in rec["demapped"])
        decode_s = t.duration("channel.decode")
        demap_s = t.duration("channel.demap")
        return {
            "alist_io.load_s": setup_tracer.duration("alist_io.load"),
            "ring.expand_s": setup_tracer.duration("ring.expand"),
            "linalg.rref_s": setup_tracer.duration("linalg.rref"),
            "channel.decoder_init_s": setup_tracer.duration("channel.decoder_init"),
            "channel.encode_s": t.duration("channel.encode"),
            "channel.modulate_s": t.duration("channel.modulate"),
            "channel.demap_s": demap_s,
            "channel.decode_s": decode_s,
            "channel.driver_self_s": t.self_times()["channel.run_monte_carlo"],
            "channel.frame_iters": frame_iters,
            "channel.edge_msgs_per_s": state.code.decoder().n_edges * frame_iters / decode_s,
            "channel.demap_symbols_per_s": symbols / demap_s,
            "channel.frames_detected_fail": detected_fail,
            "channel.frames_undetected": undetected,
        }


WORKLOADS = {
    "construct_paper_d8": ConstructPaperD8,
    "simulate_n4620_64qam": lambda: Simulate(
        "simulate_n4620_64qam",
        "gf64_8x66_s70.alist",
        "base_8x66.txt",
        "64qam",
        18.0,
        frames=8,
    ),
    "simulate_n192_bpsk": lambda: Simulate(
        "simulate_n192_bpsk",
        "gf16_4x16_s12.alist",
        "base_4x16.txt",
        "bpsk",
        5.2,
        frames=2000,
    ),
}
