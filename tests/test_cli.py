import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nbqc.alist_io import load_matrix_file, parse_qc, serialize_full
from nbqc.base_graph import weight2_base
from nbqc.channel import CodeInstance, SimConfig, run_monte_carlo
from nbqc.cli import main

EX1 = "2 3\n0 1 1\n1 0 1\n"
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def write(path, text):
    path.write_text(text)
    return str(path)


def make_weight2_base(m, n):
    return weight2_base(m, n).to_text()


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------
def test_construct_round_trips(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    out = str(tmp_path / "ex1.alist")
    assert main(["construct", base, "--s", "3", "--q", "4", "--seed", "5", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "ace vector: (inf, inf, inf)" in captured
    assert "expanded girth: inf" in captured
    lifting = parse_qc(Path(out).read_text())
    assert lifting.base.to_text() == EX1
    report = json.loads(Path(out + ".report.json").read_text())
    assert report["seed"] == 5
    assert report["expanded_girth"] == "inf"


# digests of the files the one-trial-at-a-time construction wrote for the
# acceptance-criterion-8 code, of the files the permutation-search
# matchings gave for the paper's 8x66 base at depth 10, and of that base at
# depth 12, where the trial loop's per-edge arrays are largest
CONSTRUCT_DIGESTS = [
    pytest.param(
        None,
        ["--s", "12", "--q", "16", "--depth", "8", "--trials", "100", "--seed", "11"],
        "20bfa1cf5297ccd8ac0f98e7267009961bc4de4dc87319142e339107dfeab862",
        "b030df8e174a9639338728db40989f74f6517bcd233001945a0e92eccaa750ce",
        id="criterion_8_4x16_s12_q16_d8",
    ),
    pytest.param(
        "base_8x66.txt",
        ["--s", "70", "--q", "64", "--depth", "10", "--trials", "10", "--seed", "1"],
        "a9dc5f5e78e5b39d3e20047d2e65fa19ed5e4a99beded1d964834ad547d4c12d",
        "e389e8e06ccac1eecd420683a05326a251f6dce478a2d4953d862d45a59918ea",
        id="8x66_s70_q64_d10",
    ),
    pytest.param(
        "base_8x66.txt",
        ["--s", "70", "--q", "64", "--depth", "12", "--trials", "10", "--seed", "1"],
        "a9dc5f5e78e5b39d3e20047d2e65fa19ed5e4a99beded1d964834ad547d4c12d",
        "a654a1699a103d21c9703a8c24e814c469c89801d81e734802e9d806eada4821",
        id="8x66_s70_q64_d12",
    ),
]


@pytest.mark.parametrize("name,flags,alist_sha,report_sha", CONSTRUCT_DIGESTS)
def test_construct_code_is_byte_identical(
    name, flags, alist_sha, report_sha, tmp_path, capsys
):
    if name is None:
        base = write(tmp_path / "b416.txt", make_weight2_base(4, 16))
    else:
        base = str(INPUTS / name)
    out = tmp_path / "out.alist"
    assert main(["construct", base, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == alist_sha
    assert hashlib.sha256(Path(f"{out}.report.json").read_bytes()).hexdigest() == report_sha


def test_construct_prints_defaulted_seed(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    out = str(tmp_path / "d.alist")
    assert main(["construct", base, "--s", "3", "--q", "4", "--out", out]) == 0
    assert "seed defaulted to 0" in capsys.readouterr().out


def test_construct_large_code_parameters(tmp_path, capsys):
    base = write(tmp_path / "b433.txt", make_weight2_base(4, 33))
    out = str(tmp_path / "b433.alist")
    rc = main(
        [
            "construct", base,
            "--s", "140", "--q", "64", "--depth", "4",
            "--trials", "100", "--seed", "1", "--out", out,
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "N=4620 K>=4060" in captured
    lifting = parse_qc(Path(out).read_text())
    assert lifting.base.n * lifting.s == 4620


@pytest.mark.parametrize(
    "extra",
    [
        ["--s", "3", "--q", "4", "--depth", "5"],
        ["--s", "3", "--q", "3"],
        ["--s", "1", "--q", "4"],
    ],
)
def test_construct_rejects_bad_parameters(tmp_path, capsys, extra):
    base = write(tmp_path / "ex1.txt", EX1)
    out = str(tmp_path / "x.alist")
    assert main(["construct", base] + extra + ["--out", out]) == 1
    assert "error:" in capsys.readouterr().err


def test_construct_rejects_unsupported_field_size_before_writing(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    out = tmp_path / "x.alist"
    assert main(["construct", base, "--s", "3", "--q", "512", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --q must be a power of 2 from 2 to 256, got 512\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.txt"]


def construct_error(tmp_path, capsys, *flags):
    """stderr of a construct of EX1 with these flags, which must fail and write nothing."""
    base = write(tmp_path / "ex1.txt", EX1)
    out = str(tmp_path / "x.alist")
    assert main(["construct", base, "--s", "3", "--q", "4", *flags, "--out", out]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.txt"]
    return capsys.readouterr().err


def test_construct_rejects_a_circulant_size_below_two(tmp_path, capsys):
    err = construct_error(tmp_path, capsys, "--s", "1")
    assert err == "error: --s must be an integer >= 2, got 1\n"


def test_construct_rejects_negative_seed(tmp_path, capsys):
    err = construct_error(tmp_path, capsys, "--seed", "-1")
    assert err == "error: --seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("flag", ["--trials", "--cycle-cap"])
def test_construct_rejects_a_zero_count_naming_its_flag(tmp_path, capsys, flag):
    err = construct_error(tmp_path, capsys, flag, "0")
    assert err == f"error: {flag} must be an integer >= 1, got 0\n"


@pytest.mark.filterwarnings("default")  # shown as the CLI shows them, not raised
def test_construct_prints_warnings_as_one_line_each(tmp_path, capsys):
    base = write(tmp_path / "b416.txt", make_weight2_base(4, 16))
    out = str(tmp_path / "b416.alist")
    argv = ["construct", base, "--s", "12", "--q", "16", "--depth", "6", "--trials", "1"]
    assert main(argv + ["--cycle-cap", "5", "--out", out]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("warning: cycle cap 5 reached") for line in err)


def test_construct_missing_file(tmp_path, capsys):
    assert main(
        ["construct", str(tmp_path / "nope.txt"), "--s", "3", "--q", "4", "--out", "o"]
    ) == 1


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def test_analyze_flags_low_distance_bound(tmp_path, capsys):
    base = write(tmp_path / "b433.txt", make_weight2_base(4, 33))
    assert main(["analyze", base, "--depth", "4"]) == 0
    captured = capsys.readouterr().out
    assert "distance upper bound: 40" in captured
    assert "error-floor prone" in captured
    assert "rate lower bound: 29/33" in captured


def test_analyze_large_bound_not_flagged(tmp_path, capsys):
    base = write(tmp_path / "b866.txt", make_weight2_base(8, 66))
    assert main(["analyze", base, "--depth", "4"]) == 0
    captured = capsys.readouterr().out
    assert "distance upper bound: 1152" in captured
    assert "error-floor prone" not in captured
    assert "rate lower bound: 29/33" in captured


def test_analyze_acyclic_base(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    assert main(["analyze", base]) == 0
    captured = capsys.readouterr().out
    assert "base girth: inf" in captured
    assert "length 4: no cycles" in captured


def test_analyze_lifting_reports_elimination(tmp_path, capsys):
    base = write(tmp_path / "sq.txt", "2 2\n1 1\n1 1\n")
    out = str(tmp_path / "sq.alist")
    assert main(["construct", base, "--s", "4", "--q", "4", "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    assert main(["analyze", out, "--depth", "4"]) == 0
    captured = capsys.readouterr().out
    assert "all eliminated" in captured
    assert "expanded girth:" in captured


def test_analyze_bad_depth_fails_before_any_output(tmp_path, capsys):
    base = write(tmp_path / "b433.txt", make_weight2_base(4, 33))
    assert main(["analyze", base, "--depth", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "depth must be even" in captured.err


def test_analyze_full_nbalist_checks_depth(tmp_path, capsys):
    lifting = load_matrix_file(INPUTS / "gf16_4x16_s12.alist")
    full = write(tmp_path / "full.alist", serialize_full(lifting.field, lifting.expand()))
    assert main(["analyze", full, "--depth", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --depth must be even and at least 4\n"


@pytest.mark.parametrize("depth", ["2", "3", "5"])
def test_construct_and_analyze_reject_a_low_depth_alike(depth, tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    out = str(tmp_path / "x.alist")
    assert main(["construct", base, "--s", "3", "--q", "4", "--depth", depth, "--out", out]) == 1
    construct = capsys.readouterr()
    assert main(["analyze", base, "--depth", depth]) == 1
    analyze = capsys.readouterr()
    assert construct.out == analyze.out == ""
    assert construct.err == analyze.err == "error: --depth must be even and at least 4\n"


@pytest.mark.parametrize("name", ["base_8x66.txt", "gf64_8x66_s70.alist", "full"])
def test_analyze_rejects_depth_above_limit_before_loading(name, tmp_path, capsys):
    if name == "full":
        lifting = load_matrix_file(INPUTS / "gf16_4x16_s12.alist")
        path = write(tmp_path / "full.alist", serialize_full(lifting.field, lifting.expand()))
    else:
        path = str(INPUTS / name)
    assert main(["analyze", path, "--depth", "14"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --depth above 12 is not supported\n"


# `nbqc analyze --depth 8` stdout, byte for byte, per perfbench input
ANALYZE_STDOUT = {
    "base_4x16.txt": (
        "base matrix: 4 x 16\n"
        "rate lower bound: 3/4 (0.7500)\n"
        "column weights: 2x16\n"
        "distance upper bound: 40\n"
        "warning: distance upper bound 40 <= 100; error-floor prone\n"
        "base girth: 4\n"
        "length 4: 14 cycles, min ACE 0\n"
        "length 6: 75 cycles, min ACE 0\n"
        "length 8: 144 cycles, min ACE 0\n"
    ),
    "base_4x33.txt": (
        "base matrix: 4 x 33\n"
        "rate lower bound: 29/33 (0.8788)\n"
        "column weights: 2x33\n"
        "distance upper bound: 40\n"
        "warning: distance upper bound 40 <= 100; error-floor prone\n"
        "base girth: 4\n"
        "length 4: 75 cycles, min ACE 0\n"
        "length 6: 665 cycles, min ACE 0\n"
        "length 8: 2700 cycles, min ACE 0\n"
    ),
    "base_8x66.txt": (
        "base matrix: 8 x 66\n"
        "rate lower bound: 29/33 (0.8788)\n"
        "column weights: 2x66\n"
        "distance upper bound: 1152\n"
        "base girth: 4\n"
        "length 4: 48 cycles, min ACE 0\n"
        "length 6: 751 cycles, min ACE 0\n"
        "length 8: 6555 cycles, min ACE 0\n"
    ),
    "gf16_4x16_s12.alist": (
        "base matrix: 4 x 16\n"
        "rate lower bound: 3/4 (0.7500)\n"
        "column weights: 2x16\n"
        "distance upper bound: 40\n"
        "warning: distance upper bound 40 <= 100; error-floor prone\n"
        "base girth: 4\n"
        "length 4: 14 cycles, min ACE 0; all eliminated (e = inf)\n"
        "length 6: 75 cycles, min ACE 0; all eliminated (e = inf)\n"
        "length 8: 144 cycles, min ACE 0; all eliminated (e = inf)\n"
        "circulant size: 12, field order: 16\n"
        "expanded girth: 4\n"
    ),
    "gf64_8x66_s70.alist": (
        "base matrix: 8 x 66\n"
        "rate lower bound: 29/33 (0.8788)\n"
        "column weights: 2x66\n"
        "distance upper bound: 1152\n"
        "base girth: 4\n"
        "length 4: 48 cycles, min ACE 0; all eliminated (e = inf)\n"
        "length 6: 751 cycles, min ACE 0; all eliminated (e = inf)\n"
        "length 8: 6555 cycles, min ACE 0; all eliminated (e = inf)\n"
        "circulant size: 70, field order: 64\n"
        "expanded girth: 4\n"
    ),
}


# `nbqc analyze --depth 10` stdout of the perfbench lifting
ANALYZE_STDOUT_DEPTH_10 = (
    "base matrix: 8 x 66\n"
    "rate lower bound: 29/33 (0.8788)\n"
    "column weights: 2x66\n"
    "distance upper bound: 1152\n"
    "base girth: 4\n"
    "length 4: 48 cycles, min ACE 0; all eliminated (e = inf)\n"
    "length 6: 751 cycles, min ACE 0; all eliminated (e = inf)\n"
    "length 8: 6555 cycles, min ACE 0; all eliminated (e = inf)\n"
    "length 10: 48384 cycles, min ACE 0; 6 surviving, min ACE 0\n"
    "circulant size: 70, field order: 64\n"
    "expanded girth: 4\n"
)
# and at --depth 12, the deepest spectrum
ANALYZE_STDOUT_DEPTH_12 = ANALYZE_STDOUT_DEPTH_10.replace(
    "circulant size:", "length 12: 276720 cycles, min ACE 0; 59 surviving, min ACE 0\ncirculant size:"
)


@pytest.mark.parametrize(
    "name,depth,want",
    [pytest.param(name, 8, want, id=name) for name, want in sorted(ANALYZE_STDOUT.items())]
    + [
        pytest.param(
            "gf64_8x66_s70.alist", 10, ANALYZE_STDOUT_DEPTH_10, id="gf64_8x66_s70.alist-10"
        ),
        pytest.param(
            "gf64_8x66_s70.alist", 12, ANALYZE_STDOUT_DEPTH_12, id="gf64_8x66_s70.alist-12"
        ),
    ],
)
def test_analyze_stdout_is_byte_identical(name, depth, want, capsys):
    assert main(["analyze", str(INPUTS / name), "--depth", str(depth)]) == 0
    assert capsys.readouterr().out == want


# a base with an all-zero row and an all-zero column, and its trivial
# lifting (beta 1, shift 0 on every edge) at s=3 over GF(4)
ZERO_ROW_COL = "4 5\n1 1 0 1 0\n1 1 1 0 0\n0 1 1 1 0\n0 0 0 0 0\n"
ZERO_ROW_COL_LIFTED = (
    "nbalist qc\npoly 7\n4 5 3 4\n1 1 0 1\n1 2 0 1\n1 4 0 1\n"
    "2 1 0 1\n2 2 0 1\n2 3 0 1\n3 2 0 1\n3 3 0 1\n3 4 0 1\n"
)
ZERO_ROW_COL_STDOUT = (
    "base matrix: 4 x 5\n"
    "rate lower bound: 1/5 (0.2000)\n"
    "column weights: 0x1, 2x3, 3x1\n"
    "warning: matrix has all-zero columns\n"
    "warning: matrix has all-zero rows\n"
    "base girth: 4\n"
    "length 4: 3 cycles, min ACE 1\n"
    "length 6: 4 cycles, min ACE 0\n"
    "length 8: no cycles\n"
)
ZERO_ROW_COL_LIFTED_STDOUT = (
    "base matrix: 4 x 5\n"
    "rate lower bound: 1/5 (0.2000)\n"
    "column weights: 0x1, 2x3, 3x1\n"
    "warning: matrix has all-zero columns\n"
    "warning: matrix has all-zero rows\n"
    "base girth: 4\n"
    "length 4: 3 cycles, min ACE 1; 3 surviving, min ACE 1\n"
    "length 6: 4 cycles, min ACE 0; 1 surviving, min ACE 0\n"
    "length 8: no cycles\n"
    "circulant size: 3, field order: 4\n"
    "expanded girth: 4\n"
)


def test_analyze_zero_row_and_column_stdout(tmp_path, capsys):
    assert main(["analyze", write(tmp_path / "z.txt", ZERO_ROW_COL), "--depth", "8"]) == 0
    assert capsys.readouterr().out == ZERO_ROW_COL_STDOUT
    lifted = write(tmp_path / "z.alist", ZERO_ROW_COL_LIFTED)
    assert main(["analyze", lifted, "--depth", "8"]) == 0
    assert capsys.readouterr().out == ZERO_ROW_COL_LIFTED_STDOUT


def test_analyze_all_zero_base_fails(tmp_path, capsys):
    base = write(tmp_path / "zero.txt", "2 3\n0 0 0\n0 0 0\n")
    assert main(["analyze", base, "--depth", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degenerate base matrix: no nonzero entries\n"


def test_analyze_malformed_file(tmp_path, capsys):
    bad = write(tmp_path / "bad.txt", "not a matrix\n")
    assert main(["analyze", bad]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def sim_config(tmp_path, **overrides):
    cfg = {
        "modulation": "bpsk",
        "snr_db": [2.0, 8.0],
        "max_frames": 100,
        "max_errors": 1000,
        "decoder_max_iterations": 15,
        "seed": 9,
    }
    cfg.update(overrides)
    return write(tmp_path / "sim.json", json.dumps(cfg))


def test_simulate_writes_results_and_manifest(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    alist = str(tmp_path / "ex1.alist")
    main(["construct", base, "--s", "3", "--q", "4", "--seed", "2", "--out", alist])
    cfg = sim_config(tmp_path)
    out = str(tmp_path / "res.txt")
    assert main(["simulate", alist, cfg, "--out", out]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3  # header + one line per SNR point
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["inputs"]["matrix"]["sha256"]


# recorded from the RunManifest-era writer; a config with every optional key
# left out shows SimConfig's defaults and the int SNR stored as a float
MANIFEST_WITH_DEFAULTS = """{
  "artifact_version": "0.1.0",
  "command": "simulate",
  "config": {
    "decoder_max_iterations": 30,
    "max_errors": 40,
    "max_frames": 40,
    "modulation": "bpsk",
    "snr_db": [
      2.0,
      8.5
    ]
  },
  "inputs": {
    "matrix": {
      "path": "<tmp>/ex1.alist",
      "sha256": "f7a8d0206eb9c770d396e74b2b1c4514836f18d49b801b88676517dac7a61657"
    },
    "sim_config": {
      "path": "<tmp>/sim.json",
      "sha256": "253ced50d8a00b534831ceb0b38300ecc7092c0cbf300d4857a72f97f3e20ee7"
    }
  },
  "seed": 0
}
"""


def test_simulate_manifest_bytes(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    alist = str(tmp_path / "ex1.alist")
    main(["construct", base, "--s", "3", "--q", "4", "--seed", "2", "--out", alist])
    cfg = write(
        tmp_path / "sim.json",
        json.dumps({"modulation": "bpsk", "snr_db": [2, 8.5], "max_frames": 40}),
    )
    out = str(tmp_path / "res.txt")
    assert main(["simulate", alist, cfg, "--out", out]) == 0
    text = Path(out + ".manifest.json").read_text().replace(str(tmp_path), "<tmp>")
    assert text == MANIFEST_WITH_DEFAULTS


def test_simulate_reproducible_byte_identical(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    alist = str(tmp_path / "ex1.alist")
    main(["construct", base, "--s", "3", "--q", "4", "--seed", "2", "--out", alist])
    cfg = sim_config(tmp_path)
    out1, out2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
    assert main(["simulate", alist, cfg, "--out", out1]) == 0
    assert main(["simulate", alist, cfg, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert (
        json.loads(Path(out1 + ".manifest.json").read_text())["config"]
        == json.loads(Path(out2 + ".manifest.json").read_text())["config"]
    )


def test_simulate_matches_direct_library_call(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    alist = str(tmp_path / "ex1.alist")
    main(["construct", base, "--s", "3", "--q", "4", "--seed", "2", "--out", alist])
    cfg_path = sim_config(tmp_path)
    out = str(tmp_path / "res.txt")
    assert main(["simulate", alist, cfg_path, "--out", out]) == 0

    lifting = parse_qc(Path(alist).read_text())
    code = CodeInstance(lifting.field, lifting.expand())
    cfg = SimConfig(
        modulation="bpsk",
        snr_db=(2.0, 8.0),
        max_frames=100,
        max_errors=1000,
        decoder_max_iterations=15,
        rng_seed=9,
    )
    assert Path(out).read_text() == run_monte_carlo(code, cfg).to_text()


# `nbqc simulate` on the acceptance-criterion-8 code: the 1.5 dB point stops
# at its 20th error, the 3.0 dB point runs all its frames; each point
# numbers its frames from 0, so the 3.0 dB line is that of a run of the
# 3.0 dB point alone
PINNED_SIMULATE = """\
# snr_db frames errors bler ci95_low ci95_high avg_iterations
1.5 147 20 1.360544e-01 8.983087e-02 2.008151e-01 9.605
3 200 0 0.000000e+00 0.000000e+00 1.884533e-02 2.155
"""


def test_simulate_results_bytes_on_the_n192_lifting(tmp_path, capsys):
    alist = INPUTS / "gf16_4x16_s12.alist"
    cfg = sim_config(
        tmp_path, snr_db=[1.5, 3.0], max_frames=200, max_errors=20, decoder_max_iterations=30, seed=11
    )
    out = tmp_path / "res.txt"
    assert main(["simulate", str(alist), cfg, "--out", str(out)]) == 0
    assert out.read_text() == PINNED_SIMULATE


def test_simulate_rejects_base_matrix_input(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    cfg = sim_config(tmp_path)
    assert main(["simulate", base, cfg, "--out", str(tmp_path / "r.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_modulation_field_mismatch(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    alist = str(tmp_path / "ex1.alist")
    main(["construct", base, "--s", "3", "--q", "4", "--seed", "2", "--out", alist])
    cfg = sim_config(tmp_path, modulation="16qam")  # 18 bits not divisible by 4
    assert main(["simulate", alist, cfg, "--out", str(tmp_path / "r.txt")]) == 1
    assert "not a multiple" in capsys.readouterr().err


def test_simulate_unknown_config_key(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    alist = str(tmp_path / "ex1.alist")
    main(["construct", base, "--s", "3", "--q", "4", "--seed", "2", "--out", alist])
    cfg = write(
        tmp_path / "bad.json",
        json.dumps({"modulation": "bpsk", "snr_db": [1], "max_frames": 5, "bogus": 1}),
    )
    assert main(["simulate", alist, cfg, "--out", str(tmp_path / "r.txt")]) == 1


# stderr for key and seed errors, byte for byte; "seed" is the only spelling of the seed
@pytest.mark.parametrize(
    "config,err",
    [
        (
            {"modulation": "bpsk", "snr_db": [1], "max_frames": 5, "bogus": 1, "alpha": 2},
            "error: unknown simulation config keys: ['alpha', 'bogus']\n",
        ),
        (
            {"modulation": "bpsk", "snr_db": [1], "max_frames": 5, "rng_seed": 3},
            "error: unknown simulation config keys: ['rng_seed']\n",
        ),
        (
            {"max_frames": 5, "bogus": 1},
            "error: unknown simulation config keys: ['bogus']\n",
        ),
        ({"snr_db": [1]}, "error: simulation config lacks required key 'modulation'\n"),
        (
            {"modulation": "bpsk", "max_frames": 5, "seed": 1},
            "error: simulation config lacks required key 'snr_db'\n",
        ),
        (
            {"modulation": "bpsk", "snr_db": [1]},
            "error: simulation config lacks required key 'max_frames'\n",
        ),
        (
            {"modulation": "bpsk", "snr_db": [1], "max_frames": 5, "seed": -1},
            "error: seed must be an integer >= 0, got -1\n",
        ),
        (
            {"modulation": "bpsk", "snr_db": [1], "max_frames": 5, "seed": "7"},
            "error: seed must be an integer >= 0, got '7'\n",
        ),
        (
            {"modulation": "4294967296qam", "snr_db": [1], "max_frames": 5},
            "error: QAM order must be a power of 4 from 4 to 256, got 4294967296\n",
        ),
    ],
)
def test_simulate_config_key_errors_are_pinned(tmp_path, capsys, config, err):
    cfg = write(tmp_path / "bad.json", json.dumps(config))
    alist = str(INPUTS / "gf16_4x16_s12.alist")
    assert main(["simulate", alist, cfg, "--out", str(tmp_path / "r.txt")]) == 1
    assert capsys.readouterr().err == err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize(
    "config,named",
    [
        ({"modulation": "bpsk", "max_frames": 5}, "snr_db"),
        ({"snr_db": [1.0], "max_frames": 5}, "modulation"),
        ({"modulation": "bpsk", "snr_db": [1.0]}, "max_frames"),
        ({"modulation": "bpsk", "snr_db": 5, "max_frames": 5}, "snr_db"),
        ([{"modulation": "bpsk"}], "JSON object"),
    ],
)
def test_simulate_bad_config_fails_with_message(tmp_path, capsys, config, named):
    base = write(tmp_path / "ex1.txt", EX1)
    alist = str(tmp_path / "ex1.alist")
    main(["construct", base, "--s", "3", "--q", "4", "--seed", "2", "--out", alist])
    cfg = write(tmp_path / "bad.json", json.dumps(config))
    assert main(["simulate", alist, cfg, "--out", str(tmp_path / "r.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "config,named",
    [
        ({"modulation": "bpsk", "snr_db": [1.0], "max_frames": "5"}, "max_frames"),
        (
            {"modulation": "bpsk", "snr_db": [1.0], "max_frames": 5, "decoder_max_iterations": 2.5},
            "decoder_max_iterations",
        ),
        ({"modulation": "bpsk", "snr_db": [1.0], "max_frames": 5, "max_errors": True}, "max_errors"),
        ({"modulation": "bpsk", "snr_db": [1.0], "max_frames": 5, "seed": "7"}, "seed"),
        ({"modulation": 4, "snr_db": [1.0], "max_frames": 5}, "modulation"),
        ({"modulation": "bpsk", "snr_db": [1.0, "2"], "max_frames": 5}, "snr_db"),
        ({"modulation": "bpsk", "snr_db": [float("nan")], "max_frames": 5}, "snr_db"),
        ({"modulation": "bpsk", "snr_db": [1.0], "max_frames": 5, "seed": -1}, "seed"),
    ],
)
def test_simulate_mistyped_config_fails_with_message(tmp_path, capsys, config, named):
    base = write(tmp_path / "ex1.txt", EX1)
    alist = str(tmp_path / "ex1.alist")
    main(["construct", base, "--s", "3", "--q", "4", "--seed", "2", "--out", alist])
    cfg = write(tmp_path / "bad.json", json.dumps(config))
    assert main(["simulate", alist, cfg, "--out", str(tmp_path / "r.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_simulate_code_too_large_to_expand_fails_with_message(tmp_path, capsys, monkeypatch):
    # a well-formed 1 x 2 base lifted with s = 10^6; the 10^6 x (2 * 10^6)
    # allocation is made to fail here rather than requested for real
    alist = write(tmp_path / "big.alist", "nbalist qc\npoly 7\n1 2 1000000 4\n1 1 0 1\n1 2 5 3\n")
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        if np.prod(shape) >= 10**12:
            raise MemoryError("Unable to allocate")
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    assert main(["simulate", alist, sim_config(tmp_path), "--out", str(tmp_path / "r.txt")]) == 1
    assert capsys.readouterr().err == (
        "error: 1000000 x 2000000 expanded matrix does not fit in memory\n"
    )
    assert not (tmp_path / "r.txt").exists()


def test_analyze_lifting_too_large_to_expand_fails_with_message(tmp_path, capsys, monkeypatch):
    # a 1 x 2 base lifted with s = 10^13, whose expanded girth starts from
    # np.arange(s): that 72.8 TiB allocation is made to fail here
    alist = write(tmp_path / "big.alist", "nbalist qc\npoly 7\n1 2 10000000000000 4\n1 1 0 1\n")
    real_arange = np.arange

    def arange(stop, *args, **kwargs):
        if stop >= 10**12:
            raise MemoryError("Unable to allocate 72.8 TiB")
        return real_arange(stop, *args, **kwargs)

    monkeypatch.setattr(np, "arange", arange)
    assert main(["analyze", alist]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 72.8 TiB\n"


def test_construct_too_many_trials_fails_with_message(tmp_path, capsys, monkeypatch):
    # the trial loop tiles its draw bounds to one pair per trial, which ran
    # out of memory at --trials 400000000; the tiling is made to fail here
    # at a count whose real arrays are small
    base = write(tmp_path / "ex1.txt", EX1)
    out = tmp_path / "ex1.alist"
    real_tile = np.tile

    def tile(a, reps):
        if np.max(reps) >= 10**6:
            raise MemoryError("Unable to allocate 5.96 GiB")
        return real_tile(a, reps)

    monkeypatch.setattr(np, "tile", tile)
    flags = ["--s", "3", "--q", "4", "--trials", "1000000", "--out", str(out)]
    assert main(["construct", base, *flags]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 5.96 GiB\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_field_beyond_the_int16_table_fails_on_the_dimensions_line(tmp_path, capsys, command):
    # x^31 + x^3 + 1 is primitive; GF(2^31) used to end in a MemoryError traceback
    alist = write(tmp_path / "q31.alist", "nbalist qc\npoly 2147483657\n2 2 3 2147483648\n1 1 0 1\n")
    extra = {"analyze": [], "simulate": [sim_config(tmp_path), "--out", str(tmp_path / "r.txt")]}
    assert main([command, alist, *extra[command]]) == 1
    assert capsys.readouterr().err == (
        "error: line 3: GF(2^31) is not supported: the degree must be from 1 to 15\n"
    )


def test_simulate_field_whose_multiplication_table_does_not_fit_fails_with_message(
    tmp_path, capsys, monkeypatch
):
    # GF(2^15) under x^15 + x + 1, the largest field; its 2^15 x 2^15 table is
    # made to fail here rather than requested for real
    alist = write(
        tmp_path / "q15.alist",
        "nbalist qc\npoly 32771\n2 2 3 32768\n1 1 0 1\n1 2 1 1\n2 1 2 1\n2 2 0 1\n",
    )
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        if np.prod(shape) >= 1 << 30:
            raise MemoryError("Unable to allocate")
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    assert main(["simulate", alist, sim_config(tmp_path), "--out", str(tmp_path / "r.txt")]) == 1
    assert capsys.readouterr().err == (
        "error: the GF(2^15) multiplication table does not fit in memory\n"
    )
    assert not (tmp_path / "r.txt").exists()


def test_simulate_snr_whose_noise_variance_overflows_fails_with_message(tmp_path, capsys):
    cfg = sim_config(tmp_path, snr_db=[-4000])
    alist = str(INPUTS / "gf16_4x16_s12.alist")
    assert main(["simulate", alist, cfg, "--out", str(tmp_path / "r.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: snr_db -4000 overflows the noise variance")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.txt").exists()
