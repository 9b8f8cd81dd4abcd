import hashlib
import json
from pathlib import Path

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


def test_construct_criterion_8_code_is_byte_identical(tmp_path, capsys):
    # digests of the files the one-trial-at-a-time construction wrote for
    # the acceptance-criterion-8 code: 4x16/s=12, GF(16), depth 8, 100 trials
    base = write(tmp_path / "b416.txt", make_weight2_base(4, 16))
    out = str(tmp_path / "b416.alist")
    rc = main(
        [
            "construct", base,
            "--s", "12", "--q", "16", "--depth", "8",
            "--trials", "100", "--seed", "11", "--out", out,
        ]
    )
    assert rc == 0

    def sha256(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert sha256(out) == "20bfa1cf5297ccd8ac0f98e7267009961bc4de4dc87319142e339107dfeab862"
    assert (
        sha256(out + ".report.json")
        == "b030df8e174a9639338728db40989f74f6517bcd233001945a0e92eccaa750ce"
    )


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


def test_construct_rejects_negative_seed(tmp_path, capsys):
    base = write(tmp_path / "ex1.txt", EX1)
    out = str(tmp_path / "x.alist")
    assert main(["construct", base, "--s", "3", "--q", "4", "--seed", "-1", "--out", out]) == 1
    assert "seed" in capsys.readouterr().err


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
    assert captured.err == "error: depth must be even and at least 4\n"


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
