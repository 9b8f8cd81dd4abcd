"""The example scripts run end to end, each in its own interpreter.

The scripts are the callers outside the tests of build_code, weight2_base,
Lifting.trivial, both code-parameter bounds and run_monte_carlo's
batch_size; running them keeps those library entry points honest.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_construct_large_demo(tmp_path):
    args = ["--depth", "4", "--outdir", str(tmp_path)]
    proc = run_script("construct_large_demo.py", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 10
    codes = [(4, 33, 140, 40), (8, 66, 70, 1152)]
    for block, (m, n, s, ceiling) in zip((lines[:5], lines[5:]), codes):
        out = f"{tmp_path}/gf64_{m}x{n}_s{s}.alist"
        assert re.fullmatch(rf"{m}x{n} base, s={s}: N=4620, K>=4060  \(\d+\.\ds\)", block[0])
        assert block[1:] == [
            "  rate bound 29/33",
            f"  distance ceiling {ceiling}",
            "  ace vector (inf), expanded girth 6",
            f"  wrote {out}",
        ]
        assert Path(out).read_text().startswith("nbalist qc\n")
        assert Path(out + ".report.json").is_file()


def test_run_ab_experiment(tmp_path):
    args = ["--frames", "40", "--max-errors", "40", "--snr", "5.2", "--depth", "6"]
    proc = run_script("run_ab_experiment.py", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == [
        "base 4x16, s=12, GF(16)",
        "greedy ace vector (inf, inf), expanded girth 4",
        "trivial: N=192 K=156 rate=0.8125",
        "greedy: N=192 K=144 rate=0.7500",
    ]
    assert lines[4:6] == ["", " snr_db   trivial BLER    greedy BLER    ratio"]
    assert len(lines) == 7 and lines[6].startswith("   5.20 ")
    # the trivial lifting's rank deficiency is reported, not filtered
    assert "parity-check matrix is rank-deficient" in proc.stderr
