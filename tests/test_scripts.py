"""The example script runs end to end, in its own interpreter.

It is the caller outside the tests of build_code, weight2_base and
Lifting.trivial; running it keeps those library entry points honest.
The code-parameter bounds have the CLI as their only caller outside the
tests, and the `nbqc analyze` checks in test_cli cover them.
"""

import os
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
