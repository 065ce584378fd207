"""tools/solve_digest.py --against: the bitwise gate as one command."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LABEL = "t1=0/seed=1"


def _digest(*args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_digest.py"), "--only", LABEL, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_against_reports_each_label_that_differs(tmp_path):
    # a wrong digest and a label the run does not produce both differ
    saved = tmp_path / "saved.txt"
    saved.write_text(f"{LABEL} {'0' * 64}\n{LABEL}/extra {'1' * 64}\nall {'2' * 64}\n")
    run = _digest("--against", str(saved))
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        f"differs from {saved}: {LABEL}",
        f"differs from {saved}: {LABEL}/extra",
    ]
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [LABEL, "all"]

    # the run's own output is a saved run it matches
    saved.write_text(run.stdout)
    again = _digest("--against", str(saved))
    assert again.returncode == 0, again.stderr
    assert again.stdout == run.stdout
    assert again.stderr == ""
