"""The scripts run end to end and print what they printed before."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, timeout=120, check=False,
    )


def test_ladder_survey_golden():
    # Captured with the default seed before the survey read k from the
    # identity BFS of its balls.
    result = run_script("ladder_survey.py")
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout == (ROOT / "tests" / "golden" / "ladder_survey_seed0.txt").read_bytes()


def test_language_report_golden():
    # Captured before power languages read the identity BFS.
    result = run_script("language_report.py")
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout == (ROOT / "tests" / "golden" / "language_report.txt").read_bytes()
