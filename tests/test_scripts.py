"""The scripts run end to end and print what they printed before."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("flag", ["--max-pairs", "--max-geodesics"])
def test_ladder_survey_rejects_a_negative_cap(flag):
    # The scope is checked before the first host, so nothing is printed.
    result = run_script("ladder_survey.py", flag, "-1")
    cap = flag[2:].replace("-", "_")
    assert result.returncode == 2 and result.stdout == b""
    assert result.stderr.endswith(f"error: {cap} must be nonnegative, got -1\n".encode())
    assert b"Traceback" not in result.stderr
