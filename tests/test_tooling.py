"""The suite's pytest configuration, checked on a planted failing test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 0
"""


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # to report a falsifying example hypothesis imports libcst, which warns
    # of a deprecation; as an error that warning stops the whole session
    (tmp_path / "test_planted.py").write_text(PLANTED)
    options = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *options, "test_planted.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
