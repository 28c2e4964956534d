"""The suite's pytest settings let a failing property test report its example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # with every warning an error, a DeprecationWarning raised in
    # hypothesis's report hook used to end the session (INTERNALERROR, exit 3)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    result = subprocess.run(
        [*command, "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "Falsifying example" in result.stdout
