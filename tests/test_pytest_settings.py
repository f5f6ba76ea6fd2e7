"""The repo's pytest settings: a failing test is reported, and the session goes on."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# A failing property test and a passing one, run under the repo's settings.
_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_other_tests_running(tmp_path):
    # With "error" alone in filterwarnings, a DeprecationWarning raised while
    # Hypothesis reports the failure became an INTERNALERROR that ended the
    # session before the second test ran.
    path = tmp_path / "test_demo.py"
    path.write_text(_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
