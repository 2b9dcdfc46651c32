"""The repository's pytest configuration reports every test: a failing
hypothesis test must not stop the session before the tests after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=5, max_value=9))
def test_fails(n):
    assert n < 5


def test_after():
    pass
'''


def test_a_failing_hypothesis_test_hides_no_later_result(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c",
         str(ROOT / "pyproject.toml"), "test_two.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "assert 5 < 5" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
