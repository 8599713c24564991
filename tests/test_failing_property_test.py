"""A failing Hypothesis test is reported like any other, and the session goes on.

With `filterwarnings = ["error"]`, a deprecation warning raised inside
the Hypothesis plugin's report hook on a failing `@given` test used to
end the session with INTERNALERROR, so the tests after it never ran.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_runs_after():
    pass
'''


def test_failing_property_test_leaves_the_next_test_running(tmp_path):
    path = tmp_path / "test_two.py"
    path.write_text(TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
