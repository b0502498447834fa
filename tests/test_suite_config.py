"""The test suite's own configuration in pyproject.toml."""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # Under filterwarnings = "error", the DeprecationWarning that hypothesis's
    # plugin raises while it reports a failure once aborted the session with
    # INTERNALERROR, so no later test ran.
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
