"""Importing the package must not import scipy.

Only the simulated detector's connected-component pass needs scipy,
so serving, warm start and the static-analysis commands run (and the
CI lint job, which installs numpy but not scipy, can import the
package) without it.  Each check runs in a fresh interpreter, because
this test process has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: make ``import scipy`` fail the way it does where scipy is absent
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"


def run_python(code: str) -> subprocess.CompletedProcess[str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


class TestImportsLeaveScipyOut:
    def test_package_import_does_not_load_scipy(self):
        result = run_python(
            "import sys\n"
            "import repro, repro.core, repro.serve\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_lint_code_runs_without_scipy(self):
        result = run_python(
            BLOCK_SCIPY
            + "from repro.cli import main\n"
            "raise SystemExit(main(['lint-code']))\n")
        assert result.returncode == 0, result.stderr
        assert "0 error(s)" in result.stdout
