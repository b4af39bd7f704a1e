"""The runtime needs numpy only: scipy is a test-only dependency.

Importing the package, the static-analysis commands and a whole
scene-graph build (detector, relation scoring, TDE) run with scipy
blocked, so a plain ``pip install .`` can cold-boot ``repro serve``.
Only the test oracles (``tests/vision/oracles.py``) use
``scipy.ndimage``.  Each check runs in a fresh interpreter, because
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

    def test_scene_graph_build_runs_without_scipy(self):
        result = run_python(
            BLOCK_SCIPY
            + "from repro.synth import SceneGenerator\n"
            "from repro.vision import (MOTIFNET, RelationPredictor,\n"
            "                          SGGPipeline, SimulatedDetector)\n"
            "scenes = SceneGenerator(seed=3).generate_pool(8)\n"
            "pipeline = SGGPipeline(SimulatedDetector(),\n"
            "                       RelationPredictor(MOTIFNET))\n"
            "results = pipeline.run_many(scenes)\n"
            "print(sum(len(r.detections) for r in results),\n"
            "      sum(len(r.relations) for r in results))\n")
        assert result.returncode == 0, result.stderr
        detections, relations = map(int, result.stdout.split())
        assert detections > 0 and relations > 0


class TestImportsInstallNoSanitizer:
    def test_import_leaves_the_lock_seam_untouched(self):
        """The process-wide memos (vectors, validator diagnostics) are
        built at import time; building them must not activate
        ``SVQA_SANITIZE``, which only the first lock actually wrapped
        may do."""
        result = run_python(
            "import os\n"
            "os.environ['SVQA_SANITIZE'] = '1'\n"
            "import repro, repro.core, repro.serve\n"
            "from repro import locks\n"
            "print(locks.current() is None)\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "True"
