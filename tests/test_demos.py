"""The quick demos run to completion against this checkout.

Demo 05 writes a full CLI config, so it also checks the config schema end to
end. Demos 02 and 03 train and decode at a size that takes several seconds
each; the CI workflow runs them after this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_corpus_pipeline.py", "04_evaluate_metrics.py",
                                  "05_cli_pipeline.py"])
def test_demo_exits_0(tmp_path, demo):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
