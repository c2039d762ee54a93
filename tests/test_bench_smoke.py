"""The benchmark's tiny mode runs every workload, untraced and traced, correctly.

It drives `ppst.cli` in-process and patches names there (`generate`,
`HashedNgramEncoder`, `evaluate_run`, the trainers), so it also guards them.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tiny_exits_0(tmp_path):
    # a copy of the checkout's benchmark inputs: the run writes its result and
    # span files under its own root, which is then not the checkout
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run([sys.executable, "bench/run.py", "--tiny"], cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
