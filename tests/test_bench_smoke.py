"""The benchmark's tiny mode runs every workload, untraced and traced, correctly.

It drives `ppst.cli` in-process and patches names there (`generate`,
`HashedNgramEncoder`, `evaluate_run`, the trainers), so it also guards them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tiny_exits_0():
    result = subprocess.run([sys.executable, "bench/run.py", "--tiny"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
