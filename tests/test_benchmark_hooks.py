"""The benchmark's trace hooks still fit the kernel.

``perfbench/tracer.py`` wraps kernel internals from outside (the public
functions of each layer, ``ncalg._SYSTEMS``, ``RewriteSystem._find_redex``,
``basis_product`` and ``_product_cache``, ``verify._run_one``), so a kernel
refactor can break a traced benchmark run without any other test noticing.
The smoke run writes only to the ignored ``.perfbench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_smoke_benchmark_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
