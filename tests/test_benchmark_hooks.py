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

# per-layer metrics that the traced smoke run reads as nonzero: a refactor
# that moves a traced name where the tracer no longer finds it zeroes one
# (ROADMAP known defect 3 lists the metrics that read 0 already)
_NONZERO = (
    "sym-exact/ncalg.reduce_calls",
    "sym-exact/ncalg.rewrite_steps",
    "prob-screen/ncalg.rewrite_steps",
    "sym-exact/params.ops_field",
    "sym-exact/ncalg.cached_products",
    "prob-screen/ncalg.cached_products",
    "sym-exact/verify.report_s",
    "prob-screen/verify.report_s",
)


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
    metrics = summary["metrics"]
    assert [name for name in _NONZERO if not metrics[name]["value"]] == []
