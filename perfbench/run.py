"""Benchmark of ``rank1daha verify run``: end-to-end metrics per workload,
and per-layer metrics from a separately traced run.

    python3 perfbench/run.py --workload sym-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 1

Run it from the root of a checkout.  One run repeats rounds for about
``--seconds`` seconds; a round is one ``verify run`` process of the
workload, started fresh and waited for, one at a time.  With ``--trace 0``
every round is untraced, and each end-to-end metric is the median over
the rounds (``setup_s`` also over a few processes that stop where the
first check would start).  With ``--trace 1``
untraced and traced rounds alternate; the per-layer metrics are medians
over the traced rounds, and ``trace.overhead_s`` is the fastest traced
wall time minus the fastest untraced one.  After the
timed rounds, the outputs are checked apart from the program's verdicts
(see ``checks.py``).  ``--smoke`` shrinks every workload to a few seconds,
to check the harness itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one check at one parameter point: a report row, times its trials in
probabilistic mode.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# verify always gets this seed, so every round and every run times the
# same work: in prob-screen the seed also draws the random words of
# confluence-spot and spherical.mult, and at one trial per check two seeds
# differed by 35% in wall time.  The benchmark's --seed picks the inputs
# of the independent checks.
VERIFY_SEED = 1729
# Extra processes per untraced run that stop where the first check would
# start; their set-up times join those of the rounds in the setup_s median.
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple[str, ...]  # in catalog order, as the report lists them
    options: tuple[str, ...]  # verify-run options besides --checks/--seed/--trials
    trials: int  # operations per report row; exact mode always runs one
    # functions of checks.py, each with its keyword arguments besides the seed
    verify: tuple[tuple[str, dict], ...]


@dataclass
class Round:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Spec:
    """Metric names and units, as BENCHMARK.json declares them."""

    end_to_end: dict[str, str]
    per_layer: dict[str, str]

    @staticmethod
    def load() -> "Spec":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return Spec(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
        )

    @property
    def traced_checks(self) -> list[str]:
        prefix = "verify.check_s."
        return [n[len(prefix):] for n in self.per_layer if n.startswith(prefix)]


def _workloads(smoke: bool, ids: list[str]) -> dict[str, Workload]:
    def pick(wanted) -> tuple[str, ...]:
        return tuple(cid for cid in ids if wanted(cid))

    polyrep_checks = ("eigen.Pn", "casimir.scalar", "awrel.inrep")
    if smoke:
        return {
            "sym-exact": Workload(
                "sym-exact",
                pick(lambda c: c in ("relations-daha", "idempotents", "step.44", "shiftops",
                                     *polyrep_checks)),
                ("--mode", "exact", "--max-mn", "1", "--max-n", "1", "--max-degree", "0"), 1,
                (("algebra_properties", {"words": 2, "triples": 1}),
                 ("polyrep_vs_oracle", {"n_max": 1, "symbolic": True})),
            ),
            "prob-screen": Workload(
                "prob-screen",
                pick(lambda c: c in ("relations-daha", "step.44", "eigen.Pn", "casimir.scalar")),
                ("--mode", "prob", "--max-mn", "1", "--max-n", "2", "--max-degree", "1"), 1,
                (("polyrep_vs_oracle", {"n_max": 2, "symbolic": False}),),
            ),
        }
    # sym-exact: exact mode over symbolic parameters, so every coefficient
    # is a rational function.  Rewriting: words rewritten from scratch (step
    # families, embeddings) beside memoized products (duality.daha, which
    # also runs the s-extended scalars).  The polynomial representation: the
    # q-difference operator on coefficients that grow with the degree.
    # Checks without a size knob that would take much of a round by
    # themselves are left out: confluence-spot (14 s), iso.spherical.mult
    # (43 s), embed.rel36 (2.3 s), centralizer.samples (2.5 s) and
    # center.daha (0.9 s); so is P_3 (--max-n 3 adds 5 s).  That keeps
    # three rounds or more in a 30 s run even when the host is slow.
    symbolic = pick(
        lambda c: c.startswith(("step.", "astep.", "embed.")) and c != "embed.rel36"
        or c in (
            "relations-daha", "idempotents", "step3.spherical", "duality.daha",
            "shiftops", *polyrep_checks,
        )
    )
    return {
        "sym-exact": Workload(
            "sym-exact", symbolic,
            ("--mode", "exact", "--max-mn", "1", "--max-n", "2", "--max-degree", "0"), 1,
            (("algebra_properties", {}),
             ("polyrep_vs_oracle", {"n_max": 3, "symbolic": True, "points": 3})),
        ),
        # prob-screen: every check at seeded random points, so only rational
        # constants occur and each point builds a cold rewrite system.  The
        # duality checks end in ExtensionDisabled at every random point.
        "prob-screen": Workload(
            "prob-screen", pick(lambda c: not c.startswith("duality.")),
            ("--mode", "prob"), 2,
            (("polyrep_vs_oracle", {"n_max": 8, "symbolic": False, "points": 3}),),
        ),
    }


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


# The package is only ever imported in child processes: a child's peak RSS
# as wait4 reports it includes what the parent held when it was spawned.
def _python(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True
    )
    if proc.returncode:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _check_ids() -> list[str]:
    catalog = _python(["-m", "rank1daha.cli", "catalog"])
    return [line for line in catalog.splitlines() if line and not line[0].isspace()]


def _independent_checks(wl: Workload, seed: int) -> list[str]:
    calls = [[name, dict(kwargs, seed=seed)] for name, kwargs in wl.verify]
    try:
        out = _python([str(HERE / "checks.py"), json.dumps(calls)])
    except RuntimeError as exc:
        return [str(exc)]
    return json.loads(out)


def _verify_argv(wl: Workload, report: Path) -> list[str]:
    return [
        "verify", "run", *wl.options,
        "--checks", ",".join(wl.checks),
        "--seed", str(VERIFY_SEED),
        "--trials", str(wl.trials),
        "--format", "json", "--out", str(report),
    ]


def _run_round(wl: Workload, work: Path, traced: bool, index: int, spec: Spec) -> Round:
    rnd = Round(traced)
    report = work / f"report-{index}.json"
    meta = work / f"meta-{index}.json"
    errors = work / f"stderr-{index}.txt"
    trace = work / f"trace-{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--meta", str(meta)]
    if traced:
        cmd += ["--trace-out", str(trace)]
    cmd += _verify_argv(wl, report)
    with open(errors, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rnd.wall_s = t1 - t0
    rnd.cpu_s = usage.ru_utime + usage.ru_stime
    rnd.peak_rss_mb = usage.ru_maxrss / 1024
    rnd.attempted = len(wl.checks) * wl.trials
    try:
        info = json.loads(meta.read_text())
        rows = json.loads(report.read_text())["results"]
    except (OSError, ValueError, KeyError):
        rnd.failed = rnd.attempted
        tail = errors.read_text(errors="replace")[-2000:]
        rnd.problems.append(f"round exited {proc.returncode} without a report: {tail}")
        return rnd
    rnd.setup_s = info["first_check"] - t0
    if [row["id"] for row in rows] != list(wl.checks):
        rnd.problems.append("report rows differ from the checks asked for")
    for row in rows:
        if row["verdict"] != "pass":
            rnd.failed += wl.trials
            print(f"  failed: {row['id']}: {row['verdict']}: {row['residual_summary']}", file=sys.stderr)
        elif row["trials"] != wl.trials:
            rnd.problems.append(f"{row['id']} ran {row['trials']} trials, not {wl.trials}")
    if proc.returncode != (1 if rnd.failed else 0):
        rnd.problems.append(f"exit code {proc.returncode} with {rnd.failed} failed operations")
    if traced:
        import tracer

        rnd.layers = tracer.summarize(json.loads(trace.read_text()), spec.traced_checks)
        shutil.copyfile(trace, OUT / f"{wl.name}.trace.json")
    return rnd


def _setup_samples(wl: Workload, work: Path, count: int) -> list[float]:
    """Set-up times of ``count`` processes stopped where the first check
    would start.  A process that fails gives no sample; the rounds then
    report the failure."""
    samples = []
    for index in range(count):
        meta = work / f"setup-{index}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--meta", str(meta), "--setup-only"]
        t0 = time.monotonic()
        subprocess.run(cmd + _verify_argv(wl, work / "unused.json"), cwd=ROOT,
                       env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if meta.is_file():
            samples.append(json.loads(meta.read_text())["first_check"] - t0)
    return samples


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool, spec: Spec) -> dict:
    """Timed rounds for about ``seconds``, then the independent checks."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    rounds: list[Round] = []
    try:
        start = time.monotonic()
        setups = [] if trace else _setup_samples(wl, work, SETUP_SAMPLES)
        while True:
            traced = trace and len(rounds) % 2 == 1
            rnd = _run_round(wl, work, traced, len(rounds), spec)
            rounds.append(rnd)
            if rnd.problems:
                break
            # a round of the next kind is expected to last as long as the last one
            same_kind = [r.wall_s for r in rounds if r.traced == (trace and not traced)]
            expected = same_kind[-1] if same_kind else rnd.wall_s
            enough = not trace or len(rounds) >= 2
            if enough and time.monotonic() - start + expected > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for r in rounds for p in r.problems] or _independent_checks(wl, seed)
    plain = [r for r in rounds if not r.traced]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        traced = [r for r in rounds if r.traced]
        for name, unit in spec.per_layer.items():
            if name == "trace.overhead_s":
                value = min(r.wall_s for r in traced) - min(r.wall_s for r in plain)
            else:
                value = statistics.median(r.layers.get(name, 0) for r in traced)
            metrics[name] = (value, unit)
    else:
        # Every round does the same work.  Within a few minutes the host's
        # speed holds, and the median round repeats best; see README.md.
        samples = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "setup_s": statistics.median(setups + [r.setup_s for r in plain]),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        }
        for name, unit in spec.end_to_end.items():
            metrics[name] = (samples[name], unit)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(plain),
        "traced_rounds": len(rounds) - len(plain),
        "problems": problems,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one round of each kind")
    args = parser.parse_args(argv)

    if not (SRC / "rank1daha" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("error: run from a checkout holding src/rank1daha and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = Spec.load()
    workloads = _workloads(args.smoke, _check_ids())
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(name not in workloads for name in names):
        known = ", ".join(["all", *workloads])
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2

    seconds = 0 if args.smoke else args.seconds
    results = {}
    for name in names:
        result = results[name] = run_workload(
            workloads[name], args.seed, seconds, bool(args.trace), spec
        )
        rounds = f"{result['rounds']} untraced and {result['traced_rounds']} traced rounds"
        print(f"{name}: {result['attempted']} operations attempted, {result['failed']} failed, "
              f"correct {str(result['correct']).lower()} ({rounds})")
        for problem in result["problems"]:
            print(f"  problem: {problem}", file=sys.stderr)
        for metric, (value, unit) in result["metrics"].items():
            print(f"  {metric} = {value:.6g} {unit}")

    prefix = len(names) > 1
    metrics = {
        (f"{name}/" if prefix else "") + metric: {"value": value, "unit": unit}
        for name, result in results.items()
        for metric, (value, unit) in result["metrics"].items()
    }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
