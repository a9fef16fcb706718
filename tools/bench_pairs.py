"""Alternated parent/change pairs of the benchmark, written as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --label NAME --what TEXT [--seeds 13]

Run it from the root of a checkout.  The parent side runs from the
tracked files of REV, exported with ``git archive`` into a temporary
directory; the change side runs from the working tree.  For each seed,
each of 10 pairs runs ``perfbench/run.py --workload all --seed SEED
--trace 0`` once from each side, at the benchmark's own run length, the
parent first in odd pairs, with ``PYTHONDONTWRITEBYTECODE=1`` so that
every run compiles the package from source.  A run's line is the last line of its standard output.  The
summary gives, per metric, each side's median and quartiles
(``statistics.quantiles``, exclusive method) and the number of pairs in
which the change read lower.

The ``in_process`` block measures a whole default-size prob run,
``verify run --mode prob --trials 8 --seed 1729``: the ``RewriteSystem``
constructions of one in-process run per side (a count, which repeats
exactly), and the peak RSS of 10 alternated pairs of fresh processes: each
process reports its own ``VmHWM`` from ``/proc/self/status`` as it exits,
since the ``ru_maxrss`` that ``wait4`` gives for a child also carries the
high-water mark of the process that started it.

The file goes to ``BENCH_<label>.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import PackageNotFoundError, version
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ["perfbench/run.py", "--workload", "all", "--trace", "0"]
PROB_RUN = ["verify", "run", "--mode", "prob", "--trials", "8", "--seed", "1729"]
PAIRS = 10  # alternated pairs per seed and per in-process measure

# counts RewriteSystem constructions over one prob run, in the process
_COUNT_SYSTEMS = """
import json
from rank1daha import ncalg, verify
built, init = [], ncalg.RewriteSystem.__init__
def counted(self, params):
    built.append(params)
    init(self, params)
ncalg.RewriteSystem.__init__ = counted
report = verify.run_checks(verify.RunConfig(mode="prob", trials=8, seed=1729))
print(json.dumps({"built": len(built), "points": len(set(built)), "overall": report.overall}))
"""

# runs one command line of the CLI, then writes the process's own peak RSS
# (VmHWM, in kB) as the last line of its standard error
_PEAK_RSS = """
import sys
from rank1daha import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def _env(side: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(side / "src"), PYTHONHASHSEED="0",
                PYTHONDONTWRITEBYTECODE="1")


def _export(rev: str, dest: Path) -> str:
    """Write the tracked files of ``rev`` into ``dest``; return its full hash."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _bench_line(side: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, *BENCH, "--seed", str(seed)],
                          cwd=side, env=_env(side), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"benchmark in {side} printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _peak_rss_mb(side: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *PROB_RUN], cwd=side, env=_env(side),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(PROB_RUN)} failed in {side}: {proc.stderr[-2000:]}")
    return int(proc.stderr.splitlines()[-1]) / 1024


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _pairs(sides: dict[str, Path], measure) -> list[tuple[str, int, object]]:
    """``measure(side)`` for ``PAIRS`` pairs, the parent first in odd pairs:
    (side name, pair, value) in the order run."""
    out = []
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for name in order:
            out.append((name, pair, measure(sides[name])))
            print(f"pair {pair} {name} done", file=sys.stderr)
    return out


def _summary(runs: list[dict]) -> dict:
    by_pair: dict[tuple, dict] = {}
    for run in runs:
        by_pair.setdefault((run["seed"], run["pair"]), {})[run["side"]] = run["line"]["metrics"]
    summary = {}
    for metric, first in runs[0]["line"]["metrics"].items():
        sides = {name: [pair[name][metric]["value"] for pair in by_pair.values()]
                 for name in ("parent", "change")}
        lower = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        summary[metric] = {"unit": first["unit"], **{n: _spread(v) for n, v in sides.items()},
                           "change_lower_in_pairs": lower}
    return summary


def _in_process(sides: dict[str, Path]) -> dict:
    systems = {}
    for name, side in sides.items():
        proc = subprocess.run([sys.executable, "-c", _COUNT_SYSTEMS], cwd=side, env=_env(side),
                              check=True, capture_output=True, text=True)
        systems[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    rss = {"parent": [], "change": []}
    for name, _, value in _pairs(sides, _peak_rss_mb):
        rss[name].append(round(value, 4))
    lower = sum(c < p for p, c in zip(rss["parent"], rss["change"]))
    return {
        "what": f"a whole default-size prob run, rank1daha {' '.join(PROB_RUN)}",
        "systems_built": {
            "what": "RewriteSystem constructions (and distinct points among them) over one "
                    "in-process run_checks, counted by wrapping RewriteSystem.__init__",
            **systems,
        },
        "peak_rss_mb": {
            "what": f"VmHWM of a fresh process per side and pair, read by the process itself "
                    f"as it exits, {PAIRS} alternated pairs, parent first in odd pairs",
            **rss,
            "summary": {n: _spread(v) for n, v in rss.items()},
            "change_lower_in_pairs": lower,
        },
    }


def _host() -> str:
    try:
        sympy = f"sympy {version('sympy')}"
    except PackageNotFoundError:
        sympy = "no sympy"
    gmpy2 = "gmpy2" if find_spec("gmpy2") else "no gmpy2"
    return f"{os.cpu_count()} CPUs, Python {platform.python_version()}, {sympy}, {gmpy2}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="what the change does, for the file")
    parser.add_argument("--seeds", type=int, nargs="+", default=[13])
    args = parser.parse_args(argv)

    parent_dir = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        commit = _export(args.parent, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        runs = []
        for seed in args.seeds:
            for name, pair, line in _pairs(sides, lambda side: _bench_line(side, seed)):
                order = int(pair % 2 == (name == "change"))
                runs.append({"seed": seed, "pair": pair, "side": name, "order": order, "line": line})
        in_process = _in_process(sides)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    failed = {name: sum(r["line"]["failed"] for r in runs if r["side"] == name)
              for name in ("parent", "change")}
    bench = {
        "label": args.label,
        "what": args.what,
        "command": " ".join(["python3", *BENCH[:-2], "--seed SEED", *BENCH[-2:]]),
        "protocol": f"{PAIRS} pairs per seed, parent and change alternated (parent first in "
                    "odd pairs); the parent runs from its tracked files exported by git archive, "
                    "the change from the working tree, both with no compiled bytecode "
                    "(PYTHONDONTWRITEBYTECODE=1); each run's line is the last line of its "
                    "standard output",
        "parent": commit,
        "host": _host(),
        "seeds": args.seeds,
        "pairs": PAIRS,
        "summary": _summary(runs),
        "all_correct": all(r["line"]["correct"] for r in runs),
        "failed_operations": failed,
        "in_process": in_process,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
