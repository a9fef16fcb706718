"""Runs of the check catalog.

:func:`run_checks` drives a selected subset of the catalog
(:mod:`rank1daha.checks`) in either exact mode (one run, usually symbolic)
or probabilistic mode (several runs at seeded random points of GF(p),
p = 2^61 - 1, that satisfy the genericity conditions mod p; trial k of
every check runs at one point, drawn from the seed and k; exact rows run
first, then trial k of every probabilistic row before trial k+1 of any,
so a run holds one trial's rewrite systems at a time).  Each run is exact
in its field; a false pass in probabilistic mode needs the residual
to vanish at a random point of GF(p), which happens with probability at
most deg/p per trial, deg being the total degree of the residual's
numerator.  Reports serialize deterministically for a fixed seed, elapsed
times aside (:mod:`rank1daha.reports`).
"""

from __future__ import annotations

import random
import time
from typing import Sequence

from . import ncalg
from .checks import CHECK_CATALOG, CheckSpec
from .errors import ConfigError, ExtensionDisabled
from .modp import random_params_mod_p
from .params import Params, make_params
from .reports import _INT_OPTIONS, CheckResult, Report, RunConfig, render_report

__all__ = ["TOOL_VERSION", "check_ids", "run_checks", "emit_report"]

TOOL_VERSION = "0.1.0"

_CATALOG_BY_ID = {spec.id: spec for spec in CHECK_CATALOG}


def check_ids() -> list[str]:
    return [spec.id for spec in CHECK_CATALOG]


# ---------------------------------------------------------------------------
# Runner


def _trial_point(seed: int, k: int) -> Params:
    """The point of GF(p) of trial k under ``seed``.  Every check runs its
    trial k there, so the checks of one trial share one rewrite system and
    its memoized products."""
    return random_params_mod_p(random.Random(f"{seed}:trial:{k}"))


def _run_one(spec: CheckSpec, config: RunConfig) -> tuple[CheckResult, float]:
    """One run of a check at the given point, else at the symbolic one: an
    exact-mode row, or one trial of a prob-mode row; with its time in seconds."""
    bounds = {"max_degree": config.max_degree, "max_n": config.max_n}
    # the rank certificates' witness draws at a symbolic point read this;
    # the random points of prob mode come from _trial_point
    rng = random.Random(f"{config.seed}:{spec.id}")
    start = time.monotonic()
    verdict = "pass"
    try:
        summary = spec.runner(config.params or make_params("symbolic"), bounds, rng)
        if summary:
            verdict = "fail"
    except Exception as exc:
        # whatever a check raises is its verdict; the run goes on to report.
        # A point the check cannot use at all (no dual family) is a skip
        verdict = "skip" if isinstance(exc, ExtensionDisabled) else "error"
        summary = f"{type(exc).__name__}: {exc}"
    seconds = time.monotonic() - start
    return CheckResult(spec.id, verdict, summary, 1, int(seconds * 1000)), seconds


def _run_trials(specs: Sequence[CheckSpec], config: RunConfig) -> list[CheckResult]:
    """The prob-mode rows, trial-major: trial k of every row still passing runs
    at one point before trial k+1 of any row starts, and a row stops at its
    first failure, which names the point.  A row's time is the sum of its
    trials' times, truncated to whole ms once.  A trial's points are never met
    again once it ends, and the exact rows ran before, so the rewrite-system
    cache is emptied as each later trial starts: the run holds one trial's
    systems (its point's and its dual point's) at a time."""
    results = {spec.id: CheckResult(spec.id, "pass", "", 0, 0) for spec in specs}
    seconds = dict.fromkeys(results, 0.0)
    live = list(specs)
    for k in range(config.trials):
        if not live:
            break
        if k:
            ncalg._SYSTEMS.clear()
        point = _trial_point(config.seed, k)
        trial = config._replace(params=point)
        for spec in live:
            r, spent = _run_one(spec, trial)
            seconds[spec.id] += spent
            where = f"at {point.label}: " if r.verdict != "pass" else ""
            results[spec.id] = r._replace(
                residual_summary=where + r.residual_summary, trials=k + 1
            )
        live = [spec for spec in live if results[spec.id].verdict == "pass"]
    return [r._replace(elapsed_ms=int(seconds[r.id] * 1000)) for r in results.values()]


def run_checks(config: RunConfig) -> Report:
    """Run the selected checks and aggregate a report: the exact-mode rows
    first, then the prob-mode rows trial by trial, reported in catalog order."""
    if config.mode not in (None, "exact", "prob"):
        raise ConfigError(f"unknown mode {config.mode!r}")
    for key, least in _INT_OPTIONS.items():
        # an empty size would pass checks checking nothing
        if least is not None and getattr(config, key.replace("-", "_")) < least:
            rule = "positive" if key == "trials" else f"at least {least}"
            raise ConfigError(f"{key} must be {rule}")
    if config.mode == "prob" and config.params is not None:
        raise ConfigError("prob mode draws its own random points; it takes no params")
    selected = list(config.checks or [])
    if not selected or selected == ["all"]:
        specs = CHECK_CATALOG
    else:
        unknown = [cid for cid in selected if cid not in _CATALOG_BY_ID]
        if unknown:
            raise ConfigError(
                f"unknown check ids: {', '.join(unknown)}; "
                f"known ids: {', '.join(check_ids())}"
            )
        wanted = set(selected)
        specs = [spec for spec in CHECK_CATALOG if spec.id in wanted]
    # a user-given point makes every check exact
    modes = [config.mode or ("exact" if config.params else spec.default_mode) for spec in specs]
    results = {s.id: _run_one(s, config)[0] for s, mode in zip(specs, modes) if mode == "exact"}
    prob = _run_trials([s for s, mode in zip(specs, modes) if mode == "prob"], config)
    results.update((r.id, r) for r in prob)
    rows = [results[spec.id] for spec in specs]
    overall = "pass" if all(r.verdict in ("pass", "skip") for r in rows) else "fail"
    params_echo = config.params.label if config.params else "symbolic"
    return Report(TOOL_VERSION, params_echo, config.seed, rows, overall)


def emit_report(report: Report, path: str, format: str = "json") -> None:
    text = render_report(report, format)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
