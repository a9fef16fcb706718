"""Run configuration, reports, and the text the command line reads.

A :class:`RunConfig` is one run's selection, mode, seed and sizes; a
:class:`Report` holds one :class:`CheckResult` per selected check and
serializes deterministically, as JSON or as a text table, elapsed times
aside.  The command line's options and config files are read here, every
value validated, and so are exact parameter assignments such as
"q=3/2,a=2,b=3,c=5,d=7".
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import ConfigError, DegenerateParameters
from .laurent import PARAM_NAMES
from .params import Params, make_params

__all__ = [
    "CheckResult",
    "Report",
    "RunConfig",
    "load_report",
    "render_report",
    "render_text",
    "parse_config_file",
    "parse_param_assignments",
    "config_from_options",
]


class CheckResult(NamedTuple):
    id: str
    verdict: str  # "pass" | "fail" | "skip" | "error"
    residual_summary: str
    trials: int
    elapsed_ms: int

    def to_dict(self) -> dict:
        return self._asdict()


class Report(NamedTuple):
    tool_version: str
    params_echo: str
    seed: int
    results: list[CheckResult]
    overall: str  # "pass" | "fail"; "pass" when every result is pass or skip

    def to_dict(self) -> dict:
        return {**self._asdict(), "results": [r.to_dict() for r in self.results]}


# the integer options of a run, each with its least value (None: any integer);
# a key spelled with "_" is the RunConfig field and the argparse dest
_INT_OPTIONS = {"seed": None, "trials": 1, "max-mn": 1, "max-degree": 0, "max-n": 0}


class RunConfig(NamedTuple):
    checks: Sequence[str] | None = None  # None or empty = all
    mode: str | None = None  # None: exact if params is set, else per-check default
    seed: int = 1729
    trials: int = 8
    max_mn: int = 3
    max_degree: int = 16  # 4 x the longest quotient-relation word: decides every degree
    max_n: int = 8
    params: Params | None = None  # None = symbolic


# ---------------------------------------------------------------------------
# Reports


def render_report(report: Report, format: str = "json") -> str:
    """The report as deterministic JSON or as the text table."""
    if format == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if format == "text":
        return render_text(report)
    raise ConfigError(f"unknown report format {format!r}")


def render_text(report: Report) -> str:
    lines = [
        f"tool_version {report.tool_version}",
        f"params {report.params_echo}",
        f"seed {report.seed}",
    ]
    for r in report.results:
        line = f"{r.id:24s} {r.verdict:5s} {r.elapsed_ms} ms"
        if r.residual_summary:
            line += f"  {r.residual_summary}"
        lines.append(line)
    lines.append(f"overall {report.overall}")
    return "\n".join(lines) + "\n"


def load_report(path: str) -> Report:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    results = [CheckResult(*(r[f] for f in CheckResult._fields)) for r in data["results"]]
    return Report(*(results if f == "results" else data[f] for f in Report._fields))


# ---------------------------------------------------------------------------
# Configuration parsing


_CONFIG_KEYS = {"checks", "mode", *_INT_OPTIONS, "params", "symbolic", "out", "format"}


def parse_param_assignments(text: str) -> dict[str, Fraction]:
    """Parse "q=3/2,a=2,..." into exact rational assignments."""
    out: dict[str, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"bad parameter assignment {piece!r}; use name=value")
        name, _, value = piece.partition("=")
        name = name.strip()
        if name not in PARAM_NAMES:
            raise ConfigError(f"unknown parameter {name!r}")
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational value for {name}: {value!r}") from exc
    missing = [n for n in PARAM_NAMES if n not in out]
    if missing:
        raise ConfigError(f"missing parameter assignments: {', '.join(missing)}")
    return out


def parse_config_file(path: str) -> dict[str, str]:
    """Read a line-based key = value configuration file."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            # split at the first '=': parameter assignments contain '='
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key not in _CONFIG_KEYS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r}; "
                    f"known: {', '.join(sorted(_CONFIG_KEYS))}"
                )
            out[key] = value.strip()
    return out


def config_from_options(options: Mapping[str, str]) -> RunConfig:
    """Build a RunConfig from string options (config file or CLI merge),
    validating every value."""
    fields: dict = {}
    if "checks" in options and options["checks"]:
        value = options["checks"].strip()
        fields["checks"] = (
            None if value == "all" else [c.strip() for c in value.split(",") if c.strip()]
        )
    if "mode" in options and options["mode"]:
        mode = options["mode"].strip()
        if mode not in ("exact", "prob"):
            raise ConfigError(f"mode must be exact or prob, got {mode!r}")
        fields["mode"] = mode
    for key in _INT_OPTIONS:
        if key in options and options[key]:
            try:
                fields[key.replace("-", "_")] = int(options[key])
            except ValueError as exc:
                raise ConfigError(f"{key} must be an integer") from exc
    symbolic = options.get("symbolic", "").strip().lower() in ("1", "true", "yes")
    if "params" in options and options["params"] and not symbolic:
        assignments = parse_param_assignments(options["params"])
        try:
            fields["params"] = make_params("specialized", assignments)
        except (DegenerateParameters, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    return RunConfig(**fields)
