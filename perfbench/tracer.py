"""Spans and counters around the package's layers, installed from outside.

:func:`install` wraps, in place and for the life of the process:

- every public function of ``rank1daha.params``, ``rank1daha.ncalg``,
  ``rank1daha.polyrep`` and ``rank1daha.verify`` (each name in the module's
  ``__all__``), and ``verify._run_one`` once per check, with a span;
- the scalar operations of ``RatFunc`` (add, sub, mul, inv), with a count
  and a time per operand representation: "ground" when both operands are
  rational constants, "sext" when either carries the square root s, and
  "field" otherwise;
- ``RewriteSystem._find_redex`` (a rule application whenever it finds a
  redex) and ``RewriteSystem.basis_product`` (a cache hit whenever the pair
  is already memoized), with counts only: both run far too often for a span
  each.

A span records its name, its parent span, its start and end, and how much
of its interval its children cover (child spans and scalar operations), so
that self time is its duration minus that cover.  Spans stay in memory and
:meth:`Tracer.dump` writes them out as one JSON file; :func:`summarize`
turns that file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

LAYERS = ("params", "ncalg", "polyrep", "verify")
_OP_KINDS = ("ground", "field", "sext")


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.covered: list[float] = []
        self._stack: list[int] = []
        self.op_count = dict.fromkeys(_OP_KINDS, 0)
        self.op_time = dict.fromkeys(_OP_KINDS, 0.0)
        self.counts = {"rewrite_steps": 0, "basis_product_calls": 0, "basis_product_hits": 0}
        self.alive: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.covered.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t = perf_counter()
                self.end[idx] = t
                stack.pop()
                if stack:
                    self.covered[stack[-1]] += t - self.start[idx]

        return traced

    def _op(self, dt: float, kind: str) -> None:
        self.op_count[kind] += 1
        self.op_time[kind] += dt
        if self._stack:
            self.covered[self._stack[-1]] += dt

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "span_name": self.span_name,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "covered": self.covered,
                    "op_count": self.op_count,
                    "op_time": self.op_time,
                    "counts": self.counts,
                    "alive": self.alive,
                },
                fh,
            )


def _kind(x, y) -> str:
    """Operand representation of one scalar operation (y may be an int,
    a Fraction or None for a unary operation)."""
    if x.g is not None and (y is None or getattr(y, "g", 0) is not None):
        return "ground"
    for v in (x, y):
        if getattr(v, "g", 0) is None and v.r1:
            return "sext"
    return "field"


def _replace(modules, old, new) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def install(tracer: Tracer) -> None:
    import rank1daha
    from rank1daha import cli, ncalg, params, polyrep, verify

    modules = (rank1daha, params, ncalg, polyrep, verify, cli)
    for layer in LAYERS:
        module = getattr(rank1daha, layer)
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                _replace(modules, fn, tracer.wrap(f"{layer}.{name}", fn))

    run_one = verify._run_one
    per_check = {}

    def traced_run_one(spec, config):
        wrapped = per_check.get(spec.id)
        if wrapped is None:
            wrapped = per_check[spec.id] = tracer.wrap(f"verify.check.{spec.id}", run_one)
        return wrapped(spec, config)

    verify._run_one = traced_run_one

    RatFunc = params.RatFunc
    op = tracer._op
    for attr in ("__add__", "__sub__", "__mul__"):
        orig = getattr(RatFunc, attr)

        def binary(self, other, _orig=orig):
            t0 = perf_counter()
            out = _orig(self, other)
            dt = perf_counter() - t0
            if out is not NotImplemented:
                op(dt, _kind(self, other))
            return out

        setattr(RatFunc, attr, binary)
    RatFunc.__radd__ = RatFunc.__add__
    RatFunc.__rmul__ = RatFunc.__mul__
    inv = RatFunc.inv

    def traced_inv(self):
        t0 = perf_counter()
        out = inv(self)
        op(perf_counter() - t0, _kind(self, None))
        return out

    RatFunc.inv = traced_inv

    system = ncalg.RewriteSystem
    find_redex = system._find_redex
    basis_product = system.basis_product
    counts = tracer.counts

    def counted_find_redex(self, word, strategy):
        pos = find_redex(self, word, strategy)
        if pos is not None:
            counts["rewrite_steps"] += 1
        return pos

    def counted_basis_product(self, key1, key2, budget=ncalg.DEFAULT_BUDGET):
        counts["basis_product_calls"] += 1
        if (key1, key2) in self._product_cache:
            counts["basis_product_hits"] += 1
        return basis_product(self, key1, key2, budget)

    system._find_redex = counted_find_redex
    system.basis_product = counted_basis_product


def record_alive(tracer: Tracer) -> None:
    """Note the rewrite systems and memoized products still alive."""
    from rank1daha import ncalg

    systems = list(ncalg._SYSTEMS.values())
    tracer.alive = {
        "systems": len(systems),
        "cached_products": sum(len(s._product_cache) for s in systems),
    }


def summarize(trace: dict, check_ids) -> dict[str, float]:
    """Per-layer metrics from one dumped trace."""
    names = trace["names"]
    span_name, parent = trace["span_name"], trace["parent"]
    start, end, covered = trace["start"], trace["end"], trace["covered"]
    calls = [0] * len(names)
    outer_s = [0.0] * len(names)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for idx, nid in enumerate(span_name):
        duration = end[idx] - start[idx]
        calls[nid] += 1
        self_s[names[nid].split(".", 1)[0]] += duration - covered[idx]
        up = parent[idx]
        while up >= 0 and span_name[up] != nid:
            up = parent[up]
        if up < 0:  # outermost span of this name: inclusive time counts once
            outer_s[nid] += duration
    by_name = {name: (calls[i], outer_s[i]) for i, name in enumerate(names)}

    def span_calls(name):
        return by_name.get(name, (0, 0.0))[0]

    def span_s(name):
        return by_name.get(name, (0, 0.0))[1]

    counts = trace["counts"]
    bp_calls = counts["basis_product_calls"]
    out = {
        "params.ops_ground": trace["op_count"]["ground"],
        "params.ops_field": trace["op_count"]["field"],
        "params.ops_sext": trace["op_count"]["sext"],
        "params.ground_s": trace["op_time"]["ground"],
        "params.field_s": trace["op_time"]["field"],
        "params.sext_s": trace["op_time"]["sext"],
        "params.self_s": self_s["params"],
        "ncalg.reduce_calls": span_calls("ncalg.reduce"),
        "ncalg.reduce_s": span_s("ncalg.reduce"),
        "ncalg.rewrite_steps": counts["rewrite_steps"],
        "ncalg.multiply_calls": span_calls("ncalg.multiply"),
        "ncalg.multiply_s": span_s("ncalg.multiply"),
        "ncalg.basis_product_calls": bp_calls,
        "ncalg.basis_product_hit_ratio": counts["basis_product_hits"] / bp_calls if bp_calls else 0.0,
        "ncalg.systems_built": trace["alive"]["systems"],
        "ncalg.cached_products": trace["alive"]["cached_products"],
        "ncalg.self_s": self_s["ncalg"],
        "polyrep.askey_wilson_s": span_s("polyrep.askey_wilson"),
        "polyrep.apply_dsym_calls": span_calls("polyrep.apply_dsym"),
        "polyrep.apply_dsym_s": span_s("polyrep.apply_dsym"),
        "polyrep.apply_k1_s": span_s("polyrep.apply_k1"),
        "polyrep.casimir_apply_s": span_s("polyrep.casimir_apply"),
        "polyrep.self_s": self_s["polyrep"],
        "verify.report_s": span_s("verify.emit_report"),
        "verify.self_s": self_s["verify"],
        "trace.spans": len(span_name),
    }
    for cid in check_ids:
        out[f"verify.check_s.{cid}"] = span_s(f"verify.check.{cid}")
    return out
