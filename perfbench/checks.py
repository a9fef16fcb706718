"""Correctness checks made apart from the program's own verdicts.

Each check returns a list of problems (empty when the output is correct)
and runs a negative control beside it: a deliberately wrong comparison
that the check must reject.  A control that passes is itself a problem,
since it shows the check could not have failed.

- :func:`polyrep_vs_oracle` compares the kernel's ``askey_wilson``,
  ``eigenvalue`` and ``apply_dsym`` with the Fraction-only oracle, whose
  two formulas for P_n are checked against each other on the way.
- :func:`algebra_properties` checks that ``multiply`` is associative and
  agrees with rewriting the concatenated word, and that ``reduce``
  commutes with specialization of the parameters.

    python3 perfbench/checks.py '[["NAME", {"seed": 1, ...}], ...]'

runs each named check with its keyword arguments and prints all their
problems as one JSON list (with ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import oracle

from rank1daha import ncalg, polyrep
from rank1daha.errors import DegenerateParameters
from rank1daha.ncalg import Element, NormalForm
from rank1daha.params import RatFunc, eigenvalue, make_params


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 40), rng.randint(1, 40))


def _admissible(point: dict[str, Fraction], n_max: int) -> bool:
    """Accepted by the kernel and free of zero denominators in both of the
    oracle's formulas up to degree n_max.  The 4phi3 sum divides by
    (ab; q)_k, (ac; q)_k and (ad; q)_k, which can vanish where the
    recurrence does not (seed 26 of prob-screen drew such a point)."""
    try:
        make_params("specialized", point)
        oracle.p_values(n_max, point, Fraction(2))
        for n in range(n_max + 1):
            oracle.p_4phi3(n, point, Fraction(2))
    except (DegenerateParameters, ZeroDivisionError):
        return False
    return True


def random_point(rng: random.Random, n_max: int) -> dict[str, Fraction]:
    while True:
        point = {name: _fraction(rng) for name in "qabcd"}
        if _admissible(point, n_max):
            return point


def perturbed(point: dict[str, Fraction], n_max: int) -> dict[str, Fraction]:
    """The same point with a moved up by 1, 2, ... until admissible."""
    step = 1
    while True:
        moved = dict(point, a=point["a"] + step)
        if _admissible(moved, n_max):
            return moved
        step += 1


def random_z(rng: random.Random, q: Fraction) -> Fraction:
    while True:
        z = _fraction(rng)
        if z * z not in (1, q, 1 / q):
            return z


def _value(coef: RatFunc, point) -> Fraction:
    rational, s_part = coef.evaluate(point)
    if s_part:
        raise AssertionError("coefficient carries the square root s")
    return rational


def _at_z(poly: polyrep.LaurentPoly, point, z: Fraction) -> Fraction:
    return sum((_value(c, point) * z**k for k, c in poly.coeffs.items()), Fraction(0))


def polyrep_vs_oracle(
    seed: int, n_max: int, symbolic: bool, points: int = 2
) -> list[str]:
    """P_n, lambda_n and D P_n for n <= n_max against the oracle, at
    seeded rational points.  With ``symbolic`` the kernel works over formal
    parameters and its results are specialized afterwards; otherwise it
    works at each point directly.  D P_n is always applied at the point."""
    rng = random.Random(f"polyrep:{seed}")
    problems = []
    sym = make_params("symbolic") if symbolic else None
    sym_polys = [polyrep.askey_wilson(n, sym) for n in range(n_max + 1)] if symbolic else None
    for _ in range(points):
        point = random_point(rng, n_max)
        z = random_z(rng, point["q"])
        at_point = make_params("specialized", point)
        moved = perturbed(point, n_max)
        want = oracle.p_values(n_max, point, z)
        want_moved = oracle.p_values(n_max, moved, z)
        control_caught = False
        for n in range(n_max + 1):
            p_n = sym_polys[n] if symbolic else polyrep.askey_wilson(n, at_point)
            got = _at_z(p_n, point, z)
            lam = _value(eigenvalue(n, sym or at_point), point)
            if oracle.p_4phi3(n, point, z) != want[n]:
                problems.append(f"oracle: 4phi3 sum and recurrence disagree on P_{n}")
            if got != want[n]:
                problems.append(f"P_{n} at {point}, z={z}: kernel {got}, oracle {want[n]}")
            if lam != oracle.eigenvalue(n, point):
                problems.append(f"lambda_{n} at {point}: kernel {lam}")
            p_here = polyrep.askey_wilson(n, at_point) if symbolic else p_n
            d_got = _at_z(polyrep.apply_dsym(p_here, at_point), point, z)
            d_want = oracle.dsym_value(
                lambda w, n=n: oracle.p_values(n, point, w)[n], point, z
            )
            if d_got != d_want or d_want != oracle.eigenvalue(n, point) * want[n]:
                problems.append(f"D P_{n} at {point}, z={z}: kernel {d_got}, oracle {d_want}")
            # negative controls: the oracle at a moved parameter must disagree
            if n >= 1:
                control_caught |= (
                    got != want_moved[n]
                    and lam != oracle.eigenvalue(n, moved)
                    and d_got != oracle.eigenvalue(n, moved) * want_moved[n]
                )
        if n_max >= 1 and not control_caught:
            problems.append(f"negative control passed: oracle at {moved} matched the kernel")
    return problems


def _random_word(rng: random.Random, lo: int, hi: int) -> tuple[str, ...]:
    return tuple(rng.choice(ncalg.DAHA_ALPHABET) for _ in range(rng.randint(lo, hi)))


def _specialize(nf: NormalForm, point) -> dict:
    values = {key: _value(c, point) for key, c in nf.terms.items()}
    return {key: v for key, v in values.items() if v}


def _as_fractions(nf: NormalForm) -> dict:
    return {key: c.as_fraction() for key, c in nf.terms.items()}


def algebra_properties(seed: int, words: int = 6, triples: int = 2) -> list[str]:
    """Properties of the rewriting layer over formal parameters, on seeded
    random words: reduce then specialize equals reduce at the point, and
    (UV)W = U(VW) = reduce(uvw) for reduced words U, V, W."""
    rng = random.Random(f"algebra:{seed}")
    sym = make_params("symbolic")
    point = random_point(rng, 0)
    at_point = make_params("specialized", point)
    at_moved = make_params("specialized", perturbed(point, 0))
    problems = []
    # ("Y", "Z") reduces to coefficients in q, a, b, c, d, so the control
    # has something to catch whatever words the seed draws.
    sampled = [("Y", "Z")] + [_random_word(rng, 2, 3) for _ in range(words)]
    control_caught = False
    for word in sampled:
        e = Element("daha", {word: RatFunc.one()})
        here = _specialize(ncalg.reduce(e, sym), point)
        if here != _as_fractions(ncalg.reduce(e, at_point)):
            problems.append(f"reduce({' '.join(word)}) does not commute with specialization")
        control_caught |= here != _as_fractions(ncalg.reduce(e, at_moved))
    if not control_caught:
        problems.append("negative control passed: reduce at a moved point matched")

    one = NormalForm({(0, 0, 0): RatFunc.one()})
    for _ in range(triples):
        u, v, w = (_random_word(rng, 1, 2) for _ in range(3))
        nu, nv, nw = (ncalg.reduce(Element("daha", {x: RatFunc.one()}), sym) for x in (u, v, w))
        left = ncalg.multiply(ncalg.multiply(nu, nv, sym), nw, sym)
        right = ncalg.multiply(nu, ncalg.multiply(nv, nw, sym), sym)
        direct = ncalg.reduce(Element("daha", {u + v + w: RatFunc.one()}), sym)
        label = " | ".join(" ".join(x) for x in (u, v, w))
        if not left == right == direct:
            problems.append(f"multiply is not associative on {label}")
        # negative control: U (V + 1) W = UVW + UW, and UW is a unit
        if ncalg.multiply(nu, ncalg.multiply(nv + one, nw, sym), sym) == left:
            problems.append(f"negative control passed: U(V+1)W = (UV)W on {label}")
    return problems


if __name__ == "__main__":
    check = {"polyrep_vs_oracle": polyrep_vs_oracle, "algebra_properties": algebra_properties}
    print(json.dumps([
        problem for name, kwargs in json.loads(sys.argv[1]) for problem in check[name](**kwargs)
    ]))
