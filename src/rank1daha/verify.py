"""Named identity checks, configuration, reports, and expression parsing.

Every mechanically verifiable identity of the kernel is registered here
under a stable id.  A check receives a parameter set and reports pass or
fail with the first offending residual; :func:`run_checks` drives a
selected subset in either exact mode (one run, usually symbolic) or
probabilistic mode (several runs at seeded random points of GF(p),
p = 2^61 - 1, that satisfy the genericity conditions mod p; trial k of
every check runs at one point, drawn from the seed and k; exact rows run
first, then trial k of every probabilistic row before trial k+1 of any,
so a run holds one trial's rewrite systems at a time).  Each run is exact
in its field; a false pass in probabilistic mode needs the residual
to vanish at a random point of GF(p), which happens with probability at
most deg/p per trial, deg being the total degree of the residual's
numerator.  No check samples random words: every verdict is a statement
checked at its point, and the random generator a check receives only draws
the witness points of the rank certificates.  Reports serialize
deterministically for a fixed seed, elapsed times aside.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

from . import ncalg, polyrep
from .errors import ConfigError, DegenerateParameters, ExtensionDisabled, ParseError
from .ncalg import Element, NormalForm
from .params import (
    PARAM_NAMES,
    Params,
    RatFunc,
    eigenvalue,
    make_params,
    random_params_mod_p,
    structure_constants,
)

__all__ = [
    "TOOL_VERSION",
    "CheckSpec",
    "CheckResult",
    "Report",
    "RunConfig",
    "CHECK_CATALOG",
    "check_ids",
    "run_checks",
    "parse_expression",
    "emit_report",
    "load_report",
    "render_report",
    "render_text",
    "parse_config_file",
    "parse_param_assignments",
]

TOOL_VERSION = "0.1.0"

_ONE = RatFunc.one()


class CheckSpec(NamedTuple):
    """One catalog entry: a stable id, its statement, and its default mode
    when the run neither forces a mode nor gives a parameter point."""

    id: str
    statement: str
    default_mode: str  # "exact" | "prob"
    runner: Callable  # (params, bounds, rng) -> str ("" = pass, else summary)


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
# Check implementations.  Each returns "" on success or a short summary of
# the first failure.  They raise only for genuinely broken configuration;
# mathematical failure is reported, not raised.


def _fmt_nf(nf: NormalForm, limit: int = 4) -> str:
    lines = str(nf).splitlines()
    shown = "; ".join(lines[:limit])
    if len(lines) > limit:
        shown += f"; ... ({len(lines)} terms)"
    return shown


def _fmt_short(value) -> str:
    text = str(value)
    return text if len(text) <= 200 else text[:200] + " ..."


def _check_relations_daha(params, bounds, rng) -> str:
    # termination and the left sides first: they are cheap, and the overlaps
    # of a table that does not terminate can rewrite until the budget runs out.
    # The overlaps are reduced through the product kernel; each of its steps
    # applies one rule in context, so a zero there is a reduction to zero, and
    # the diamond lemma asks for no particular strategy
    system = ncalg.rewrite_system(params)
    for lhs, word in system.termination_failures():
        return f"rule {'*'.join(lhs)}: right-side word {' '.join(word)} is not below its left side"
    for pair in system.left_side_failures():
        return f"letter pair {'*'.join(pair)}: having a rule disagrees with being a basis word"
    for xyz, nf in system.critical_pairs():
        if not nf.is_zero():
            return f"overlap {'*'.join(xyz)} does not resolve: {_fmt_nf(nf)}"
    # controls: raising a coefficient of the T1*Z rule leaves an overlap
    # unresolved; appending Z^-1 Y to it breaks the order whatever the coefficients
    perturbed = ncalg.RewriteSystem(params)
    first, (word, coef), *rest = perturbed.rules[("T1", "Z")]
    perturbed.rules[("T1", "Z")] = (first, (word, coef + _ONE), *rest)
    if all(nf.is_zero() for _, nf in perturbed.critical_pairs()):
        return "perturbed T1*Z rule still resolves every overlap"
    perturbed.rules[("T1", "Z")] += ((("Zi", "Y"), _ONE),)
    if not perturbed.termination_failures():
        return "T1*Z rule with Z^-1 Y appended still lies in the order"
    return ""


def _embed_check(name: str):
    def run(params, bounds, rng) -> str:
        nf = ncalg.embed_aw(ncalg.aw_relations(params)[name], params)
        return "" if nf.is_zero() else _fmt_nf(nf)

    return run


def _check_t1central(params, bounds, rng) -> str:
    rels = ncalg.aw_relations(params)
    for name in ("central0", "central1"):
        nf = ncalg.embed_aw(rels[name], params)
        if not nf.is_zero():
            return f"{name}: {_fmt_nf(nf)}"
    return ""


def _check_idempotents(params, bounds, rng) -> str:
    # in cleared form: e^-1 F is idempotent exactly when F^2 = eF, and the
    # two idempotents sum to 1 exactly when F_sym - F_asym = 1-ab
    f_sym, e_sym = ncalg.symmetrizer("sym", params)
    f_asym, e_asym = ncalg.symmetrizer("asym", params)
    cases = {
        "sym F^2 = eF": ncalg.reduce(f_sym * f_sym - f_sym.scale(e_sym), params),
        "asym F^2 = eF": ncalg.reduce(f_asym * f_asym - f_asym.scale(e_asym), params),
        "sum to one": ncalg.reduce(f_sym - f_asym - e_sym, params),
        "orthogonal": ncalg.reduce(f_sym * f_asym, params),
        "T1 quadratic": ncalg.embed_aw(ncalg.aw_relations(params)["quad"], params),
    }
    for name, nf in cases.items():
        if not nf.is_zero():
            return f"{name}: {_fmt_nf(nf)}"
    return ""


def _at_points(points):
    """Run a check at each point of ``points(params, rng)`` until one gives a verdict;
    a failure at a moved point starts with its label.  A check returns None where a
    rank drops, which proves nothing; if every point drops, DegenerateParameters names them."""

    def wrap(check):
        def run(params, bounds, rng) -> str:
            dropped = []
            for point in points(params, rng):
                failure = check(point, bounds, rng)
                if failure is not None:
                    moved = failure and point is not params
                    return f"at {point.label}: {failure}" if moved else failure
                dropped.append(point.label)
            raise DegenerateParameters(f"rank drops at {'; '.join(dropped)}")

        return run

    return wrap


# the duality checks run where abcd/q has a root, which is d there
_at_square_root = _at_points(lambda params, rng: [params.with_square_root()])
# a rank certificate runs at one witness point, where no rank exceeds the generic one:
# the point itself, or for a symbolic one the first of up to three points of GF(p) not dropping
_at_witness = _at_points(
    lambda params, rng: [params] if not params.is_symbolic
    else (random_params_mod_p(rng) for _ in range(3))
)


def _kernel(point, keys, gens) -> tuple[int, list[dict]]:
    # the kernel dimension of x -> ([x, g] for g in gens) on the span of the basis keys,
    # and the images of the keys, block j keyed (j, key), on the kernel's lifted coefficients:
    # [x, g] = xg - gx from the memoized basis products
    system = ncalg.rewrite_system(point)
    product, zero, images = system._product, system._lift_zero, []
    for x in keys:
        image = {}
        for j, g in enumerate(gens):
            for k, c in product(x, g).items():
                image[(j, k)] = c
            for k, c in product(g, x).items():
                image[(j, k)] = image.get((j, k), zero) - c
        images.append(image)
    return len(images) - ncalg._rank(images, point), images


def _k_words(bound: int) -> list[tuple[str, ...]]:
    # K0^n (K1 K0)^l K1^m with l in {0, 1}, n + l <= bound and m + l <= bound
    return [
        ("K0",) * n + ("K1", "K0") * l + ("K1",) * m
        for l in (0, 1) for n in range(bound + 1 - l) for m in range(bound + 1 - l)
    ]


def _check_iso_rank(family: str, point, bounds, rng) -> str | None:
    system = ncalg.rewrite_system(point)
    words = [w for w in _k_words(4) if len(w) <= 4]  # n + 2l + m <= 4: 21 words
    one = system._lift_one
    images = {w: system._iso_image(family, {w: one}) for w in words}
    if ncalg._rank(images.values(), point) < len(images):
        return None
    # control: with J(K0) replaced by 2 J(K1) the rank drops by one
    images[("K0",)] = {key: c + c for key, c in images[("K1",)].items()}
    rank = ncalg._rank(images.values(), point)
    return "" if rank == len(images) - 1 else f"control: rank {rank} with J(K0) = 2 J(K1)"


def _check_steps(names: Sequence[str]):
    # rows of one catalog check: the scaling rule on the table data of every
    # row, then each row at (1, 1), decide every exponent
    def run(params, bounds, rng) -> str:
        where = {name: f"{name} " if len(names) > 1 else "" for name in names}
        for name in names:
            broken = ncalg._scaling_break(ncalg.STEP_IDENTITIES[name])
            if broken:
                return where[name] + broken
        for name in names:
            residual, ok = ncalg.check_step_identity(name, 1, 1, params)
            if not ok:
                return f"{where[name]}(m,n)=(1,1): {_fmt_nf(residual)}"
        return ""

    return run


@_at_square_root
def _check_duality_aw(params, bounds, rng) -> str:
    # that the map kills the relations is a corollary, not recomputed here:
    # u -> dual_DAHA(J(u)) and u -> J_dual(dual_AW(u)) are anti-homomorphisms from
    # the free algebra on K0, K1, T1 agreeing on the generators (duality.daha), so
    # J_dual(dual_AW(rel)) = dual_DAHA(J(rel)) = 0 for every relation of the central
    # extension (embed.rel*, embed.t1central, the quadratic of idempotents); a
    # quotient relation differs from its extension relation by terms x (T1+ab) y,
    # and T1 is central with (T1+ab)(T1+1) = 0.  Those rows hold at this point: the
    # symbolic point moves by a field embedding, and every row runs at a constant one
    target = params.dual()
    sc, sc_dual = structure_constants(params), structure_constants(target)
    vals = params.values()
    factor = vals["q"] * vals["a"] / (vals["b"] * vals["c"] * vals["d"])
    reciprocal = factor.inv()
    # the Casimir scalar transforms by qa/(bcd) ...
    if sc_dual.Q0 != factor * sc.Q0:
        return "dual Casimir scalar is not qa/(bcd) times the source scalar"
    # control: the reciprocal fails, wherever it differs (qa != +-bcd)
    if reciprocal != factor and sc_dual.Q0 == reciprocal * sc.Q0:
        return "control: dual Casimir scalar is also bcd/(qa) times the source scalar"
    # ... while the Casimir word expression transforms by the reciprocal
    casimir = ncalg.quotient_relations(params, sc)["casimir"] + sc.Q0
    q_img, tgt = ncalg.duality_image(casimir, "AW", params)
    q_dual = ncalg.quotient_relations(target, sc_dual)["casimir"] + sc_dual.Q0
    diff = ncalg.embed_aw(q_img, tgt) - ncalg.embed_aw(q_dual, tgt).scale(reciprocal)
    if not diff.is_zero():
        return f"Casimir expression scaling failed: {_fmt_nf(diff)}"
    return ""


@_at_square_root
def _check_duality_daha(params, bounds, rng) -> str:
    target = params.dual()
    system = ncalg.rewrite_system(params)
    for name, rel in system.defining_relations():
        img, tgt = ncalg.duality_image(rel, "DAHA", params)
        nf = ncalg.reduce(img, tgt)
        if not nf.is_zero():
            return f"relation {name} image: {_fmt_nf(nf)}"
    # involution on parameter values: abcd/q of the dual family is a^2, and
    # the double dual taken at the root a gives back the parameters
    a = params.value("a")
    q_d, a_d, b_d, c_d, d_d = target.vals
    if a * a != a_d * b_d * c_d * d_d / q_d:
        return "abcd/q of the dual family is not a^2"
    double = target.dual(a)
    for name in PARAM_NAMES:
        if double.value(name) != params.value(name):
            return f"dual of dual moved parameter {name}"
    # control: the other root, -a, gives (q, -a, -b, -c, -d)
    if target.dual(-a) == params:
        return "double dual at the root -a did not move the parameters"
    # embedding compatibility: both composites are anti-homomorphisms (by the
    # relations above and embed.rel*), so agreeing on the generators is the statement
    for letter in ncalg.AW_ALPHABET:
        u = Element("aw", {(letter,): _ONE})
        via_daha, _ = ncalg.duality_image(ncalg.embed_element(u, params), "DAHA", params)
        u_img, _ = ncalg.duality_image(u, "AW", params)
        if ncalg.reduce(via_daha, target) != ncalg.embed_aw(u_img, target):
            return f"embedding compatibility failed on {letter}"
    return ""


def _check_shiftops(params, bounds, rng) -> str:
    res_minus, res_plus = ncalg.shift_operator_identities(params)
    if not res_minus.is_zero():
        return f"lowering identity: {_fmt_nf(res_minus)}"
    if not res_plus.is_zero():
        return f"raising identity: {_fmt_nf(res_plus)}"
    # perturbed control: shifting the middle scalar must break the identity
    d_minus, _ = ncalg._shift_operators(params)
    if ncalg.compress("sym", d_minus + 1, params).is_zero():
        return "perturbed lowering identity still reduced to zero"
    return ""


@_at_witness
def _check_centralizer_t1(point, bounds, rng) -> str | None:
    system, span = ncalg.rewrite_system(point), range(-2, 3)
    box = [(m, n, i) for m in span for n in span for i in (0, 1)]
    kernel, images = _kernel(point, box, [(0, 0, 1)])
    commutators = dict(zip(box, images))

    def rejected(v: dict) -> bool:  # outside the box |m|, |n| <= 2, or not commuting
        outside = any(key not in commutators for key in v)
        return outside or bool(system._linear((c, commutators[key]) for key, c in v.items()))

    words = [w + t for w in _k_words(2) for t in ((), ("T1",))]
    embedded = [system._embed_word(w) for w in words]
    for word, v in zip(words, embedded):
        if rejected(v):
            return f"embedded {' '.join(word)} leaves the box or does not commute with T1"
    # control: Z in place of an embedded word is rejected
    if not rejected({(1, 0, 0): system._lift_one}):
        return "control: Z accepted in place of an embedded word"
    rank = ncalg._rank(embedded, point)
    if rank > kernel:
        return f"embedded rank {rank} exceeds the kernel dimension {kernel}"
    return "" if rank == kernel == len(embedded) else None


_CENTER_DEGREE = 3


@_at_witness
def _check_center_daha(point, bounds, rng) -> str | None:
    span, gens = range(-_CENTER_DEGREE, _CENTER_DEGREE + 1), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    box = [(m, n, i) for m in span for n in span for i in (0, 1)]
    box = [(m, n, i) for m, n, i in box if abs(m) + abs(n) + i <= _CENTER_DEGREE]
    kernel, images = _kernel(point, box, gens)
    if kernel != 1:
        return None if kernel > 1 else "the scalars do not commute with every generator"
    # control: Z alone commutes with more than the scalars (the Z blocks of the same images)
    z_blocks = [{key: c for key, c in image.items() if key[0] == 0} for image in images]
    return "" if ncalg._rank(z_blocks, point) < len(box) - 1 else "control: kernel 1 for Z alone"


def _check_eigen_pn(params, bounds, rng) -> str:
    for n, (monic, eigen) in enumerate(polyrep.check_eigen_in_rep(bounds["max_n"], params)):
        if monic:
            return f"P_{n} is not monic"
        for k, residual in enumerate(eigen):
            if residual:
                return f"eigenvalue equation fails at n={n}, k={k}: {_fmt_short(residual)}"
    # eigenvalue distinctness
    lams = [eigenvalue(n, params) for n in range(21)]
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if lams[i] == lams[j]:
                return f"eigenvalues coincide: n={i}, n={j}"
    return ""


def _check_recurrence(params, bounds, rng) -> str:
    residuals = polyrep._recurrence_residuals(bounds["max_n"], params)
    for n, (coordinates, gamma_vanishes) in enumerate(residuals):
        for k, residual in enumerate(coordinates):
            if residual:
                return f"three-term recurrence fails at n={n}, k={k}: {_fmt_short(residual)}"
        if gamma_vanishes:
            return f"gamma_{n} = 0"
    return ""


def _rep_check(names: tuple[str, ...]):
    # quotient relations on phi_k, k <= max_degree; control: B + 1 breaks them on phi_0
    def run(params, bounds, rng) -> str:
        sc = structure_constants(params)
        constants = (sc, sc._replace(B=sc.B + _ONE))
        residuals = polyrep.relation_residuals(bounds["max_degree"], params, constants)
        for k, residual in enumerate(residuals):
            for name in names:
                coords = residual(name)
                if any(coords):
                    shown = ", ".join(f"phi_{j}: {c}" for j, c in enumerate(coords) if c)
                    return f"{name} on phi_{k}: {_fmt_short(shown)}"
            if not k and not any(any(residual(name, 1)) for name in names):
                return "perturbed-B control unexpectedly passed"
        return ""

    return run


def _check_symmetry_abcd(params, bounds, rng) -> str:
    # by Favard's theorem beta_k and gamma_k, k < n, fix the monic P_n
    residuals = polyrep._swap_residuals(bounds["max_n"], params, ("ab", "ac"))
    for (x, y), k, (beta, gamma, _) in residuals:
        for name, residual in (("beta", beta), ("gamma", gamma)):
            if residual:
                return f"{name}_{k} changes under swapping {x} and {y}: {_fmt_short(residual)}"
    # control: A_0 alone changes under swapping a and b, over Q(q,a,b,c,d), since
    # at a point where a = b it cannot
    _, _, (_, _, control) = next(polyrep._swap_residuals(1, make_params("symbolic"), ("ab",)))
    return "" if control else "control: A_0 does not change under swapping a and b"


# ---------------------------------------------------------------------------
# Catalog


def _step_catalog_entries() -> list[CheckSpec]:
    # one check per run of table rows with the same check id, in table order
    groups: dict[str, list[str]] = {}
    for name, row in ncalg.STEP_IDENTITIES.items():
        groups.setdefault(row.check, []).append(name)
    specs = []
    for check_id, names in groups.items():
        row = ncalg.STEP_IDENTITIES[names[0]]
        twin = "astep" if row.family == "asym" else "step"
        scope = ", ".join(x for x, used in zip("mn", row.uses()) if used)  # "" for exact rows
        scope = scope and (f"; for every {scope} >= 1, decided at (1, 1) by embed.t1central, "
                           f"idempotents, the (1, 1) instances of {twin}.44, {twin}.47 and "
                           f"{twin}.49, and the u-exponents the signs force")
        specs.append(CheckSpec(check_id, row.statement + scope, "exact", _check_steps(names)))
    return specs


def _build_catalog() -> list[CheckSpec]:
    max_degree = RunConfig().max_degree
    catalog = [
        CheckSpec(
            "relations-daha",
            "the rewrite rules decrease a termination order, their left sides are the two-letter "
            "words not of the form Z^m Y^n T1^i, and the 25 overlaps of left sides resolve, so "
            "by the diamond lemma Z^m Y^n T1^i is a basis; controls: a raised T1 Z coefficient "
            "leaves an overlap unresolved, Z^-1 Y appended to T1 Z breaks the order",
            "exact",
            _check_relations_daha,
        ),
        CheckSpec(
            "embed.rel34",
            "first q-commutator relation of the central extension maps to zero under "
            "K0 -> Y + (abcd/q) Y^-1, K1 -> Z + Z^-1",
            "exact",
            _embed_check("rel34"),
        ),
        CheckSpec(
            "embed.rel35",
            "second q-commutator relation of the central extension maps to zero",
            "exact",
            _embed_check("rel35"),
        ),
        CheckSpec(
            "embed.rel36",
            "Casimir relation of the central extension maps to zero",
            "exact",
            _embed_check("rel36"),
        ),
        CheckSpec(
            "embed.t1central",
            "T1 commutes with the images of K0 and K1",
            "exact",
            _check_t1central,
        ),
        CheckSpec(
            "idempotents",
            "(1-ab)^-1(T1+1) and (ab-1)^-1(T1+ab) are orthogonal idempotents summing "
            "to 1, and (T1+ab)(T1+1) = 0; with the associative basis of relations-daha, "
            "F^2 = eF makes the compression S(U) = e^-2 FUF satisfy S(U)S(V) = S(U e^-1 F V)",
            "exact",
            _check_idempotents,
        ),
        CheckSpec(
            "iso.spherical.rank",
            "U -> (1-ab)^-1 U~ (T1+1) is injective on the span of the 21 K0^n (K1 K0)^l K1^m, "
            "l in {0,1}, n+2l+m <= 4: their images have rank 21 at a witness point; step.* and "
            "step3.* prove exactly that the images lie in the spherical subalgebra; control: "
            "J(K0) := 2 J(K1) gives rank 20",
            "exact",
            _at_witness(partial(_check_iso_rank, "sym")),
        ),
        CheckSpec(
            "iso.antispherical.rank",
            "U -> (ab-1)^-1 U~ (T1+ab) with K0 -> qK0 is injective on the span of the same 21 "
            "words: their images have rank 21 at a witness point; astep.* and step3.* prove "
            "exactly that the images lie in the antispherical subalgebra; control as above",
            "exact",
            _at_witness(partial(_check_iso_rank, "asym")),
        ),
    ]
    catalog.extend(_step_catalog_entries())
    catalog.extend(
        [
            CheckSpec(
                "duality.aw",
                "the anti-map K0 -> s K1, K1 -> a^-1 K0 (s^2 = abcd/q) on reversed words sends "
                "every defining relation to zero in the dual algebra (s, ab/s, ac/s, ad/s), and "
                "quotient relations modulo T1 = -ab: through the embedding it is duality.daha's "
                "map, and there every relation, the quadratic (T1+ab)(T1+1) included, is zero by "
                "embed.rel*, embed.t1central and idempotents; checked here: the Casimir scalar "
                "transforms by qa/(bcd) and the Casimir word by bcd/(qa); control: the "
                "reciprocal fails the scalar identity unless qa = +-bcd",
                "exact",
                _check_duality_aw,
            ),
            CheckSpec(
                "duality.daha",
                "the anti-map T1 -> T1, Y -> s Z^-1, Z -> a Y^-1 sends every defining "
                "relation to zero in the dual-parameter algebra and is involutive on "
                "parameters; through the embedding it agrees with duality.aw on K0, K1 and "
                "T1, hence everywhere, both composites being anti-homomorphisms by these "
                "relations and embed.rel*",
                "exact",
                _check_duality_daha,
            ),
            CheckSpec(
                "shiftops",
                "(T1+1)(Y + (a^2b^2cd/q) Y^-1 - (abcd/q + ab))(T1+1) = 0 and "
                "(T1+ab)(Y + (cd/q) Y^-1 - (cd/q + 1))(T1+ab) = 0, with a perturbed "
                "negative control",
                "exact",
                _check_shiftops,
            ),
            CheckSpec(
                "centralizer.t1",
                "in the span of Z^m Y^n T1^i, |m|,|n| <= 2, i <= 1, the centralizer of T1 is "
                "spanned by the 26 embedded K0^n (K1 K0)^l K1^m T1^i, n+l, m+l <= 2: they commute "
                "with T1 and have rank 26, the kernel dimension of [., T1] at a witness point; "
                "control: Z in place of a word is rejected",
                "exact",
                _check_centralizer_t1,
            ),
            CheckSpec(
                "center.daha",
                "x -> ([x,Z], [x,Y], [x,T1]) has only the scalars as kernel on the span of "
                f"Z^m Y^n T1^i, |m|+|n|+i <= {_CENTER_DEGREE}, at a witness point; control: "
                "with Z the only generator the kernel is larger",
                "exact",
                _check_center_daha,
            ),
            CheckSpec(
                "eigen.Pn",
                "the difference operator sends the monic polynomial P_n to "
                "(q^-n + abcd q^(n-1)) P_n for n <= 8, on the cleared 4phi3 coordinates of "
                "P_n; eigenvalues distinct for n <= 20",
                "prob",
                _check_eigen_pn,
            ),
            CheckSpec(
                "recurrence",
                "(z + z^-1) P_n = P_(n+1) + beta_n P_n + gamma_n P_(n-1) for n <= 8 on cleared "
                "coordinates, with beta_n = a + a^-1 - A_n - C_n and gamma_n = A_(n-1) C_n in "
                "the closed forms of Koekoek-Lesky-Swarttouw (14.1.4); gamma_n != 0 for n >= 1",
                "prob",
                _check_recurrence,
            ),
            CheckSpec(
                "casimir.scalar",
                "the degree-four Casimir word acts as the scalar Q0 on phi_k = (az, a/z; q)_k "
                f"for k <= {max_degree} (the default --max-degree), hence on every "
                "symmetric Laurent polynomial: the phi_(k+j) coordinate of a length-L word's "
                "image of phi_k is a Laurent polynomial in q^k with exponents in [-L, 3L], "
                "mu_0 = 0 keeps the span of phi_k, k >= 0, invariant, and "
                f"q^0..q^{max_degree} are distinct; control: perturbing B breaks it "
                "on phi_0",
                "prob",
                _rep_check(("casimir",)),
            ),
            CheckSpec(
                "awrel.inrep",
                "both q-commutator operator relations annihilate phi_k for "
                f"k <= {max_degree}, hence, as for casimir.scalar, every symmetric "
                "Laurent polynomial; control: perturbing B breaks them on phi_0",
                "prob",
                _rep_check(("rel1", "rel2")),
            ),
            CheckSpec(
                "symmetry.abcd",
                "P_n is invariant under swapping a with b and a with c, n <= 8: so are "
                "beta_k times its symmetric denominator (1-abcdq^(2k-2))(1-abcdq^(2k-1))"
                "(1-abcdq^(2k)) and the cleared gamma_k, k < 8, which by Favard's theorem fix "
                "P_n given the closed forms that recurrence proves; control: A_0 changes under "
                "swapping a and b as a rational function",
                "prob",
                _check_symmetry_abcd,
            ),
        ]
    )
    return catalog


CHECK_CATALOG: list[CheckSpec] = _build_catalog()
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


# ---------------------------------------------------------------------------
# Reports


def render_report(report: Report, format: str = "json") -> str:
    """The report as deterministic JSON or as the text table."""
    if format == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if format == "text":
        return render_text(report)
    raise ConfigError(f"unknown report format {format!r}")


def emit_report(report: Report, path: str, format: str = "json") -> None:
    text = render_report(report, format)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


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
# Expression parsing


_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(
            f"unexpected character {ch!r}", i, frozenset({"generator", "number"})
        )
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser producing an Element; scalars are carried
    as coefficients of the empty word, so mixed scalar/word arithmetic
    falls out of Element's own operations."""

    def __init__(self, text: str, alphabet: str, params: Params):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.params = params
        self.letters = (
            ncalg.DAHA_ALPHABET if alphabet == "daha" else ncalg.AW_ALPHABET
        )

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind}, found {tok[1] or 'end of input'}",
                tok[2],
                frozenset({kind}),
            )
        return self.advance()

    def parse(self) -> Element:
        value = self.parse_expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(
                f"unexpected trailing {tok[1]!r}",
                tok[2],
                frozenset({"+", "-", "*", "/", "^", "end of input"}),
            )
        return value

    def parse_expr(self) -> Element:
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.advance()[0] == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            term = self.parse_term()
            value = value + term if op == "+" else value - term
        return value

    def parse_term(self) -> Element:
        value = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            factor = self.parse_factor()
            if op == "*":
                value = value * factor
            else:
                scalar = self._as_scalar(factor)
                value = value * scalar.inv()
        return value

    def parse_factor(self) -> Element:
        atom_pos = self.peek()[2]
        value = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            tok = self.expect("INT")
            exponent = sign * int(tok[1])
            value = self._power(value, exponent, atom_pos)
        return value

    def parse_atom(self) -> Element:
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok[0] == "INT":
            self.advance()
            return Element(
                self.alphabet, {(): RatFunc.from_rational(int(tok[1]))}
            )
        if tok[0] == "NAME":
            self.advance()
            name = tok[1]
            if name in self.letters:
                return Element(self.alphabet, {(name,): _ONE})
            if name in PARAM_NAMES:
                return Element(self.alphabet, {(): self.params.value(name)})
            raise ParseError(
                f"unknown name {name!r} for the {self.alphabet} alphabet",
                tok[2],
                frozenset(self.letters) | frozenset(PARAM_NAMES),
            )
        raise ParseError(
            f"expected a value, found {tok[1] or 'end of input'}",
            tok[2],
            frozenset({"generator", "number", "("}),
        )

    def _as_scalar(self, e: Element) -> RatFunc:
        if set(e.terms) <= {()}:
            return e.terms.get((), RatFunc.zero())
        raise ParseError(
            "division is only defined by scalar expressions",
            self.peek()[2],
            frozenset({"scalar"}),
        )

    _INVERTIBLE = {"Y": "Yi", "Yi": "Y", "Z": "Zi", "Zi": "Z"}

    def _power(self, value: Element, exponent: int, pos: int) -> Element:
        if set(value.terms) <= {()}:
            scalar = value.terms.get((), RatFunc.zero())
            return Element(self.alphabet, {(): scalar**exponent})
        if exponent >= 0:
            return value**exponent
        # a negative exponent of a word: a single invertible letter only
        if len(value.terms) == 1:
            (word, coef), = value.terms.items()
            if len(word) == 1 and word[0] in self._INVERTIBLE and coef == _ONE:
                inverse = self._INVERTIBLE[word[0]]
                return Element(self.alphabet, {(inverse,) * (-exponent): _ONE})
        raise ParseError(
            "negative exponents apply only to Y, Z, or scalars",
            pos,
            frozenset({"Y", "Z", "scalar"}),
        )


def parse_expression(text: str, alphabet: str = "daha", params: Params | None = None) -> Element:
    """Parse an expression over the requested alphabet.

    Grammar: generators (T1, Y, Yi, Z, Zi or K0, K1, T1), parameter names
    q,a,b,c,d (their values at ``params``, by default the symbolic point's
    free symbols) and integer literals as scalars, '+', '-', '*', '/'
    (division by scalars), '^' with integer exponents (negative allowed on
    Y and Z, meaning inverse powers), and parentheses.
    """
    if alphabet not in ("daha", "aw"):
        raise ConfigError(f"unknown alphabet {alphabet!r}")
    return _Parser(text, alphabet, params or make_params("symbolic")).parse()


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
