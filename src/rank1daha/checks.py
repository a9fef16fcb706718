"""The catalog of named identity checks and the runners that decide them.

Every mechanically verifiable identity of the kernel is registered here
under a stable id, with its statement and its default mode.  A runner
receives a parameter set, the run's sizes and a seeded generator, and
reports pass or fail with the first offending residual.  No check samples
random words: every verdict is a statement checked at its point, and the
random generator a check receives only draws the witness points of the
rank certificates.  :mod:`rank1daha.verify` runs the catalog.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Sequence

from . import aw3, family, ncalg, polyrep, steps
from .errors import DegenerateParameters
from .field import _ONE
from .laurent import PARAM_NAMES
from .modp import random_params_mod_p
from .params import eigenvalue, make_params
from .reports import RunConfig
from .words import AW_ALPHABET, Element, NormalForm, symmetrizer

__all__ = ["CheckSpec", "CHECK_CATALOG"]


class CheckSpec(NamedTuple):
    """One catalog entry: a stable id, its statement, and its default mode
    when the run neither forces a mode nor gives a parameter point."""

    id: str
    statement: str
    default_mode: str  # "exact" | "prob"
    runner: Callable  # (params, bounds, rng) -> str ("" = pass, else summary)


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
        nf = aw3.embed_aw(aw3.aw_relations(params)[name], params)
        return "" if nf.is_zero() else _fmt_nf(nf)

    return run


def _check_t1central(params, bounds, rng) -> str:
    rels = aw3.aw_relations(params)
    for name in ("central0", "central1"):
        nf = aw3.embed_aw(rels[name], params)
        if not nf.is_zero():
            return f"{name}: {_fmt_nf(nf)}"
    return ""


def _check_idempotents(params, bounds, rng) -> str:
    # in cleared form: e^-1 F is idempotent exactly when F^2 = eF, and the
    # two idempotents sum to 1 exactly when F_sym - F_asym = 1-ab
    f_sym, e_sym = symmetrizer("sym", params)
    f_asym, e_asym = symmetrizer("asym", params)
    cases = {
        "sym F^2 = eF": ncalg.reduce(f_sym * f_sym - f_sym.scale(e_sym), params),
        "asym F^2 = eF": ncalg.reduce(f_asym * f_asym - f_asym.scale(e_asym), params),
        "sum to one": ncalg.reduce(f_sym - f_asym - e_sym, params),
        "orthogonal": ncalg.reduce(f_sym * f_asym, params),
        "T1 quadratic": aw3.embed_aw(aw3.aw_relations(params)["quad"], params),
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
    return len(images) - aw3._rank(images, point), images


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
    if aw3._rank(images.values(), point) < len(images):
        return None
    # control: with J(K0) replaced by 2 J(K1) the rank drops by one
    images[("K0",)] = {key: c + c for key, c in images[("K1",)].items()}
    rank = aw3._rank(images.values(), point)
    return "" if rank == len(images) - 1 else f"control: rank {rank} with J(K0) = 2 J(K1)"


def _check_steps(names: Sequence[str]):
    # rows of one catalog check: the scaling rule on the table data of every
    # row, then each row at (1, 1), decide every exponent
    def run(params, bounds, rng) -> str:
        where = {name: f"{name} " if len(names) > 1 else "" for name in names}
        for name in names:
            broken = steps._scaling_break(steps.STEP_IDENTITIES[name])
            if broken:
                return where[name] + broken
        for name in names:
            residual, ok = steps.check_step_identity(name, 1, 1, params)
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
    sc, sc_dual = aw3._constants(params), aw3._constants(target)
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
    casimir = aw3.quotient_relations(params, sc)["casimir"] + sc.Q0
    q_img, tgt = aw3.duality_image(casimir, "AW", params)
    q_dual = aw3.quotient_relations(target, sc_dual)["casimir"] + sc_dual.Q0
    diff = aw3.embed_aw(q_img, tgt) - aw3.embed_aw(q_dual, tgt).scale(reciprocal)
    if not diff.is_zero():
        return f"Casimir expression scaling failed: {_fmt_nf(diff)}"
    return ""


@_at_square_root
def _check_duality_daha(params, bounds, rng) -> str:
    target = params.dual()
    system = ncalg.rewrite_system(params)
    for name, rel in system.defining_relations():
        img, tgt = aw3.duality_image(rel, "DAHA", params)
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
    for letter in AW_ALPHABET:
        u = Element("aw", {(letter,): _ONE})
        via_daha, _ = aw3.duality_image(aw3.embed_element(u, params), "DAHA", params)
        u_img, _ = aw3.duality_image(u, "AW", params)
        if ncalg.reduce(via_daha, target) != aw3.embed_aw(u_img, target):
            return f"embedding compatibility failed on {letter}"
    return ""


def _check_shiftops(params, bounds, rng) -> str:
    res_minus, res_plus = aw3.shift_operator_identities(params)
    if not res_minus.is_zero():
        return f"lowering identity: {_fmt_nf(res_minus)}"
    if not res_plus.is_zero():
        return f"raising identity: {_fmt_nf(res_plus)}"
    # perturbed control: shifting the middle scalar must break the identity
    d_minus, _ = aw3._shift_operators(params)
    if aw3.compress("sym", d_minus + 1, params).is_zero():
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
    rank = aw3._rank(embedded, point)
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
    return "" if aw3._rank(z_blocks, point) < len(box) - 1 else "control: kernel 1 for Z alone"


def _check_eigen_pn(params, bounds, rng) -> str:
    for n, (monic, eigen) in enumerate(family.check_eigen_in_rep(bounds["max_n"], params)):
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
    residuals = family._recurrence_residuals(bounds["max_n"], params)
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
        sc = aw3._constants(params)
        constants = (None, sc._replace(B=sc.B + _ONE))  # None: the point's own, built once
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
    residuals = family._swap_residuals(bounds["max_n"], params, ("ab", "ac"))
    for (x, y), k, (beta, gamma, _) in residuals:
        for name, residual in (("beta", beta), ("gamma", gamma)):
            if residual:
                return f"{name}_{k} changes under swapping {x} and {y}: {_fmt_short(residual)}"
    # control: A_0 alone changes under swapping a and b, over Q(q,a,b,c,d), since
    # at a point where a = b it cannot
    _, _, (_, _, control) = next(family._swap_residuals(1, make_params("symbolic"), ("ab",)))
    return "" if control else "control: A_0 does not change under swapping a and b"


# ---------------------------------------------------------------------------
# Catalog


def _step_catalog_entries() -> list[CheckSpec]:
    # one check per run of table rows with the same check id, in table order
    groups: dict[str, list[str]] = {}
    for name, row in steps.STEP_IDENTITIES.items():
        groups.setdefault(row.check, []).append(name)
    specs = []
    for check_id, names in groups.items():
        row = steps.STEP_IDENTITIES[names[0]]
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
