import ast
import gc
import itertools
import random
import re
import weakref
from collections import OrderedDict
from fractions import Fraction

import pytest
from rewriting import rewrite

from rank1daha import aw3, ncalg, verify, words
from rank1daha.errors import BudgetExhausted, DegenerateParameters
from rank1daha.aw3 import (
    _rank,
    aw_relations,
    compress,
    duality_image,
    embed_aw,
    iso_image,
    quotient_relations,
    shift_operator_identities,
    symmetrizer,
)
from rank1daha.field import RatFunc
from rank1daha.modp import PRIME, random_params_mod_p
from rank1daha.ncalg import RewriteSystem, multiply, reduce, rewrite_system
from rank1daha.params import make_params, structure_constants
from rank1daha.steps import _dominated
from rank1daha.words import Element, NormalForm, _is_basis_word

LETTERS = ("T1", "Y", "Yi", "Z", "Zi")


def w(*letters):
    return Element.word(letters, "daha")


def vals(params):
    v = params.values()
    return v["q"], v["a"], v["b"], v["c"], v["d"]


# ---------------------------------------------------------------------------
# Reduction to the PBW basis


def test_t1_z_rule(sym):
    q, a, b, c, d = vals(sym)
    nf = reduce(w("T1", "Z"), sym)
    assert nf.coeff(-1, 0, 1) == RatFunc.one()
    assert nf.coeff(-1, 0, 0) == a * b + 1
    assert nf.coeff(0, 0, 0) == -(a + b)
    assert len(nf.terms) == 3


def test_t1_square_rule(sym):
    q, a, b, c, d = vals(sym)
    nf = reduce(w("T1", "T1"), sym)
    assert nf.coeff(0, 0, 1) == -(a * b + 1)
    assert nf.coeff(0, 0, 0) == -(a * b)
    assert len(nf.terms) == 2


def test_inverse_collapse(sym):
    for pair in (("Z", "Zi"), ("Zi", "Z"), ("Y", "Yi"), ("Yi", "Y")):
        nf = reduce(w(*pair), sym)
        assert nf.coeff(0, 0, 0) == RatFunc.one()
        assert len(nf.terms) == 1


def test_y_z_rule(sym):
    q, a, b, c, d = vals(sym)
    cd = c * d
    qicd = RatFunc.one() + cd / q
    nf = reduce(w("Y", "Z"), sym)
    expected = {
        (1, 1, 0): q,
        (-1, -1, 1): (1 + a * b) * cd,
        (0, -1, 1): -(a + b) * cd,
        (-1, 0, 1): -qicd,
        (-1, 0, 0): -(1 - q) * (1 + a * b) * qicd,
        (0, 0, 1): c + d,
        (0, 0, 0): (1 - q) * (a + b) * qicd,
    }
    assert nf.terms == expected


def test_defining_relations_reduce_to_zero(gpoint):
    system = rewrite_system(gpoint)
    for name, relation in system.defining_relations():
        assert reduce(relation, gpoint).is_zero(), name


def test_reduce_is_linear(gpoint):
    rng = random.Random(3)
    for _ in range(10):
        u = w(*[rng.choice(LETTERS) for _ in range(4)])
        v = w(*[rng.choice(LETTERS) for _ in range(4)])
        alpha, beta = RatFunc.from_rational(rng.randint(1, 9)), RatFunc.gen("a")
        lhs = reduce(u.scale(alpha) + v.scale(beta), gpoint)
        rhs = reduce(u, gpoint).scale(alpha) + reduce(v, gpoint).scale(beta)
        assert lhs == rhs


def test_reduction_fixed_point_and_confluence(gpoint):
    rng = random.Random(14)
    for _ in range(100):
        word = w(*[rng.choice(LETTERS) for _ in range(rng.randint(1, 6))])
        left = reduce(word, gpoint, strategy="leftmost")
        right = reduce(word, gpoint, strategy="rightmost")
        again = reduce(left.as_element(), gpoint)
        assert left == right == again


def test_budget_exhaustion_raises(monkeypatch):
    p = make_params("specialized", {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5, "d": 7})
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    monkeypatch.setattr(ncalg, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExhausted):
        reduce(w(*["Y", "Z"] * 4), p)


def test_unknown_strategy_rejected(gpoint):
    with pytest.raises(ValueError):
        reduce(w("T1"), gpoint, strategy="sideways")


# ---------------------------------------------------------------------------
# The certificate of the rewrite system


def test_basis_words_match_an_independent_oracle():
    # Z-block of one sign, Y-block of one sign, at most one trailing T1
    oracle = re.compile(r"(Z*|(Zi)*)(Y*|(Yi)*)(T1)?")
    for length in range(6):
        for word in itertools.product(LETTERS, repeat=length):
            assert _is_basis_word(word) == bool(oracle.fullmatch("".join(word))), word


def _resolved(system):
    return all(nf.is_zero() for _, nf in system.critical_pairs())


@pytest.mark.parametrize("which", ["sym", "gpoint"])
def test_rewrite_system_is_certified(which, request):
    system = RewriteSystem(request.getfixturevalue(which))
    assert system.termination_failures() == []
    assert system.left_side_failures() == []
    assert len(list(system.critical_pairs())) == 25 and _resolved(system)


def test_certificate_control_unresolved_overlap(gpoint):
    # raising one coefficient of the T1*Z rule fails the overlaps alone
    system = RewriteSystem(gpoint)
    first, (word, coef), *rest = system.rules[("T1", "Z")]
    system.rules[("T1", "Z")] = (first, (word, coef + RatFunc.one()), *rest)
    assert not _resolved(system)
    assert system.termination_failures() == []
    assert system.left_side_failures() == []


def test_certificate_control_word_above_its_left_side(gpoint):
    # Z^-1 Y has more Y/Z letters than T1*Z; the left sides still pass
    system = RewriteSystem(gpoint)
    system.rules[("T1", "Z")] += ((("Zi", "Y"), system.one),)
    assert system.termination_failures() == [(("T1", "Z"), ("Zi", "Y"))]
    assert system.left_side_failures() == []
    # a smaller key is not enough when the letter counts differ: Z Z has a
    # smaller key than Y Z, but Y Z Z does not lie below Y Y Z
    system = RewriteSystem(gpoint)
    system.rules[("Y", "Z")] += ((("Z", "Z"), system.one),)
    assert system.termination_failures() == [(("Y", "Z"), ("Z", "Z"))]


def test_certificate_control_missing_rule(gpoint):
    # without the Y*Yi rule that word is irreducible: the left-side check
    # names the gap, and reducing an overlap refuses to read Y Yi T1 as T1
    system = RewriteSystem(gpoint)
    del system.rules[("Y", "Yi")]
    assert system.left_side_failures() == [("Y", "Yi")]
    assert system.termination_failures() == []
    with pytest.raises(ValueError, match="irreducible word Y Yi T1 is not a basis word"):
        _resolved(system)
    # a rule on a basis word is named as well
    system = RewriteSystem(gpoint)
    system.rules[("Z", "Y")] = ((("Z", "Y"), system.one),)
    assert system.left_side_failures() == [("Z", "Y")]


def test_products_refuse_a_word_a_missing_rule_leaves(monkeypatch, gpoint):
    # without the Y*Yi rule, Y times Y^-1 T1 is the irreducible word Y Yi T1:
    # the product kernel names it, where it read it as T1
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    system = rewrite_system(gpoint)
    del system.rules[("Y", "Yi")]
    one = RatFunc.one()
    y, y_inv_t1 = NormalForm({(0, 1, 0): one}), NormalForm({(0, -1, 1): one})
    with pytest.raises(ValueError, match="irreducible word Y Yi T1 is not a basis word"):
        reduce(w("Y", "Yi", "T1"), gpoint)
    with pytest.raises(ValueError, match="irreducible word Y Yi T1 is not a basis word"):
        multiply(y, y_inv_t1, gpoint)
    # reduce splits a word at a redex into a part that admits no rule and the
    # rest; the part is checked too, where Y Yi T1 Z would read as T1 Z
    for word in (("Y", "Yi", "T1", "Z"), ("Z", "Y", "Yi", "T1")):
        for strategy in ("leftmost", "rightmost"):
            with pytest.raises(ValueError, match="is not a basis word"):
                system.reduce_terms({word: one}, strategy)


# ---------------------------------------------------------------------------
# multiply


def _check_multiply_identity_and_consistency(params):
    rng = random.Random(8)
    one = reduce(Element.one("daha"), params)
    for _ in range(10):
        u = reduce(w(*[rng.choice(LETTERS) for _ in range(3)]), params)
        v = reduce(w(*[rng.choice(LETTERS) for _ in range(3)]), params)
        assert multiply(one, u, params) == u
        assert multiply(u, v, params) == rewrite(u.as_element() * v.as_element(), params)


def test_memo_entry_is_built_once_and_released_with_its_system(monkeypatch, gpoint):
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())

    class Entry:
        pass

    builds = []

    def build():
        builds.append(Entry())
        return builds[-1]

    entry = rewrite_system(gpoint)._once(("entry",), build)
    assert rewrite_system(gpoint)._once(("entry",), build) is entry and builds == [entry]
    assert rewrite_system(gpoint)._once(("other",), build) is not entry
    held = weakref.ref(entry)
    del entry
    builds.clear()
    for seed in range(ncalg._SYSTEMS_BOUND):  # evicts gpoint's system
        rewrite_system(random_params_mod_p(random.Random(seed)))
    gc.collect()
    assert gpoint not in ncalg._SYSTEMS and held() is None


def test_rewrite_system_keeps_two_stores_and_builds_j_and_f_on_first_use(monkeypatch):
    """A rewrite system keeps its rules and two stores, the basis products
    and one memo.  J's letter images and F are built in the memo where a map
    first reads them: relations-daha reads neither, and one embedded
    relation builds the images once."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    point = random_params_mod_p(random.Random(21))
    stores = {name for name, value in vars(RewriteSystem(point)).items() if isinstance(value, dict)}
    assert stores == {"rules", "_product_cache", "_memo"}
    calls = dict.fromkeys(("_embedding_images", "symmetrizer"), 0)
    for name in calls:
        def counted(*args, _build=getattr(aw3, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(aw3, name, counted)
    bounds = {"max_mn": 1, "max_degree": 0, "max_n": 0}
    run = lambda check_id: verify._CATALOG_BY_ID[check_id].runner(point, bounds, random.Random(0))
    assert run("relations-daha") == ""
    assert calls == {"_embedding_images": 0, "symmetrizer": 0}
    assert run("embed.rel34") == ""
    assert calls == {"_embedding_images": 1, "symmetrizer": 0}


def test_words_imports_from_the_field_alone():
    # the data types know no parameter point, rewrite system or map
    tree = ast.parse(open(words.__file__, encoding="utf-8").read())
    package = {
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rank1daha"))
    }
    package |= {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("rank1daha")
    }
    assert package == {".field"}


def test_multiply_identity_and_consistency(gpoint):
    _check_multiply_identity_and_consistency(gpoint)


@pytest.mark.parametrize("which", ["sym", "modp"])
def test_multiply_identity_and_consistency_off_gpoint(which, request):
    # symbolic coefficients, and residues inside the product kernel
    params = random_params_mod_p(random.Random(4)) if which == "modp" else request.getfixturevalue(which)
    _check_multiply_identity_and_consistency(params)


def test_multiply_associative(gpoint):
    rng = random.Random(21)
    def random_nf():
        terms = {}
        for _ in range(3):
            key = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 1))
            terms[key] = RatFunc.from_rational(rng.randint(1, 5))
        return NormalForm(terms)

    for _ in range(50):
        u, v, t = random_nf(), random_nf(), random_nf()
        assert multiply(multiply(u, v, gpoint), t, gpoint) == multiply(
            u, multiply(v, t, gpoint), gpoint
        )


def test_quadratic_annihilation(sym):
    q, a, b, c, d = vals(sym)
    t1 = Element.generator("T1", "daha")
    product = (t1 + 1) * (t1 + a * b)
    assert reduce(product, sym).is_zero()


# ---------------------------------------------------------------------------
# The central-extension embedding


def test_embed_generator_images(sym):
    q, a, b, c, d = vals(sym)
    k1 = embed_aw(Element.generator("K1"), sym)
    assert k1.terms == {(1, 0, 0): RatFunc.one(), (-1, 0, 0): RatFunc.one()}
    k0 = embed_aw(Element.generator("K0"), sym)
    assert k0.terms == {(0, 1, 0): RatFunc.one(), (0, -1, 0): a * b * c * d / q}


def test_embed_is_homomorphism(gpoint):
    rng = random.Random(2)
    aw_letters = ("K0", "K1", "T1")
    for _ in range(50):
        u = Element.word([rng.choice(aw_letters) for _ in range(rng.randint(1, 3))], "aw")
        v = Element.word([rng.choice(aw_letters) for _ in range(rng.randint(1, 3))], "aw")
        lhs = embed_aw(u * v, gpoint)
        rhs = multiply(embed_aw(u, gpoint), embed_aw(v, gpoint), gpoint)
        assert lhs == rhs


def test_extension_relations_vanish(gpoint):
    """The two deformed q-commutator relations, the Casimir relation, the
    centrality of T1, and the quadratic all die under the embedding."""
    for name, relation in aw_relations(gpoint).items():
        assert embed_aw(relation, gpoint).is_zero(), name


def test_plain_relations_need_the_quotient(gpoint):
    """The two-generator relations hold only after forcing T1 = -ab: the
    raw embeddings are nonzero, but right-multiplying by T1+1 lands them
    in zero (that product kills the T1+ab eigenline)."""
    q, a, b, c, d = vals(gpoint)
    t1_plus_1 = Element("aw", {("T1",): RatFunc.one(), (): RatFunc.one()})
    for name, relation in quotient_relations(gpoint).items():
        assert not embed_aw(relation, gpoint).is_zero(), name
        assert embed_aw(relation * t1_plus_1, gpoint).is_zero(), name


def test_aw_equal(gpoint):
    k0k1 = Element.word(("K0", "K1"), "aw")
    k1k0 = Element.word(("K1", "K0"), "aw")
    assert embed_aw(k0k1, gpoint) != embed_aw(k1k0, gpoint)
    t1k0 = Element.word(("T1", "K0"), "aw")
    k0t1 = Element.word(("K0", "T1"), "aw")
    assert embed_aw(t1k0, gpoint) == embed_aw(k0t1, gpoint)


# ---------------------------------------------------------------------------
# The symmetrizers and the two subalgebra maps
#
# The maps are cleared: compress gives F u F, e^2 times the compression by
# the idempotent e^-1 F, and iso_image gives U~ F, e times the isomorphism.
# Each assertion below is the normalised statement times a power of e.


def test_idempotents(sym):
    f_sym, e_sym = symmetrizer("sym", sym)
    f_asym, e_asym = symmetrizer("asym", sym)
    # e^-1 F is idempotent: F^2 = eF
    for f, e in ((f_sym, e_sym), (f_asym, e_asym)):
        assert reduce(f * f - f.scale(e), sym).is_zero()
    # the idempotents sum to 1: F_sym - F_asym = 1-ab = e_sym = -e_asym
    assert e_asym == -e_sym
    assert reduce(f_sym - f_asym - e_sym, sym).is_zero()


def test_idempotents_reject_unit_ab():
    # ab = 1 cannot enter through make_params, but a parameter shift can
    # produce it: here (qa)(qb) = q^2 ab = 1.
    base = make_params(
        "specialized", {"q": Fraction(1, 2), "a": 2, "b": 2, "c": 3, "d": 5}
    )
    for family in ("sym", "asym"):
        with pytest.raises(DegenerateParameters):
            symmetrizer(family, base.shifted())


def test_spherical_map(gpoint):
    # S(1) = e^-1 F: F 1 F = e F
    for family in ("sym", "asym"):
        f, e = symmetrizer(family, gpoint)
        assert compress(family, Element.one("daha"), gpoint) == reduce(f, gpoint).scale(e)
    # multiplicative on the commutant: S(U)S(V) = S(UV) for embedded words,
    # FUF FVF = e^2 F UV F
    _, e = symmetrizer("sym", gpoint)
    u = embed_aw(Element.generator("K0"), gpoint).as_element()
    v = embed_aw(Element.generator("K1"), gpoint).as_element()
    lhs = multiply(compress("sym", u, gpoint), compress("sym", v, gpoint), gpoint)
    assert lhs == compress("sym", u * v, gpoint).scale(e * e)


def test_iso_spherical(gpoint):
    f, e = symmetrizer("sym", gpoint)
    # the image of 1 is the idempotent e^-1 F
    assert iso_image("sym", Element.one("aw"), gpoint) == reduce(f, gpoint)
    one = RatFunc.one()
    expected = Element(
        "daha",
        {("Z", "T1"): one, ("Zi", "T1"): one, ("Z",): one, ("Zi",): one},
    )
    assert iso_image("sym", Element.generator("K1"), gpoint) == reduce(expected, gpoint)
    k0, k1 = Element.generator("K0"), Element.generator("K1")
    lhs = iso_image("sym", k0 * k1, gpoint).scale(e)
    rhs = multiply(iso_image("sym", k0, gpoint), iso_image("sym", k1, gpoint), gpoint)
    assert lhs == rhs


def test_iso_antispherical(gpoint):
    f, e = symmetrizer("asym", gpoint)
    assert iso_image("asym", Element.one("aw"), gpoint) == reduce(f, gpoint)
    k0, k1 = Element.generator("K0"), Element.generator("K1")
    lhs = iso_image("asym", k0 * k1, gpoint).scale(e)
    rhs = multiply(iso_image("asym", k0, gpoint), iso_image("asym", k1, gpoint), gpoint)
    assert lhs == rhs


def test_iso_antispherical_kills_shifted_relation(gpoint):
    """The first q-commutator relation with structure constants taken at
    the shifted parameters (qa, qb, c, d) maps to zero."""
    sc = structure_constants(gpoint.shifted())
    q = gpoint.value("q")
    k0, k1 = Element.generator("K0"), Element.generator("K1")
    one = Element.one("aw")
    rel1 = (
        (k1 * k0 * k1).scale(q + q.inv())
        - k1 * k1 * k0
        - k0 * k1 * k1
        - k1.scale(sc.B)
        - k0.scale(sc.C0)
        - one.scale(sc.D0)
    )
    assert iso_image("asym", rel1, gpoint).is_zero()
    # control: the unshifted constants do not work here
    sc0 = structure_constants(gpoint)
    wrong = (
        (k1 * k0 * k1).scale(q + q.inv())
        - k1 * k1 * k0
        - k0 * k1 * k1
        - k1.scale(sc0.B)
        - k0.scale(sc0.C0)
        - one.scale(sc0.D0)
    )
    assert not iso_image("asym", wrong, gpoint).is_zero()


# ---------------------------------------------------------------------------
# Dominance predicate


def test_dominated():
    assert not _dominated([(2, 1, 0)], 2, 1)
    assert _dominated([(1, 1, 0), (-1, 0, 0)], 2, 1)
    assert not _dominated([(-2, 1, 0)], 2, 1)
    # a T1 term is rejected even where its exponents are dominated
    assert not _dominated([(2, 0, 1)], 2, 1)
    # the corner is dominated only in a larger box; an edge point and zero are dominated
    assert _dominated([(2, 1, 0)], 2, 2)
    assert not _dominated([(2, 2, 0)], 2, 2)
    assert _dominated([(2, 2, 0)], 3, 3)
    assert _dominated([], 1, 1)


# ---------------------------------------------------------------------------
# Centralizer, shift operators, center


def _commutator(u, v, params):
    return multiply(u, v, params) - multiply(v, u, params)


def test_commutators_with_t1(gpoint):
    one = RatFunc.one()
    t1 = NormalForm({(0, 0, 1): one})
    assert _commutator(embed_aw(Element.generator("K0"), gpoint), t1, gpoint).is_zero()
    assert not _commutator(NormalForm({(1, 0, 0): one}), t1, gpoint).is_zero()
    z_plus_zi = NormalForm({(1, 0, 0): one, (-1, 0, 0): one})
    assert _commutator(z_plus_zi, t1, gpoint).is_zero()


def test_symmetrizer_central_on_embedded_words(sym):
    # P+ = e^-1 F commutes with everything that commutes with T1
    f, _ = symmetrizer("sym", sym)
    for word in (("K0",), ("K1",), ("K0", "K1")):
        u = embed_aw(Element("aw", {word: RatFunc.one()}), sym).as_element()
        assert reduce(f * u - u * f, sym).is_zero(), word


def test_shift_operator_identities(gpoint):
    minus, plus = shift_operator_identities(gpoint)
    assert minus.is_zero()
    assert plus.is_zero()


def test_shift_operator_perturbation_is_nonzero(gpoint):
    # replacing the a^2 b^2 cd/q coefficient by ab cd/q breaks the identity
    q, a, b, c, d = vals(gpoint)
    ab, cd = a * b, c * d
    middle = Element(
        "daha",
        {("Y",): RatFunc.one(), ("Yi",): ab * cd / q, (): -(ab * cd / q + ab)},
    )
    f = Element("daha", {("T1",): RatFunc.one(), (): RatFunc.one()})
    assert not reduce(f * middle * f, gpoint).is_zero()


def test_center_kernel_at_degree_two(gpoint):
    # on Z^m Y^n T1^i with |m|+|n|+i <= 2, only the scalars commute with Z,
    # Y and T1; Z fails to commute with Y, and T1 with Z
    one = RatFunc.one()
    keys = [(m, n, i) for m in range(-2, 3) for n in range(-2, 3) for i in (0, 1)]
    box = [NormalForm({key: one}) for key in keys if abs(key[0]) + abs(key[1]) + key[2] <= 2]
    z, y, t1 = (NormalForm({key: one}) for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    images = [
        {
            (j, key): c
            for j, g in enumerate((z, y, t1))
            for key, c in _commutator(x, g, gpoint).terms.items()
        }
        for x in box
    ]
    assert (len(images), _rank(images, gpoint)) == (18, 17)
    assert not _commutator(z, y, gpoint).is_zero()
    assert not _commutator(t1, z, gpoint).is_zero()


# ---------------------------------------------------------------------------
# The rank routine


def _planted_rows(rng):
    # independent integer rows and random combinations of them, shuffled
    cols = rng.randint(1, 7)
    base = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rng.randint(1, 6))]
    combos = [
        [sum(k * row[j] for k, row in zip(weights, base)) for j in range(cols)]
        for weights in ([rng.randint(-3, 3) for _ in base] for _ in range(rng.randint(0, 4)))
    ]
    rows = base + combos
    rng.shuffle(rows)
    return rows


def _as_vectors(rows, point):
    # _rank reads the product kernel's lifted coefficients at the point
    lift = rewrite_system(point).carrier.lift
    return [{j: lift(RatFunc.from_rational(x)) for j, x in enumerate(row) if x} for row in rows]


@pytest.mark.parametrize("which", ["gpoint", "modp"])
def test_rank_matches_sympy_on_planted_dependencies(which, request):
    from sympy import GF, Matrix
    from sympy.polys.matrices import DomainMatrix

    point = (
        random_params_mod_p(random.Random(5)) if which == "modp" else request.getfixturevalue(which)
    )
    field = GF(PRIME)
    rng = random.Random(17)
    for _ in range(60):
        rows = _planted_rows(rng)
        if which == "modp":
            shape = (len(rows), len(rows[0]))
            want = DomainMatrix([[field(x) for x in row] for row in rows], shape, field).rank()
        else:
            want = Matrix(rows).rank()
        assert _rank(_as_vectors(rows, point), point) == want, rows


def test_rank_reads_the_field_of_the_point(gpoint):
    # the determinant 2 (p+1)/2 - 1 = p vanishes mod p only
    rows = [[2, 1], [1, (PRIME + 1) // 2]]
    assert _rank(_as_vectors(rows, gpoint), gpoint) == 2
    modp = random_params_mod_p(random.Random(5))
    assert _rank(_as_vectors(rows, modp), modp) == 1
    assert _rank([], gpoint) == 0
    assert _rank([{}, {"x": RatFunc.zero()}], gpoint) == 0


# ---------------------------------------------------------------------------
# Duality anti-maps


def test_duality_daha_kills_relations(spoint):
    system = rewrite_system(spoint)
    for name, relation in system.defining_relations():
        image, dual = duality_image(relation, "DAHA", spoint)
        assert reduce(image, dual).is_zero(), name


def test_duality_aw_generator_images(spoint):
    image, dual = duality_image(Element.generator("K0"), "AW", spoint)
    assert image.terms == {("K1",): RatFunc.from_rational(2)}  # s = 2 here
    image, _ = duality_image(Element.generator("K1"), "AW", spoint)
    assert image.terms == {("K0",): RatFunc.from_rational(Fraction(1, 3))}


@pytest.mark.parametrize("which", ["spoint", "root", "modp"])
def test_duality_aw_kills_extension_relations(which, request):
    # the oracle of duality.aw, which names these as corollaries of other rows:
    # the dual images of the relations of the central extension embed to zero,
    # and those of the quotient relations vanish modulo T1 = -ab
    if which == "spoint":
        point = request.getfixturevalue("spoint")
    elif which == "root":
        point = make_params("symbolic").with_square_root()
    else:
        point = random_params_mod_p(random.Random(4))
    dual = point.dual()
    assert aw_relations(dual)  # the dual family is admissible and buildable
    for name, relation in aw_relations(point).items():
        image, target = duality_image(relation, "AW", point)
        assert target == dual
        assert embed_aw(image, target).is_zero(), name
    for name, relation in quotient_relations(point).items():
        image, target = duality_image(relation, "AW", point)
        assert iso_image("sym", image, target).is_zero(), name


def test_duality_is_anti_multiplicative(spoint):
    # both sides are reduced independently: the image of the product in
    # one pass, against the product of the separately reduced images
    rng = random.Random(6)
    for _ in range(20):
        u = w(*[rng.choice(LETTERS) for _ in range(rng.randint(1, 4))])
        v = w(*[rng.choice(LETTERS) for _ in range(rng.randint(1, 4))])
        iu, dual = duality_image(u, "DAHA", spoint)
        iv, _ = duality_image(v, "DAHA", spoint)
        iuv, _ = duality_image(u * v, "DAHA", spoint)
        assert reduce(iuv, dual) == multiply(reduce(iv, dual), reduce(iu, dual), dual)


def test_aw_duality_is_anti_multiplicative(spoint):
    # same dual-route comparison, on the three-letter alphabet, with the
    # images pushed through the embedding before reducing
    rng = random.Random(7)
    for _ in range(20):
        w1 = tuple(rng.choice(("K0", "K1", "T1")) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.choice(("K0", "K1", "T1")) for _ in range(rng.randint(1, 3)))
        u = Element("aw", {w1: RatFunc.one()})
        v = Element("aw", {w2: RatFunc.one()})
        iu, dual = duality_image(u, "AW", spoint)
        iv, _ = duality_image(v, "AW", spoint)
        iuv, _ = duality_image(u * v, "AW", spoint)
        lhs = embed_aw(iuv, dual)
        rhs = multiply(embed_aw(iv, dual), embed_aw(iu, dual), dual)
        assert lhs == rhs, (w1, w2)


def test_duality_involution_on_words(spoint):
    word = w("Z", "Y", "T1")
    image, dual = duality_image(word, "DAHA", spoint)
    back, base = duality_image(image, "DAHA", dual)
    for name in ("q", "a", "b", "c", "d"):
        assert base.value(name) == spoint.value(name)
    assert reduce(back - word, spoint).is_zero()


def test_published_dual_family_fails(spoint):
    """Negative control: the anti-map printed with first dual parameter 1/s
    (images Y -> a Z^-1, Z -> s^-1 Y^-1) does not preserve the relations.

    With s = 2 here, that family is (1/2, 15/2, 21/2, 33/2)."""
    printed_dual = make_params(
        "specialized",
        {
            "q": Fraction(1155, 4),
            "a": Fraction(1, 2),
            "b": Fraction(15, 2),
            "c": Fraction(21, 2),
            "d": Fraction(33, 2),
        },
    )
    a = spoint.value("a")
    s = RatFunc.from_rational(2)
    images = {
        "T1": Element.generator("T1", "daha"),
        "Y": Element("daha", {("Zi",): a}),
        "Yi": Element("daha", {("Z",): a.inv()}),
        "Z": Element("daha", {("Yi",): s.inv()}),
        "Zi": Element("daha", {("Y",): s}),
    }
    failures = 0
    for name, relation in rewrite_system(spoint).defining_relations():
        image = relation.map_letters_reversed(images, "daha")
        if not reduce(image, printed_dual).is_zero():
            failures += 1
    assert failures > 0