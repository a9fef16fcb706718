"""The kernel's maps are products of reduced factors; rewriting the fully
expanded element is the oracle they must agree with.

``reduce``, ``compress``, ``iso_image``, ``embed_aw`` and the left sides of
the step identities multiply short normal forms (F, basis monomials,
letter images) through the memoized basis products, and each basis
product applies one rule at a time, at the junction of a letter and a
basis word.  Here the basis products, ``reduce`` and the maps are compared
with the breadth-first rewriting of ``rewriting.py`` of the same element
written out as a sum of words, at symbolic parameters on small inputs, at
a rational point and at points of GF(p).
"""

import random
from collections import OrderedDict

import pytest
from rewriting import rewrite, rewrite_terms, step_lhs

from rank1daha import aw3, ncalg, steps, words
from rank1daha.aw3 import (
    compress,
    embed_aw,
    embed_element,
    iso_image,
    shift_operator_identities,
    symmetrizer,
)
from rank1daha.errors import BudgetExhausted
from rank1daha.field import RatFunc
from rank1daha.modp import ModP, random_params_mod_p
from rank1daha.ncalg import reduce
from rank1daha.params import make_params
from rank1daha.reports import RunConfig
from rank1daha.steps import STEP_IDENTITIES, check_step_identity
from rank1daha.verify import run_checks
from rank1daha.words import Element, NormalForm

_ONE = RatFunc.one()


@pytest.fixture(
    scope="module", params=[None, 3, 4], ids=["symbolic", "mod-p-seed-3", "mod-p-seed-4"]
)
def point(request):
    if request.param is None:
        return make_params("symbolic")
    return random_params_mod_p(random.Random(request.param))


def _max_len(params, symbolic, modp):
    # words stay short at symbolic parameters, where rewriting is slow
    return symbolic if params.is_symbolic else modp


def _words(rng, letters, count, max_len):
    return [
        tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
        for _ in range(count)
    ]


def _aw_element(rng, max_len):
    # two words with small integer coefficients, T1 among the letters
    terms = {}
    for word in _words(rng, ("K0", "K1", "T1"), 2, max_len):
        terms[word] = RatFunc.from_rational(rng.randint(1, 4))
    return Element("aw", terms)


def _iso_oracle(family, u, params):
    f, _ = symmetrizer(family, params)
    tilde = u
    if family == "asym":
        q = params.value("q")
        tilde = Element("aw", {w: c * q ** w.count("K0") for w, c in u.terms.items()})
    return rewrite(embed_element(tilde, params) * f, params)


def _step_lhs_oracle(row, m, n, params):
    """The left side of a step row as one element, written out word by word."""
    if row.kind == "exact":
        m, n = 1, 1
    f, _ = symmetrizer(row.family, params)
    q, a, b, c, d = params.vals
    bases = (q, a, b, a * b * c * d / q)
    sm, sn = row.signs
    if row.kind == "embed":
        k_word = {("K1",) * (abs(sm) * m) + ("K0",) * (abs(sn) * n): _ONE}
    else:
        k_word = {
            ("K1",) * (m - 1) + w + ("K0",) * (n - 1): steps._coef(coef, n, bases)
            for w, coef in row.middle.items()
        }
    embedded = embed_element(Element("aw", k_word), params) * f
    sandwich = f * Element("daha", {words._basis_word(sm * m, sn * n, 0): _ONE}) * f
    if row.kind == "step3":
        return sandwich.scale(steps._coef(steps._ONE_MINUS_Q2, n, bases)) - embedded.scale(
            steps._coef(row.scalar, n, bases)
        )
    return embedded if row.kind in ("embed", "mixed") else sandwich


def _keys(bound):
    span = range(-bound, bound + 1)
    return [(m, n, i) for m in span for n in span for i in (0, 1)]


@pytest.mark.parametrize("which", ["sym", "gpoint", "modp"])
def test_basis_products_match_rewriting(which, request):
    # Y, Y^-1 and T1 times every basis word with |m|, |n| <= 3 is the rule
    # application at the junction; the key pairs add the staged peel.  The
    # oracle rewrites whole words, so the pairs stop at |m|, |n| <= 1 (2 at
    # GF(p)): on all pairs with |m|, |n| <= 3 it takes minutes
    params = random_params_mod_p(random.Random(3)) if which == "modp" else request.getfixturevalue(which)
    system = ncalg.RewriteSystem(params)
    letters = [(0, 1, 0), (0, -1, 0), (0, 0, 1)]
    pairs = [(x, key) for x in letters for key in _keys(3)]
    bound = 2 if which == "modp" else 1
    pairs += [(k1, k2) for k1 in _keys(bound) for k2 in _keys(bound)]
    for key1, key2 in pairs:
        word = words._basis_word(*key1) + words._basis_word(*key2)
        got = system.basis_product(key1, key2)
        assert got == rewrite_terms(system, {word: system.one}), (key1, key2)


@pytest.mark.parametrize("which", ["sym", "gpoint", "modp"])
def test_reduce_matches_rewriting(which, request):
    # reduce splits a word at its leftmost or rightmost redex and multiplies
    # the parts through the basis products; both orders must give the oracle's
    params = random_params_mod_p(random.Random(3)) if which == "modp" else request.getfixturevalue(which)
    rng = random.Random(9)
    for word in _words(rng, words.DAHA_ALPHABET, 20, 4 if which == "sym" else 6):
        e = Element("daha", {word: _ONE})
        want = rewrite(e, params)
        for strategy in ("leftmost", "rightmost"):
            assert reduce(e, params, strategy=strategy) == want, (word, strategy)


def test_compress_matches_rewriting(point):
    rng = random.Random(5)
    for family in ("sym", "asym"):
        f, _ = symmetrizer(family, point)
        for word in _words(rng, words.DAHA_ALPHABET, 4, _max_len(point, 2, 4)):
            u = Element("daha", {word: _ONE})
            assert compress(family, u, point) == rewrite(f * u * f, point), word


def test_iso_image_matches_rewriting(point):
    rng = random.Random(6)
    for family in ("sym", "asym"):
        for word in _words(rng, ("K0", "K1"), 4, _max_len(point, 2, 4)):
            u = Element("aw", {word: _ONE})
            assert iso_image(family, u, point) == _iso_oracle(family, u, point), word


def test_embed_aw_matches_rewriting(point):
    rng = random.Random(7)
    for _ in range(4):
        e = _aw_element(rng, _max_len(point, 3, 5))
        assert embed_aw(e, point) == rewrite(embed_element(e, point), point), e


def test_step_left_sides_match_rewriting(point):
    for name, row in STEP_IDENTITIES.items():
        for m in (1, 2):
            for n in (1, 2):
                got = step_lhs(row, m, n, point)
                assert got == rewrite(_step_lhs_oracle(row, m, n, point), point), (name, m, n)


def test_shift_operators_match_rewriting(point):
    # both shift-operator compressions, and the shiftops control's perturbed
    # lowering one, against the expanded word products F D F
    vals = point.values()
    ab, cd, q = vals["a"] * vals["b"], vals["c"] * vals["d"], vals["q"]
    d_minus = Element(
        "daha", {("Y",): _ONE, ("Yi",): ab * ab * cd / q, (): -(ab * cd / q + ab)}
    )
    d_plus = Element("daha", {("Y",): _ONE, ("Yi",): cd / q, (): -(cd / q + _ONE)})
    f_sym, _ = symmetrizer("sym", point)
    f_asym, _ = symmetrizer("asym", point)
    first, second = shift_operator_identities(point)
    assert first == rewrite(f_sym * d_minus * f_sym, point)
    assert second == rewrite(f_asym * d_plus * f_asym, point)
    perturbed = compress("sym", d_minus + 1, point)
    assert perturbed == rewrite(f_sym * (d_minus + 1) * f_sym, point)
    assert not perturbed.is_zero()


def _sweep_steps(point):
    # every step row at (m, n) <= (2, 2), the exponents each row reads
    evaluations = 0
    for name, row in STEP_IDENTITIES.items():
        uses_m, uses_n = row.uses()
        for m in (1, 2) if uses_m else (1,):
            for n in (1, 2) if uses_n else (1,):
                assert check_step_identity(name, m, n, point)[1], (name, m, n)
                evaluations += 1
    return evaluations


def test_step_rows_build_f_once_and_rewrite_no_words(monkeypatch):
    """Work gate on one sweep of every step row at (m, n) <= (2, 2), the
    exponents each row reads, at a fresh point of GF(p): the rewrite system
    builds F once per family, and no word is rewritten.  Rebuilding and
    reducing F on every call took 244 symmetrizer and 220 reduce_terms
    calls for the 106 evaluations."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    calls = {"symmetrizer": 0, "reduce_terms": 0}
    build, reduce_terms = aw3.symmetrizer, ncalg.RewriteSystem.reduce_terms

    def counted_build(*args, **kwargs):
        calls["symmetrizer"] += 1
        return build(*args, **kwargs)

    def counted_rewrite(*args, **kwargs):
        calls["reduce_terms"] += 1
        return reduce_terms(*args, **kwargs)

    monkeypatch.setattr(aw3, "symmetrizer", counted_build)
    monkeypatch.setattr(ncalg.RewriteSystem, "reduce_terms", counted_rewrite)
    point = random_params_mod_p(random.Random(8))
    assert _sweep_steps(point) == 106
    assert calls == {"symmetrizer": 2, "reduce_terms": 0}, calls
    reduce(Element.word(("T1",), "daha"), point)  # the counter counts
    assert calls["reduce_terms"] == 1


def test_warm_step_rows_take_no_modp_arithmetic(monkeypatch):
    """Work gate on the step identities at a warm point of GF(p): the left
    sides, the leading terms times F, the T1 factorisation and the
    dominance test all run on int residues, with the table coefficients
    memoized on the rewrite system.  Forming the residual with ModP objects
    and evaluating the coefficients on every call took 2,360 ModP
    multiplications, 1,074 negations, 978 additions, 560 powers and 92
    inversions in the 106 evaluations of one warm sweep."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    point = random_params_mod_p(random.Random(8))
    assert _sweep_steps(point) == 106
    calls = {}

    def counted(name):
        method = getattr(ModP, name)

        def run(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return method(self, *args)

        return run

    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv")
    for name in names:
        monkeypatch.setattr(ModP, name, counted(name))
    point.vals[0] * point.vals[1]  # the counters count
    assert calls == {"__mul__": 1}
    calls.clear()
    assert _sweep_steps(point) == 106
    assert calls == {}


# each map reaches a looping rule only through its basis products
_LOOPING_CALLS = {
    "compress": lambda p: compress("sym", Element.word(("Z",), "daha"), p),
    "iso_image": lambda p: iso_image("asym", Element.word(("K0", "K1"), "aw"), p),
    "step.44": lambda p: check_step_identity("44", 1, 1, p),
    "step.56": lambda p: check_step_identity("56", 1, 1, p),
    "reduce-leftmost": lambda p: reduce(Element.word(("T1", "Y", "Z"), "daha"), p),
    "reduce-rightmost": lambda p: reduce(
        Element.word(("T1", "Y", "Z"), "daha"), p, strategy="rightmost"
    ),
    "critical_pairs": lambda p: list(ncalg.rewrite_system(p).critical_pairs()),
}


def _looping_table(monkeypatch, point):
    # a rule table that never terminates is what the budget guards against
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    rules = ncalg.rewrite_system(point).rules
    one = rules[("Z", "Zi")][0][1]
    monkeypatch.setitem(rules, ("T1", "T1"), ((("T1", "T1"), one),))
    monkeypatch.setitem(rules, ("Y", "Z"), ((("Y", "Z"), one),))
    return one


@pytest.mark.parametrize("name", sorted(_LOOPING_CALLS))
def test_a_looping_rule_exhausts_the_budget(monkeypatch, gpoint, name):
    _looping_table(monkeypatch, gpoint)
    monkeypatch.setattr(ncalg, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExhausted, match="exceeded 10 rule applications"):
        _LOOPING_CALLS[name](gpoint)


@pytest.mark.parametrize("name", ["multiply", "embed_aw"])
def test_a_looping_rule_exhausts_the_budget_mod_p(monkeypatch, name):
    # the same looping table at a point of GF(p), where the kernel works on
    # residues; under the default budget the loop nests past the
    # interpreter's limit first, and that ends in BudgetExhausted too
    point = random_params_mod_p(random.Random(3))
    one = _looping_table(monkeypatch, point)
    t1 = NormalForm({(0, 0, 1): one})
    calls = {
        "multiply": lambda: ncalg.multiply(t1, t1, point),
        "embed_aw": lambda: embed_aw(Element.word(("K0", "K1"), "aw"), point),
    }
    with pytest.raises(BudgetExhausted, match="nested too deeply"):
        calls[name]()
    monkeypatch.setattr(ncalg, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExhausted, match="exceeded 10 rule applications"):
        calls[name]()


def test_reduce_splits_words_into_basis_products(monkeypatch):
    """Work gate on ``reduce`` of Y^3 Z^3 T1 Y^-2 Z^-2 at a cold point of
    GF(p): the word is split at its redexes into basis words, and their
    products take 462 one-rule steps (``_peel`` calls).  Rewriting the
    whole word breadth first applied 257,857 rules."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    calls, peel = [0], ncalg.RewriteSystem._peel

    def counted(self, *args):
        calls[0] += 1
        return peel(self, *args)

    monkeypatch.setattr(ncalg.RewriteSystem, "_peel", counted)
    word = ("Y",) * 3 + ("Z",) * 3 + ("T1",) + ("Yi",) * 2 + ("Zi",) * 2
    point = random_params_mod_p(random.Random(3))
    assert not reduce(Element.word(word, "daha"), point).is_zero()
    assert 0 < calls[0] <= 510, calls[0]


def test_step3_and_iso_rewrite_no_words(monkeypatch):
    """Work gate on the seeded trial of test_step3_and_iso_work_gate: the
    basis products apply one rule per memo miss and rewrite no word, where
    whole-word rewriting took 1,504 rule applications.  The memo holds the
    sub-products too: 399 entries (643 with the 49 products of the
    retired iso.spherical.mult)."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    splits, systems = [0], []
    find_redex, init = ncalg.RewriteSystem._find_redex, ncalg.RewriteSystem.__init__

    def counted(self, word, strategy):
        pos = find_redex(self, word, strategy)
        splits[0] += pos is not None
        return pos

    def kept(self, params):
        # the run releases its trial's system when the trial ends; keep it to read
        init(self, params)
        systems.append(self)

    monkeypatch.setattr(ncalg.RewriteSystem, "_find_redex", counted)
    monkeypatch.setattr(ncalg.RewriteSystem, "__init__", kept)
    config = RunConfig(checks=["step3.spherical", "iso.spherical.rank"], mode="prob", trials=1)
    assert [r.verdict for r in run_checks(config).results] == ["pass", "pass"]
    assert splits[0] == 0
    memoized = sum(len(s._product_cache) for s in systems)
    assert 0 < memoized <= 399, memoized
    reduce(Element.word(("T1", "Z"), "daha"), systems[0].params)  # the counter counts
    assert splits[0] == 1


def test_step3_and_iso_work_gate(monkeypatch):
    """Work gate on the GF(p) multiplications of one seeded trial of
    step3.spherical and iso.spherical.rank, from a cold rewrite system.
    Rewriting the expanded words took 72,045 with iso.spherical.mult, and
    the products of reduced factors on residues 4,270; with the rank
    certificate in its place they take 3,436.  The bound keeps 12% of
    headroom, as 50,000 did over 44,683 before the residue kernel."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    counted = [0]
    mul = ModP.__mul__

    def count(self, other):
        counted[0] += 1
        return mul(self, other)

    monkeypatch.setattr(ModP, "__mul__", count)
    monkeypatch.setattr(ModP, "__rmul__", count)
    config = RunConfig(checks=["step3.spherical", "iso.spherical.rank"], mode="prob", trials=1)
    assert [r.verdict for r in run_checks(config).results] == ["pass", "pass"]
    assert 0 < counted[0] <= 3_850, counted[0]
