"""Canonical-basis reduction in the double affine Hecke algebra.

The algebra carries five generators T1, Y, Y^-1, Z, Z^-1 subject to a
Hecke-type quadratic relation for T1, cross relations moving T1 to the
right, and q-commutation relations moving Y-letters to the right of
Z-letters.  Every element has a unique expansion in the basis
Z^m Y^n T1^i (m, n integers, i in {0, 1}); :func:`reduce` computes it
through the memoized products of basis monomials, as every map does.

:func:`multiply` folds two normal forms through the memoized products of
basis monomials, and the maps of :mod:`rank1daha.aw3` and the step rows of
:mod:`rank1daha.steps` multiply F, basis monomials and the images of single
letters that way, so they never expand a product into its words.  A basis
product not yet memoized applies one rule at a time, at the junction of a
letter and a basis word, and takes what the rule leaves through the memo
again (:meth:`RewriteSystem.basis_product`); at a point of GF(p) the
products run on plain int residues, and a ``ModP`` is built only where a
normal form is returned.  The compressions F Z^m Y^n F, the embedded
K-words times F and the step table coefficients are kept in the system's
one memo, so the checks that share a point share them.  :func:`reduce` takes
the same products: it splits a word at a redex into a basis word and a
shorter word and multiplies their normal forms, so the critical pairs,
``idempotents`` (F^2 = eF), ``duality.daha`` and the argument of
:func:`rank1daha.aw3.compress` share the memo too.  Each kernel step
applies one rule in context, so every result is a reduct of its input, and
Bergman's diamond lemma needs no particular reduction strategy.  One
constant, :data:`DEFAULT_BUDGET`, read at call time, bounds the rule
applications behind each basis product not yet memoized, its new
sub-products included; memoized products cost none.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Mapping

from .errors import BudgetExhausted
from .field import RatFunc
from .modp import _carrier
from .params import Params, _params_cache_entry
from .words import (
    _ONE,
    DAHA_ALPHABET,
    Element,
    NormalForm,
    Word,
    _basis_key,
    _basis_word,
    _embedding_images,
    _is_basis_word,
    _one,
    _order_key,
    _word_key,
    symmetrizer,
)

__all__ = [
    "DEFAULT_BUDGET",
    "RewriteSystem",
    "rewrite_system",
    "reduce",
    "multiply",
]


DEFAULT_BUDGET = 10**6


# ---------------------------------------------------------------------------
# The rewrite system


class RewriteSystem:
    """The two-letter rewrite rules derived from the defining relations.

    Every left side is an adjacent letter pair; every right side is a
    linear combination of basis words Z^m Y^n T1^i (checked at
    construction).  :meth:`critical_pairs`, :meth:`termination_failures`
    and :meth:`left_side_failures` certify that exhaustive application of
    the rules computes the unique basis expansion.
    """

    def __init__(self, params: Params):
        self.params = params
        q, a, b, c, d = params.vals
        one = self.one = _one(params)
        ab = a * b
        cd = c * d
        u = self.u = ab * cd / q  # the recurring scalar q^-1 abcd
        self._bases = (q, a, b, u)  # the bases of the step-table coefficients
        ui = u.inv()
        qi = q.inv()
        rules: dict[tuple[str, str], tuple[tuple[Word, RatFunc], ...]] = {
            ("T1", "T1"): ((("T1",), -(ab + one)), ((), -ab)),
            ("T1", "Z"): (
                (("Zi", "T1"), one),
                (("Zi",), ab + one),
                ((), -(a + b)),
            ),
            ("T1", "Zi"): (
                (("Z", "T1"), one),
                (("Zi",), -(ab + one)),
                ((), a + b),
            ),
            ("T1", "Y"): (
                (("Yi", "T1"), u),
                (("Y",), -(ab + one)),
                ((), ab * (one + qi * cd)),
            ),
            ("T1", "Yi"): (
                (("Y", "T1"), ui),
                (("Y",), ui * (one + ab)),
                ((), -q * cd.inv() * (one + qi * cd)),
            ),
            ("Y", "Z"): (
                (("Z", "Y"), q),
                (("Zi", "Yi", "T1"), (one + ab) * cd),
                (("Yi", "T1"), -(a + b) * cd),
                (("Zi", "T1"), -(one + qi * cd)),
                (("Zi",), -(one - q) * (one + ab) * (one + qi * cd)),
                (("T1",), c + d),
                ((), (one - q) * (a + b) * (one + qi * cd)),
            ),
            ("Y", "Zi"): (
                (("Zi", "Y"), qi),
                (("Zi", "Yi", "T1"), -(qi**2) * (one + ab) * cd),
                (("Yi", "T1"), qi**2 * (a + b) * cd),
                (("Zi", "T1"), qi * (one + qi * cd)),
                (("T1",), -qi * (c + d)),
            ),
            ("Yi", "Z"): (
                (("Z", "Yi"), qi),
                (("Zi", "Yi", "T1"), -q * ab.inv() * (one + ab)),
                (("Yi", "T1"), ab.inv() * (a + b)),
                (("Zi", "T1"), ui * (one + qi * cd)),
                (("Zi",), ui * (one - q) * (one + ab) * (one + qi * cd)),
                (("T1",), -(ab * cd).inv() * (c + d)),
                ((), -(ab * cd).inv() * (one - q) * (one + ab) * (c + d)),
            ),
            ("Yi", "Zi"): (
                (("Zi", "Yi"), q),
                (("Zi", "Yi", "T1"), q * ab.inv() * (one + ab)),
                (("Yi", "T1"), -ab.inv() * (a + b)),
                (("Zi", "T1"), -q * ui * (one + qi * cd)),
                (("T1",), ui * (c + d)),
            ),
            ("Z", "Zi"): (((), one),),
            ("Zi", "Z"): (((), one),),
            ("Y", "Yi"): (((), one),),
            ("Yi", "Y"): (((), one),),
        }
        for (l1, l2), rhs in rules.items():
            for word, _ in rhs:
                if not _is_basis_word(word):
                    raise AssertionError(
                        f"rule {l1}{l2} has non-canonical right side {word}"
                    )
        self.rules = rules
        # the scalar handling of the product kernel, fixed here: residues at
        # a point of GF(p), the RatFunc values themselves elsewhere
        self.carrier = _carrier(params)
        self._product_cache: dict[tuple, dict] = {}
        self._prefixes: dict[Word, dict] = {(): {(0, 0, 0): self.carrier.one}}
        self._images = {
            letter: self._lifted(nf) for letter, nf in _embedding_images(params).items()
        }
        self._memo: dict[tuple, object] = {}  # of _once

    # -- the relations and their overlaps -----------------------------------

    def defining_relations(self) -> list[tuple[str, Element]]:
        """Each defining relation as an element (left side minus right
        side); all of them must reduce to zero."""
        out = []
        for (l1, l2), rhs in self.rules.items():
            e = Element("daha", {(l1, l2): _ONE})
            for word, coef in rhs:
                e = e - Element("daha", {word: coef})
            out.append((f"{l1}*{l2}", e))
        return out

    def critical_pairs(self) -> Iterator[tuple[Word, NormalForm]]:
        """Each overlap xyz of two left sides xy and yz, with the reduced
        difference of its two one-step rewrites, rhs(xy) z - x rhs(yz),
        reduced as it is read, so a caller that stops at an unresolved
        overlap reduces none after it.

        :meth:`reduce_terms` reduces it through the product kernel, each of
        whose steps applies one rule in context, so the result is a reduct
        of the difference whatever order the steps take.  Given termination
        (:meth:`termination_failures`), Bergman's diamond lemma (Adv. Math.
        29, 1978) makes reduction confluent exactly when each is zero."""
        rules, lift, zero = self.rules, self.carrier.lift, self.carrier.zero
        for x, y in rules:
            for y2, z in rules:
                if y2 == y:
                    terms: dict = {}  # lifted, as reduce_terms reads them
                    for word, coef in rules[x, y]:
                        terms[word + (z,)] = terms.get(word + (z,), zero) + lift(coef)
                    for word, coef in rules[y, z]:
                        terms[(x,) + word] = terms.get((x,) + word, zero) - lift(coef)
                    yield (x, y, z), self.reduce_terms(terms)

    def termination_failures(self) -> list[tuple[tuple[str, str], Word]]:
        """The (left side L, right-side word w) pairs with w not below L.

        A word's key counts Y/Z letters, Y-letter-before-Z-letter pairs, T1
        letters and T1-before-Y/Z pairs, compared lexicographically.  Counts add
        up over a context x _ y and the cross terms of the pair counts read only
        letter counts, so key(x w y) < key(x L y) for all x, y exactly when w has
        fewer Y/Z letters than L, or as many Y- and Z-letters and a smaller key.
        With no failures, that relation is a semigroup order with descending
        chain condition that every rule decreases, as the diamond lemma needs."""
        out = []
        for lhs, rhs in self.rules.items():
            lhs_ys, lhs_key = _order_key(lhs)
            for word, _ in rhs:
                ys, key = _order_key(word)
                if not (key[0] < lhs_key[0] or (ys == lhs_ys and key < lhs_key)):
                    out.append((lhs, word))
        return out

    def left_side_failures(self) -> list[tuple[str, str]]:
        """The letter pairs where having a rule disagrees with being a basis word.
        With none, a word admits no rule exactly when its adjacent pairs are basis
        words, which makes it Z^m Y^n T1^i: block order, one sign per block and a
        single T1 are conditions on adjacent letters.  So reduction ends exactly
        at the basis words."""
        pairs = [(x, y) for x in DAHA_ALPHABET for y in DAHA_ALPHABET]
        return [pair for pair in pairs if (pair in self.rules) == _is_basis_word(pair)]

    # -- normal forms of words ------------------------------------------

    def _find_redex(self, word: Word, strategy: str) -> int | None:
        last = len(word) - 1
        positions = range(last) if strategy == "leftmost" else range(last - 1, -1, -1)
        rules = self.rules
        for i in positions:
            if (word[i], word[i + 1]) in rules:
                return i
        return None

    def reduce_terms(
        self,
        terms: Mapping[Word, RatFunc],
        strategy: str = "leftmost",
    ) -> NormalForm:
        """The normal form of the sum of c w over the words w and coefficients
        c of ``terms``, lifted or not (the critical pairs pass lifted ones),
        each word's by :meth:`_word_normal_form`."""
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        lift = self.carrier.lift
        lifted = self.carrier.settle({tuple(w): lift(c) for w, c in terms.items()})
        return self._normal_form(
            self._linear((c, self._word_normal_form(w, strategy)) for w, c in lifted.items())
        )

    def _word_normal_form(self, word: Word, strategy: str) -> dict:
        """The lifted normal form of one word, split at the redex that
        ``strategy`` finds, at letters i and i+1.  At the leftmost one
        w[:i+1] is a basis word, and the normal form is it times that of
        w[i+1:]; at the rightmost one w[i+1:] is a basis word, and the
        normal form is that of w[:i+1] times it.  The products are the
        kernel's, whose every step applies one rule in context, so either
        order is a reduction sequence and ends at the same normal form."""
        i = self._find_redex(word, strategy)
        if i is None:
            return {_basis_key(word): self.carrier.one}
        if strategy == "leftmost":
            rest = self._word_normal_form(word[i + 1 :], strategy)
            return self._times(_basis_key(word[: i + 1]), rest, None)
        head = self._word_normal_form(word[: i + 1], strategy)
        return self._multiply(head, {_basis_key(word[i + 1 :]): self.carrier.one})

    def basis_product(self, key1: tuple[int, int, int], key2: tuple[int, int, int]) -> NormalForm:
        """The reduced product of two basis monomials, memoized; products
        of general normal forms decompose into these.

        The left factor is peeled in stages Z^m * (Y^n * (T1^i * v)): the
        T1 and Y stages are themselves memoized one-block products, and the
        final Z stage is a plain exponent shift.  Y^n itself is peeled as
        Y^(+-1) * (Y^(n-+1) * v).  A single letter x times a basis word
        w1 w' applies one rule, at the junction x w1: the product is the sum
        of the rule's terms c r, each times the memoized product r w'.  When
        x w1 is no left side, x w is a basis word already.  Termination of
        the rules (:meth:`termination_failures`) makes this recursion finite,
        and the left sides (:meth:`left_side_failures`) make its ends basis
        words; an end that is not one raises ValueError, as in
        :meth:`reduce_terms`.  :data:`DEFAULT_BUDGET` bounds the rule
        applications behind a product not yet memoized, its new sub-products
        included."""
        return self._normal_form(self._product(key1, key2))

    # -- the product kernel, on lifted coefficients ---------------------
    #
    # Inside the kernel a coefficient is lifted: a plain int residue at a
    # point of GF(p), summed over products and reduced once per output
    # coefficient; the RatFunc itself at any other point.  A lifted normal
    # form is a dict from basis keys to nonzero lifted coefficients, and
    # the memos hold those.

    def _lifted(self, nf: NormalForm) -> dict:
        lift = self.carrier.lift
        return {key: lift(c) for key, c in nf.terms.items()}

    def _normal_form(self, lifted: dict) -> NormalForm:
        drop = self.carrier.drop
        return NormalForm({key: drop(c) for key, c in lifted.items()})

    def _product(self, key1, key2, spent: list[int] | None = None) -> dict:
        cached = self._product_cache.get((key1, key2))
        if cached is not None:
            return cached
        if spent is None:  # an outermost miss: its new sub-products share the budget
            spent = [0]
            try:
                return self._product(key1, key2, spent)
            except RecursionError:
                raise BudgetExhausted(
                    f"rewriting nested too deeply after {spent[0]} rule applications"
                ) from None
        m, n, i = key1
        if not m and abs(n) + i == 1:
            result = self._peel(key1, key2, spent)
        elif not m and not i and n:
            step = 1 if n > 0 else -1
            inner = self._product((0, n - step, 0), key2, spent)
            result = self._times((0, step, 0), inner, spent)
        else:
            if i:
                result = self._product((0, 0, 1), key2, spent)
            else:
                result = {key2: self.carrier.one}
            if n:
                result = self._times((0, n, 0), result, spent)
            if m:
                result = {(k0 + m, k1, k2): c for (k0, k1, k2), c in result.items()}
        self._product_cache[(key1, key2)] = result
        return result

    def _peel(self, key1, key2, spent: list[int]) -> dict:
        """x w for a letter x (Y, Y^-1 or T1) and a basis word w = w1 w',
        by one rule application at the junction x w1."""
        x = _basis_word(*key1)[0]
        w = _basis_word(*key2)
        rhs = self.rules.get((x, w[0])) if w else None
        if rhs is None:
            return {_basis_key((x,) + w): self.carrier.one}
        spent[0] += 1
        if spent[0] > DEFAULT_BUDGET:
            raise BudgetExhausted(f"rewriting exceeded {DEFAULT_BUDGET} rule applications")
        rest = _word_key(w[1:])
        lift, zero = self.carrier.lift, self.carrier.zero
        acc: dict = {}
        for word, coef in rhs:
            if _is_basis_word(word):
                terms = self._product(_word_key(word), rest, spent)
            else:
                # only a rule table altered after construction has such a
                # word; it is multiplied letter by letter, so that no memo
                # key stands for a word it is not
                terms = {rest: self.carrier.one}
                for letter in reversed(word):
                    terms = self._times(_word_key((letter,)), terms, spent)
            c = lift(coef)
            for key, v in terms.items():
                acc[key] = acc.get(key, zero) + c * v
        return self.carrier.settle(acc)

    def _times(self, key1, v: dict, spent: list[int] | None) -> dict:
        """The basis monomial key1 times the lifted normal form v."""
        cache, zero = self._product_cache, self.carrier.zero
        acc: dict = {}
        for key2, c in v.items():
            terms = cache.get((key1, key2))
            if terms is None:
                terms = self._product(key1, key2, spent)
            for key, x in terms.items():
                acc[key] = acc.get(key, zero) + c * x
        return self.carrier.settle(acc)

    def _multiply(self, u: dict, v: dict) -> dict:
        """u v for lifted normal forms.  The monomials of u are grouped by
        (n, i): Y^n T1^i v is formed once per group and shifted by each Z^m
        of it."""
        groups: dict[tuple[int, int], list] = {}
        for (m, n, i), c in u.items():
            groups.setdefault((n, i), []).append((m, c))
        zero = self.carrier.zero
        out: dict = {}
        for (n, i), shifts in groups.items():
            head = self._times((0, n, i), v, None)
            for m, c1 in shifts:
                for (k0, k1, k2), c in head.items():
                    key = (k0 + m, k1, k2)
                    out[key] = out.get(key, zero) + c1 * c
        return self.carrier.settle(out)

    def _linear(self, terms: Iterable[tuple[object, dict]]) -> dict:
        """The sum of c v over the pairs (c, v) of a lifted scalar c and a
        lifted normal form v."""
        zero = self.carrier.zero
        acc: dict = {}
        for c, v in terms:
            for key, x in v.items():
                acc[key] = acc.get(key, zero) + c * x
        return self.carrier.settle(acc)

    def _embed_word(self, word: Word) -> dict:
        """The embedding of one K0/K1/T1 word, lifted.  The word is read
        left to right, its prefix times the next letter's image; the
        prefixes are memoized on the system, like the products."""
        prefixes, images = self._prefixes, self._images
        nf = prefixes[()]
        for end in range(1, len(word) + 1):
            known = prefixes.get(word[:end])
            if known is None:
                known = prefixes[word[:end]] = self._multiply(nf, images[word[end - 1]])
            nf = known
        return nf

    def _once(self, key: tuple, build: Callable):
        """``build()`` on the first call with ``key``, kept by this system: the
        point's results that the checks share, such as its compressions, its
        structure constants and its relations.  They are bounded and released
        with the system (:data:`_SYSTEMS`)."""
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = build()
        return out

    def _symmetrizer(self, family: str) -> dict:
        """F of ``family``, lifted, from :func:`symmetrizer`, memoized."""
        def build():  # F = T1+eps is a normal form
            f, _ = symmetrizer(family, self.params)
            return {_word_key(w): self.carrier.lift(c) for w, c in f.terms.items()}

        return self._once(("symmetrizer", family), build)

    def _compress(self, family: str, u: dict) -> dict:
        """F u F for a lifted normal form u."""
        f = self._symmetrizer(family)
        return self._multiply(self._multiply(f, u), f)

    def _sandwich(self, family: str, key: tuple[int, int, int]) -> dict:
        """F (basis monomial) F, lifted, memoized: the step rows read at
        one point share their compressions."""
        build = lambda: self._compress(family, {key: self.carrier.one})
        return self._once(("sandwich", family, key), build)

    def _embed_times_f(self, family: str, terms: Mapping[Word, object]) -> dict:
        """The embedding of a K0/K1/T1 combination with lifted coefficients
        times F, lifted, as the sum of its words' images times F; those
        are memoized, so the step rows and rank certificates read at one
        point share them."""
        return self._linear((c, self._word_times_f(family, w)) for w, c in terms.items())

    def _word_times_f(self, family: str, word: Word) -> dict:
        """The embedding of one K0/K1/T1 word times F, lifted, memoized."""
        build = lambda: self._multiply(self._embed_word(word), self._symmetrizer(family))
        return self._once(("word times F", family, word), build)

    def _iso_image(self, family: str, terms: Mapping[Word, object]) -> dict:
        """:func:`rank1daha.aw3.iso_image` of a K0/K1 combination with lifted
        coefficients, lifted: for "asym" each word's coefficient takes q per K0."""
        if family == "asym":
            q = self.carrier.vals[0]
            terms = {word: c * q ** word.count("K0") for word, c in terms.items()}
        return self._embed_times_f(family, terms)


_SYSTEMS: OrderedDict[Params, RewriteSystem] = OrderedDict()


def rewrite_system(params: Params) -> RewriteSystem:
    """The shared rewrite system for one parameter set, built once and kept
    while the parameter set is among the most recently used."""
    return _params_cache_entry(_SYSTEMS, params, RewriteSystem)


def reduce(e: Element, params: Params, strategy: str = "leftmost") -> NormalForm:
    """Expand an element over the five-letter alphabet in the canonical
    basis Z^m Y^n T1^i.  Each word is split at its leftmost or rightmost
    redex (``strategy``) into a basis word and a shorter word, and the two
    normal forms are multiplied through the memoized basis products
    (:meth:`RewriteSystem._word_normal_form`).  Every step of those
    products applies one rule in context, so the result is a reduct of the
    element, and the diamond lemma makes it the normal form whichever
    redex is split at."""
    if e.alphabet != "daha":
        raise ValueError("reduce expects an element over the five-letter alphabet")
    return rewrite_system(params).reduce_terms(e.terms, strategy)


def multiply(u: NormalForm, v: NormalForm, params: Params) -> NormalForm:
    """Product of two basis expansions, assembled from memoized
    basis-monomial products (:meth:`RewriteSystem.basis_product`).  The
    monomials of u are grouped by (n, i): Y^n T1^i v is formed once per
    group and shifted by each Z^m of it."""
    system = rewrite_system(params)
    return system._normal_form(system._multiply(system._lifted(u), system._lifted(v)))
