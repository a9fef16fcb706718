"""Noncommutative words, canonical-basis reduction, and subalgebra maps.

The algebra carries five generators T1, Y, Y^-1, Z, Z^-1 subject to a
Hecke-type quadratic relation for T1, cross relations moving T1 to the
right, and q-commutation relations moving Y-letters to the right of
Z-letters.  Every element has a unique expansion in the basis
Z^m Y^n T1^i (m, n integers, i in {0, 1}); :func:`reduce` computes it
through the memoized products of basis monomials, as every map does.

On top of the rewriting core this module provides: the three-generator
central extension of the Askey-Wilson q-commutator algebra, its defining
relations (:func:`aw_relations`, :func:`quotient_relations`) and its
embedding (:func:`embed_aw`), the symmetrizers and the spherical /
antispherical maps, the catalog of step identities used to prove the two
subalgebra isomorphisms (:func:`check_step_identity`) with its
strict-dominance test, duality anti-maps, shift-operator identities, and
the rank routine of the catalog's rank certificates.

Only :func:`symmetrizer` writes F = T1+1 ("sym") or F = T1+ab ("asym")
and knows e, F^2 = eF; a point's rewrite system keeps each F, built once.
The maps are cleared, free of e^-1: :func:`compress` returns F u F, e^2
times the compression by the idempotent e^-1 F, and :func:`iso_image`
returns U~ F, e times the subalgebra isomorphism U -> e^-1 U~ F.

The maps are products of reduced factors.  :func:`multiply` folds two
normal forms through the memoized products of basis monomials, and
:func:`embed_aw`, :func:`compress` (F u F) and :func:`iso_image` (embedded
K-words times F) multiply F, basis monomials and the images of single
letters that way, so they never expand a product into its words; the step
rows and the shift operators take the same two paths.  A basis product not
yet memoized applies one rule at a time, at the junction of a letter and a
basis word, and takes what the rule leaves through the memo again
(:meth:`RewriteSystem.basis_product`); at a point of GF(p) the products
run on plain int residues.  The verdicts stay on them:
:func:`check_step_identity` forms its residual, the T1 factorisation and
the dominance test in one pass and builds the residual's normal form only
when it is read; the rank routine :func:`_rank` eliminates lifted vectors
in place; and the rank certificates read commutators [x, g] = xg - gx of
basis monomials from the memoized products and the isomorphism's images
through :meth:`RewriteSystem._iso_image`.  So a ``ModP`` is built only
where a normal form is returned: by the public maps and :func:`multiply`,
and for a step residual that is read.  The step table coefficients, the
compressions F Z^m Y^n F and the embedded K-words times F are memoized per
rewrite system, so the checks that share a point share them.
:func:`reduce` takes the same products: it splits a word at a redex into a
basis word and a shorter word and multiplies their normal forms, so the
critical pairs, ``idempotents`` (F^2 = eF), ``duality.daha`` and the
argument of :func:`compress` share the memo too.  Each kernel step applies
one rule in context, so every result is a reduct of its input, and
Bergman's diamond lemma needs no particular reduction strategy.  One
constant, :data:`DEFAULT_BUDGET`, read at call time, bounds the rule
applications behind each basis product not yet memoized, its new
sub-products included; memoized products cost none.

The step identities are data.  Each row of :data:`STEP_IDENTITIES` states
LHS = (leading terms + dominated rest) F, with F = T1+1 for the spherical
family ("sym") and F = T1+ab for the antispherical one ("asym").  A row
holds:

- ``signs`` (sm, sn), each in {1, -1, 0}: the signs of the exponents m and
  n in the left side, 0 where the identity does not read that exponent
  (an exact row reads neither, and sm is the sign of its one letter);
- ``kind``, the shape of the left side:
  "sandwich" F Z^(sm m) Y^(sn n) F;
  "embed" K1^(|sm| m) K0^(|sn| n) F, the K-letters embedded;
  "mixed" K1^(m-1) w K0^(n-1) F with the middle word w of ``middle``;
  "exact" F Z^sm F, a one-letter compression whose residual must vanish;
  "step3" (1-q^2) F Z^(sm m) Y^(sn n) F - c K1^(m-1) w K0^(n-1) F, with
  c = ``scalar``, whose whole left side is dominated (no leading terms);
- ``leading``: (sk, sl) -> coefficient of Z^(sk m) Y^(sl n);
- ``check`` and ``statement``: the verification-catalog check the row
  belongs to and, on that check's first row, the check's statement.

Every coefficient is a tuple of integer terms (c, i, j, k, l) meaning the
sum of c q^i a^j b^k u^(l n) with u = abcd/q.  :func:`check_step_identity`
evaluates every row, and a row that holds at (1, 1) holds for every m, n >= 1
iff each term has the l its signs force (:func:`_scaling_break`): (sn - sl)/2
at the corner (sk, sl), (sn - 1)/2 in a step-3 scalar, 0 in a middle word or
where n is not read.  F commutes with K1 = Z + Z^-1 and K~0 = Y + uY^-1
(``embed.t1central``); Z^2 = K1 Z - 1 and Y^2 = K~0 Y - u give, for all integers,
Z^m = p_m(K1) + q_m(K1) Z and Y^n = p'_n(K~0) + Y q'_n(K~0), so F Z^m Y^n F =
p_m G_1 p'_n + p_m G_Y q'_n + q_m G_Z p'_n + q_m G_ZY q'_n with G_X = F X F, and
the K-words are K1^(m-1) J(w)F K~0^(n-1) (Koornwinder, SIGMA 3 (2007) 063).
The polynomials shift basis keys (Z is leftmost, K~0 passes T1), and each base
form is S F, S free of T1 on [-1, 1]^2: G_1 by ``idempotents``, G_Z, G_Y, G_ZY by
the (1, 1) instances of step.44, 47, 49 (astep.* for "asym"), J(w)F by the row's
own.  So every key at (m, n) has |k| <= m, |l| <= n, and a corner is reached
only through extreme coefficients, free of m and homogeneous in n (deg Y = 1,
deg u = 2): corner(m, n) = corner(1, 1) u^((sn - sl)(n - 1)/2).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BudgetExhausted, DegenerateParameters, UnknownIdentity
from .params import (
    Params,
    RatFunc,
    StructureConstants,
    _lifting,
    _params_cache_entry,
    structure_constants,
)

__all__ = [
    "DAHA_ALPHABET",
    "AW_ALPHABET",
    "DEFAULT_BUDGET",
    "Element",
    "NormalForm",
    "RewriteSystem",
    "rewrite_system",
    "reduce",
    "multiply",
    "embed_element",
    "embed_aw",
    "aw_relations",
    "quotient_relations",
    "symmetrizer",
    "compress",
    "iso_image",
    "check_step_identity",
    "STEP_IDENTITIES",
    "StepRow",
    "duality_image",
    "shift_operator_identities",
]

DAHA_ALPHABET = ("T1", "Y", "Yi", "Z", "Zi")
AW_ALPHABET = ("K0", "K1", "T1")

DEFAULT_BUDGET = 10**6

Word = tuple[str, ...]
# a scalar as terms (c, i, j, k, l): the sum of c q^i a^j b^k u^(l n), u = abcd/q
Coef = tuple[tuple[int, int, int, int, int], ...]

_ONE = RatFunc.one()


def _one(params: Params) -> RatFunc:
    # the one of the parameters' field, a residue at a point of GF(p):
    # products seeded with it take no rational-constant arithmetic there
    return params.vals[0] ** 0


def _acc(terms: dict, key, coef: RatFunc) -> None:
    new = terms.get(key, None)
    new = coef if new is None else new + coef
    if new.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = new


class Element:
    """A finite linear combination of words over one alphabet.

    Immutable by convention: all operations return new elements, and the
    term map is never mutated after construction.  The empty word is the
    identity.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: str, terms: Mapping[Word, RatFunc]):
        if alphabet not in ("daha", "aw"):
            raise ValueError(f"unknown alphabet {alphabet!r}")
        letters = DAHA_ALPHABET if alphabet == "daha" else AW_ALPHABET
        clean: dict[Word, RatFunc] = {}
        for word, coef in terms.items():
            for letter in word:
                if letter not in letters:
                    raise ValueError(f"letter {letter!r} not in {alphabet} alphabet")
            if not coef.is_zero():
                clean[tuple(word)] = coef
        self.alphabet = alphabet
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(alphabet: str) -> "Element":
        return Element(alphabet, {})

    @staticmethod
    def one(alphabet: str) -> "Element":
        return Element(alphabet, {(): _ONE})

    @staticmethod
    def generator(letter: str, alphabet: str | None = None) -> "Element":
        if alphabet is None:
            if letter in ("K0", "K1"):
                alphabet = "aw"
            elif letter in ("Y", "Yi", "Z", "Zi"):
                alphabet = "daha"
            else:
                raise ValueError("T1 needs an explicit alphabet")
        return Element(alphabet, {(letter,): _ONE})

    @staticmethod
    def word(letters: Sequence[str], alphabet: str) -> "Element":
        return Element(alphabet, {tuple(letters): _ONE})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self.terms.items())))

    # -- linear operations ---------------------------------------------

    def _check_same(self, other: "Element") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("elements live over different alphabets")

    def __add__(self, other):
        if isinstance(other, (int, RatFunc)):
            other = Element(self.alphabet, {(): _coerce_scalar(other)})
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for word, coef in other.terms.items():
            _acc(terms, word, coef)
        return Element(self.alphabet, terms)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, RatFunc)):
            other = Element(self.alphabet, {(): _coerce_scalar(other)})
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, coef: RatFunc | int) -> "Element":
        coef = _coerce_scalar(coef)
        return Element(self.alphabet, {w: coef * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        terms: dict[Word, RatFunc] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _acc(terms, w1 + w2, c1 * c2)
        return Element(self.alphabet, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("elements only take nonnegative word powers")
        out = Element.one(self.alphabet)
        for _ in range(n):
            out = out * self
        return out

    # -- word-level maps -------------------------------------------------

    def map_letters(self, images: Mapping[str, "Element"], alphabet: str) -> "Element":
        """Apply a letterwise algebra map: each letter is replaced by its
        image element and the images are multiplied in word order."""
        out = Element.zero(alphabet)
        for word, coef in self.terms.items():
            prod = Element.one(alphabet)
            for letter in word:
                prod = prod * images[letter]
            out = out + prod.scale(coef)
        return out

    def map_letters_reversed(
        self, images: Mapping[str, "Element"], alphabet: str
    ) -> "Element":
        """Apply a letterwise anti-algebra map: words are reversed before
        the letterwise images are multiplied."""
        out = Element.zero(alphabet)
        for word, coef in self.terms.items():
            prod = Element.one(alphabet)
            for letter in reversed(word):
                prod = prod * images[letter]
            out = out + prod.scale(coef)
        return out

    def substitute_t1(self, scalar: RatFunc) -> "Element":
        """Replace every T1 letter by a scalar (the two-generator quotient
        of the central extension uses scalar -ab)."""
        terms: dict[Word, RatFunc] = {}
        for word, coef in self.terms.items():
            stripped = tuple(l for l in word if l != "T1")
            factor = scalar ** (len(word) - len(stripped))
            _acc(terms, stripped, coef * factor)
        return Element(self.alphabet, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            shown = " ".join(word) if word else "1"
            parts.append(f"({self.terms[word]}) {shown}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Element<{self.alphabet}>({self})"


def _coerce_scalar(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc.from_rational(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar")


# ---------------------------------------------------------------------------
# Normal forms


def _basis_word(m: int, n: int, i: int) -> Word:
    zpart = ("Z",) * m if m >= 0 else ("Zi",) * (-m)
    ypart = ("Y",) * n if n >= 0 else ("Yi",) * (-n)
    return zpart + ypart + (("T1",) if i else ())


def _monomial_str(m: int, n: int, i: int) -> str:
    parts = []
    if m:
        parts.append("Z" if m == 1 else f"Z^{m}")
    if n:
        parts.append("Y" if n == 1 else f"Y^{n}")
    if i:
        parts.append("T1")
    return " ".join(parts) if parts else "1"


class NormalForm:
    """The unique expansion of an element in the basis Z^m Y^n T1^i."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], RatFunc]):
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero() -> "NormalForm":
        return NormalForm({})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, m: int, n: int, i: int) -> RatFunc:
        return self.terms.get((m, n, i), RatFunc.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "NormalForm") -> "NormalForm":
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            _acc(terms, key, coef)
        return NormalForm(terms)

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self + (-other)

    def __neg__(self) -> "NormalForm":
        return NormalForm({k: -c for k, c in self.terms.items()})

    def scale(self, coef: RatFunc | int) -> "NormalForm":
        coef = _coerce_scalar(coef)
        return NormalForm({k: coef * c for k, c in self.terms.items()})

    def as_element(self) -> Element:
        return Element(
            "daha", {_basis_word(m, n, i): c for (m, n, i), c in self.terms.items()}
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        lines = []
        for (m, n, i), coef in sorted(self.terms.items()):
            shown = str(coef)
            if " " in shown:
                shown = f"({shown})"
            lines.append(f"{shown} * {_monomial_str(m, n, i)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"NormalForm({'; '.join(str(self).splitlines())})"


class _DeferredNormalForm(NormalForm):
    """The normal form ``build()`` returns, built on the first read of its
    terms: the residual of a passing step row is seldom read."""

    __slots__ = ("_build",)

    def __init__(self, build):
        self._build = build

    def __getattr__(self, name):  # reached only while the terms slot is unset
        if name != "terms":
            raise AttributeError(name)
        self.terms = self._build().terms
        return self.terms


# ---------------------------------------------------------------------------
# The rewrite system


def _is_basis_word(word: Word) -> bool:
    return word == _basis_word(*_word_key(word))


def _order_key(word: Word) -> tuple[int, tuple[int, int, int, int]]:
    # the Y-letter count and the key of RewriteSystem.termination_failures
    ys = t1s = yz_pairs = t1_pairs = 0
    for letter in word:
        if letter == "T1":
            t1s += 1
        else:
            t1_pairs += t1s
            if letter in ("Y", "Yi"):
                ys += 1
            else:
                yz_pairs += ys
    return ys, (len(word) - t1s, yz_pairs, t1s, t1_pairs)


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
        self._lift, self._drop, self._prime = _lifting(params)
        self._lift_zero, self._lift_one = self._lift(one - one), self._lift(one)
        self._product_cache: dict[tuple, dict] = {}
        self._prefixes: dict[Word, dict] = {(): {(0, 0, 0): self._lift_one}}
        self._images = {
            letter: self._lifted(nf) for letter, nf in _embedding_images(params).items()
        }
        self._symmetrizers: dict[str, dict] = {}
        self._coefs: dict[tuple[Coef, int], object] = {}
        self._sandwiches: dict[tuple[str, tuple[int, int, int]], dict] = {}
        self._words_times_f: dict[tuple[str, Word], dict] = {}

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
        rules, lift, zero = self.rules, self._lift, self._lift_zero
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
        lift = self._lift
        lifted = self._settle({tuple(w): lift(c) for w, c in terms.items()})
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
            return {_basis_key(word): self._lift_one}
        if strategy == "leftmost":
            rest = self._word_normal_form(word[i + 1 :], strategy)
            return self._times(_basis_key(word[: i + 1]), rest, None)
        head = self._word_normal_form(word[: i + 1], strategy)
        return self._multiply(head, {_basis_key(word[i + 1 :]): self._lift_one})

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
        lift = self._lift
        return {key: lift(c) for key, c in nf.terms.items()}

    def _normal_form(self, lifted: dict) -> NormalForm:
        drop = self._drop
        return NormalForm({key: drop(c) for key, c in lifted.items()})

    def _settle(self, acc: dict) -> dict:
        # accumulated lifted coefficients, reduced mod p and without zeros
        p = self._prime
        if p:
            return {key: r for key, c in acc.items() if (r := c % p)}
        return {key: c for key, c in acc.items() if c}

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
                result = {key2: self._lift_one}
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
            return {_basis_key((x,) + w): self._lift_one}
        spent[0] += 1
        if spent[0] > DEFAULT_BUDGET:
            raise BudgetExhausted(f"rewriting exceeded {DEFAULT_BUDGET} rule applications")
        rest = _word_key(w[1:])
        lift, zero = self._lift, self._lift_zero
        acc: dict = {}
        for word, coef in rhs:
            if _is_basis_word(word):
                terms = self._product(_word_key(word), rest, spent)
            else:
                # only a rule table altered after construction has such a
                # word; it is multiplied letter by letter, so that no memo
                # key stands for a word it is not
                terms = {rest: self._lift_one}
                for letter in reversed(word):
                    terms = self._times(_word_key((letter,)), terms, spent)
            c = lift(coef)
            for key, v in terms.items():
                acc[key] = acc.get(key, zero) + c * v
        return self._settle(acc)

    def _times(self, key1, v: dict, spent: list[int] | None) -> dict:
        """The basis monomial key1 times the lifted normal form v."""
        cache, zero = self._product_cache, self._lift_zero
        acc: dict = {}
        for key2, c in v.items():
            terms = cache.get((key1, key2))
            if terms is None:
                terms = self._product(key1, key2, spent)
            for key, x in terms.items():
                acc[key] = acc.get(key, zero) + c * x
        return self._settle(acc)

    def _multiply(self, u: dict, v: dict) -> dict:
        """u v for lifted normal forms.  The monomials of u are grouped by
        (n, i): Y^n T1^i v is formed once per group and shifted by each Z^m
        of it."""
        groups: dict[tuple[int, int], list] = {}
        for (m, n, i), c in u.items():
            groups.setdefault((n, i), []).append((m, c))
        zero = self._lift_zero
        out: dict = {}
        for (n, i), shifts in groups.items():
            head = self._times((0, n, i), v, None)
            for m, c1 in shifts:
                for (k0, k1, k2), c in head.items():
                    key = (k0 + m, k1, k2)
                    out[key] = out.get(key, zero) + c1 * c
        return self._settle(out)

    def _linear(self, terms: Iterable[tuple[object, dict]]) -> dict:
        """The sum of c v over the pairs (c, v) of a lifted scalar c and a
        lifted normal form v."""
        zero = self._lift_zero
        acc: dict = {}
        for c, v in terms:
            for key, x in v.items():
                acc[key] = acc.get(key, zero) + c * x
        return self._settle(acc)

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

    def _symmetrizer(self, family: str) -> dict:
        """F of ``family``, lifted, from :func:`symmetrizer` on first use."""
        if family not in self._symmetrizers:  # F = T1+eps is a normal form
            f, _ = symmetrizer(family, self.params)
            self._symmetrizers[family] = {_word_key(w): self._lift(c) for w, c in f.terms.items()}
        return self._symmetrizers[family]

    def _compress(self, family: str, u: dict) -> dict:
        """F u F for a lifted normal form u."""
        f = self._symmetrizer(family)
        return self._multiply(self._multiply(f, u), f)

    def _sandwich(self, family: str, key: tuple[int, int, int]) -> dict:
        """F (basis monomial) F, lifted, memoized: the step rows read at
        one point share their compressions."""
        out = self._sandwiches.get((family, key))
        if out is None:
            out = self._compress(family, {key: self._lift_one})
            self._sandwiches[(family, key)] = out
        return out

    def _embed_times_f(self, family: str, terms: Mapping[Word, object]) -> dict:
        """The embedding of a K0/K1/T1 combination with lifted coefficients
        times F, lifted, as the sum of its words' images times F; those
        are memoized, so the step rows and rank certificates read at one
        point share them."""
        return self._linear((c, self._word_times_f(family, w)) for w, c in terms.items())

    def _word_times_f(self, family: str, word: Word) -> dict:
        """The embedding of one K0/K1/T1 word times F, lifted, memoized."""
        image = self._words_times_f.get((family, word))
        if image is None:
            f = self._symmetrizer(family)
            image = self._words_times_f[(family, word)] = self._multiply(self._embed_word(word), f)
        return image

    def _iso_image(self, family: str, terms: Mapping[Word, object]) -> dict:
        """:func:`iso_image` of a K0/K1 combination with lifted coefficients,
        lifted: for "asym" each word's coefficient takes q per K0."""
        if family == "asym":
            q = self._lift(self.params.vals[0])
            terms = {word: c * q ** word.count("K0") for word, c in terms.items()}
        return self._embed_times_f(family, terms)

    def _table_coef(self, terms: Coef, n: int):
        """A step-table coefficient at exponent n, lifted, memoized."""
        key = (terms, n)
        c = self._coefs.get(key)
        if c is None:
            c = self._coefs[key] = self._lift(_coef(terms, n, self._bases))
        return c


def _basis_key(word: Word) -> tuple[int, int, int]:
    # the key of a word that admits no rule: a rule table short of a left
    # side leaves words that are not basis words, and no key stands for one
    if not _is_basis_word(word):
        raise ValueError(f"irreducible word {' '.join(word)} is not a basis word")
    return _word_key(word)


def _word_key(word: Word) -> tuple[int, int, int]:
    m = n = i = 0
    for letter in word:
        if letter == "Z":
            m += 1
        elif letter == "Zi":
            m -= 1
        elif letter == "Y":
            n += 1
        elif letter == "Yi":
            n -= 1
        else:
            i += 1
    return (m, n, i)


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


def _rank(vectors: Iterable[Mapping], params: Params) -> int:
    """The rank of ``vectors``, dicts from keys to the product kernel's
    lifted coefficients at the point ``params`` (int residues, not
    necessarily reduced, at a point of GF(p)), by echelon form.  Each
    vector is eliminated in place: a pivot row is subtracted, scaled by
    the vector's coefficient at the pivot key over the row's, where that
    is nonzero, and the vector is settled once; it is kept as a pivot row
    as it is, with its largest key as the pivot key (on the commutator
    images of the center certificate that leaves less to eliminate than
    its first key) and the inverse of its coefficient there."""
    system = rewrite_system(params)
    p, zero, settle = system._prime, system._lift_zero, system._settle
    pivots: dict = {}  # key -> (row, 1 / row[key]), row 0 at earlier pivot keys
    for vector in vectors:
        v = dict(vector)
        for key, (row, inv) in pivots.items():
            c = v.get(key)
            if c is not None and (c := c * inv % p if p else c * inv):
                for k, x in row.items():
                    v[k] = v.get(k, zero) - c * x
        v = settle(v)
        if v:
            key = max(v)
            pivots[key] = (v, pow(v[key], -1, p) if p else v[key].inv())
    return len(pivots)


# ---------------------------------------------------------------------------
# The central-extension embedding


def _embedding_images(params: Params) -> dict[str, NormalForm]:
    vals = params.values()
    u = vals["a"] * vals["b"] * vals["c"] * vals["d"] / vals["q"]
    one = _one(params)
    return {
        "K0": NormalForm({(0, 1, 0): one, (0, -1, 0): u}),
        "K1": NormalForm({(1, 0, 0): one, (-1, 0, 0): one}),
        "T1": NormalForm({(0, 0, 1): one}),
    }


def embed_element(e: Element, params: Params) -> Element:
    """The letterwise image of a three-generator element inside the
    five-letter algebra, before reduction."""
    if e.alphabet != "aw":
        raise ValueError("embed expects an element over the K0/K1/T1 alphabet")
    images = {k: nf.as_element() for k, nf in _embedding_images(params).items()}
    return e.map_letters(images, "daha")


def embed_aw(e: Element, params: Params) -> NormalForm:
    """Embed K0 -> Y + (abcd/q) Y^-1, K1 -> Z + Z^-1, T1 -> T1, in normal
    form.  Each K-word is read left to right, its reduced prefix multiplied
    by the next letter's image as in :func:`multiply`; the prefixes are
    memoized on the rewrite system of ``params``, so every call at that
    point shares them.

    The embedding is injective, so equal normal forms certify equality in
    the three-generator algebra."""
    if e.alphabet != "aw":
        raise ValueError("embed expects an element over the K0/K1/T1 alphabet")
    system = rewrite_system(params)
    words = ((system._lift(c), system._embed_word(word)) for word, c in e.terms.items())
    return system._normal_form(system._linear(words))


def aw_relations(
    params: Params, sc: StructureConstants | None = None
) -> dict[str, Element]:
    """The defining relations of the central extension over K0/K1/T1, each
    as one element (left side minus right side) whose embedding reduces to
    zero: the two deformed q-commutator relations rel34 and rel35, the
    Casimir relation rel36, the centrality of T1, and the quadratic.  The
    structure constants default to those of ``params``."""
    if sc is None:
        sc = structure_constants(params)
    q = params.value("q")
    ab = params.value("a") * params.value("b")
    qpqi = q + q.inv()
    clin = q + _ONE + q.inv()
    cmid = q * q + _ONE + (q * q).inv()
    # the terms in T1+ab are written out: X (T1+ab) = X T1 + ab X
    rows = {
        "rel34": (
            (qpqi, "K1 K0 K1"), (-1, "K1 K1 K0"), (-1, "K0 K1 K1"),
            (-(sc.B + ab * sc.E), "K1"), (-sc.E, "K1 T1"), (-sc.C0, "K0"),
            (-(sc.D0 + ab * sc.F0), ""), (-sc.F0, "T1"),
        ),
        "rel35": (
            (qpqi, "K0 K1 K0"), (-1, "K0 K0 K1"), (-1, "K1 K0 K0"),
            (-(sc.B + ab * sc.E), "K0"), (-sc.E, "K0 T1"), (-sc.C1, "K1"),
            (-(sc.D1 + ab * sc.F1), ""), (-sc.F1, "T1"),
        ),
        "rel36": (
            (1, "K1 K0 K1 K0"), (-cmid, "K0 K1 K0 K1"), (qpqi, "K0 K0 K1 K1"),
            (qpqi * sc.C0, "K0 K0"), (qpqi * sc.C1, "K1 K1"),
            (clin * (sc.B + ab * sc.E), "K0 K1"), (clin * sc.E, "K0 K1 T1"),
            (sc.B + ab * sc.E, "K1 K0"), (sc.E, "K1 K0 T1"),
            (clin * (sc.D0 + ab * sc.F0), "K0"), (clin * sc.F0, "K0 T1"),
            (clin * (sc.D1 + ab * sc.F1), "K1"), (clin * sc.F1, "K1 T1"),
            (sc.G, "T1"), (ab * sc.G - sc.Q0, ""),
        ),
        "central0": ((1, "K0 T1"), (-1, "T1 K0")),
        "central1": ((1, "K1 T1"), (-1, "T1 K1")),
        "quad": ((1, "T1 T1"), (ab + 1, "T1"), (ab, "")),
    }
    out = {}
    for name, terms in rows.items():
        acc: dict[Word, RatFunc] = {}
        for coef, word in terms:
            _acc(acc, tuple(word.split()), _coerce_scalar(coef))
        out[name] = Element("aw", acc)
    return out


def quotient_relations(
    params: Params, sc: StructureConstants | None = None
) -> dict[str, Element]:
    """The relations of the two-generator quotient T1 = -ab: rel1 and rel2
    (the q-commutator relations) and the Casimir relation, which is the
    degree-four Casimir word combination minus its scalar Q0.  They are
    rel34, rel35 and rel36 of :func:`aw_relations` with T1 replaced by -ab."""
    rels = aw_relations(params, sc)
    minus_ab = -(params.value("a") * params.value("b"))
    return {
        name: rels[source].substitute_t1(minus_ab)
        for name, source in (("rel1", "rel34"), ("rel2", "rel35"), ("casimir", "rel36"))
    }


# ---------------------------------------------------------------------------
# The symmetrizers and the maps they define


def symmetrizer(family: str, params: Params) -> tuple[Element, RatFunc]:
    """The symmetrizer F and its scalar e, with F^2 = eF: F = T1+1 and
    e = 1-ab for the spherical family ("sym"), F = T1+ab and e = ab-1 for
    the antispherical one ("asym").  The orthogonal idempotents e^-1 F sum
    to 1."""
    ab = params.value("a") * params.value("b")
    if ab == _ONE:
        raise DegenerateParameters("ab = 1")
    one = _one(params)
    if family == "sym":
        eps, e = one, one - ab
    elif family == "asym":
        eps, e = ab, ab - one
    else:
        raise ValueError(f"unknown family {family!r}")
    return Element("daha", {("T1",): one, (): eps}), e


def compress(family: str, u: Element, params: Params) -> NormalForm:
    """The two-sided compression F u F in normal form, as the product
    F (reduced u) F, F kept by the rewrite system.  The compression by the
    idempotent e^-1 F is e^-2 times this."""
    system = rewrite_system(params)
    u_nf = system._lifted(reduce(u, params))
    return system._normal_form(system._compress(family, u_nf))


def iso_image(family: str, u: Element, params: Params) -> NormalForm:
    """U~ F in normal form, the embedding of U~ times F, as in the step
    rows.  The isomorphism U -> e^-1 U~ F from the two-generator quotient
    algebra onto the spherical ("sym") or antispherical ("asym")
    subalgebra is e^-1 times this.  U~ is the K0/K1 word U read in the
    central extension; for "asym" K0 is first replaced by q K0, since the
    source is the quotient at the shifted parameters (qa, qb, c, d)."""
    if u.alphabet != "aw":
        raise ValueError("the subalgebra isomorphisms take K0/K1 words")
    system = rewrite_system(params)
    terms = {word: system._lift(c) for word, c in u.terms.items()}
    return system._normal_form(system._iso_image(family, terms))


# ---------------------------------------------------------------------------
# The strict-dominance filtration


def _dominated(keys: Iterable[tuple[int, int, int]], m: int, n: int) -> bool:
    """Strict-dominance test on the basis keys of a normal form: each key
    must be free of T1, and its monomial Z^k Y^l must satisfy |k| <= |m|,
    |l| <= |n| and (|k|, |l|) != (|m|, |n|)."""
    m, n = abs(m), abs(n)
    for k, l, i in keys:
        k, l = abs(k), abs(l)
        if i or k > m or l > n or (k == m and l == n):
            return False
    return True


def _step_verdict(residual: dict, eps, bound, system: RewriteSystem) -> bool:
    """Whether the lifted normal form ``residual`` is R (T1+eps) with R free
    of T1 and strictly dominated by ``bound`` = (m, n), or zero where
    ``bound`` is None; eps is lifted too.  One pass over its keys, each T1
    key read with its T1-free partner, reducing only what it reads."""
    p, zero = system._prime, system._lift_zero
    rest = []  # the keys of R
    for (k, l, i), c in residual.items():
        if i:
            r1, r0 = c, residual.get((k, l, 0), zero) - eps * c
        elif (k, l, 1) in residual:
            continue  # read with its T1 partner
        else:
            r1, r0 = zero, c
        if p:
            r1, r0 = r1 % p, r0 % p
        if r0:
            return False  # the T1-free part is not eps times the T1 part
        if r1:
            rest.append((k, l, 0))
    return not rest if bound is None else _dominated(rest, *bound)


# ---------------------------------------------------------------------------
# The step-identity catalog


# coefficient shorthands, named by their monomial: M = minus, AB = ab,
# UN = u^n, UMN = u^-n
_1 = ((1, 0, 0, 0, 0),)
_M1 = ((-1, 0, 0, 0, 0),)
_AB = ((1, 0, 1, 1, 0),)
_MAB = ((-1, 0, 1, 1, 0),)
_UN = ((1, 0, 0, 0, 1),)
_MUN = ((-1, 0, 0, 0, 1),)
_UMN = ((1, 0, 0, 0, -1),)
_MABUN = ((-1, 0, 1, 1, 1),)
_ABUMN = ((1, 0, 1, 1, -1),)
_M1MAB = ((-1, 0, 0, 0, 0), (-1, 0, 1, 1, 0))
_1AB = ((1, 0, 0, 0, 0), (1, 0, 1, 1, 0))
_ONE_MINUS_Q2 = ((1, 0, 0, 0, 0), (-1, 2, 0, 0, 0))

# middle words w of the step-3 rows
_K1K0_MINUS_QK0K1 = {("K1", "K0"): _1, ("K0", "K1"): ((-1, 1, 0, 0, 0),)}
_MINUS_QK1K0_PLUS_K0K1 = {("K1", "K0"): ((-1, 1, 0, 0, 0),), ("K0", "K1"): _1}


class StepRow(NamedTuple):
    """One step identity as plain data; the module docstring gives the
    format.  ``statement`` is the catalog statement of ``check``, given on
    the first row of that check only."""

    check: str
    family: str  # "sym" (F = T1+1) | "asym" (F = T1+ab)
    kind: str  # "sandwich" | "embed" | "mixed" | "exact" | "step3"
    signs: tuple[int, int]
    leading: Mapping[tuple[int, int], Coef]
    statement: str = ""
    middle: Mapping[Word, Coef] = {}  # shared by the rows without one, never mutated
    scalar: Coef = _1

    def uses(self) -> tuple[bool, bool]:
        """Whether the identity reads m and whether it reads n; the exact
        one-letter compressions read neither."""
        if self.kind == "exact":
            return False, False
        return self.signs[0] != 0, self.signs[1] != 0


def _leading(row: StepRow, m: int, n: int, system: RewriteSystem) -> dict:
    # the leading terms at exponents (m, n): (k, l) -> lifted coefficient
    m, n = _step_exponents(row, m, n)
    return {
        (sk * m, sl * n): system._table_coef(coef, n) for (sk, sl), coef in row.leading.items()
    }


def _coef(terms: Coef, n: int, bases: tuple[RatFunc, ...]) -> RatFunc:
    """Evaluate a coefficient: the sum of c q^i a^j b^k u^(l n), u = abcd/q,
    with bases (q, a, b, u)."""
    out = RatFunc.zero()
    for c, i, j, k, l in terms:
        term = RatFunc.from_rational(c)
        for base, e in zip(bases, (i, j, k, l * n)):
            if e:
                term = term * base**e
        out = out + term
    return out


# In catalog order: each spherical row next to its antispherical analogue.
STEP_IDENTITIES: dict[str, StepRow] = {
    # -- step 1: sandwiches F Z^(+-m) Y^(+-n) F
    "44": StepRow(
        "step.44", "sym", "sandwich", (1, 0), {(1, 0): _1, (-1, 0): _1},
        "(T1+1) Z^m (T1+1) = (Z^m + Z^-m + dominated) (T1+1)",
    ),
    "a44": StepRow(
        "astep.44", "asym", "sandwich", (1, 0), {(1, 0): _AB, (-1, 0): _AB},
        "antispherical analogue: (T1+ab) Z^m (T1+ab) = (ab(Z^m + Z^-m) + dominated) (T1+ab)",
    ),
    "45": StepRow(
        "step.45", "sym", "sandwich", (-1, 0), {(1, 0): _MAB, (-1, 0): _MAB},
        "(T1+1) Z^-m (T1+1) = (-ab(Z^m + Z^-m) + dominated) (T1+1)",
    ),
    "a45": StepRow(
        "astep.45", "asym", "sandwich", (-1, 0), {(1, 0): _M1, (-1, 0): _M1},
        "antispherical analogue: (T1+ab) Z^-m (T1+ab) = (-(Z^m + Z^-m) + dominated) (T1+ab)",
    ),
    "47": StepRow(
        "step.47", "sym", "sandwich", (0, 1), {(0, 1): _MAB, (0, -1): _MABUN},
        "(T1+1) Y^n (T1+1) = (-ab(Y^n + u^n Y^-n) + dominated) (T1+1), u = abcd/q",
    ),
    "a47": StepRow(
        "astep.47", "asym", "sandwich", (0, 1), {(0, 1): _M1, (0, -1): _MUN},
        "antispherical analogue: (T1+ab) Y^n (T1+ab) = (-(Y^n + u^n Y^-n) + dominated) "
        "(T1+ab), u = abcd/q",
    ),
    "48": StepRow(
        "step.48", "sym", "sandwich", (0, -1), {(0, 1): _UMN, (0, -1): _1},
        "(T1+1) Y^-n (T1+1) = (u^-n Y^n + Y^-n + dominated) (T1+1)",
    ),
    "a48": StepRow(
        "astep.48", "asym", "sandwich", (0, -1), {(0, 1): _ABUMN, (0, -1): _AB},
        "antispherical analogue: (T1+ab) Y^-n (T1+ab) = (ab(u^-n Y^n + Y^-n) + dominated) "
        "(T1+ab)",
    ),
    "49": StepRow(
        "step.49", "sym", "sandwich", (1, 1), {(1, 1): _1, (-1, -1): _MABUN},
        "(T1+1) Z^m Y^n (T1+1) = (Z^m Y^n - ab u^n Z^-m Y^-n + dominated) (T1+1)",
    ),
    "a49": StepRow(
        "astep.49", "asym", "sandwich", (1, 1), {(1, 1): _AB, (-1, -1): _MUN},
        "antispherical analogue: (T1+ab) Z^m Y^n (T1+ab) = (ab Z^m Y^n - u^n Z^-m Y^-n "
        "+ dominated) (T1+ab)",
    ),
    "50": StepRow(
        "step.50", "sym", "sandwich", (-1, 1),
        {(1, 1): _M1MAB, (1, -1): _MABUN, (-1, 1): _MAB},
        "(T1+1) Z^-m Y^n (T1+1) = (-(ab+1) Z^m Y^n - ab u^n Z^m Y^-n - ab Z^-m Y^n "
        "+ dominated) (T1+1)",
    ),
    "a50": StepRow(
        "astep.50", "asym", "sandwich", (-1, 1),
        {(1, 1): _M1MAB, (1, -1): _MUN, (-1, 1): _M1},
        "antispherical analogue: (T1+ab) Z^-m Y^n (T1+ab) = (-(ab+1) Z^m Y^n - u^n "
        "Z^m Y^-n - Z^-m Y^n + dominated) (T1+ab)",
    ),
    "51": StepRow(
        "step.51", "sym", "sandwich", (1, -1),
        {(1, -1): _1, (-1, 1): _UMN, (-1, -1): _1AB},
        "(T1+1) Z^m Y^-n (T1+1) = (Z^m Y^-n + u^-n Z^-m Y^n + (1+ab) Z^-m Y^-n "
        "+ dominated) (T1+1)",
    ),
    "a51": StepRow(
        "astep.51", "asym", "sandwich", (1, -1),
        {(1, -1): _AB, (-1, 1): _ABUMN, (-1, -1): _1AB},
        "antispherical analogue: (T1+ab) Z^m Y^-n (T1+ab) = (ab Z^m Y^-n + ab u^-n Z^-m Y^n "
        "+ (1+ab) Z^-m Y^-n + dominated) (T1+ab)",
    ),
    "52": StepRow(
        "step.52", "sym", "sandwich", (-1, -1), {(1, 1): _UMN, (-1, -1): _MAB},
        "(T1+1) Z^-m Y^-n (T1+1) = (u^-n Z^m Y^n - ab Z^-m Y^-n + dominated) (T1+1)",
    ),
    "a52": StepRow(
        "astep.52", "asym", "sandwich", (-1, -1), {(1, 1): _ABUMN, (-1, -1): _M1},
        "antispherical analogue: (T1+ab) Z^-m Y^-n (T1+ab) = (ab u^-n Z^m Y^n - Z^-m Y^-n "
        "+ dominated) (T1+ab)",
    ),
    # -- step 2: embedded K1^m K0^n F and the mixed word K1^(m-1) K0 K1 K0^(n-1) F
    "53": StepRow(
        "step.53", "sym", "embed", (1, 0), {(1, 0): _1, (-1, 0): _1},
        "K1^m (T1+1) = (Z^m + Z^-m + dominated) (T1+1), K-letters embedded",
    ),
    "a53": StepRow(
        "astep.53", "asym", "embed", (1, 0), {(1, 0): _1, (-1, 0): _1},
        "antispherical analogue: K1^m (T1+ab) = (Z^m + Z^-m + dominated) (T1+ab), "
        "K-letters embedded",
    ),
    "54": StepRow(
        "step.54", "sym", "embed", (0, 1), {(0, 1): _1, (0, -1): _UN},
        "K0^n (T1+1) = (Y^n + u^n Y^-n + dominated) (T1+1)",
    ),
    "a54": StepRow(
        "astep.54", "asym", "embed", (0, 1), {(0, 1): _1, (0, -1): _UN},
        "antispherical analogue: K0^n (T1+ab) = (Y^n + u^n Y^-n + dominated) (T1+ab)",
    ),
    "55": StepRow(
        "step.55", "sym", "embed", (1, 1),
        {(1, 1): _1, (-1, 1): _1, (1, -1): _UN, (-1, -1): _UN},
        "K1^m K0^n (T1+1) = (Z^m Y^n + Z^-m Y^n + u^n Z^m Y^-n + u^n Z^-m Y^-n "
        "+ dominated) (T1+1)",
    ),
    "a55": StepRow(
        "astep.55", "asym", "embed", (1, 1),
        {(1, 1): _1, (-1, 1): _1, (1, -1): _UN, (-1, -1): _UN},
        "antispherical analogue: K1^m K0^n (T1+ab) = (Z^m Y^n + Z^-m Y^n + u^n Z^m Y^-n "
        "+ u^n Z^-m Y^-n + dominated) (T1+ab)",
    ),
    "56": StepRow(
        "step.56", "sym", "mixed", (1, 1),
        {
            (1, 1): ((1, 1, 0, 0, 0),),
            (-1, 1): ((1, -1, 0, 0, 0),),
            (1, -1): ((1, -1, 0, 0, 1),),
            (-1, -1): ((1, -1, 0, 0, 1), (1, -1, 1, 1, 1), (-1, 1, 1, 1, 1)),
        },
        "K1^(m-1) K0 K1 K0^(n-1) (T1+1) = (q Z^m Y^n + q^-1 Z^-m Y^n + q^-1 u^n Z^m Y^-n "
        "+ q^-1 u^n (1+ab-q^2 ab) Z^-m Y^-n + dominated) (T1+1)",
        middle={("K0", "K1"): _1},
    ),
    "a56": StepRow(
        "astep.56", "asym", "mixed", (1, 1),
        {
            (1, 1): ((1, 1, 0, 0, 0),),
            (-1, 1): ((1, -1, 0, 0, 0),),
            (1, -1): ((1, -1, 0, 0, 1),),
            (-1, -1): ((1, -1, -1, -1, 1), (1, -1, 0, 0, 1), (-1, 1, -1, -1, 1)),
        },
        "antispherical analogue: K1^(m-1) K0 K1 K0^(n-1) (T1+ab) = (q Z^m Y^n + q^-1 Z^-m "
        "Y^n + q^-1 u^n Z^m Y^-n + (q ab)^-1 u^n (1+ab-q^2) Z^-m Y^-n + dominated) (T1+ab)",
        middle={("K0", "K1"): _1},
    ),
    # -- the two exact one-letter compressions F Z^(+-1) F
    "44.exact": StepRow(
        "step.44.exact", "sym", "exact", (1, 0),
        {(1, 0): _1, (-1, 0): _1, (0, 0): ((-1, 0, 1, 0, 0), (-1, 0, 0, 1, 0))},
        "(T1+1) Z (T1+1) = (Z + Z^-1 - (a+b)) (T1+1), coefficient-exact",
    ),
    "45.exact": StepRow(
        "step.45.exact", "sym", "exact", (-1, 0),
        {(1, 0): _MAB, (-1, 0): _MAB, (0, 0): ((1, 0, 1, 0, 0), (1, 0, 0, 1, 0))},
        "(T1+1) Z^-1 (T1+1) = (-ab(Z + Z^-1) + a+b) (T1+1), coefficient-exact",
    ),
    # -- step 3: (1-q^2) F Z^(+-m) Y^(+-n) F - c K1^(m-1) w K0^(n-1) F is dominated
    "sph3.1": StepRow(
        "step3.spherical", "sym", "step3", (1, 1), {},
        "the four leading-coefficient displays expressing (T1+1) Z^(+-m) Y^(+-n) (T1+1) "
        "through embedded K-words times (T1+1), up to dominated terms",
        middle=_K1K0_MINUS_QK0K1,
    ),
    "sph3.2": StepRow(
        "step3.spherical", "sym", "step3", (-1, 1), {},
        middle={
            ("K1", "K0"): ((-1, -1, 0, 0, 0), (-1, -1, 1, 1, 0), (1, 1, 1, 1, 0)),
            ("K0", "K1"): _1,
        },
        scalar=((1, 1, 0, 0, 0),),
    ),
    "sph3.3": StepRow(
        "step3.spherical", "sym", "step3", (1, -1), {},
        middle=_MINUS_QK1K0_PLUS_K0K1, scalar=((1, 1, 0, 0, -1),),
    ),
    "sph3.4": StepRow(
        "step3.spherical", "sym", "step3", (-1, -1), {},
        middle=_K1K0_MINUS_QK0K1, scalar=_UMN,
    ),
    "asph3.1": StepRow(
        "step3.antispherical", "asym", "step3", (1, 1), {},
        "the four antispherical leading-coefficient displays with factor (T1+ab) "
        "and K0 read at shifted parameters",
        middle=_K1K0_MINUS_QK0K1, scalar=_AB,
    ),
    "asph3.2": StepRow(
        "step3.antispherical", "asym", "step3", (-1, 1), {},
        middle={
            ("K1", "K0"): ((-1, 0, 0, 0, 0), (-1, 0, 1, 1, 0), (1, 2, 0, 0, 0)),
            ("K0", "K1"): ((1, 1, 1, 1, 0),),
        },
    ),
    "asph3.3": StepRow(
        "step3.antispherical", "asym", "step3", (1, -1), {},
        middle=_MINUS_QK1K0_PLUS_K0K1, scalar=((1, 1, 1, 1, -1),),
    ),
    "asph3.4": StepRow(
        "step3.antispherical", "asym", "step3", (-1, -1), {},
        middle=_K1K0_MINUS_QK0K1, scalar=_ABUMN,
    ),
}


def _scaling_break(row: StepRow) -> str:
    """The first term of ``row`` that breaks the docstring's scaling rule, or ""."""
    sn = row.signs[1]  # 0 where the row reads no n
    forced = [(str(key), c, (sn - key[1]) / 2) for key, c in row.leading.items()]
    forced += [(" ".join(w), c, 0) for w, c in row.middle.items()]
    forced += [("scalar", row.scalar, (sn - 1) / 2)] if row.kind == "step3" else []
    return next((f"{where} coefficient term {t}: u^({t[4]} n), forced u^({l:g} n)"
                 for where, terms, l in forced for t in terms if t[4] != l), "")


def _step_exponents(row: StepRow, m: int, n: int) -> tuple[int, int]:
    # the exact rows compress one letter whatever the exponents
    return (1, 1) if row.kind == "exact" else (m, n)


def _lifted_step_lhs(row: StepRow, m: int, n: int, system: RewriteSystem) -> dict:
    # products of lifted factors: the compression F (basis monomial) F, and
    # the embedded K-words times F
    m, n = _step_exponents(row, m, n)
    sm, sn = row.signs
    if row.kind in ("sandwich", "exact", "step3"):
        sandwich = system._sandwich(row.family, (sm * m, sn * n, 0))
        if row.kind != "step3":
            return sandwich
    if row.kind == "embed":  # one word, coefficient 1: the memoized image itself
        word = ("K1",) * (abs(sm) * m) + ("K0",) * (abs(sn) * n)
        return system._word_times_f(row.family, word)
    k_word = {
        ("K1",) * (m - 1) + w + ("K0",) * (n - 1): system._table_coef(coef, n)
        for w, coef in row.middle.items()
    }
    if row.kind != "step3":
        return system._embed_times_f(row.family, k_word)
    c1, c2 = system._table_coef(_ONE_MINUS_Q2, n), system._table_coef(row.scalar, n)
    images = ((-c2 * c, system._word_times_f(row.family, w)) for w, c in k_word.items())
    return system._linear(((c1, sandwich), *images))


def check_step_identity(identity: str, m: int, n: int, params: Params) -> tuple[NormalForm, bool]:
    """Verify one step identity at exponents (m, n).

    Returns (residual, verdict): the residual is the left side in normal
    form minus the stated leading terms times F; the verdict is True when
    the residual factors as R F, F = T1+1 (spherical family) or T1+ab
    (antispherical family), with R strictly dominated by the exponents the
    identity reads, and for exact identities when the residual is zero.
    One-index identities read only the exponent they use.  The left side
    is a product of reduced factors (F, a basis monomial, an embedded
    K-word).  The catalog reads (1, 1), which with :func:`_scaling_break`
    decides every exponent; the general (m, n) is the tests' oracle.

    Everything up to the verdict runs on the product kernel's lifted
    coefficients, int residues at a point of GF(p): the residual is the
    left side with the leading terms subtracted at their keys, read in one
    pass, and its normal form is built when its terms are first read.  The
    table coefficients, the compressions and the embedded K-words times F
    are memoized on the rewrite system.
    """
    row = STEP_IDENTITIES.get(identity)
    if row is None:
        raise UnknownIdentity(
            f"unknown step identity {identity!r}; known: {sorted(STEP_IDENTITIES)}"
        )
    if m < 1 or n < 1:
        raise ValueError("step identities take positive exponents")
    system = rewrite_system(params)
    eps = system._symmetrizer(row.family)[(0, 0, 0)]
    lead_f: dict = {}  # the leading terms times F = T1+eps
    for (k, l), c in _leading(row, m, n, system).items():
        lead_f[(k, l, 1)], lead_f[(k, l, 0)] = c, c * eps
    # the left side, memoized, differs from the residual at these keys only
    residual = dict(_lifted_step_lhs(row, m, n, system))
    zero = system._lift_zero
    for key, c in lead_f.items():
        residual[key] = residual.get(key, zero) - c
    uses_m, uses_n = row.uses()
    bound = None if row.kind == "exact" else (m if uses_m else 0, n if uses_n else 0)
    verdict = _step_verdict(residual, eps, bound, system)
    return _DeferredNormalForm(lambda: system._normal_form(system._settle(residual))), verdict


# ---------------------------------------------------------------------------
# Duality anti-isomorphisms


def duality_image(
    e: Element, which: str, params: Params
) -> tuple[Element, Params]:
    """Anti-algebra map onto the dual-parameter algebra.

    ``which`` selects the alphabet: "AW" maps K0 -> s K1, K1 -> a^-1 K0,
    T1 -> T1; "DAHA" maps Y -> s Z^-1, Z -> a Y^-1, T1 -> T1 (and inverse
    letters accordingly), where s^2 = abcd/q.  Words are reversed;
    coefficients pass through unchanged.  The returned parameters are the
    dual family (s, ab/s, ac/s, ad/s), so s must lie in the coefficient
    field: at a constant point that has a root, or at the symbolic point
    moved by :meth:`Params.with_square_root`, where s = d.

    The published target data for these maps lists the first dual
    parameter as 1/s; that choice fails the quadratic relation of T1
    (it would need ab to change value).  The value s used here makes the
    dual parameter products match (a'b' = ab, a'c' = ac, a'd' = ad), makes
    the map involutive on parameters, and sends every defining relation to
    zero; see the verification catalog.
    """
    target = params.dual()
    vals = params.values()
    a = vals["a"]
    s_val = target.value("a")
    if which == "AW":
        if e.alphabet != "aw":
            raise ValueError("AW duality takes elements over K0/K1/T1")
        images = {
            "K0": Element("aw", {("K1",): s_val}),
            "K1": Element("aw", {("K0",): a.inv()}),
            "T1": Element.generator("T1", "aw"),
        }
        return e.map_letters_reversed(images, "aw"), target
    if which == "DAHA":
        if e.alphabet != "daha":
            raise ValueError("DAHA duality takes elements over T1/Y/Z")
        images = {
            "T1": Element.generator("T1", "daha"),
            "Y": Element("daha", {("Zi",): s_val}),
            "Yi": Element("daha", {("Z",): s_val.inv()}),
            "Z": Element("daha", {("Yi",): a}),
            "Zi": Element("daha", {("Y",): a.inv()}),
        }
        return e.map_letters_reversed(images, "daha"), target
    raise ValueError(f"unknown duality variant {which!r}")


# ---------------------------------------------------------------------------
# Shift operators


def _shift_operators(params: Params) -> tuple[Element, Element]:
    # D- = Y + (a^2 b^2 cd/q) Y^-1 - (abcd/q + ab), D+ = Y + (cd/q) Y^-1 - (cd/q + 1)
    q, a, b, c, d = params.vals
    ab, cd_q = a * b, c * d / q
    return (
        Element("daha", {("Y",): _ONE, ("Yi",): ab * ab * cd_q, (): -(ab * cd_q + ab)}),
        Element("daha", {("Y",): _ONE, ("Yi",): cd_q, (): -(cd_q + _ONE)}),
    )


def shift_operator_identities(params: Params) -> tuple[NormalForm, NormalForm]:
    """Both shift-operator compressions; each must reduce to zero.

    They are :func:`compress` of Y + (a^2 b^2 cd/q) Y^-1 - (abcd/q + ab) by
    T1+1 and of Y + (cd/q) Y^-1 - (cd/q + 1) by T1+ab."""
    d_minus, d_plus = _shift_operators(params)
    return compress("sym", d_minus, params), compress("asym", d_plus, params)
