"""Noncommutative words, canonical-basis reduction, and subalgebra maps.

The algebra carries five generators T1, Y, Y^-1, Z, Z^-1 subject to a
Hecke-type quadratic relation for T1, cross relations moving T1 to the
right, and q-commutation relations moving Y-letters to the right of
Z-letters.  Every element has a unique expansion in the basis
Z^m Y^n T1^i (m, n integers, i in {0, 1}); :func:`reduce` computes it by
exhaustive rewriting of adjacent letter pairs.

On top of the rewriting core this module provides: the three-generator
central extension of the Askey-Wilson q-commutator algebra and its
embedding (:func:`embed_aw`), the symmetrizing idempotents and the
spherical / antispherical maps, the strict-dominance filtration predicate
:func:`is_o_of`, the catalog of step identities used to prove the two
subalgebra isomorphisms (:func:`check_step_identity`), duality anti-maps,
shift-operator identities, and centralizer / center probes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BudgetExhausted, DegenerateParameters, UnknownIdentity
from .params import Params, RatFunc, _params_cache_entry, structure_constants

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
    "aw_equal",
    "idempotents",
    "spherical",
    "antispherical",
    "iso_spherical",
    "iso_antispherical",
    "is_o_of",
    "check_step_identity",
    "STEP_IDENTITIES",
    "duality_image",
    "centralizer_probe",
    "shift_operator_identities",
    "center_probe",
]

DAHA_ALPHABET = ("T1", "Y", "Yi", "Z", "Zi")
AW_ALPHABET = ("K0", "K1", "T1")

DEFAULT_BUDGET = 10**6

Word = tuple[str, ...]

_ONE = RatFunc.one()


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
        return self + other.scale(RatFunc.from_rational(-1))

    def __neg__(self) -> "NormalForm":
        return self.scale(RatFunc.from_rational(-1))

    def scale(self, coef: RatFunc | int) -> "NormalForm":
        coef = _coerce_scalar(coef)
        return NormalForm({k: coef * c for k, c in self.terms.items()})

    def layers(self) -> tuple[dict[tuple[int, int], RatFunc], dict[tuple[int, int], RatFunc]]:
        """Split into the T1^0 and T1^1 layers, each a map (m, n) -> coef."""
        lay0: dict[tuple[int, int], RatFunc] = {}
        lay1: dict[tuple[int, int], RatFunc] = {}
        for (m, n, i), coef in self.terms.items():
            (lay1 if i else lay0)[(m, n)] = coef
        return lay0, lay1

    def as_element(self) -> Element:
        return Element(
            "daha", {_basis_word(m, n, i): c for (m, n, i), c in self.terms.items()}
        )

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        lines = []
        for (m, n, i), coef in self.sorted_items():
            shown = str(coef)
            if " " in shown:
                shown = f"({shown})"
            lines.append(f"{shown} * {_monomial_str(m, n, i)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"NormalForm({'; '.join(str(self).splitlines())})"


# ---------------------------------------------------------------------------
# The rewrite system


def _is_normal_word(word: Word) -> bool:
    # Z-block (one sign only), then Y-block (one sign only), then at most
    # one trailing T1.  Equivalent to having no reducible adjacent pair.
    rank = {"Z": 0, "Zi": 1, "Y": 2, "Yi": 3, "T1": 4}
    prev = -1
    t1_seen = False
    for letter in word:
        r = rank[letter]
        if t1_seen:
            return False
        if letter == "T1":
            t1_seen = True
            continue
        if prev >= 0 and r != prev:
            # switching sign inside the Z-block or the Y-block is reducible
            if (prev, r) in ((0, 1), (1, 0), (2, 3), (3, 2)):
                return False
            if r < prev:
                return False
        prev = r
    return True


class RewriteSystem:
    """The two-letter rewrite rules derived from the defining relations.

    Every left side is an adjacent letter pair; every right side is a
    linear combination of canonically ordered monomials (checked at
    construction).  A word admits no rule exactly when it has the shape
    Z^m Y^n T1^i, so exhaustive application of the rules computes the
    basis expansion.
    """

    def __init__(self, params: Params):
        self.params = params
        vals = params.values()
        q, a, b, c, d = (vals[n] for n in ("q", "a", "b", "c", "d"))
        one = _ONE
        ab = a * b
        cd = c * d
        u = ab * cd / q  # the recurring scalar q^-1 abcd
        ui = u.inv()
        qi = q.inv()
        self.u = u
        self.ab = ab
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
                if not _is_normal_word(word):
                    raise AssertionError(
                        f"rule {l1}{l2} has non-canonical right side {word}"
                    )
        self.rules = rules
        self._product_cache: dict[tuple, NormalForm] = {}

    # -- single relations, for the rule-wellformedness check -----------------

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

    # -- the rewriting loop ---------------------------------------------

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
        budget: int = DEFAULT_BUDGET,
        strategy: str = "leftmost",
    ) -> NormalForm:
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        out: dict[tuple[int, int, int], RatFunc] = {}
        pending = {tuple(w): c for w, c in terms.items() if not c.is_zero()}
        steps = 0
        while pending:
            next_pending: dict[Word, RatFunc] = {}
            for word, coef in pending.items():
                pos = self._find_redex(word, strategy)
                if pos is None:
                    _acc(out, _word_key(word), coef)
                    continue
                steps += 1
                if steps > budget:
                    raise BudgetExhausted(
                        f"rewriting exceeded {budget} rule applications"
                    )
                head, tail = word[:pos], word[pos + 2 :]
                for repl, rcoef in self.rules[(word[pos], word[pos + 1])]:
                    _acc(next_pending, head + repl + tail, coef * rcoef)
            pending = next_pending
        return NormalForm(out)

    def basis_product(
        self,
        key1: tuple[int, int, int],
        key2: tuple[int, int, int],
        budget: int = DEFAULT_BUDGET,
    ) -> NormalForm:
        """The reduced product of two basis monomials, memoized; products
        of general normal forms decompose into these.

        The left factor is peeled in stages Z^m * (Y^n * (T1^i * v)): the
        T1 and Y stages are themselves memoized one-block products, and the
        final Z stage is a plain exponent shift.  Peeling lets every
        distinct left key reuse the expensive Y-past-Z crossings instead of
        rewriting the concatenated word from scratch."""
        cached = self._product_cache.get((key1, key2))
        if cached is not None:
            return cached
        m, n, i = key1
        if (m, i) == (0, 0) or (m, n) == (0, 0):
            word = _basis_word(*key1) + _basis_word(*key2)
            result = self.reduce_terms({word: _ONE}, budget)
        else:
            result = self.basis_product((0, 0, i), key2, budget) if i else None
            if result is None:
                result = NormalForm({key2: _ONE})
            if n:
                shifted: dict[tuple[int, int, int], RatFunc] = {}
                for key, coef in result.terms.items():
                    for k, c in self.basis_product((0, n, 0), key, budget).terms.items():
                        _acc(shifted, k, coef * c)
                result = NormalForm(shifted)
            if m:
                result = NormalForm(
                    {(k0 + m, k1, k2): c for (k0, k1, k2), c in result.terms.items()}
                )
        self._product_cache[(key1, key2)] = result
        return result


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


def reduce(
    e: Element,
    params: Params,
    budget: int = DEFAULT_BUDGET,
    strategy: str = "leftmost",
) -> NormalForm:
    """Expand an element over the five-letter alphabet in the canonical
    basis Z^m Y^n T1^i."""
    if e.alphabet != "daha":
        raise ValueError("reduce expects an element over the five-letter alphabet")
    return rewrite_system(params).reduce_terms(e.terms, budget, strategy)


def multiply(
    u: NormalForm,
    v: NormalForm,
    params: Params,
    budget: int = DEFAULT_BUDGET,
) -> NormalForm:
    """Product of two basis expansions, assembled from memoized
    basis-monomial products."""
    system = rewrite_system(params)
    out: dict[tuple[int, int, int], RatFunc] = {}
    for key1, c1 in u.terms.items():
        for key2, c2 in v.terms.items():
            c = c1 * c2
            for key, coef in system.basis_product(key1, key2, budget).terms.items():
                _acc(out, key, c * coef)
    return NormalForm(out)


# ---------------------------------------------------------------------------
# The central-extension embedding


def _embedding_images(params: Params) -> dict[str, Element]:
    vals = params.values()
    u = vals["a"] * vals["b"] * vals["c"] * vals["d"] / vals["q"]
    return {
        "K0": Element("daha", {("Y",): _ONE, ("Yi",): u}),
        "K1": Element("daha", {("Z",): _ONE, ("Zi",): _ONE}),
        "T1": Element("daha", {("T1",): _ONE}),
    }


def embed_element(e: Element, params: Params) -> Element:
    """The letterwise image of a three-generator element inside the
    five-letter algebra, before reduction."""
    if e.alphabet != "aw":
        raise ValueError("embed expects an element over the K0/K1/T1 alphabet")
    return e.map_letters(_embedding_images(params), "daha")


def embed_aw(
    e: Element,
    params: Params,
    budget: int = DEFAULT_BUDGET,
) -> NormalForm:
    """Embed K0 -> Y + (abcd/q) Y^-1, K1 -> Z + Z^-1, T1 -> T1, then reduce.

    The embedding is injective, so equal normal forms certify equality in
    the three-generator algebra."""
    return reduce(embed_element(e, params), params, budget)


def aw_equal(u: Element, v: Element, params: Params) -> bool:
    """Equality oracle for the three-generator central extension."""
    return embed_aw(u, params) == embed_aw(v, params)


# ---------------------------------------------------------------------------
# Idempotents, spherical and antispherical maps


def _t1_plus(scalar: RatFunc) -> Element:
    return Element("daha", {("T1",): _ONE, (): scalar})


def _check_ab(params: Params) -> tuple[RatFunc, RatFunc]:
    vals = params.values()
    ab = vals["a"] * vals["b"]
    if ab == _ONE:
        raise DegenerateParameters("ab = 1")
    return ab, (_ONE - ab).inv()


def idempotents(params: Params) -> tuple[Element, Element]:
    """The symmetrizer (1-ab)^-1 (T1+1) and antisymmetrizer
    (ab-1)^-1 (T1+ab); they are idempotent and sum to 1."""
    ab, inv_one_minus_ab = _check_ab(params)
    p_sym = _t1_plus(_ONE).scale(inv_one_minus_ab)
    p_asym = _t1_plus(ab).scale(-inv_one_minus_ab)
    return p_sym, p_asym


def spherical(u: Element, params: Params, budget: int = DEFAULT_BUDGET) -> NormalForm:
    """Two-sided compression by the symmetrizer."""
    p_sym, _ = idempotents(params)
    return reduce(p_sym * u * p_sym, params, budget)


def antispherical(
    u: Element, params: Params, budget: int = DEFAULT_BUDGET
) -> NormalForm:
    """Two-sided compression by the antisymmetrizer."""
    _, p_asym = idempotents(params)
    return reduce(p_asym * u * p_asym, params, budget)


def iso_spherical(
    u: Element, params: Params, budget: int = DEFAULT_BUDGET
) -> NormalForm:
    """The algebra isomorphism from the two-generator quotient algebra onto
    the spherical subalgebra: U -> (1-ab)^-1 U~ (T1+1), with U~ the same
    word read in the central extension and embedded."""
    if u.alphabet != "aw":
        raise ValueError("the spherical isomorphism takes K0/K1 words")
    _, inv_one_minus_ab = _check_ab(params)
    image = embed_element(u, params) * _t1_plus(_ONE)
    return reduce(image.scale(inv_one_minus_ab), params, budget)


def iso_antispherical(
    u: Element, params: Params, budget: int = DEFAULT_BUDGET
) -> NormalForm:
    """The algebra isomorphism from the two-generator quotient at shifted
    parameters (qa, qb, c, d) onto the antispherical subalgebra:
    U -> (ab-1)^-1 U~ (T1+ab), with U~ the same word with K0 replaced by
    q K0, read in the central extension and embedded."""
    if u.alphabet != "aw":
        raise ValueError("the antispherical isomorphism takes K0/K1 words")
    ab, inv_one_minus_ab = _check_ab(params)
    vals = params.values()
    q = vals["q"]
    scaled = u.map_letters(
        {
            "K0": Element("aw", {("K0",): q}),
            "K1": Element.generator("K1"),
            "T1": Element.generator("T1", "aw"),
        },
        "aw",
    )
    image = embed_element(scaled, params) * _t1_plus(ab)
    return reduce(image.scale(-inv_one_minus_ab), params, budget)


# ---------------------------------------------------------------------------
# The strict-dominance filtration


def is_o_of(
    nf: NormalForm, m: int, n: int, idempotent_side: str = "plain"
) -> bool:
    """Strict-dominance test: every monomial Z^k Y^l (T1^i) must satisfy
    |k| <= |m|, |l| <= |n| and (|k|, |l|) != (|m|, |n|).

    With ``idempotent_side="plain"`` the element must be free of T1 (it is
    read as a combination of Z^k Y^l only); with ``"times_T1_factor"`` the
    dominance condition is applied to both T1-layers.
    """
    if idempotent_side not in ("plain", "times_T1_factor"):
        raise ValueError(f"unknown idempotent_side {idempotent_side!r}")
    for (k, l, i) in nf.terms:
        if i and idempotent_side == "plain":
            return False
        if abs(k) > abs(m) or abs(l) > abs(n):
            return False
        if (abs(k), abs(l)) == (abs(m), abs(n)):
            return False
    return True


def _factor_out_right(
    nf: NormalForm, factor: str, params: Params
) -> NormalForm | None:
    """If nf = R (T1+1) (factor="sym") or nf = R (T1+ab) (factor="asym")
    with R free of T1, return R as a normal form, else None."""
    lay0, lay1 = nf.layers()
    vals = params.values()
    ab = vals["a"] * vals["b"]
    if factor == "sym":
        expected = lay1
    elif factor == "asym":
        expected = {key: ab * coef for key, coef in lay1.items()}
    else:
        raise ValueError(f"unknown factor {factor!r}")
    if lay0 != expected:
        return None
    return NormalForm({(k, l, 0): coef for (k, l), coef in lay1.items()})


# ---------------------------------------------------------------------------
# The step-identity catalog

# Each identity states:  LHS = (sum of leading terms + dominated rest) * F
# where F is T1+1 (spherical family) or T1+ab (antispherical family).
# The builders receive (m, n, scalars) and return the left side as an
# element and the leading terms as a map (k, l) -> coefficient.  Exact
# identities have an empty dominated rest.


@dataclass(frozen=True)
class _StepSpec:
    family: str  # "sym" | "asym"
    exact: bool
    lhs: Callable
    leading: Callable
    box: Callable  # (m, n) -> (M, N) bound for the dominance predicate
    uses: str  # which of m, n the identity depends on: "m", "n", "mn"


def _scalars(params: Params):
    vals = params.values()
    q, a, b, c, d = (vals[k] for k in ("q", "a", "b", "c", "d"))
    ab = a * b
    u = ab * c * d / q
    return q, a, b, ab, u


def _zy_word(m: int, n: int) -> Element:
    return Element("daha", {_basis_word(m, n, 0): _ONE})


def _k_power_word(m: int, n: int) -> Element:
    # K1^m K0^n over the three-letter alphabet
    return Element("aw", {("K1",) * m + ("K0",) * n: _ONE})


def _k_mixed_word(m: int, n: int, middle: Element) -> Element:
    # K1^(m-1) * middle * K0^(n-1)
    left = Element("aw", {("K1",) * (m - 1): _ONE})
    right = Element("aw", {("K0",) * (n - 1): _ONE})
    return left * middle * right


def _k1k0(params: Params) -> Element:
    return Element("aw", {("K1", "K0"): _ONE})


def _k0k1(params: Params) -> Element:
    return Element("aw", {("K0", "K1"): _ONE})


def _build_step_table() -> dict[str, _StepSpec]:
    table: dict[str, _StepSpec] = {}

    def sandwich(m, n, factor_scalar, params):
        f = _t1_plus(factor_scalar)
        return f * _zy_word(m, n) * f

    def add(name, family, exact, lhs, leading, box, uses):
        table[name] = _StepSpec(family, exact, lhs, leading, box, uses)

    one = lambda p: _ONE  # noqa: E731

    # -- spherical step 1 --------------------------------------------------
    def lhs_sym(mexp, nexp):
        def build(m, n, params):
            q, a, b, ab, u = _scalars(params)
            return sandwich(mexp(m), nexp(n), _ONE, params)

        return build

    def lhs_asym(mexp, nexp):
        def build(m, n, params):
            q, a, b, ab, u = _scalars(params)
            return sandwich(mexp(m), nexp(n), ab, params)

        return build

    add(
        "44",
        "sym",
        False,
        lhs_sym(lambda m: m, lambda n: 0),
        lambda m, n, p: {(m, 0): _ONE, (-m, 0): _ONE},
        lambda m, n: (m, 0),
        "m",
    )
    add(
        "45",
        "sym",
        False,
        lhs_sym(lambda m: -m, lambda n: 0),
        lambda m, n, p: {(m, 0): -_scalars(p)[3], (-m, 0): -_scalars(p)[3]},
        lambda m, n: (m, 0),
        "m",
    )
    add(
        "47",
        "sym",
        False,
        lhs_sym(lambda m: 0, lambda n: n),
        lambda m, n, p: {
            (0, n): -_scalars(p)[3],
            (0, -n): -_scalars(p)[3] * _scalars(p)[4] ** n,
        },
        lambda m, n: (0, n),
        "n",
    )
    add(
        "48",
        "sym",
        False,
        lhs_sym(lambda m: 0, lambda n: -n),
        lambda m, n, p: {(0, n): _scalars(p)[4] ** (-n), (0, -n): _ONE},
        lambda m, n: (0, n),
        "n",
    )
    add(
        "49",
        "sym",
        False,
        lhs_sym(lambda m: m, lambda n: n),
        lambda m, n, p: {
            (m, n): _ONE,
            (-m, -n): -_scalars(p)[3] * _scalars(p)[4] ** n,
        },
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "50",
        "sym",
        False,
        lhs_sym(lambda m: -m, lambda n: n),
        lambda m, n, p: {
            (m, n): -(_scalars(p)[3] + _ONE),
            (m, -n): -_scalars(p)[3] * _scalars(p)[4] ** n,
            (-m, n): -_scalars(p)[3],
        },
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "51",
        "sym",
        False,
        lhs_sym(lambda m: m, lambda n: -n),
        lambda m, n, p: {
            (m, -n): _ONE,
            (-m, n): _scalars(p)[4] ** (-n),
            (-m, -n): _ONE + _scalars(p)[3],
        },
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "52",
        "sym",
        False,
        lhs_sym(lambda m: -m, lambda n: -n),
        lambda m, n, p: {
            (m, n): _scalars(p)[4] ** (-n),
            (-m, -n): -_scalars(p)[3],
        },
        lambda m, n: (m, n),
        "mn",
    )

    # -- spherical step 2 (words in the embedded generators) ----------------
    def lhs_k_power(sym: bool, zpow, ypow):
        def build(m, n, params):
            q, a, b, ab, u = _scalars(params)
            factor = _t1_plus(_ONE if sym else ab)
            return embed_element(_k_power_word(zpow(m), ypow(n)), params) * factor

        return build

    add(
        "53",
        "sym",
        False,
        lhs_k_power(True, lambda m: m, lambda n: 0),
        lambda m, n, p: {(m, 0): _ONE, (-m, 0): _ONE},
        lambda m, n: (m, 0),
        "m",
    )
    add(
        "54",
        "sym",
        False,
        lhs_k_power(True, lambda m: 0, lambda n: n),
        lambda m, n, p: {(0, n): _ONE, (0, -n): _scalars(p)[4] ** n},
        lambda m, n: (0, n),
        "n",
    )
    add(
        "55",
        "sym",
        False,
        lhs_k_power(True, lambda m: m, lambda n: n),
        lambda m, n, p: {
            (m, n): _ONE,
            (-m, n): _ONE,
            (m, -n): _scalars(p)[4] ** n,
            (-m, -n): _scalars(p)[4] ** n,
        },
        lambda m, n: (m, n),
        "mn",
    )

    def lhs_56(sym: bool):
        def build(m, n, params):
            q, a, b, ab, u = _scalars(params)
            factor = _t1_plus(_ONE if sym else ab)
            word = _k_mixed_word(m, n, _k0k1(params))
            return embed_element(word, params) * factor

        return build

    def lead_56(m, n, p):
        q, a, b, ab, u = _scalars(p)
        return {
            (m, n): q,
            (-m, n): q.inv(),
            (m, -n): q.inv() * u**n,
            (-m, -n): q.inv() * u**n * (_ONE + ab - q * q * ab),
        }

    add("56", "sym", False, lhs_56(True), lead_56, lambda m, n: (m, n), "mn")

    # -- the two exact one-letter compressions ------------------------------
    def lhs_44_exact(m, n, params):
        f = _t1_plus(_ONE)
        q, a, b, ab, u = _scalars(params)
        rhs = (
            Element("daha", {("Z",): _ONE, ("Zi",): _ONE, (): -(a + b)}) * f
        )
        return f * Element.generator("Z") * f - rhs

    def lhs_45_exact(m, n, params):
        f = _t1_plus(_ONE)
        q, a, b, ab, u = _scalars(params)
        rhs = (
            Element("daha", {("Z",): -ab, ("Zi",): -ab, (): a + b}) * f
        )
        return f * Element.generator("Zi") * f - rhs

    add("44.exact", "sym", True, lhs_44_exact, lambda m, n, p: {}, lambda m, n: (0, 0), "m")
    add("45.exact", "sym", True, lhs_45_exact, lambda m, n, p: {}, lambda m, n: (0, 0), "m")

    # -- spherical step 3 ----------------------------------------------------
    def lhs_step3(sign_m, sign_n, scalar_fn, middle_fn, sym: bool):
        def build(m, n, params):
            q, a, b, ab, u = _scalars(params)
            factor = _t1_plus(_ONE if sym else ab)
            lhs = sandwich(sign_m * m, sign_n * n, _ONE if sym else ab, params)
            word = _k_mixed_word(m, n, middle_fn(params))
            rhs = (embed_element(word, params) * factor).scale(
                scalar_fn(m, n, params)
            )
            return lhs - rhs

        return build

    def mid_k1k0_minus_qk0k1(p):
        q = _scalars(p)[0]
        return _k1k0(p) - _k0k1(p).scale(q)

    def mid_sph2(p):
        q, a, b, ab, u = _scalars(p)
        return _k1k0(p).scale(-(q.inv()) * (_ONE + ab - q * q * ab)) + _k0k1(p)

    def mid_minus_qk1k0_plus_k0k1(p):
        q = _scalars(p)[0]
        return _k1k0(p).scale(-q) + _k0k1(p)

    one_minus_q2 = lambda p: _ONE - _scalars(p)[0] ** 2  # noqa: E731

    add(
        "sph3.1",
        "sym",
        False,
        lhs_step3(1, 1, lambda m, n, p: one_minus_q2(p).inv(), mid_k1k0_minus_qk0k1, True),
        lambda m, n, p: {},
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "sph3.2",
        "sym",
        False,
        lhs_step3(
            -1,
            1,
            lambda m, n, p: _scalars(p)[0] * one_minus_q2(p).inv(),
            mid_sph2,
            True,
        ),
        lambda m, n, p: {},
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "sph3.3",
        "sym",
        False,
        lhs_step3(
            1,
            -1,
            lambda m, n, p: _scalars(p)[0]
            * (one_minus_q2(p) * _scalars(p)[4] ** n).inv(),
            mid_minus_qk1k0_plus_k0k1,
            True,
        ),
        lambda m, n, p: {},
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "sph3.4",
        "sym",
        False,
        lhs_step3(
            -1,
            -1,
            lambda m, n, p: (one_minus_q2(p) * _scalars(p)[4] ** n).inv(),
            mid_k1k0_minus_qk0k1,
            True,
        ),
        lambda m, n, p: {},
        lambda m, n: (m, n),
        "mn",
    )

    # -- antispherical step 1 ------------------------------------------------
    add(
        "a44",
        "asym",
        False,
        lhs_asym(lambda m: m, lambda n: 0),
        lambda m, n, p: {(m, 0): _scalars(p)[3], (-m, 0): _scalars(p)[3]},
        lambda m, n: (m, 0),
        "m",
    )
    add(
        "a45",
        "asym",
        False,
        lhs_asym(lambda m: -m, lambda n: 0),
        lambda m, n, p: {(m, 0): -_ONE, (-m, 0): -_ONE},
        lambda m, n: (m, 0),
        "m",
    )
    add(
        "a47",
        "asym",
        False,
        lhs_asym(lambda m: 0, lambda n: n),
        lambda m, n, p: {(0, n): -_ONE, (0, -n): -(_scalars(p)[4] ** n)},
        lambda m, n: (0, n),
        "n",
    )
    add(
        "a48",
        "asym",
        False,
        lhs_asym(lambda m: 0, lambda n: -n),
        lambda m, n, p: {
            (0, n): _scalars(p)[3] * _scalars(p)[4] ** (-n),
            (0, -n): _scalars(p)[3],
        },
        lambda m, n: (0, n),
        "n",
    )
    add(
        "a49",
        "asym",
        False,
        lhs_asym(lambda m: m, lambda n: n),
        lambda m, n, p: {
            (m, n): _scalars(p)[3],
            (-m, -n): -(_scalars(p)[4] ** n),
        },
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "a50",
        "asym",
        False,
        lhs_asym(lambda m: -m, lambda n: n),
        lambda m, n, p: {
            (m, n): -(_scalars(p)[3] + _ONE),
            (m, -n): -(_scalars(p)[4] ** n),
            (-m, n): -_ONE,
        },
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "a51",
        "asym",
        False,
        lhs_asym(lambda m: m, lambda n: -n),
        lambda m, n, p: {
            (-m, n): _scalars(p)[3] * _scalars(p)[4] ** (-n),
            (m, -n): _scalars(p)[3],
            (-m, -n): _ONE + _scalars(p)[3],
        },
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "a52",
        "asym",
        False,
        lhs_asym(lambda m: -m, lambda n: -n),
        lambda m, n, p: {
            (m, n): _scalars(p)[3] * _scalars(p)[4] ** (-n),
            (-m, -n): -_ONE,
        },
        lambda m, n: (m, n),
        "mn",
    )

    # -- antispherical step 2 -----------------------------------------------
    add(
        "a53",
        "asym",
        False,
        lhs_k_power(False, lambda m: m, lambda n: 0),
        lambda m, n, p: {(m, 0): _ONE, (-m, 0): _ONE},
        lambda m, n: (m, 0),
        "m",
    )
    add(
        "a54",
        "asym",
        False,
        lhs_k_power(False, lambda m: 0, lambda n: n),
        lambda m, n, p: {(0, n): _ONE, (0, -n): _scalars(p)[4] ** n},
        lambda m, n: (0, n),
        "n",
    )
    add(
        "a55",
        "asym",
        False,
        lhs_k_power(False, lambda m: m, lambda n: n),
        lambda m, n, p: {
            (m, n): _ONE,
            (-m, n): _ONE,
            (m, -n): _scalars(p)[4] ** n,
            (-m, -n): _scalars(p)[4] ** n,
        },
        lambda m, n: (m, n),
        "mn",
    )

    def lead_a56(m, n, p):
        q, a, b, ab, u = _scalars(p)
        return {
            (m, n): q,
            (-m, n): q.inv(),
            (m, -n): q.inv() * u**n,
            (-m, -n): (q * ab).inv() * u**n * (_ONE + ab - q * q),
        }

    add("a56", "asym", False, lhs_56(False), lead_a56, lambda m, n: (m, n), "mn")

    # -- antispherical step 3 -------------------------------------------------
    def mid_asym2(p):
        q, a, b, ab, u = _scalars(p)
        return _k1k0(p).scale(-(_ONE + ab - q * q)) + _k0k1(p).scale(q * ab)

    add(
        "asph3.1",
        "asym",
        False,
        lhs_step3(
            1,
            1,
            lambda m, n, p: _scalars(p)[3] * one_minus_q2(p).inv(),
            mid_k1k0_minus_qk0k1,
            False,
        ),
        lambda m, n, p: {},
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "asph3.2",
        "asym",
        False,
        lhs_step3(-1, 1, lambda m, n, p: one_minus_q2(p).inv(), mid_asym2, False),
        lambda m, n, p: {},
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "asph3.3",
        "asym",
        False,
        lhs_step3(
            1,
            -1,
            lambda m, n, p: _scalars(p)[0]
            * _scalars(p)[3]
            * (one_minus_q2(p) * _scalars(p)[4] ** n).inv(),
            mid_minus_qk1k0_plus_k0k1,
            False,
        ),
        lambda m, n, p: {},
        lambda m, n: (m, n),
        "mn",
    )
    add(
        "asph3.4",
        "asym",
        False,
        lhs_step3(
            -1,
            -1,
            lambda m, n, p: _scalars(p)[3]
            * (one_minus_q2(p) * _scalars(p)[4] ** n).inv(),
            mid_k1k0_minus_qk0k1,
            False,
        ),
        lambda m, n, p: {},
        lambda m, n: (m, n),
        "mn",
    )

    return table


STEP_IDENTITIES: dict[str, _StepSpec] = _build_step_table()


def check_step_identity(
    identity: str,
    m: int,
    n: int,
    params: Params,
    budget: int = DEFAULT_BUDGET,
) -> tuple[NormalForm, bool]:
    """Verify one step identity at exponents (m, n).

    Returns (residual, verdict): the residual is the reduction of the left
    side minus the stated leading terms; the verdict is True when the
    residual factors as R * (T1+1) (spherical family) or R * (T1+ab)
    (antispherical family) with R strictly dominated by the identity's
    exponent box, and for exact identities when the residual is zero.
    One-index identities read only the exponent they use.
    """
    spec = STEP_IDENTITIES.get(identity)
    if spec is None:
        raise UnknownIdentity(
            f"unknown step identity {identity!r}; known: {sorted(STEP_IDENTITIES)}"
        )
    if m < 1 or n < 1:
        raise ValueError("step identities take positive exponents")
    vals = params.values()
    ab = vals["a"] * vals["b"]
    lhs = spec.lhs(m, n, params)
    nf = reduce(lhs, params, budget)
    leading = spec.leading(m, n, params)
    lead_terms: dict[tuple[int, int, int], RatFunc] = {}
    for (k, l), coef in leading.items():
        _acc(lead_terms, (k, l, 1), coef)
        _acc(lead_terms, (k, l, 0), coef * (_ONE if spec.family == "sym" else ab))
    residual = nf - NormalForm(lead_terms)
    if spec.exact:
        return residual, residual.is_zero()
    rest = _factor_out_right(residual, spec.family, params)
    if rest is None:
        return residual, False
    box_m, box_n = spec.box(m, n)
    return residual, is_o_of(rest, box_m, box_n, "plain")


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
    dual family (s, ab/s, ac/s, ad/s).

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
# Centralizer, shift operators, center probes


def centralizer_probe(
    e: Element, params: Params, budget: int = DEFAULT_BUDGET
) -> NormalForm:
    """The reduced commutator e T1 - T1 e (zero exactly on the centralizer)."""
    t1 = Element.generator("T1", "daha")
    return reduce(e * t1 - t1 * e, params, budget)


def shift_operator_identities(
    params: Params, budget: int = DEFAULT_BUDGET
) -> tuple[NormalForm, NormalForm]:
    """Both shift-operator compressions; each must reduce to zero.

    The first compresses Y + (a^2 b^2 cd/q) Y^-1 - (abcd/q + ab) between
    two copies of T1+1; the second compresses Y + (cd/q) Y^-1 - (cd/q + 1)
    between two copies of T1+ab."""
    vals = params.values()
    q, a, b, c, d = (vals[k] for k in ("q", "a", "b", "c", "d"))
    ab = a * b
    cd = c * d
    d_minus = Element(
        "daha",
        {("Y",): _ONE, ("Yi",): ab * ab * cd / q, (): -(ab * cd / q + ab)},
    )
    d_plus = Element(
        "daha",
        {("Y",): _ONE, ("Yi",): cd / q, (): -(cd / q + _ONE)},
    )
    f_sym = _t1_plus(_ONE)
    f_asym = _t1_plus(ab)
    residual_minus = reduce(f_sym * d_minus * f_sym, params, budget)
    residual_plus = reduce(f_asym * d_plus * f_asym, params, budget)
    return residual_minus, residual_plus


def center_probe(
    max_degree: int, params: Params, budget: int = DEFAULT_BUDGET
) -> list[tuple[tuple[int, int, int], bool]]:
    """For every non-identity basis element Z^m Y^n T1^i with
    |m|+|n|+i <= max_degree, report whether it fails to commute with at
    least one generator (True everywhere exactly when the center is
    trivial at this degree)."""
    generators = [
        Element.generator("Z"),
        Element.generator("Y"),
        Element.generator("T1", "daha"),
    ]
    out = []
    for m in range(-max_degree, max_degree + 1):
        for n in range(-max_degree + abs(m), max_degree - abs(m) + 1):
            for i in (0, 1):
                if abs(m) + abs(n) + i > max_degree:
                    continue
                if (m, n, i) == (0, 0, 0):
                    continue
                basis = Element("daha", {_basis_word(m, n, i): _ONE})
                noncommuting = False
                for g in generators:
                    if not reduce(basis * g - g * basis, params, budget).is_zero():
                        noncommuting = True
                        break
                out.append(((m, n, i), noncommuting))
    return out
