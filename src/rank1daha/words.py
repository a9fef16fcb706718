"""Words, elements and normal forms over the algebra's two alphabets.

The five letters T1, Y, Y^-1, Z, Z^-1 (spelled Yi and Zi) generate the
double affine Hecke algebra, and K0, K1, T1 the central extension of the
Askey-Wilson algebra.  An :class:`Element` is a finite linear combination
of words over one alphabet, multiplied by concatenation; a
:class:`NormalForm` is the unique expansion of a five-letter element in the
basis Z^m Y^n T1^i, keyed by (m, n, i), which :mod:`rank1daha.ncalg`
computes.  The helpers below key, order and check the words of the
basis; no type here knows a parameter point.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .field import _ONE, RatFunc

__all__ = ["DAHA_ALPHABET", "AW_ALPHABET", "Element", "NormalForm"]


DAHA_ALPHABET = ("T1", "Y", "Yi", "Z", "Zi")
AW_ALPHABET = ("K0", "K1", "T1")

Word = tuple[str, ...]


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
