"""The components of a symbolic scalar: Laurent polynomials over Z and
Laurent numerators over keyed denominators, their arithmetic on Python
ints, and their printer.

A rational function whose reduced denominator is a monomial, as almost
every one the kernel builds (the rewrite rules invert only q, ab, cd and
abcd/q), is a Laurent polynomial over Z with one positive integer
denominator, and adds and multiplies on Python ints.  Any other
denominator the kernel meets is a product of binomials, such as the
factors 1 - x q^m of the Askey-Wilson normaliser, and the value is a
Laurent numerator over a product of keyed irreducible factors; only a
monomial or a binomial that splits into them can be inverted.  Every form
prints as sympy 1.14 prints the same element of Q(q,a,b,c,d), without
importing it.  :class:`rank1daha.field.RatFunc` holds one component.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import add, sub
from typing import Mapping, NamedTuple, Sequence

from .errors import DivisionByZero, UnkeyedDenominator

PARAM_NAMES = ("q", "a", "b", "c", "d")

_new = object.__new__


# ---------------------------------------------------------------------------
# Laurent polynomials over Z
#
# A rational function whose reduced denominator is a monomial is a Laurent
# polynomial: a dict from exponent 5-tuples (q, a, b, c, d order, negatives
# allowed) to nonzero ints, over one positive int coprime to their gcd.
# That form is unique, so equality is structural.

_ZEXP = (0, 0, 0, 0, 0)


class _Lau:
    """sum(t[e] * x^e) / d, zero being {} / 1."""

    __slots__ = ("t", "d")

    def __bool__(self) -> bool:
        return bool(self.t)

    def __eq__(self, other) -> bool:
        return type(other) is _Lau and self.d == other.d and self.t == other.t

    def __hash__(self) -> int:
        return hash((frozenset(self.t.items()), self.d))


def _lau(t: dict, d: int) -> _Lau:
    """t / d for a dict t without zeros, the content shared with d divided out."""
    if d != 1:
        g = gcd(d, *t.values())
        if g != 1:
            t = {m: c // g for m, c in t.items()}
            d //= g
    out = _new(_Lau)
    out.t, out.d = t, d
    return out


def _lconst(x) -> _Lau:
    """The rational constant x (a _Rat or a Fraction) as a Laurent polynomial."""
    return _lau({_ZEXP: x.numerator}, x.denominator) if x else _LZERO


_LZERO = _lau({}, 1)


# ---------------------------------------------------------------------------
# Keyed denominators
#
# A key is an irreducible integer polynomial p(y) in one Laurent monomial
# y = x^v, v primitive (its exponents have gcd 1) and oriented (its first
# nonzero exponent is positive): a binomial alpha + beta y with |alpha| !=
# |beta| and alpha > 0, or a cyclotomic polynomial Phi_k(y), stored as the
# pair (v, coefficients of p from y^0 up).  Keys are irreducible and no two
# are associates, so a value is uniquely a Laurent numerator that no key
# divides over a product of keys.


def _pdiv(f: list[int], p: Sequence[int]) -> list[int] | None:
    """f / p for integer coefficient lists from y^0 up, None unless p divides
    f.  p is primitive, so an exact quotient is integral (Gauss's lemma)."""
    out = []
    while len(f) >= len(p):
        c, r = divmod(f[-1], p[-1])
        if r:
            return None
        out.append(c)
        f = [x - c * y for x, y in zip(f, [0] * (len(f) - len(p)) + list(p))][:-1]
    return None if any(f) else out[::-1]


@lru_cache(maxsize=None)
def _cyclotomic(k: int) -> tuple[int, ...]:
    """The coefficients of Phi_k from y^0 up: y^k - 1 over Phi_j, j | k, j < k."""
    p = [-1] + [0] * (k - 1) + [1]
    for j in range(1, k):
        if not k % j:
            p = _pdiv(p, _cyclotomic(j))
    return tuple(p)


def _divide(t: dict, key) -> dict | None:
    """The Laurent polynomial t over a key, None unless the key divides it.
    Z[x^+-1] is a free Z[y^+-1]-module on the cosets of Z v, so the key
    divides t exactly when it divides t's polynomial in y on each coset."""
    v, p = key
    i, rows, out = next(i for i, w in enumerate(v) if w), {}, {}
    for e, c in t.items():
        j = e[i] // v[i]
        rows.setdefault(tuple(x - j * w for x, w in zip(e, v)), {})[j] = c
    for base, row in rows.items():
        low = min(row)
        quo = _pdiv([row.get(j, 0) for j in range(low, max(row) + 1)], p)
        if quo is None:
            return None
        out.update((tuple(x + j * w for x, w in zip(base, v)), c) for j, c in enumerate(quo, low) if c)
    return out


def _expanded(key) -> _Lau:
    """A key as the Laurent polynomial p(x^v)."""
    v, p = key
    return _lau({tuple(j * w for w in v): c for j, c in enumerate(p) if c}, 1)


class _Keyed(NamedTuple):
    """n / prod(key^e for key, e in k): a Laurent numerator n that no key
    divides, over sorted (key, exponent) pairs, at least one."""

    n: _Lau
    k: tuple


def _keyed(n: _Lau, keys: Mapping, test=None) -> "_Lau | _Keyed":
    """n / prod(key^e), each key in ``test`` (by default every key) that
    divides n divided out."""
    t, kept = n.t, []
    for key in sorted(keys):
        e = keys[key]
        while e and t and (test is None or key in test) and (quo := _divide(t, key)) is not None:
            t, e = quo, e - 1
        if e:
            kept.append((key, e))
    n = n if t is n.t else _lau(t, n.d)
    return _Keyed(n, tuple(kept)) if kept and t else n


def _parts(x) -> tuple[_Lau, Counter]:
    return (x, Counter()) if type(x) is _Lau else (x.n, Counter(dict(x.k)))


def _times(n: _Lau, keys: Counter) -> _Lau:
    """n times the product of the keys, with multiplicity."""
    for key in keys.elements():
        n = _cmul(n, _expanded(key))
    return n


def _kadd(x, y, sign: int):
    """x + sign*y over the lcm of the keys.  A key whose exponents in x and y
    differ cannot divide the sum, as it divides neither numerator."""
    (nx, kx), (ny, ky) = _parts(x), _parts(y)
    keys = kx | ky
    total = _cadd(_times(nx, keys - kx), _times(ny, keys - ky), sign)
    return _keyed(total, keys, {key for key in keys if kx[key] == ky[key]})


def _kmul(x, y):
    """x * y, each side's keys cancelled against the other side's numerator."""
    (nx, kx), (ny, ky) = _parts(x), _parts(y)
    (ny, kx), (nx, ky) = _parts(_keyed(ny, kx)), _parts(_keyed(nx, ky))
    return _keyed(_cmul(nx, ny), kx + ky, ())


def _factored(n: _Lau) -> tuple[int, tuple, dict]:
    """(c, m, keys) with n = c x^m prod(keys) / n.d, for a monomial or a
    binomial that splits into keys: c0 + c1 y with |c0| != |c1| is one, and
    y^g - 1 is the product of Phi_j(y) over j | g, y^g + 1 over j | 2g with
    j not dividing g."""
    (low, c0), *rest = sorted(n.t.items())  # so high - low is oriented
    if not rest:
        return c0, low, {}
    if len(rest) == 1:
        ((high, c1),) = rest
        w = tuple(map(sub, high, low))
        g, h = gcd(*w), gcd(c0, c1)
        v = tuple(e // g for e in w)
        if abs(c0) == abs(c1):
            js = [j for j in range(1, 2 * g + 1) if not 2 * g % j and (g % j == 0) == (c0 != c1)]
            return c0 if c0 == c1 else -c0, low, {(v, _cyclotomic(j)): 1 for j in js}
        if g == 1:
            h = h if c0 > 0 else -h
            return h, low, {(v, (c0 // h, c1 // h)): 1}
    raise UnkeyedDenominator(f"1/({_text(n)}) would have a denominator that is no product of keys")


# Component arithmetic: Laurent operands stay on Python ints.
def _cadd(x, y, sign: int = 1):
    """x + sign*y."""
    if not y:
        return x
    if not x and sign == 1:
        return y
    if type(x) is not _Lau or type(y) is not _Lau:
        return _kadd(x, y, sign)
    d = x.d
    if d == y.d:
        t = x.t.copy()
        scale = sign
    else:
        g = gcd(d, y.d)
        t = {m: c * (y.d // g) for m, c in x.t.items()}
        scale = sign * (d // g)
        d *= y.d // g
    get = t.get
    for m, c in y.t.items():
        c = get(m, 0) + scale * c
        if c:
            t[m] = c
        else:
            del t[m]
    return _lau(t, d)


def _cmul(x, y):
    if not x or not y:
        return _LZERO
    if type(x) is not _Lau or type(y) is not _Lau:
        return _kmul(x, y)
    tx, ty = x.t, y.t
    if len(tx) > len(ty):
        tx, ty = ty, tx
    if len(tx) == 1:  # no two products share a monomial
        ((m, k),) = tx.items()
        if m == _ZEXP:
            t = {m2: k * k2 for m2, k2 in ty.items()}
        else:
            q, a, b, c, d = m
            t = {
                (q + q2, a + a2, b + b2, c + c2, d + d2): k * k2
                for (q2, a2, b2, c2, d2), k2 in ty.items()
            }
    else:
        inner = [(*m, k) for m, k in ty.items()]
        t = {}
        get = t.get
        for (q, a, b, c, d), k in tx.items():
            for q2, a2, b2, c2, d2, k2 in inner:
                m = (q + q2, a + a2, b + b2, c + c2, d + d2)
                t[m] = get(m, 0) + k * k2
        t = {m: k for m, k in t.items() if k}
    return _lau(t, x.d * y.d)


def _cinv(x):
    """1 / x for a nonzero component; no key of x divides x's numerator."""
    n, keys = _parts(x)
    c, m, factors = _factored(n)
    num = _lau({tuple(-e for e in m): -n.d if c < 0 else n.d}, abs(c))
    return _keyed(_times(num, keys), factors, ())


def _ceval(x, vals: Sequence[Fraction]) -> Fraction:
    """A component's value at a rational point."""
    try:
        if type(x) is _Keyed:
            return _ceval(x.n, vals) / prod(_ceval(_expanded(key), vals) ** e for key, e in x.k)
        terms = (c * prod(v**e for v, e in zip(vals, m)) for m, c in x.t.items())
        return sum(terms, Fraction(0)) / x.d
    except ZeroDivisionError:
        raise DivisionByZero("evaluation point hits a denominator zero") from None


def _poly_text(t: dict) -> str:
    out = ""
    for e in sorted(t, reverse=True):
        c, names = t[e], [name if k == 1 else f"{name}**{k}" for name, k in zip(PARAM_NAMES, e) if k]
        out += (" - " if c < 0 else " + ") + "*".join([str(abs(c))] * (abs(c) != 1 or not names) + names)
    return out[3:] if out[1] == "+" else "-" + out[3:]


def _text(x) -> str:
    """A component as sympy 1.14 prints its element of Q(q,a,b,c,d): integer
    numerator and denominator polynomials in lowest terms, the denominator's
    lex-leading coefficient positive, terms in lex-descending order of the
    exponents of q, a, b, c, d, the numerator in parentheses if it has
    several terms and the denominator unless it is a constant or one letter."""
    n, keys = _parts(x)
    den = _times(_lau({_ZEXP: n.d}, 1), keys).t
    shift = [-min(col) for col in zip(*n.t, *den)]
    num, den = ({tuple(map(add, e, shift)): c for e, c in p.items()} for p in (n.t, den))
    sign = 1 if den[max(den)] > 0 else -1
    top, bottom = (_poly_text({e: sign * c for e, c in p.items()}) for p in (num, den))
    if bottom == "1":
        return top
    return (f"({top})" if " " in top else top) + "/" + (bottom if bottom.isalnum() else f"({bottom})")
