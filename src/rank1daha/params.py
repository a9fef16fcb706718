"""Exact scalar arithmetic in the parameters q, a, b, c, d.

Every coefficient in the kernel is a :class:`RatFunc`: an exact rational
function of the five parameters with rational coefficients.  Each value
has one stored form, so equality of scalars is structural and the
identity checks in the rest of the package are exact, never numeric.

A rational constant is a reduced fraction of two Python ints.  A rational
function whose reduced denominator is a monomial, as almost every one the
kernel builds (the rewrite rules invert only q, ab, cd and abcd/q), is a
Laurent polynomial over Z with one positive integer denominator, and adds
and multiplies on Python ints.  Any other denominator the kernel meets is
a product of binomials, such as the factors 1 - x q^m of the Askey-Wilson
normaliser, and the value is a Laurent numerator over a product of keyed
irreducible factors; only a monomial or a binomial that splits into them
can be inverted.  Every form prints as sympy 1.14 prints the same element
of Q(q,a,b,c,d), without importing it.

Probabilistic mode evaluates at points of the prime field GF(p),
p = 2^61 - 1, instead: a :class:`ModP` is one residue and stands in for a
rational constant wherever the kernel uses one.  An identity that fails
over Q(q,a,b,c,d) has a nonzero residual, a rational function whose
numerator has total degree deg; it vanishes at a uniformly random point
of GF(p)^5 with probability at most deg/p per trial (Schwartz, JACM 1980;
Zippel, EUROSAM 1979), and only then can the identity falsely pass.

:class:`Params` is one parameter set, stored as its five values: free
indeterminates (:func:`make_params` in symbolic mode), rational constants
(specialized mode), residues mod p (:func:`random_params_mod_p`), or the
derived values of the shifted family (qa, qb, c, d) or the dual family
(s, ab/s, ac/s, ad/s) with s^2 = abcd/q.  abcd/q is not a square in
Q(q,a,b,c,d), but d -> q d^2/(abc) embeds that field into itself and
sends abcd/q to d^2, so the dual family is taken at the moved point
:meth:`Params.with_square_root`, where s = d.  One routine
checks the genericity conditions for all of them: :func:`make_params` on
outside input, the sampler mod p, and every derived family whose values
are constants.  All derived scalar quantities (elementary symmetric
polynomials, structure constants, Casimir scalar, eigenvalues) are
computed from the values by a single code path.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import add, sub
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar

import random

from .errors import (
    DegenerateParameters,
    DivisionByZero,
    ExtensionDisabled,
    MissingAssignment,
    UnkeyedDenominator,
)

__all__ = [
    "PARAM_NAMES",
    "RatFunc",
    "Params",
    "StructureConstants",
    "make_params",
    "elementary_symmetric",
    "structure_constants",
    "eigenvalue",
    "PRIME",
    "ModP",
    "random_params_mod_p",
]

PARAM_NAMES = ("q", "a", "b", "c", "d")
_PARAM_INDEX = {name: i for i, name in enumerate(PARAM_NAMES)}

_Rational = int | Fraction
_new = object.__new__


# ---------------------------------------------------------------------------
# Rational constants


class _Rat:
    """An exact rational: ``numerator`` and ``denominator`` are coprime
    Python ints, the denominator positive (zero is 0/1).

    The value of a ground :class:`RatFunc`.  It has only the operations
    RatFunc uses, each building its reduced result with the smallest gcds
    that reduced operands allow (Knuth, TAOCP vol. 2, §4.5.1), and
    without the checks of a public constructor.
    """

    __slots__ = ("numerator", "denominator")

    def __add__(self, other):
        return _rat_sum(self.numerator, self.denominator, other.numerator, other.denominator)

    def __sub__(self, other):
        return _rat_sum(self.numerator, self.denominator, -other.numerator, other.denominator)

    def __mul__(self, other):
        ap, aq = self.numerator, self.denominator
        bp, bq = other.numerator, other.denominator
        x1, x2 = gcd(ap, bq), gcd(bp, aq)
        return _rat((ap // x1) * (bp // x2), (aq // x2) * (bq // x1))

    def __neg__(self):
        return _rat(-self.numerator, self.denominator)

    def inv(self) -> "_Rat":
        """1 / self, for a nonzero value."""
        p, q = self.numerator, self.denominator
        return _rat(-q, -p) if p < 0 else _rat(q, p)

    def __bool__(self) -> bool:
        return bool(self.numerator)

    def __eq__(self, other) -> bool:
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


def _rat(p: int, q: int) -> _Rat:
    """The rational p/q for coprime p and q > 0."""
    out = _new(_Rat)
    out.numerator = p
    out.denominator = q
    return out


def _rat_sum(ap: int, aq: int, bp: int, bq: int) -> _Rat:
    """ap/aq + bp/bq for reduced operands."""
    g = gcd(aq, bq)
    if g == 1:
        return _rat(ap * bq + aq * bp, aq * bq)
    q1, q2 = aq // g, bq // g
    p = ap * q2 + bp * q1
    g2 = gcd(p, g)
    return _rat(p // g2, q1 * q2 * (g // g2))


_RAT_ZERO = _rat(0, 1)
_RAT_ONE = _rat(1, 1)


def _frac_of_ground(v) -> Fraction:
    return Fraction(int(v.numerator), int(v.denominator))


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


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


def _rf(r0) -> "RatFunc":
    """The scalar with component r0, ground when it is a constant."""
    if type(r0) is _Lau and (not r0.t or len(r0.t) == 1 and _ZEXP in r0.t):
        return RatFunc._from_ground(_rat(r0.t.get(_ZEXP, 0), r0.d))
    out = _new(RatFunc)
    out.g, out.r0 = None, r0
    return out


class RatFunc:
    """Exact rational function in q, a, b, c, d.

    Immutable.  A rational constant (the overwhelmingly common case once
    parameters are specialized) is a single reduced rational in ``g``, two
    Python ints.  Any other value has ``g`` None and one component ``r0``,
    a Laurent polynomial when its reduced denominator is a monomial and a
    Laurent numerator over keyed factors otherwise.  Every form is unique,
    so structural equality is semantic equality.
    """

    __slots__ = ("r0", "g")

    r1 = None  # no second component; perfbench/tracer.py reads it

    def __init__(self, r0):
        """The scalar of a component."""
        v = _rf(r0)
        self.g, self.r0 = v.g, v.r0

    @staticmethod
    def _from_ground(value: _Rat) -> "RatFunc":
        out = _new(RatFunc)
        out.g, out.r0 = value, None
        return out

    def _part(self):
        """The component, built on demand for a constant."""
        if self.r0 is None:
            self.r0 = _lconst(self.g)
        return self.r0

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc._from_ground(_RAT_ZERO)

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc._from_ground(_RAT_ONE)

    @staticmethod
    def from_rational(x: _Rational) -> "RatFunc":
        return RatFunc._from_ground(_rat(x.numerator, x.denominator))

    @staticmethod
    def gen(name: str) -> "RatFunc":
        return _GENS[name]

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        # zero is a constant, by construction
        return self.g is not None and not self.g

    def is_constant(self) -> bool:
        """True for a rational constant (and for every element of GF(p))."""
        return self.g is not None

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.from_rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.g is not None and o.g is not None:
            return RatFunc._from_ground(self.g + o.g)
        return _rf(_cadd(self._part(), o._part()))

    __radd__ = __add__

    def __neg__(self):
        if self.g is not None:
            return RatFunc._from_ground(-self.g)
        return _rf(_cadd(_LZERO, self.r0, -1))

    def __sub__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.g is not None and o.g is not None:
            return RatFunc._from_ground(self.g - o.g)
        return _rf(_cadd(self._part(), o._part(), -1))

    def __rsub__(self, other):
        o = RatFunc._coerce(other)
        return NotImplemented if o is NotImplemented else o - self

    def __mul__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.g is not None and o.g is not None:
            return RatFunc._from_ground(self.g * o.g)
        return _rf(_cmul(self._part(), o._part()))

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        if self.g is not None:
            return RatFunc._from_ground(self.g.inv())
        return _rf(_cinv(self.r0))

    def __truediv__(self, other):
        o = RatFunc._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inv()

    def __rtruediv__(self, other):
        o = RatFunc._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = RatFunc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt(self) -> "RatFunc | None":
        """A square root inside the coefficient field, or None.

        A constant has one when its numerator and denominator are squares.
        A symbolic value is taken to have one only when it is a single
        term c x^e / den with even exponents and square c and den, such as
        abcd/q at :meth:`Params.with_square_root`; any other value gets
        None, even a square such as (a + b)^2.
        """
        if self.g is not None:
            m, c, den = _ZEXP, self.g.numerator, self.g.denominator
        elif type(self.r0) is _Lau and len(self.r0.t) == 1:
            ((m, c),) = self.r0.t.items()
            den = self.r0.d
        else:
            return None
        croot, droot = _isqrt_exact(c), _isqrt_exact(den)
        if not croot or droot is None or any(e % 2 for e in m):
            return None  # zero included
        return _rf(_lau({tuple(e // 2 for e in m): croot}, droot))

    # -- comparison and hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.g is not None or o.g is not None:
            # a non-ground value is never constant, by construction
            return self.g is not None and o.g is not None and self.g == o.g
        return self.r0 == o.r0

    def __hash__(self) -> int:
        if self.g is not None:
            return hash(_frac_of_ground(self.g))
        return hash(self.r0)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point: Mapping[str, _Rational]) -> tuple[Fraction, Fraction]:
        """The value at a rational point, paired with 0 (the pair keeps the
        shape perfbench/checks.py unpacks)."""
        if self.g is not None:
            return (_frac_of_ground(self.g), Fraction(0))
        vals = [Fraction(point[name]) for name in PARAM_NAMES]
        return (_ceval(self.r0, vals), Fraction(0))

    def as_fraction(self) -> Fraction:
        """Return the value of a constant scalar as an exact rational."""
        if self.g is None:
            raise ValueError(f"scalar is not a rational constant: {self}")
        return _frac_of_ground(self.g)

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if self.g is not None:
            return str(self.g)
        return _text(self.r0)

    def __repr__(self) -> str:
        return f"RatFunc({self})"


_GENS = {
    name: _rf(_lau({tuple(int(i == j) for j in range(5)): 1}, 1))
    for i, name in enumerate(PARAM_NAMES)
}


_ZERO = RatFunc.zero()
_ONE = RatFunc.one()


# ---------------------------------------------------------------------------
# The prime field GF(p)

# a Mersenne prime; p = 3 mod 4, so a square root is one power
PRIME = 2**61 - 1
_SQRT_EXP = (PRIME + 1) // 4


def _residue(x) -> int:
    """The residue mod p of a ground RatFunc, an int or a Fraction
    (NotImplemented for any other type).  A symbolic scalar has none."""
    if isinstance(x, RatFunc):
        if isinstance(x, ModP):
            return x.v
        if x.g is None:
            raise TypeError(f"a GF(p) scalar does not combine with the symbolic scalar {x}")
        x = x.g
    elif not isinstance(x, (int, Fraction)):
        return NotImplemented  # type: ignore[return-value]
    num, den = int(x.numerator), int(x.denominator)
    if den == 1:
        return num % PRIME
    if not den % PRIME:
        raise DivisionByZero(f"{x} has no value mod p")
    return num * pow(den, -1, PRIME) % PRIME


def _modp(v: int) -> "ModP":
    out = _new(ModP)
    out.v = v
    return out


def _same(x):
    return x


def _lifting(params: "Params") -> tuple[Callable, Callable, int]:
    """(lift, drop, p): how inner loops carry the scalars of ``params``.  At
    a point of GF(p) a scalar is lifted to its int residue, summed and
    multiplied as a plain int and reduced mod p where it is read, and
    dropped back to a ``ModP`` only where one is returned: (_residue,
    _modp, PRIME).  Elsewhere the RatFunc values are carried as they are,
    with p = 0."""
    if isinstance(params.vals[0], ModP):
        return _residue, _modp, PRIME
    return _same, _same, 0


class ModP(RatFunc):
    """An element of GF(p), p = 2^61 - 1: the scalar of probabilistic mode.

    Immutable; ``v`` is the residue in [0, p).  It has the interface the
    kernel uses on a ground RatFunc (``+ - * / ** neg inv == hash is_zero``).
    A ground RatFunc, int or Fraction operand is reduced mod p on contact,
    so constants such as 1 or (1-q^2) written over Q act as their residues;
    a symbolic operand raises TypeError.  Being a subclass, it passes the
    kernel's ``isinstance`` checks, and Python tries its reflected operators
    before a plain RatFunc's own.
    """

    __slots__ = ("v",)

    def __init__(self, value):
        v = _residue(value)
        if v is NotImplemented:
            raise TypeError(f"no residue mod p for {type(value).__name__}")
        self.v = v

    def is_zero(self) -> bool:
        return not self.v

    def is_constant(self) -> bool:
        return True

    # add, sub and mul build their result inline: they are most of the
    # scalar work of a probabilistic run, and a call to _modp would add
    # about a quarter to the cost of each
    def __add__(self, other):
        o = other.v if type(other) is ModP else _residue(other)
        if o is NotImplemented:
            return NotImplemented
        out = _new(ModP)
        out.v = (self.v + o) % PRIME
        return out

    __radd__ = __add__

    def __neg__(self):
        return _modp(-self.v % PRIME)

    def __sub__(self, other):
        o = other.v if type(other) is ModP else _residue(other)
        if o is NotImplemented:
            return NotImplemented
        out = _new(ModP)
        out.v = (self.v - o) % PRIME
        return out

    def __rsub__(self, other):
        o = _residue(other)
        return NotImplemented if o is NotImplemented else _modp((o - self.v) % PRIME)

    def __mul__(self, other):
        o = other.v if type(other) is ModP else _residue(other)
        if o is NotImplemented:
            return NotImplemented
        out = _new(ModP)
        out.v = self.v * o % PRIME
        return out

    __rmul__ = __mul__

    def inv(self) -> "ModP":
        if not self.v:
            raise DivisionByZero("inverse of zero scalar")
        return _modp(pow(self.v, -1, PRIME))

    def __truediv__(self, other):
        o = other.v if type(other) is ModP else _residue(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise DivisionByZero("inverse of zero scalar")
        return _modp(self.v * pow(o, -1, PRIME) % PRIME)

    def __rtruediv__(self, other):
        o = _residue(other)
        return NotImplemented if o is NotImplemented else _modp(o * self.inv().v % PRIME)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** -n
        return _modp(pow(self.v, n, PRIME))

    def __eq__(self, other) -> bool:
        o = other.v if type(other) is ModP else _residue(other)
        if o is NotImplemented:
            return NotImplemented
        return self.v == o

    def __hash__(self) -> int:
        return hash(self.v)

    def sqrt(self) -> "ModP | None":
        """t^((p+1)/4), the square root of a quadratic residue t, else None."""
        root = pow(self.v, _SQRT_EXP, PRIME)
        return _modp(root) if root * root % PRIME == self.v else None

    def as_fraction(self) -> Fraction:
        raise ValueError(f"scalar is not a rational constant: {self} mod p")

    def __str__(self) -> str:
        return str(self.v)

    def __repr__(self) -> str:
        return f"ModP({self.v})"


# ---------------------------------------------------------------------------
# Parameter sets


def _check_admissible(vals: Sequence[RatFunc], bound: int) -> None:
    """Raise DegenerateParameters unless the constant values q, a, b, c, d
    (rational, or residues mod p) satisfy the genericity conditions."""
    q, a, b, c, d = vals
    if q.is_zero():
        raise DegenerateParameters("q = 0")
    power = q
    for m in range(1, bound + 1):
        if power == 1:
            raise DegenerateParameters("q^m = 1", m)
        power = power * q
    for name, v in zip(PARAM_NAMES[1:], (a, b, c, d)):
        if v.is_zero():
            raise DegenerateParameters(f"{name} = 0")
    power = a * b * c * d
    for m in range(0, bound + 1):
        if power == 1:
            raise DegenerateParameters("abcd*q^m = 1", m)
        power = power * q
    if a * b == 1:
        raise DegenerateParameters("ab = 1")


class Params:
    """One parameter set: the values of q, a, b, c, d, the genericity bound
    M of the admissibility conditions, and a label for reports.

    ``vals`` holds the five values in :data:`PARAM_NAMES` order, as formal
    indeterminates, rational constants, residues mod p or derived rational
    functions.
    Equality and hashing read the values and the bound, not the label; the
    hash is computed once, since parameter sets key the rewrite-system
    cache on every lookup.
    """

    __slots__ = ("vals", "genericity_bound", "label", "_hash")

    def __init__(self, vals: tuple[RatFunc, ...], genericity_bound: int, label: str):
        hashed = hash((vals, genericity_bound))
        for name, value in zip(self.__slots__, (vals, genericity_bound, label, hashed)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        # the cached hash and cache lookups assume the fields never change
        raise AttributeError(f"Params is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Params):
            return NotImplemented
        return self.vals == other.vals and self.genericity_bound == other.genericity_bound

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Params({self.vals!r}, {self.genericity_bound!r}, {self.label!r})"

    # -- values ---------------------------------------------------------

    def values(self) -> dict[str, RatFunc]:
        return dict(zip(PARAM_NAMES, self.vals))

    def value(self, name: str) -> RatFunc:
        return self.vals[_PARAM_INDEX[name]]

    @property
    def is_symbolic(self) -> bool:
        return not all(v.is_constant() for v in self.vals)

    # -- derived families -------------------------------------------------

    def _derived(self, vals: Sequence[RatFunc], suffix: str) -> "Params":
        """The family with values ``vals``, labelled by this label and
        ``suffix``; constant values must satisfy the genericity
        conditions."""
        if all(v.is_constant() for v in vals):
            _check_admissible(vals, self.genericity_bound)
        return Params(tuple(vals), self.genericity_bound, self.label + suffix)

    def shifted(self) -> "Params":
        """The same parameters with a -> qa and b -> qb (c, d, q fixed)."""
        q, a, b, c, d = self.vals
        return self._derived((q, q * a, q * b, c, d), ";shift(a->qa,b->qb)")

    def with_square_root(self) -> "Params":
        """The symbolic point moved by d -> q d^2/(abc), where abcd/q = d^2.

        The substitution embeds Q(q,a,b,c,d) into itself, so an identity
        holds at the moved point exactly when it holds at this one, and the
        root s of abcd/q there is d: the dual family is (d, ab/d, ac/d, qd/(bc)).
        A constant point (rational or GF(p)) comes back unchanged; it has
        its own root or none.
        """
        if not self.is_symbolic:
            return self
        q, a, b, c, d = self.vals
        return self._derived((q, a, b, c, q * d * d / (a * b * c)), ";d->qd^2/(abc)")

    def dual(self, root: RatFunc | None = None) -> "Params":
        """The dual family (s, ab/s, ac/s, ad/s) with s^2 = abcd/q.

        ``root`` is s; a given root must square to abcd/q.  By default s is
        the field's own square root: t^((p+1)/4) at a point of GF(p), an
        exact rational root at a rational point, and a one-term root at a
        symbolic point such as :meth:`with_square_root`.  Where abcd/q has
        no root this raises :class:`ExtensionDisabled`.
        """
        q, a, b, c, d = self.vals
        t = a * b * c * d / q
        if root is None:
            root = t.sqrt()
            if root is None:
                raise ExtensionDisabled(
                    f"dual parameters need an exact square root of abcd/q, "
                    f"but {t} has none in the coefficient field"
                )
        elif root * root != t:
            raise ValueError(f"{root} is not a square root of abcd/q = {t}")
        return self._derived(
            (q, root, a * b / root, a * c / root, a * d / root),
            ";dual(s,ab/s,ac/s,ad/s)",
        )

    def __str__(self) -> str:
        return self.label


# The rewrite-system cache keeps only this many most recently used parameter
# sets.  That bounds the points of exact mode: the rank certificates' witness
# points at symbolic parameters, and the points of successive runs in one
# process.  A prob run empties the cache as each of its later trials starts.
_PARAMS_CACHE_BOUND = 8

_T = TypeVar("_T")


def _params_cache_entry(
    cache: OrderedDict[Params, _T], params: Params, build: Callable[[Params], _T]
) -> _T:
    """The cached entry for ``params``, built on a miss; evicts the least
    recently used parameter set beyond the bound."""
    entry = cache.get(params)
    if entry is None:
        entry = cache[params] = build(params)
        if len(cache) > _PARAMS_CACHE_BOUND:
            cache.popitem(last=False)
    else:
        cache.move_to_end(params)
    return entry


_GENERICITY_BOUND = 16


def make_params(
    mode: str,
    assignments: Mapping[str, _Rational] | None = None,
    genericity_bound: int = _GENERICITY_BOUND,
) -> Params:
    """Validate and build a parameter set.

    Symbolic mode takes no assignments.  Specialized mode requires a value
    for each of q, a, b, c, d and enforces the genericity conditions:
    q != 0, q^m != 1 (1 <= m <= M), a,b,c,d != 0, abcd*q^m != 1
    (0 <= m <= M), and ab != 1, where M is ``genericity_bound``.
    """
    if genericity_bound < 1:
        raise ValueError("genericity_bound must be a positive integer")
    if mode == "symbolic":
        if assignments:
            raise ValueError("symbolic mode takes no assignments")
        return Params(tuple(map(RatFunc.gen, PARAM_NAMES)), genericity_bound, "symbolic")
    if mode != "specialized":
        raise ValueError(f"unknown mode {mode!r}")
    if assignments is None:
        raise MissingAssignment("specialized mode needs assignments")
    missing = [n for n in PARAM_NAMES if n not in assignments]
    if missing:
        raise MissingAssignment(f"missing values for: {', '.join(missing)}")
    extra = [n for n in assignments if n not in PARAM_NAMES]
    if extra:
        raise ValueError(f"unknown parameter names: {', '.join(sorted(extra))}")
    point = {n: Fraction(assignments[n]) for n in PARAM_NAMES}
    vals = tuple(RatFunc.from_rational(v) for v in point.values())
    _check_admissible(vals, genericity_bound)
    label = ",".join(f"{n}={point[n]}" for n in PARAM_NAMES)
    return Params(vals, genericity_bound, label)


def random_params_mod_p(rng: random.Random) -> Params:
    """A parameter set drawn uniformly from GF(p)^5, resampled until it
    satisfies the genericity conditions mod p (with the default bound of
    :func:`make_params`) and abcd/q is a quadratic residue, so that the dual
    family exists."""
    while True:
        vals = tuple(_modp(rng.randrange(PRIME)) for _ in PARAM_NAMES)
        try:
            _check_admissible(vals, _GENERICITY_BOUND)
        except DegenerateParameters:
            continue
        q, a, b, c, d = vals
        if (a * b * c * d / q).sqrt() is None:
            continue
        label = ",".join(f"{n}={v}" for n, v in zip(PARAM_NAMES, vals)) + " mod 2^61-1"
        return Params(vals, _GENERICITY_BOUND, label)


# ---------------------------------------------------------------------------
# Derived scalars


def elementary_symmetric(params: Params) -> tuple[RatFunc, RatFunc, RatFunc, RatFunc]:
    """The four elementary symmetric polynomials of a, b, c, d."""
    _, a, b, c, d = params.vals
    e1 = a + b + c + d
    e2 = a * b + a * c + a * d + b * c + b * d + c * d
    e3 = a * b * c + a * b * d + a * c * d + b * c * d
    e4 = a * b * c * d
    return (e1, e2, e3, e4)


class StructureConstants(NamedTuple):
    """All scalar constants of the two q-commutator relations, their central
    extension, and the Casimir scalar, for one parameter set."""

    e1: RatFunc
    e2: RatFunc
    e3: RatFunc
    e4: RatFunc
    B: RatFunc
    C0: RatFunc
    C1: RatFunc
    D0: RatFunc
    D1: RatFunc
    E: RatFunc
    F0: RatFunc
    F1: RatFunc
    G: RatFunc
    Q0: RatFunc


def structure_constants(params: Params) -> StructureConstants:
    """Compute every structure constant from the parameter values."""
    q, a, b, c, d = params.vals
    e1, e2, e3, e4 = elementary_symmetric(params)
    one = _ONE
    qi = q.inv()
    B = (one - qi) ** 2 * (e3 + q * e1)
    C0 = (q - qi) ** 2
    C1 = qi * (q - qi) ** 2 * e4
    D0 = -(qi**3) * (one - q) ** 2 * (one + q) * (e4 + q * e2 + q * q)
    D1 = -(qi**3) * (one - q) ** 2 * (one + q) * (e1 * e4 + q * e3)
    E = -(qi**2) * (one - q) ** 3 * (c + d)
    F0 = qi**3 * (one - q) ** 3 * (one + q) * (c * d + q)
    F1 = qi**3 * (one - q) ** 3 * (one + q) * (a + b) * c * d
    G = -(qi**4) * (one - q) ** 3 * (
        (a + b) * (c + d) * (c * d * (q * q + one) + q)
        - q * (a * b + one) * ((c * c + d * d) * (q + one) - c * d)
        + (c * d + e4) * (q * q + one)
        + (e2 + e4 - a * b) * q**3
    )
    Q0 = qi**4 * (one - q) ** 2 * (
        q**4 * (e4 - e2)
        + q**3 * (e1 * e1 - e1 * e3 - 2 * e2)
        - q * q * (e2 * e4 + 2 * e4 + e2)
        + q * (e3 * e3 - 2 * e2 * e4 - e1 * e3)
        + e4 * (one - e2)
    )
    return StructureConstants(e1, e2, e3, e4, B, C0, C1, D0, D1, E, F0, F1, G, Q0)


def eigenvalue(n: int, params: Params) -> RatFunc:
    """The n-th eigenvalue q^-n + abcd q^(n-1) of the q-difference operator."""
    if n < 0:
        raise ValueError("eigenvalue index must be nonnegative")
    q, a, b, c, d = params.vals
    return q ** (-n) + a * b * c * d * q ** (n - 1)
