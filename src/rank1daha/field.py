"""Exact scalar arithmetic in the parameters q, a, b, c, d.

Every coefficient in the kernel is a :class:`RatFunc`: an exact rational
function of the five parameters with rational coefficients.  Each value
has one stored form, so equality of scalars is structural and the
identity checks in the rest of the package are exact, never numeric.

A rational constant is a reduced fraction of two Python ints.  Any other
value is one component of :mod:`rank1daha.laurent`: a Laurent polynomial
over Z when its reduced denominator is a monomial, else a Laurent
numerator over keyed denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Mapping

from .errors import DivisionByZero
from .laurent import (
    _LZERO,
    _ZEXP,
    PARAM_NAMES,
    _cadd,
    _ceval,
    _cinv,
    _cmul,
    _Lau,
    _lau,
    _lconst,
    _new,
    _text,
)

__all__ = ["RatFunc"]

_Rational = int | Fraction


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
        abcd/q at :meth:`rank1daha.params.Params.with_square_root`; any other
        value gets None, even a square such as (a + b)^2.
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
