"""The prime field GF(p), p = 2^61 - 1: the scalars of probabilistic mode.

Probabilistic mode evaluates at points of GF(p) instead of over
Q(q,a,b,c,d): a :class:`ModP` is one residue and stands in for a rational
constant wherever the kernel uses one.  An identity that fails over
Q(q,a,b,c,d) has a nonzero residual, a rational function whose numerator
has total degree deg; it vanishes at a uniformly random point of GF(p)^5
with probability at most deg/p per trial (Schwartz, JACM 1980; Zippel,
EUROSAM 1979), and only then can the identity falsely pass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .errors import DegenerateParameters, DivisionByZero
from .field import RatFunc
from .laurent import PARAM_NAMES, _new
from .params import _GENERICITY_BOUND, Params, _check_admissible

__all__ = ["PRIME", "ModP", "random_params_mod_p"]


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


def random_params_mod_p(rng: random.Random) -> Params:
    """A parameter set drawn uniformly from GF(p)^5, resampled until it
    satisfies the genericity conditions mod p (with the default bound of
    :func:`rank1daha.params.make_params`) and abcd/q is a quadratic residue, so that the dual
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
