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

import operator
import random
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .errors import DegenerateParameters, DivisionByZero
from .field import _ONE, _ZERO, RatFunc
from .laurent import PARAM_NAMES, _new
from .params import Params, _check_admissible

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


class Carrier(NamedTuple):
    """How the checks' inner loops carry the scalars of one point, fixed
    once per point (:func:`_carrier`): its values, zero and one as they are
    carried, ``lift`` from and ``drop`` back to a scalar, and ``mod``,
    ``inv`` and ``power`` (an exponent may be negative) on carried ones.
    ``settle`` reduces a dict of accumulated coefficients and drops its
    zeros.  ``p`` is 2^61 - 1 at a point of GF(p) and 0 elsewhere."""

    p: int
    zero: object
    one: object
    vals: tuple
    lift: Callable
    drop: Callable
    mod: Callable
    inv: Callable
    power: Callable
    settle: Callable


def _value_carrier(params: "Params") -> Carrier:
    """The carrier of the point's scalars as they are, RatFunc values or
    ``ModP`` objects: the z-form entry points' at every point."""
    settle = lambda acc: {key: c for key, c in acc.items() if c}
    inv = operator.methodcaller("inv")
    return Carrier(0, _ZERO, _ONE, params.vals, _same, _same, _same, inv, operator.pow, settle)


def _carrier(params: "Params") -> Carrier:
    """The carrier of the checks' paths at ``params``.  At a point of GF(p)
    a scalar is lifted to its int residue, summed and multiplied as a plain
    int and reduced mod p where it is read, and dropped back to a ``ModP``
    only where one is returned.  Elsewhere the values are carried as they
    are (:func:`_value_carrier`)."""
    if not isinstance(params.vals[0], ModP):
        return _value_carrier(params)
    settle = lambda acc: {key: r for key, c in acc.items() if (r := c % PRIME)}
    return Carrier(
        PRIME, 0, 1, tuple(v.v for v in params.vals), _residue, _modp, PRIME.__rmod__,
        partial(pow, exp=-1, mod=PRIME), partial(pow, mod=PRIME), settle,
    )


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
    satisfies the genericity conditions mod p (those of
    :func:`rank1daha.params.make_params`) and abcd/q is a quadratic residue,
    so that the dual family exists."""
    while True:
        vals = tuple(_modp(rng.randrange(PRIME)) for _ in PARAM_NAMES)
        try:
            _check_admissible(vals)
        except DegenerateParameters:
            continue
        q, a, b, c, d = vals
        if (a * b * c * d / q).sqrt() is None:
            continue
        label = ",".join(f"{n}={v}" for n, v in zip(PARAM_NAMES, vals)) + " mod 2^61-1"
        return Params(vals, label)
