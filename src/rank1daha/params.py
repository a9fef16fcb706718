"""Parameter points: the values of q, a, b, c, d and the scalars derived
from them.

:class:`Params` is one parameter set, stored as its five values: free
indeterminates (:func:`make_params` in symbolic mode), rational constants
(specialized mode), residues mod p (:func:`rank1daha.modp.random_params_mod_p`),
or the derived values of the shifted family (qa, qb, c, d) or the dual
family (s, ab/s, ac/s, ad/s) with s^2 = abcd/q.  abcd/q is not a square in
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

from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar

from .errors import DegenerateParameters, ExtensionDisabled, MissingAssignment
from .field import _ONE, RatFunc, _Rational
from .laurent import PARAM_NAMES

__all__ = [
    "Params",
    "StructureConstants",
    "make_params",
    "elementary_symmetric",
    "structure_constants",
    "eigenvalue",
]

_PARAM_INDEX = {name: i for i, name in enumerate(PARAM_NAMES)}


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
