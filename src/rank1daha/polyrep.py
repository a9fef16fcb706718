"""The basic representation on symmetric Laurent polynomials.

K1 acts by multiplication by z + z^-1 and K0 by the second-order
q-difference operator

    (D f)[z] = A[z] (f[qz] - f[z]) + A[1/z] (f[z/q] - f[z])
               + (1 + abcd/q) f[z],
    A[z] = (1-az)(1-bz)(1-cz)(1-dz) / ((1-z^2)(1-qz^2)),

whose eigenfunctions are the monic Askey-Wilson polynomials P_n with
eigenvalues lambda_n = q^-n + abcd q^(n-1).

Both act bidiagonally on the basis phi_k = (az, a/z; q)_k (Askey-Wilson,
Mem. AMS 319, 1985; Koekoek-Lesky-Swarttouw 2010, 14.1):

    D phi_k = lambda_k phi_k + mu_k phi_(k-1),
    mu_k = -q^-k (1-q^k)(1-ab q^(k-1))(1-ac q^(k-1))(1-ad q^(k-1)),
    (z + z^-1) phi_k = (a q^k)^-1 [(1 + a^2 q^(2k)) phi_k - phi_(k+1)],

and the summands of the terminating 4phi3 sum for P_n are its coordinates
c_k in that basis.  Times (q;q)_n they are products of linear factors,
c~_k = (q^-n, abcd q^(n-1);q)_k q^k (ab q^k, ac q^k, ad q^k;q)_(n-k)
(q^(k+1);q)_(n-k), and P_n = N_n^-1 sum_k c~_k phi_k with the normaliser
N_n = a^n (abcd q^(n-1);q)_n (q;q)_n.  Those factors, keyed by what they
are rather than by their value (:class:`_Factors`), are the one factor
source of ``askey_wilson``, which divides through one factor at a time,
and of the family's identity checks (:mod:`rank1daha.family`).

The z-form appears only at the public boundary: ``askey_wilson``,
``apply_word``, ``apply_dsym`` and ``shifted_qn`` convert a z-form input
into coordinates once, by peeling the top z-degree (the z^k coefficient
of phi_k is the monomial (-a)^k q^(k(k-1)/2), so no gcd runs), and their
result back once, by Horner's rule in the factors phi_(k+1) / phi_k.
Every check works on coordinates.

``relation_residuals`` applies the quotient relations of
:mod:`rank1daha.aw3` (the two q-commutator relations and the Casimir
relation) to phi_k, word by word.  The entries of both maps are Laurent
polynomials in t = q^k: lambda_k and the K1 diagonal entry have
t-exponents in [-1, 1], mu_k in [-1, 3], and the K1 up entry -1.  So the
phi_(k+j) coordinate of a length-L word's image of phi_k is a Laurent
polynomial in q^k with exponents in [-L, 3L], and as mu_0 = 0 the span of
phi_k, k >= 0, is invariant.  A relation with words of length at most L
that vanishes on phi_k for k = 0..4L, at a point where q^0..q^(4L) are
distinct, therefore vanishes on every phi_k there, hence on every
symmetric Laurent polynomial.  The Casimir relation has words of length
4, and q^0..q^16 are distinct at every admissible point (the genericity
bound of :func:`rank1daha.params.make_params`).

The checks' paths carry the scalars of a point of GF(p) as plain int
residues, with no ``ModP`` object per operation (:func:`_lifted`), and
return their residuals so, reduced mod p: a residual prints as the
``ModP`` of the same value would.
"""

from __future__ import annotations

from functools import partial
from math import prod
from typing import Callable, Iterator, Mapping, Sequence

from .aw3 import quotient_relations
from .errors import DegenerateParameters, NotSymmetric
from .field import _ONE, _ZERO, RatFunc
from .modp import _lifting
from .params import Params, StructureConstants

__all__ = [
    "LaurentPoly",
    "apply_dsym",
    "apply_k1",
    "apply_word",
    "askey_wilson",
    "shifted_qn",
    "relation_residuals",
]


class LaurentPoly:
    """A Laurent polynomial in z with rational-function coefficients,
    stored sparsely as exponent -> coefficient (no zero entries)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, RatFunc]):
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: _ONE})

    @staticmethod
    def monomial(k: int, coef: RatFunc = _ONE) -> "LaurentPoly":
        return LaurentPoly({k: coef})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_symmetric(self) -> bool:
        return all(
            self.coeffs.get(-k, _ZERO) == c for k, c in self.coeffs.items()
        )

    def coeff(self, k: int) -> RatFunc:
        return self.coeffs.get(k, _ZERO)

    def degree(self) -> int:
        """Largest |k| with a nonzero coefficient (0 for the zero polynomial)."""
        return max((abs(k) for k in self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, _ZERO) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def scale(self, coef: RatFunc) -> "LaurentPoly":
        return LaurentPoly({k: coef * c for k, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, RatFunc] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, _ZERO) + c1 * c2
        return LaurentPoly(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            shown = str(self.coeffs[k])
            if " " in shown:
                shown = f"({shown})"
            parts.append(f"{shown}*z^{k}" if k else shown)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


Coords = list[RatFunc]  # c_0..c_K of sum_k c_k phi_k


def _lifted(params: Params) -> tuple[tuple, int]:
    """The values q, a, b, c, d as the checks' paths carry them, and p
    (:func:`rank1daha.modp._lifting`): int residues and p = 2^61 - 1 at a
    point of GF(p), else the RatFunc values themselves and 0."""
    lift, _, p = _lifting(params)
    return tuple(map(lift, params.vals)), p


def _power(x, e: int, p: int):
    # x^e for a lifted scalar x, reduced mod p where p is set; e may be negative
    return pow(x, e, p) if p else x**e


def _times_factor(half: Coords, lin: RatFunc, aq: RatFunc) -> Coords:
    """The z^0.. coefficients of f (lin - aq (z + z^-1)), given those of a
    symmetric f."""
    p = [half[1] if len(half) > 1 else _ZERO, *half, _ZERO, _ZERO]  # from z^-1 up
    return [lin * p[j + 1] - aq * (p[j] + p[j + 2]) for j in range(len(half) + 1)]


class _Basis:
    """The tables of one call, grown on demand: both maps, with aq_k = a q^k
    and lin_k = 1 + aq_k^2, and the inverse of the z^k coefficient of phi_k;
    apart, phi_k by its z^0..z^k coefficients, phi_(k+1) = phi_k (lin_k -
    aq_k (z + z^-1)), which only the z-form conversions read.  Entries are
    carried as ``vals`` carries the point's scalars (:func:`_lifted`),
    reduced mod p where p is set, and so are the maps' images."""

    def __init__(self, vals: Sequence, p: int = 0):
        self.vals, self.p = vals, p
        self.one, self.zero = (1, 0) if p else (_ONE, _ZERO)
        self.phi = [[_ONE]]
        self.lead_inv, self.aq, self.lin = [], [], []
        self.lam, self.mu, self.k1_diag, self.k1_up = [], [], [], []

    def grow(self, size: int) -> "_Basis":
        """Extend the tables of the maps through index ``size``."""
        while len(self.aq) <= size:
            (q, a, b, c, d), p, one, k = self.vals, self.p, self.one, len(self.aq)
            qk, qki = _power(q, k, p), _power(q, -k, p)
            x = qk * _power(q, -1, p)  # q^(k-1)
            aq = a * qk
            lin, aq_inv = one + aq * aq, _power(aq, -1, p)
            entries = (
                (self.lead_inv, self.lead_inv[-1] * self.k1_up[-1] if k else one),
                (self.aq, aq),
                (self.lin, lin),
                (self.lam, qki + a * b * c * d * x),
                (self.mu, -qki * (one - qk) * (one - a * b * x) * (one - a * c * x)
                 * (one - a * d * x)),
                (self.k1_diag, lin * aq_inv),
                (self.k1_up, -aq_inv),
            )
            for table, value in entries:
                table.append(value % p if p else value)
        return self

    def settled(self, coords: Coords) -> Coords:
        """Lifted coordinates reduced mod p where p is set."""
        p = self.p
        return [c % p for c in coords] if p else coords

    def z_forms(self, size: int) -> list[Coords]:
        """phi_0..phi_size by their z^0..z^k coefficients."""
        self.grow(size)
        while len(self.phi) <= size:
            k = len(self.phi) - 1
            self.phi.append(_times_factor(self.phi[k], self.lin[k], self.aq[k]))
        return self.phi


def _to_phi(f: LaurentPoly, basis: _Basis) -> Coords:
    """The coordinates of a symmetric f, peeling its top z-degree."""
    if not f.is_symmetric():
        raise NotSymmetric("operator input must satisfy coeff(k) = coeff(-k)")
    rest = [f.coeff(j) for j in range(f.degree() + 1)]
    phi = basis.z_forms(len(rest) - 1)
    coords = [_ZERO] * len(rest)
    for k in range(len(rest) - 1, -1, -1):
        c = coords[k] = rest[k] * basis.lead_inv[k]
        if not c.is_zero():
            for j, v in enumerate(phi[k][:k]):  # z^k cancels exactly
                rest[j] = rest[j] - c * v
    return coords


def _from_phi(coords: Coords, basis: _Basis) -> LaurentPoly:
    """sum_k c_k phi_k as a Laurent polynomial in z, by Horner's rule in the
    factors phi_(k+1) / phi_k."""
    basis.grow(len(coords) - 1)
    half: Coords = []
    for k in range(len(coords) - 1, -1, -1):
        half = _times_factor(half, basis.lin[k], basis.aq[k])
        half[0] = half[0] + coords[k]
    out = {}
    for j, h in enumerate(half):
        if not h.is_zero():
            out[j] = out[-j] = h
    return LaurentPoly(out)


# The maps and _combination skip the coordinates that are the padding zero of
# the basis, tested by identity, which is cheap: a word's image of phi_k has at
# most nine others.  A RatFunc zero found by cancellation is multiplied like any
# coordinate (an int one reduced mod p is mostly the padding zero itself).
def _dsym(coords: Coords, basis: _Basis) -> Coords:
    basis.grow(len(coords) - 1)
    zero = basis.zero
    out = [zero if c is zero else lam * c for lam, c in zip(basis.lam, coords)]
    for k in range(1, len(coords)):
        if coords[k] is not zero:
            out[k - 1] = out[k - 1] + basis.mu[k] * coords[k]
    return basis.settled(out)


def _k1(coords: Coords, basis: _Basis) -> Coords:
    basis.grow(len(coords) - 1)
    zero = basis.zero
    out = [zero if c is zero else diag * c for diag, c in zip(basis.k1_diag, coords)]
    out.append(zero)
    for k, c in enumerate(coords):
        if c is not zero:
            out[k + 1] = out[k + 1] + basis.k1_up[k] * c
    return basis.settled(out)


_LETTER_MAPS = {"K0": _dsym, "K1": _k1}


def _word_image(word: tuple[str, ...], images: dict, basis: _Basis) -> Coords:
    """The image of ``images[()]`` under a word, the rightmost letter acting
    first; every suffix's image is memoized in ``images``."""
    out = images.get(word)
    if out is None:
        letter_map = _LETTER_MAPS.get(word[0])
        if letter_map is None:
            raise ValueError(f"operator words use K0/K1 letters, got {word[0]!r}")
        out = images[word] = letter_map(_word_image(word[1:], images, basis), basis)
    return out


def _combination(terms: Mapping[tuple[str, ...], RatFunc], images: dict, basis: _Basis) -> Coords:
    """The image of ``images[()]`` under a combination of K0/K1 words with
    coefficients carried as the basis carries its scalars; the words share
    the images of their common suffixes."""
    total: Coords = []
    zero = basis.zero
    for word, coef in terms.items():
        image = _word_image(word, images, basis)
        total.extend([zero] * (len(image) - len(total)))
        for k, c in enumerate(image):
            if c is not zero:
                total[k] = total[k] + coef * c
    return basis.settled(total)


def relation_residuals(
    max_degree: int, params: Params, constants: Sequence[StructureConstants | None] = ()
) -> Iterator[Callable[..., Coords]]:
    """For k = 0..max_degree in turn, ``residual(name, i=0)``: the
    phi-coordinates of R phi_k, R the relation ``name`` ("rel1", "rel2" or
    "casimir") of :func:`rank1daha.aw3.quotient_relations` at the
    structure constants ``constants[i]`` (None, and by default, those of
    ``params``, whose relations are built once per point).
    The word images of phi_k do not depend on the constants: they are formed
    on demand, once, and shared by every relation and set of constants.  At
    max_degree = 16 the residuals decide every phi_k (module docstring).
    At a point of GF(p) the images and the coordinates are int residues.
    """
    lift, _, p = _lifting(params)
    vals = tuple(map(lift, params.vals))
    relations = [
        {name: {w: lift(c) for w, c in rel.terms.items()} for name, rel in rels.items()}
        for rels in (quotient_relations(params, sc) for sc in constants or [None])
    ]
    basis = _Basis(vals, p)

    def residual(images: dict, name: str, i: int = 0) -> Coords:
        return _combination(relations[i][name], images, basis)

    for k in range(max_degree + 1):
        yield partial(residual, {(): [basis.zero] * k + [basis.one]})


def apply_dsym(f: LaurentPoly, params: Params) -> LaurentPoly:
    """The q-difference operator D on a symmetric Laurent polynomial."""
    return apply_word(("K0",), f, params)


def apply_k1(f: LaurentPoly) -> LaurentPoly:
    """Multiplication by z + z^-1."""
    out: dict[int, RatFunc] = {}
    for k, c in f.coeffs.items():
        for kk in (k + 1, k - 1):
            out[kk] = out.get(kk, _ZERO) + c
    return LaurentPoly(out)


def apply_word(word: Sequence[str], f: LaurentPoly, params: Params) -> LaurentPoly:
    """Apply a word over {K0, K1} as a composition of operators, the
    rightmost letter acting first."""
    basis = _Basis(params.vals)
    return _from_phi(_word_image(tuple(word), {(): _to_phi(f, basis)}, basis), basis)


# A factor 1 - x q^m of the family is keyed (x, m), x a product of a, b, c,
# d spelled by its sorted letters ("1" if empty): a key names a factor of
# Q(q,a,b,c,d), not its value, so factors that coincide only at a point
# (1 - ac and 1 - bd where ac = bd) stay apart.  A term is a scalar, a
# dict from keys to exponents, negative in a denominator, and at a point of
# GF(p) the value there of the product of its factors (None where one of them
# vanishes, and at any other point).
Term = tuple[RatFunc, Mapping[tuple[str, int], int], "int | None"]


class _Factors(dict):
    """The values of factor keys at one parameter set, each computed once,
    and the scalars of the terms, carried as ``vals`` is (:func:`_lifted`)."""

    def __init__(self, vals: Sequence, p: int = 0):
        super().__init__()
        self.p, self.powers = p, {}
        self.one, self.zero = (1, 0) if p else (_ONE, _ZERO)
        self.letters = dict(zip("q1abcd", (vals[0], self.one, *vals[1:])))

    def power(self, letter: str, e: int) -> RatFunc:
        """The value of the letter q, a, b, c or d to the power e, memoized."""
        out = self.powers.get((letter, e))
        if out is None:
            out = self.powers[letter, e] = _power(self.letters[letter], e, self.p)
        return out

    def __missing__(self, key: tuple[str, int]) -> RatFunc:
        x, m = key
        out = self.one - prod((self.letters[c] for c in x), start=self.power("q", m))
        self[key] = out = out % self.p if self.p else out
        return out

    def term(self, scalar: RatFunc, factors: Mapping[tuple[str, int], int]) -> Term:
        """The term ``scalar`` times ``factors``, with the value of the factors
        at a point of GF(p): None where one of them vanishes to a power other
        than 0, and at any other point."""
        p = self.p
        if not p:
            return scalar, factors, None
        num = den = 1
        for key, e in factors.items():
            x = self[key]
            if not x:
                if e:
                    return scalar, factors, None
            elif e > 0:
                num = num * (x if e == 1 else pow(x, e, p)) % p
            elif e:
                den = den * (x if e == -1 else pow(x, -e, p)) % p
        return scalar, factors, num if den == 1 else num * pow(den, -1, p) % p


def _pn_factors(n: int, values: _Factors) -> list[tuple]:
    """The linear factors of the terminating 4phi3 sum for P_n,

      a^-n / (abcd q^(n-1);q)_n
        sum_k  (q^-n, abcd q^(n-1);q)_k q^k / (q;q)_k
               (ab q^k, ac q^k, ad q^k;q)_(n-k)  phi_k,

    as keys, one row per j < n: (1, j-n) and (abcd, n-1+j), of the (..;q)_k
    products; (1, j+1), of (q;q)_k; and the triple (ab, j), (ac, j),
    (ad, j), of the (..;q)_(n-k) products.  The keys (abcd, n-1+j) are also
    the factors of the divisor (abcd q^(n-1);q)_n, which must not vanish at
    the point of ``values``.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    rows = [
        (("1", j - n), ("abcd", n - 1 + j), ("1", j + 1), (("ab", j), ("ac", j), ("ad", j)))
        for j in range(n)
    ]
    if not all(values[step] for _, step, _, _ in rows):
        raise DegenerateParameters("abcd*q^m = 1", m=None)
    return rows


def _pn_coords(n: int, params: Params) -> Coords:
    """The coordinates of P_n: the summands of the 4phi3 sum, a^-n times, each
    divided by the factors 1 - abcd q^(n-1+j), j >= k, of (abcd q^(n-1);q)_n
    that its (abcd q^(n-1);q)_k lacks, as running products over k (those
    over j >= k as suffix products).  Every factor of a denominator is a
    binomial inverted alone, which the products cancel against the numerator
    factors that share it as they run."""
    values = _Factors(params.vals)
    rows = _pn_factors(n, values)
    q, a = params.vals[:2]
    suffix = [a**-n]
    for _, step, _, tail in reversed(rows):
        suffix.append(prod((values[key] for key in tail), start=suffix[-1]) * values[step].inv())
    coords, prefix = [], _ONE
    for (rise, _, fall, _), rest in zip(rows, reversed(suffix)):
        coords.append(prefix * rest)
        prefix = prefix * values[rise] * q * values[fall].inv()
    return [*coords, prefix * suffix[0]]


def askey_wilson(n: int, params: Params) -> LaurentPoly:
    """The monic Askey-Wilson polynomial P_n as a symmetric Laurent polynomial."""
    return _from_phi(_pn_coords(n, params), _Basis(params.vals))


def shifted_qn(n: int, params: Params) -> LaurentPoly:
    """The shifted family Q_n = (ab)^-1 z^-1 (1-az)(1-bz) P_(n-1) at
    parameters (qa, qb, c, d); Q_0 = 0 by the convention P_(-1) = 0."""
    if n < 0:
        raise ValueError("the shifted family is indexed by n >= 0")
    if n == 0:
        return LaurentPoly.zero()
    vals = params.values()
    a, b = vals["a"], vals["b"]
    p_shift = askey_wilson(n - 1, params.shifted())
    prefactor = LaurentPoly({1: _ONE, 0: -(a + b) / (a * b), -1: (a * b).inv()})
    return prefactor * p_shift
