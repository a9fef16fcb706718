"""The basic representation on symmetric Laurent polynomials.

K1 acts by multiplication by z + z^-1 and K0 by the second-order
q-difference operator

    (D f)[z] = A[z] (f[qz] - f[z]) + A[1/z] (f[z/q] - f[z])
               + (1 + abcd/q) f[z],
    A[z] = (1-az)(1-bz)(1-cz)(1-dz) / ((1-z^2)(1-qz^2)),

whose eigenfunctions are the monic Askey-Wilson polynomials P_n with
eigenvalues lambda_n = q^-n + abcd q^(n-1).  The operator is evaluated
with exact rational-function coefficients over a common denominator and
the final division is checked to be remainder-free, so a nonzero
denominator residue signals an arithmetic bug rather than rounding.

D is linear over the scalars, so it is applied to f = sum_k c_k (z^k + z^-k)
as sum_k c_k D(z^k + z^-k).  The basis images come from the
common-denominator path and are memoized per parameter set, for the most
recently used parameter sets only.  They carry only monomial denominators,
while the c_k (the coefficients of P_n, say) need not.

The Casimir word combination and the two q-commutator relations are the
quotient relations of :mod:`rank1daha.ncalg`, applied word by word as
operators.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Mapping, Sequence

from .errors import (
    DegenerateParameters,
    InternalDenominatorResidue,
    NotSymmetric,
)
from .ncalg import Element, quotient_relations
from .params import (
    Params,
    RatFunc,
    _params_cache_entry,
    structure_constants,
)

__all__ = [
    "LaurentPoly",
    "apply_dsym",
    "apply_k1",
    "apply_word",
    "qpochhammer",
    "askey_wilson",
    "shifted_qn",
    "recurrence_coeffs",
    "casimir_apply",
    "check_aw_relations_in_rep",
]

_ONE = RatFunc.one()
_ZERO = RatFunc.zero()


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

    @staticmethod
    def symmetric_basis(k: int) -> "LaurentPoly":
        """z^k + z^-k for k >= 1; the constant 1 for k = 0."""
        if k == 0:
            return LaurentPoly.one()
        return LaurentPoly({k: _ONE, -k: _ONE})

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
            new = out.get(k, _ZERO) + c
            if new.is_zero():
                out.pop(k, None)
            else:
                out[k] = new
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
                k = k1 + k2
                new = out.get(k, _ZERO) + c1 * c2
                if new.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = new
        return LaurentPoly(out)

    def dilate(self, q: RatFunc, power: int) -> "LaurentPoly":
        """f[z] -> f[q^power z]: multiplies the z^k coefficient by q^(power*k)."""
        return LaurentPoly({k: c * q ** (power * k) for k, c in self.coeffs.items()})

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


def _divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials; raises if a remainder is left."""
    if num.is_zero():
        return LaurentPoly.zero()
    den_top = max(den.coeffs)
    den_lead = den.coeffs[den_top]
    lead_inv = den_lead.inv()
    rem = dict(num.coeffs)
    quot: dict[int, RatFunc] = {}
    while rem:
        top = max(rem)
        if top - den_top < min(rem) - min(den.coeffs):
            raise InternalDenominatorResidue(
                "difference-operator output failed to clear its denominator"
            )
        shift = top - den_top
        factor = rem[top] * lead_inv
        quot[shift] = factor
        for k, c in den.coeffs.items():
            kk = k + shift
            new = rem.get(kk, _ZERO) - factor * c
            if new.is_zero():
                rem.pop(kk, None)
            else:
                rem[kk] = new
    return LaurentPoly(quot)


def _require_symmetric(f: LaurentPoly) -> None:
    if not f.is_symmetric():
        raise NotSymmetric("operator input must satisfy coeff(k) = coeff(-k)")


# D(z^k + z^-k) by k, per parameter set
_DSYM_IMAGES: OrderedDict[Params, dict[int, LaurentPoly]] = OrderedDict()


def apply_dsym(f: LaurentPoly, params: Params) -> LaurentPoly:
    """The second-order q-difference operator on a symmetric Laurent
    polynomial, computed exactly from the memoized basis images."""
    _require_symmetric(f)
    images = _params_cache_entry(_DSYM_IMAGES, params, lambda _: {})
    out: dict[int, RatFunc] = {}
    for k, c in f.coeffs.items():
        if k < 0:
            continue
        image = images.get(k)
        if image is None:
            image = images[k] = _apply_dsym_direct(
                LaurentPoly.symmetric_basis(k), params
            )
        for kk, v in image.coeffs.items():
            out[kk] = out.get(kk, _ZERO) + c * v
    return LaurentPoly(out)


def _apply_dsym_direct(f: LaurentPoly, params: Params) -> LaurentPoly:
    """D on a symmetric Laurent polynomial over the common denominator
    (1-z^2)(1-qz^2)(q-z^2), with an exact final division."""
    _require_symmetric(f)
    q, a, b, c, d = params.vals
    lam0 = _ONE + a * b * c * d / q
    z = LaurentPoly.monomial(1)
    z2 = LaurentPoly.monomial(2)
    one = LaurentPoly.one()

    def lin(coef: RatFunc) -> LaurentPoly:
        # 1 - coef*z
        return one - LaurentPoly.monomial(1, coef)

    # numerators of the two coefficient functions
    num_plus = lin(a) * lin(b) * lin(c) * lin(d)
    num_minus = (
        (LaurentPoly.monomial(0, a) - z)
        * (LaurentPoly.monomial(0, b) - z)
        * (LaurentPoly.monomial(0, c) - z)
        * (LaurentPoly.monomial(0, d) - z)
    )
    den_plus = (one - z2) * (one - z2.scale(q))  # (1-z^2)(1-qz^2)
    den_minus = (one - z2) * (LaurentPoly.monomial(0, q) - z2)  # (1-z^2)(q-z^2)

    diff_plus = f.dilate(q, 1) - f
    diff_minus = f.dilate(q, -1) - f

    # common denominator (1-z^2)(1-qz^2)(q-z^2)
    common = den_plus * (LaurentPoly.monomial(0, q) - z2)
    numerator = (
        num_plus * (LaurentPoly.monomial(0, q) - z2) * diff_plus
        + num_minus * (one - z2.scale(q)) * diff_minus
        + (common * f).scale(lam0)
    )
    result = _divide_exact(numerator, common)
    if not result.is_symmetric():
        raise InternalDenominatorResidue(
            "difference-operator output lost symmetry"
        )
    return result


def apply_k1(f: LaurentPoly) -> LaurentPoly:
    """Multiplication by z + z^-1."""
    out: dict[int, RatFunc] = {}
    for k, c in f.coeffs.items():
        for kk in (k + 1, k - 1):
            new = out.get(kk, _ZERO) + c
            if new.is_zero():
                out.pop(kk, None)
            else:
                out[kk] = new
    return LaurentPoly(out)


def apply_word(
    word: Sequence[str], f: LaurentPoly, params: Params
) -> LaurentPoly:
    """Apply a word over {K0, K1} as a composition of operators, the
    rightmost letter acting first."""
    _require_symmetric(f)
    out = f
    for letter in reversed(tuple(word)):
        if letter == "K0":
            out = apply_dsym(out, params)
        elif letter == "K1":
            out = apply_k1(out)
        else:
            raise ValueError(f"operator words use K0/K1 letters, got {letter!r}")
    return out


def qpochhammer(x: RatFunc, n: int, params: Params) -> RatFunc:
    """The q-shifted factorial (x; q)_n = prod_{j<n} (1 - x q^j)."""
    if n < 0:
        raise ValueError("q-shifted factorials take nonnegative length")
    q = params.value("q")
    out = _ONE
    power = _ONE
    for _ in range(n):
        out = out * (_ONE - x * power)
        power = power * q
    return out


def askey_wilson(n: int, params: Params) -> LaurentPoly:
    """The monic Askey-Wilson polynomial P_n as a symmetric Laurent
    polynomial.

    Built from the terminating basic hypergeometric sum

      p_n = a^-n (ab,ac,ad;q)_n
            sum_k  [(q^-n;q)_k (abcd q^(n-1);q)_k (az;q)_k (a/z;q)_k
                    / ((ab;q)_k (ac;q)_k (ad;q)_k (q;q)_k)] q^k,

    with the prefactor folded into each summand so that no division by
    (ab;q)_k etc. ever occurs, then normalized by (abcd q^(n-1);q)_n.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    q, a, b, c, d = params.vals
    abcd = a * b * c * d
    qn = q**n

    divisor = qpochhammer(abcd * q ** (n - 1), n, params)
    if divisor.is_zero():
        raise DegenerateParameters("abcd*q^m = 1", m=None)

    total = LaurentPoly.zero()
    # Laurent part of summand k: (az;q)_k (a z^-1;q)_k
    #   = prod_{j<k} (1 - a q^j (z + z^-1) + a^2 q^(2j)),
    # extended by one factor per summand
    lau = LaurentPoly.one()
    for k in range(n + 1):
        # scalar part:  (q^-n;q)_k (abcd q^(n-1);q)_k q^k / (q;q)_k
        #             * (ab q^k;q)_(n-k) (ac q^k;q)_(n-k) (ad q^k;q)_(n-k)
        scal = (
            qpochhammer(qn.inv(), k, params)
            * qpochhammer(abcd * q ** (n - 1), k, params)
            * q**k
            / qpochhammer(q, k, params)
        )
        for x in (a * b, a * c, a * d):
            scal = scal * qpochhammer(x * q**k, n - k, params)
        total = total + lau.scale(scal)
        if k < n:
            aqk = a * q**k
            lau = lau * LaurentPoly({0: _ONE + aqk * aqk, 1: -aqk, -1: -aqk})
    return total.scale(a ** (-n) / divisor)


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
    prefactor = LaurentPoly(
        {1: _ONE, 0: -(a + b) / (a * b), -1: (a * b).inv()}
    )
    return prefactor * p_shift


def recurrence_coeffs(max_n: int, params: Params) -> list[tuple[RatFunc, RatFunc]]:
    """The three-term recurrence coefficients (beta_n, gamma_n) for
    n = 0..max_n, with (z + z^-1) P_n = P_(n+1) + beta_n P_n + gamma_n P_(n-1),
    recovered by triangular projection onto the monic family (gamma_0 = 0).
    Each of P_0..P_(max_n+1) is built once."""
    if max_n < 0:
        raise ValueError("recurrence index must be nonnegative")
    family = [askey_wilson(n, params) for n in range(max_n + 2)]
    out = []
    for n in range(max_n + 1):
        rest = apply_k1(family[n]) - family[n + 1]
        beta = rest.coeff(n)
        rest = rest - family[n].scale(beta)
        if n == 0:
            gamma = _ZERO
        else:
            gamma = rest.coeff(n - 1)
            rest = rest - family[n - 1].scale(gamma)
        if not rest.is_zero():
            raise AssertionError(
                "three-term projection left a residual; the monic family is broken"
            )
        out.append((beta, gamma))
    return out


def _apply_element(e: Element, f: LaurentPoly, params: Params) -> LaurentPoly:
    """Apply a combination of K0/K1 words as operators."""
    out = LaurentPoly.zero()
    for word, coef in e.terms.items():
        out = out + apply_word(word, f, params).scale(coef)
    return out


def casimir_apply(fs: Sequence[LaurentPoly], params: Params) -> list[LaurentPoly]:
    """Apply the degree-four Casimir word combination to each of ``fs``,
    building it once; on every symmetric Laurent polynomial the result is
    the scalar Q0 times the input."""
    sc = structure_constants(params)
    casimir = quotient_relations(params, sc)["casimir"] + sc.Q0
    return [_apply_element(casimir, f, params) for f in fs]


def check_aw_relations_in_rep(
    max_degree: int,
    params: Params,
    perturb_B: RatFunc | None = None,
) -> list[LaurentPoly]:
    """Residuals of the two q-commutator operator relations on the
    symmetric spanning set z^k + z^-k, k = 0..max_degree.

    All residuals are zero for the true structure constants;
    ``perturb_B`` shifts the constant B (negative control)."""
    sc = structure_constants(params)
    if perturb_B is not None:
        sc = dataclasses.replace(sc, B=sc.B + perturb_B)
    rels = quotient_relations(params, sc)
    residuals = []
    for k in range(max_degree + 1):
        f = LaurentPoly.symmetric_basis(k)
        residuals.append(_apply_element(rels["rel1"], f, params))
        residuals.append(_apply_element(rels["rel2"], f, params))
    return residuals
