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
in that basis.  Each public function converts its z-form input into
coordinates once, by peeling the top z-degree (the z^k coefficient of
phi_k is the monomial (-a)^k q^(k(k-1)/2), so no gcd runs), and its result
back once, by Horner's rule in the factors phi_(k+1) / phi_k.

The Casimir word combination and the two q-commutator relations are the
quotient relations of :mod:`rank1daha.ncalg`, applied word by word as
operators.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from .errors import DegenerateParameters, NotSymmetric
from .ncalg import Element, quotient_relations
from .params import Params, RatFunc, structure_constants

__all__ = [
    "LaurentPoly",
    "apply_dsym",
    "apply_k1",
    "apply_word",
    "askey_wilson",
    "shifted_qn",
    "recurrence_coeffs",
    "casimir_apply",
    "check_aw_relations_in_rep",
    "check_eigen_in_rep",
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


def _times_factor(half: Coords, lin: RatFunc, aq: RatFunc) -> Coords:
    """The z^0.. coefficients of f (lin - aq (z + z^-1)), given those of a
    symmetric f."""
    p = [half[1] if len(half) > 1 else _ZERO, *half, _ZERO, _ZERO]  # from z^-1 up
    return [lin * p[j + 1] - aq * (p[j] + p[j + 2]) for j in range(len(half) + 1)]


class _Basis:
    """The tables of one call, grown on demand: phi_k by its z^0..z^k
    coefficients, phi_(k+1) = phi_k (lin_k - aq_k (z + z^-1)) with aq_k = a q^k
    and lin_k = 1 + aq_k^2, the inverse of its z^k coefficient, and both maps."""

    def __init__(self, params: Params):
        self.vals = params.vals
        self.phi, self.lead_inv, self.aq, self.lin = [], [], [], []
        self.lam, self.mu, self.k1_diag, self.k1_up = [], [], [], []

    def grow(self, size: int) -> "_Basis":
        """Extend every table through index ``size``."""
        q, a, b, c, d = self.vals
        while len(self.phi) <= size:
            k = len(self.phi)
            if k:
                self.phi.append(_times_factor(self.phi[-1], self.lin[-1], self.aq[-1]))
                self.lead_inv.append(self.lead_inv[-1] * self.k1_up[-1])
            else:
                self.phi.append([_ONE])
                self.lead_inv.append(_ONE)
            qk, qki = q**k, q ** (-k)
            x = qk / q  # q^(k-1)
            aq = a * qk
            self.aq.append(aq)
            self.lin.append(_ONE + aq * aq)
            self.lam.append(qki + a * b * c * d * x)
            self.mu.append(
                -qki * (_ONE - qk) * (_ONE - a * b * x) * (_ONE - a * c * x) * (_ONE - a * d * x)
            )
            self.k1_diag.append(self.lin[-1] / aq)
            self.k1_up.append(-aq.inv())
        return self


def _to_phi(f: LaurentPoly, basis: _Basis) -> Coords:
    """The coordinates of a symmetric f, peeling its top z-degree."""
    if not f.is_symmetric():
        raise NotSymmetric("operator input must satisfy coeff(k) = coeff(-k)")
    rest = [f.coeff(j) for j in range(f.degree() + 1)]
    basis.grow(len(rest) - 1)
    coords = [_ZERO] * len(rest)
    for k in range(len(rest) - 1, -1, -1):
        c = coords[k] = rest[k] * basis.lead_inv[k]
        if not c.is_zero():
            for j, v in enumerate(basis.phi[k][:k]):  # z^k cancels exactly
                rest[j] = rest[j] - c * v
    return coords


def _from_phi(coords: Coords, basis: _Basis, scale: RatFunc = _ONE) -> LaurentPoly:
    """scale * sum_k c_k phi_k as a Laurent polynomial in z, by Horner's
    rule in the factors phi_(k+1) / phi_k."""
    basis.grow(len(coords) - 1)
    half: Coords = []
    for k in range(len(coords) - 1, -1, -1):
        half = _times_factor(half, basis.lin[k], basis.aq[k])
        half[0] = half[0] + coords[k]
    out = {}
    for j, h in enumerate(half):
        if not h.is_zero():
            out[j] = out[-j] = h * scale
    return LaurentPoly(out)


def _dsym(coords: Coords, basis: _Basis) -> Coords:
    basis.grow(len(coords) - 1)
    out = [lam * c for lam, c in zip(basis.lam, coords)]
    for k in range(1, len(coords)):
        out[k - 1] = out[k - 1] + basis.mu[k] * coords[k]
    return out


def _k1(coords: Coords, basis: _Basis) -> Coords:
    basis.grow(len(coords) - 1)
    out = [diag * c for diag, c in zip(basis.k1_diag, coords)] + [_ZERO]
    for k, c in enumerate(coords):
        out[k + 1] = out[k + 1] + basis.k1_up[k] * c
    return out


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


def _apply_elements(
    elements: Sequence[Element], f: LaurentPoly, basis: _Basis
) -> list[LaurentPoly]:
    """Combinations of K0/K1 words applied to f; the words share the images
    of their common suffixes."""
    images = {(): _to_phi(f, basis)}
    out = []
    for e in elements:
        total: Coords = []
        for word, coef in e.terms.items():
            image = _word_image(word, images, basis)
            total.extend([_ZERO] * (len(image) - len(total)))
            for k, c in enumerate(image):
                total[k] = total[k] + coef * c
        out.append(_from_phi(total, basis))
    return out


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
    basis = _Basis(params)
    return _from_phi(_word_image(tuple(word), {(): _to_phi(f, basis)}, basis), basis)


def _pn_coords(n: int, params: Params) -> tuple[Coords, RatFunc]:
    """The coordinates of P_n up to one scalar, and that scalar.

    P_n is the terminating 4phi3 sum

      a^-n / (abcd q^(n-1);q)_n
        sum_k  (q^-n, abcd q^(n-1);q)_k q^k / (q;q)_k
               (ab q^k, ac q^k, ad q^k;q)_(n-k)  phi_k,

    whose summands are built as running products over k: the
    (x q^k;q)_(n-k) factors as suffix products.  The scalar is
    a^-n / (abcd q^(n-1);q)_n.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    q, a, b, c, d = params.vals
    top = a * b * c * d * q ** (n - 1)
    powers = [q**k for k in range(n + 1)]
    suffix = [_ONE] * (n + 1)
    for k in range(n - 1, -1, -1):
        x = powers[k]
        suffix[k] = suffix[k + 1] * (_ONE - a * b * x) * (_ONE - a * c * x) * (_ONE - a * d * x)
    coords = []
    prefix = _ONE  # (q^-n, abcd q^(n-1);q)_k q^k / (q;q)_k
    divisor = _ONE  # (abcd q^(n-1);q)_n
    for k in range(n + 1):
        coords.append(prefix * suffix[k])
        if k < n:
            step = _ONE - top * powers[k]
            divisor = divisor * step
            prefix = prefix * (_ONE - powers[k] / powers[n]) * step * q / (_ONE - powers[k + 1])
    if divisor.is_zero():
        raise DegenerateParameters("abcd*q^m = 1", m=None)
    return coords, (a**n * divisor).inv()


def askey_wilson(n: int, params: Params) -> LaurentPoly:
    """The monic Askey-Wilson polynomial P_n as a symmetric Laurent polynomial."""
    coords, scale = _pn_coords(n, params)
    return _from_phi(coords, _Basis(params), scale)


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


def casimir_apply(fs: Sequence[LaurentPoly], params: Params) -> list[LaurentPoly]:
    """Apply the degree-four Casimir word combination to each of ``fs``,
    building it once; on every symmetric Laurent polynomial the result is
    the scalar Q0 times the input."""
    sc = structure_constants(params)
    casimir = quotient_relations(params, sc)["casimir"] + sc.Q0
    basis = _Basis(params)
    return [_apply_elements([casimir], f, basis)[0] for f in fs]


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
    basis = _Basis(params)
    residuals = []
    for k in range(max_degree + 1):
        f = LaurentPoly.symmetric_basis(k)
        residuals.extend(_apply_elements([rels["rel1"], rels["rel2"]], f, basis))
    return residuals


def check_eigen_in_rep(max_n: int, params: Params) -> list[LaurentPoly]:
    """Residuals D P_n - lambda_n P_n for n = 0..max_n, each computed as
    n+1 scalar identities on the coordinates of P_n; all are zero."""
    basis = _Basis(params).grow(max_n)
    residuals = []
    for n in range(max_n + 1):
        coords, scale = _pn_coords(n, params)
        lam = basis.lam[n]
        diff = [x - lam * c for x, c in zip(_dsym(coords, basis), coords)]
        residuals.append(_from_phi(diff, basis, scale))
    return residuals
