"""The identities of the Askey-Wilson family as sums of factored terms.

The eigen, recurrence and symmetry identities of the monic Askey-Wilson
polynomials are sums of terms, each a scalar times a product of the
linear factors 1 - x q^m of :class:`rank1daha.polyrep._Factors`.  Each
identity is checked after dividing out the factors its terms share
(:func:`_reduced`), so no check of the family builds a value over keyed
denominators (:mod:`rank1daha.laurent`).  The recurrence uses the closed
forms of Koekoek-Lesky-Swarttouw (14.1.4).

At a point of GF(p) the terms carry the scalars as plain int residues
(the point's carrier, :func:`rank1daha.modp._carrier`), and a term also
carries the value of its factors, so the identity is first summed at the
point; it is reduced by the factors its terms share only where that sum is
nonzero, to show the reduced value, or where a factor vanishes there.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

from .field import _ZERO, RatFunc
from .modp import _carrier, _value_carrier
from .params import Params
from .polyrep import Term, _Basis, _Factors, _pn_factors

__all__ = ["recurrence_coeffs", "check_eigen_in_rep"]


def _term(scalar: RatFunc, *terms: Term) -> Term:
    """scalar times the product of ``terms``; the values of their factors
    multiply as the factors do."""
    factors: Counter = Counter()
    value = 1
    for s, f, v in terms:
        scalar = scalar * s
        factors.update(f)
        value = None if value is None or v is None else value * v
    return scalar, factors, value


def _reduced(terms: Sequence[Term], values: _Factors) -> RatFunc:
    """The sum of ``terms`` divided by the least power of each factor in
    them, expanded at the point of ``values``.  The divisor is a nonzero
    element of Q(q,a,b,c,d) whatever the point, so the result is the value
    there of one Laurent polynomial in q, a, b, c, d, which is zero exactly
    when the sum is zero in Q(q,a,b,c,d).  Terms with the factor 1 - q^0 = 0
    drop out first.

    At a point of GF(p) where no factor of the terms vanishes, the result
    is zero exactly when the sum at the point is, so that sum, from the
    values the terms carry, decides first; the division runs where it is
    nonzero, for the value shown, or where a factor vanishes."""
    terms = [term for term in terms if term[1].get(("1", 0), 0) <= 0]
    p = values.carrier.p
    if p and all(v is not None for *_, v in terms) and not sum(s * v for s, _, v in terms) % p:
        return 0
    keys = set().union(*(f for _, f, _ in terms))
    least = {key: min(f.get(key, 0) for _, f, _ in terms) for key in keys}
    total = values.carrier.zero
    for s, f, _ in terms:
        for key, low in least.items():
            for _ in range(f.get(key, 0) - low):
                s = s * values[key]
        total = total + s
    return values.carrier.mod(total)


def _pn_terms(n: int, values: _Factors) -> tuple[list[Term], Term]:
    """The cleared coordinates c~_k = (q;q)_n c_k of P_n, k = 0..n, and its
    normaliser N_n = a^n (abcd q^(n-1);q)_n (q;q)_n, as terms."""
    rows = _pn_factors(n, values)
    rises = [key for rise, step, _, _ in rows for key in (rise, step)]
    tails = [key for _, _, fall, tail in rows for key in (fall, *tail)]
    coords = [
        values.term(values.power("q", k), Counter(rises[: 2 * k] + tails[4 * k :]))
        for k in range(n + 1)
    ]
    return coords, values.term(values.power("a", n), Counter(rises[1::2] + tails[::4]))


# The recurrence (z + z^-1) P_n = P_(n+1) + beta_n P_n + gamma_n P_(n-1) of
# the monic family has beta_n = a + a^-1 - A_n - C_n and gamma_n = A_(n-1) C_n
# with (Koekoek-Lesky-Swarttouw 2010, (14.1.4)) the closed forms below, each
# stored as its power of a and the rows (x, s, t, e) of its factors
# (1 - x q^(sn+t))^e:
#   A_n = (1-abq^n)(1-acq^n)(1-adq^n)(1-abcdq^(n-1)) / (a(1-abcdq^(2n-1))(1-abcdq^(2n))),
#   C_n = a(1-q^n)(1-bcq^(n-1))(1-bdq^(n-1))(1-cdq^(n-1)) / ((1-abcdq^(2n-2))(1-abcdq^(2n-1))).
_CLOSED_FORMS = {
    "A": (-1, (("ab", 1, 0, 1), ("ac", 1, 0, 1), ("ad", 1, 0, 1), ("abcd", 1, -1, 1),
               ("abcd", 2, -1, -1), ("abcd", 2, 0, -1))),
    "C": (1, (("1", 1, 0, 1), ("bc", 1, -1, 1), ("bd", 1, -1, 1), ("cd", 1, -1, 1),
              ("abcd", 2, -2, -1), ("abcd", 2, -1, -1))),
}


@lru_cache(maxsize=128)
def _swapped(x: str, swap: str) -> str:
    # the letters of x with the two letters of swap exchanged, as a key spells them
    return "".join(sorted(x.translate(str.maketrans(swap, swap[::-1]))))


def _coefficients(n: int, values: _Factors, swap: str = "") -> tuple[list[Term], Term]:
    """beta_n as the terms a + a^-1, -A_n, -C_n, and gamma_n, in their
    closed forms with the two letters of ``swap`` exchanged."""
    a, one = _swapped("a", swap), values.carrier.one

    def form(name: str, m: int) -> Term:
        power, rows = _CLOSED_FORMS[name]
        factors: Counter = Counter()
        for x, s, t, e in rows:
            factors[_swapped(x, swap), s * m + t] += e
        return values.term(values.power(a, power), factors)

    a_plus_inverse = values.letters[a] + values.power(a, -1)
    beta = [values.term(a_plus_inverse, {}), _term(-one, form("A", n)), _term(-one, form("C", n))]
    return beta, _term(one, form("A", n - 1), form("C", n))


def recurrence_coeffs(max_n: int, params: Params) -> list[tuple[RatFunc, RatFunc]]:
    """The three-term recurrence coefficients (beta_n, gamma_n) for
    n = 0..max_n, with (z + z^-1) P_n = P_(n+1) + beta_n P_n + gamma_n P_(n-1),
    from their closed forms (gamma_0 = 0)."""
    if max_n < 0:
        raise ValueError("recurrence index must be nonnegative")
    values = _Factors(_value_carrier(params))
    value = lambda term: prod((values[key] ** e for key, e in term[1].items()), start=term[0])
    coeffs = [_coefficients(n, values) for n in range(max_n + 1)]
    return [(sum(map(value, beta), _ZERO), value(gamma) if n else _ZERO)
            for n, (beta, gamma) in enumerate(coeffs)]


def _recurrence_residuals(max_n: int, params: Params):
    """For n = 0..max_n, the reduced phi_k coordinates, k = 0..n+1, of
    N_n ((z + z^-1) P_n - P_(n+1) - beta_n P_n - gamma_n P_(n-1)), all zero,
    P_m being N_m^-1 sum_k c~^(m)_k phi_k and z + z^-1 bidiagonal; and
    whether gamma_n (n >= 1) vanishes at ``params``.  A term lists its
    coordinate of P_m first, the factor dict that _term copies whole, and a
    ratio of normalisers keeps only the factors that do not cancel."""
    if max_n < 0:
        raise ValueError("recurrence index must be nonnegative")
    carrier = _carrier(params)
    values, basis = _Factors(carrier), _Basis(carrier).grow(max_n + 1)
    family = [_pn_terms(n, values) for n in range(max_n + 2)]
    one = carrier.one

    def ratio(m: int, n: int) -> Term:  # N_m / N_n
        (s, f, _), (s2, f2, _) = family[m][1], family[n][1]
        exponents = ((key, f.get(key, 0) - f2.get(key, 0)) for key in f.keys() | f2.keys())
        return values.term(s * carrier.inv(s2), {key: e for key, e in exponents if e})

    for n in range(max_n + 1):
        beta, gamma = _coefficients(n, values)
        up = ratio(n, n + 1)
        rows = [[_term(-one, c, up)] for c in family[n + 1][0]]
        for k, c in enumerate(family[n][0]):
            rows[k] += [_term(basis.k1_diag[k], c), *(_term(-one, c, t) for t in beta)]
            rows[k + 1].append(_term(basis.k1_up[k], c))
        if n:
            down = _term(-one, gamma, ratio(n, n - 1))
            for k, c in enumerate(family[n - 1][0]):
                rows[k].append(_term(one, c, down))
        vanishes = not all(values[key] for key, e in gamma[1].items() if e > 0)
        yield [_reduced(terms, values) for terms in rows], n > 0 and vanishes


def _swap_residuals(
    max_n: int, params: Params, swaps: Sequence[str]
) -> Iterator[tuple[str, int, list[RatFunc]]]:
    """For each swap of ``swaps`` and k = 0..max_n-1 in turn, (swap, k, the
    reduced differences of beta_k, gamma_k and A_k (beta_k's second term)
    from their images under exchanging the two letters of the swap): D_k
    beta_k, the cleared gamma_k and the cleared A_k, D_k =
    (1-abcdq^(2k-2))(1-abcdq^(2k-1))(1-abcdq^(2k)) being symmetric in a, b,
    c, d.  The unswapped closed forms are built once per k.  Raises at a k
    where P_(k+1), which they help fix, does not exist."""
    values = _Factors(_carrier(params))
    minus, unswapped = -values.carrier.one, []
    for swap in swaps:
        for k in range(max_n):
            if k == len(unswapped):
                _pn_factors(k + 1, values)
                unswapped.append(_coefficients(k, values))
            (beta, gamma), (beta2, gamma2) = unswapped[k], _coefficients(k, values, swap)
            pairs = ((beta, beta2), ([gamma], [gamma2]), (beta[1:2], beta2[1:2]))
            yield swap, k, [
                _reduced([*one, *(_term(minus, t) for t in two)], values) for one, two in pairs
            ]


def check_eigen_in_rep(max_n: int, params: Params) -> list[tuple[RatFunc, list[RatFunc]]]:
    """For n = 0..max_n, the residuals of two identities on the cleared
    coordinates c~_k = (q;q)_n c_k and the normaliser N_n of
    P_n = N_n^-1 sum_k c~_k phi_k: lead(phi_n) c~_n - N_n, zero when P_n is
    monic, and for k < n, (lambda_k - lambda_n) c~_k + mu_(k+1) c~_(k+1),
    the phi_k coordinate of (D - lambda_n) N_n P_n.  Each is reduced by the
    factors its terms share.  P_n is symmetric, as every phi_k is.  At a
    point of GF(p) the residuals are int residues.
    """
    carrier = _carrier(params)
    values, basis = _Factors(carrier), _Basis(carrier).grow(max_n)
    lam, mu = basis.lam, basis.mu
    out = []
    for n in range(max_n + 1):
        coords, norm = _pn_terms(n, values)
        lead = carrier.inv(basis.lead_inv[n])  # the z^n coefficient of phi_n
        monic = _reduced([_term(lead, coords[n]), _term(-carrier.one, norm)], values)
        eigen = [
            _reduced([_term(lam[k] - lam[n], coords[k]), _term(mu[k + 1], coords[k + 1])], values)
            for k in range(n)
        ]
        out.append((monic, eigen))
    return out
