"""Askey-Wilson polynomials in plain ``Fraction`` arithmetic.

This module is the benchmark's reference for the polynomial layer.  It
imports nothing from the package under test: it evaluates the monic
Askey-Wilson polynomial P_n (monic in z + 1/z) at rational
(q, a, b, c, d, z) by the three-term recurrence of Koekoek, Lesky and
Swarttouw, "Hypergeometric Orthogonal Polynomials and Their
q-Analogues" (2010), eq. (14.1.5), and independently by the terminating
4phi3 sum (14.1.1), so that the two formulas check each other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

Point = Mapping[str, Fraction]


def eigenvalue(n: int, p: Point) -> Fraction:
    """lambda_n = q^-n + abcd q^(n-1), the eigenvalue of P_n."""
    q = p["q"]
    return q ** -n + p["a"] * p["b"] * p["c"] * p["d"] * q ** (n - 1)


def recurrence_coeffs(n: int, p: Point) -> tuple[Fraction, Fraction]:
    """(beta_n, gamma_n) with (z + 1/z) P_n = P_(n+1) + beta_n P_n + gamma_n P_(n-1)."""
    q, a, b, c, d = (p[k] for k in "qabcd")
    abcd = a * b * c * d

    def big_a(k: int) -> Fraction:
        return (
            (1 - a * b * q**k) * (1 - a * c * q**k) * (1 - a * d * q**k)
            * (1 - abcd * q ** (k - 1))
            / (a * (1 - abcd * q ** (2 * k - 1)) * (1 - abcd * q ** (2 * k)))
        )

    def big_c(k: int) -> Fraction:
        return (
            a * (1 - q**k) * (1 - b * c * q ** (k - 1)) * (1 - b * d * q ** (k - 1))
            * (1 - c * d * q ** (k - 1))
            / ((1 - abcd * q ** (2 * k - 2)) * (1 - abcd * q ** (2 * k - 1)))
        )

    beta = a + 1 / a - (big_a(n) + big_c(n))
    gamma = big_a(n - 1) * big_c(n) if n else Fraction(0)
    return beta, gamma


def p_values(n_max: int, p: Point, z: Fraction) -> list[Fraction]:
    """[P_0(z), ..., P_n_max(z)] by the three-term recurrence."""
    x = z + 1 / z
    values = [Fraction(1)]
    prev = Fraction(0)
    for n in range(n_max):
        beta, gamma = recurrence_coeffs(n, p)
        values.append((x - beta) * values[n] - gamma * prev)
        prev = values[n]
    return values


def _qpoch(x: Fraction, q: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= 1 - x * q**j
    return out


def p_4phi3(n: int, p: Point, z: Fraction) -> Fraction:
    """P_n(z) by the terminating basic hypergeometric sum, divided by its
    leading coefficient (abcd q^(n-1); q)_n."""
    q, a, b, c, d = (p[k] for k in "qabcd")
    abcd = a * b * c * d
    total = Fraction(0)
    for k in range(n + 1):
        num = (
            _qpoch(q ** -n, q, k) * _qpoch(abcd * q ** (n - 1), q, k)
            * _qpoch(a * z, q, k) * _qpoch(a / z, q, k)
        )
        den = _qpoch(a * b, q, k) * _qpoch(a * c, q, k) * _qpoch(a * d, q, k) * _qpoch(q, q, k)
        total += num / den * q**k
    pref = a ** -n * _qpoch(a * b, q, n) * _qpoch(a * c, q, n) * _qpoch(a * d, q, n)
    return pref * total / _qpoch(abcd * q ** (n - 1), q, n)


def dsym_value(f: Callable[[Fraction], Fraction], p: Point, z: Fraction) -> Fraction:
    """(D f)(z) = A(z)(f(qz) - f(z)) + A(1/z)(f(z/q) - f(z)) + (1 + abcd/q) f(z),
    A(z) = (1-az)(1-bz)(1-cz)(1-dz) / ((1-z^2)(1-qz^2))."""
    q, a, b, c, d = (p[k] for k in "qabcd")

    def big_a(w: Fraction) -> Fraction:
        return (
            (1 - a * w) * (1 - b * w) * (1 - c * w) * (1 - d * w)
            / ((1 - w * w) * (1 - q * w * w))
        )

    fz = f(z)
    return (
        big_a(z) * (f(q * z) - fz)
        + big_a(1 / z) * (f(z / q) - fz)
        + (1 + a * b * c * d / q) * fz
    )
