"""The action on symmetric Laurent polynomials.

K1 multiplies by z + z^-1 and K0 is the second-order q-difference
operator whose eigenfunctions are the monic Askey-Wilson polynomials.
The expected values below were frozen from two independent routes
(closed forms in the elementary symmetric polynomials, and the
three-term recurrence matrix model), so the operator code and the
hypergeometric-sum code check each other.
"""

import functools
import random
from fractions import Fraction

import pytest

from rank1daha.errors import DegenerateParameters, NotSymmetric
from rank1daha.aw3 import quotient_relations
from rank1daha.family import recurrence_coeffs
from rank1daha.field import RatFunc
from rank1daha.params import Params, eigenvalue, make_params, structure_constants
from rank1daha.polyrep import (
    LaurentPoly,
    apply_dsym,
    apply_k1,
    apply_word,
    askey_wilson,
    relation_residuals,
    shifted_qn,
)

ZERO = RatFunc.zero()
ONE = RatFunc.one()


def symmetric_basis(k):
    """z^k + z^-k for k >= 1; the constant 1 for k = 0."""
    if k == 0:
        return LaurentPoly.one()
    return LaurentPoly({k: ONE, -k: ONE})


def vals(params):
    v = params.values()
    return v["q"], v["a"], v["b"], v["c"], v["d"]


def sym_e(params):
    q, a, b, c, d = vals(params)
    e1 = a + b + c + d
    e2 = a * b + a * c + a * d + b * c + b * d + c * d
    e3 = a * b * c + a * b * d + a * c * d + b * c * d
    e4 = a * b * c * d
    return e1, e2, e3, e4


# ---------------------------------------------------------------------------
# Laurent polynomial plumbing


def test_laurent_basics():
    f = LaurentPoly({2: ONE, 0: RatFunc.from_rational(3), -2: ONE})
    assert f.degree() == 2
    assert f.is_symmetric()
    assert f.coeff(0) == 3
    assert f.coeff(5) == ZERO
    assert symmetric_basis(0) == LaurentPoly.one()
    assert not LaurentPoly.monomial(1).is_symmetric()


def test_laurent_ring_ops():
    z = LaurentPoly.monomial(1)
    zi = LaurentPoly.monomial(-1)
    assert z * zi == LaurentPoly.one()
    assert (z + zi) * (z + zi) == symmetric_basis(2) + LaurentPoly(
        {0: RatFunc.from_rational(2)}
    )
    assert (z - z).is_zero()


# ---------------------------------------------------------------------------
# The q-difference operator


def test_dsym_constant_eigenvalue(sym):
    f = apply_dsym(LaurentPoly.one(), sym)
    assert f == LaurentPoly({0: eigenvalue(0, sym)})


def test_dsym_on_second_symmetric_monomial(sym):
    # closed form of D(z^2 + z^-2) in the elementary symmetric polynomials
    q, a, b, c, d = vals(sym)
    e1, e2, e3, e4 = sym_e(sym)
    q2 = q * q
    f = apply_dsym(symmetric_basis(2), sym)
    assert f.coeff(2) == eigenvalue(2, sym)
    assert f.coeff(1) == (q2 - 1) * (e1 - q * e3) / q2
    assert f.coeff(0) == (q2 - 1) * ((q + 1) * (e4 - 1) + (q - 1) * e2) / q2
    assert f.coeff(-1) == f.coeff(1) and f.coeff(-2) == f.coeff(2)
    assert len(f.coeffs) == 5


def test_dsym_preserves_symmetric_degree(sym):
    for k in range(9):
        f = apply_dsym(symmetric_basis(k), sym)
        assert f.is_symmetric()
        assert f.degree() <= k
        assert f.coeff(k) == eigenvalue(k, sym) or k == 0


def test_dsym_rejects_asymmetric_input(gpoint):
    with pytest.raises(NotSymmetric):
        apply_dsym(LaurentPoly.monomial(1), gpoint)
    with pytest.raises(NotSymmetric):
        apply_word(("K0",), LaurentPoly.monomial(2), gpoint)


def reference_action(letter, g, point):
    """The K0 or K1 action on a function g of z, from the defining
    formula of the q-difference operator, in Fractions."""
    q, a, b, c, d = (point[name] for name in "qabcd")
    if letter == "K1":
        return lambda z: (z + 1 / z) * g(z)

    def coef(z):
        return (1 - a * z) * (1 - b * z) * (1 - c * z) * (1 - d * z) / ((1 - z * z) * (1 - q * z * z))

    def dg(z):
        gz = g(z)
        return coef(z) * (g(q * z) - gz) + coef(1 / z) * (g(z / q) - gz) + (1 + a * b * c * d / q) * gz

    return dg


def value_at(f, point, z):
    return sum((c.evaluate(point)[0] * z**k for k, c in f.coeffs.items()), Fraction(0))


@pytest.mark.parametrize("which", ["sym", "gpoint"])
def test_operators_match_the_defining_formula(which, request):
    params = request.getfixturevalue(which)
    if params.is_symbolic:
        points = [
            {"q": Fraction(5, 3), "a": Fraction(2), "b": Fraction(-3, 4), "c": Fraction(7), "d": Fraction(1, 5)},
            {"q": Fraction(-2, 7), "a": Fraction(3, 2), "b": Fraction(5), "c": Fraction(-1, 3), "d": Fraction(4)},
        ]
    else:
        points = [{name: v.as_fraction() for name, v in params.values().items()}]
    q, a, b, c, d = vals(params)
    pool = [RatFunc.from_rational(Fraction(-3, 2)), RatFunc.from_rational(7), a * c / q]
    rng = random.Random(3)
    for degree in (0, 1, 2, 5, 8):
        coeffs = {}
        for k in range(degree + 1):
            if k == degree or rng.random() < 0.7:
                coeffs[k] = coeffs[-k] = rng.choice(pool) * rng.choice(pool)
        f = LaurentPoly(coeffs)
        assert f.degree() == degree
        word = ("K1", "K0", "K1")
        images = [apply_dsym(f, params), apply_word(word, f, params)]
        for point in points:
            f_at = functools.partial(value_at, f, point)
            d_ref = reference_action("K0", f_at, point)
            word_ref = f_at
            for letter in reversed(word):
                word_ref = reference_action(letter, word_ref, point)
            for z in (Fraction(3, 11), Fraction(-5, 13)):
                assert [value_at(g, point, z) for g in images] == [d_ref(z), word_ref(z)]
            # control: the formula at a moved parameter disagrees
            moved = reference_action("K0", f_at, dict(point, d=point["d"] + 1))
            assert value_at(images[0], point, z) != moved(z)


def test_apply_word_rejects_unknown_letter(gpoint):
    with pytest.raises(ValueError):
        apply_word(("K0", "T1"), LaurentPoly.one(), gpoint)


def test_apply_word_frozen_value(gpoint):
    f = apply_word(("K0", "K1", "K0"), symmetric_basis(1), gpoint)
    expect = {
        2: Fraction(1794248, 27),
        1: Fraction(-1553140, 27),
        0: Fraction(132348),
        -1: Fraction(-1553140, 27),
        -2: Fraction(1794248, 27),
    }
    assert {k: c.as_fraction() for k, c in f.coeffs.items()} == expect


# ---------------------------------------------------------------------------
# The monic Askey-Wilson family


def test_p0_and_p1(sym):
    q, a, b, c, d = vals(sym)
    e1, e2, e3, e4 = sym_e(sym)
    assert askey_wilson(0, sym) == LaurentPoly.one()
    p1 = askey_wilson(1, sym)
    assert p1.coeff(1) == ONE and p1.coeff(-1) == ONE
    assert p1.coeff(0) == (e1 - e3) / (e4 - 1)
    assert len(p1.coeffs) == 3


def test_p2_at_generic_point(gpoint):
    p2 = askey_wilson(2, gpoint)
    expect = {
        2: Fraction(1),
        1: Fraction(-3535, 1886),
        0: Fraction(17049, 6437),
        -1: Fraction(-3535, 1886),
        -2: Fraction(1),
    }
    assert {k: c.as_fraction() for k, c in p2.coeffs.items()} == expect


def test_pn_monic_and_symmetric(gpoint):
    for n in range(9):
        p = askey_wilson(n, gpoint)
        assert p.degree() == n
        assert p.coeff(n) == ONE
        assert p.is_symmetric()


def test_pn_negative_degree_rejected(gpoint):
    with pytest.raises(ValueError):
        askey_wilson(-1, gpoint)


def test_pn_divisor_degeneracy_guard():
    # abcd*q^3 = 1, built past make_params, breaks the normalizing factor of P_4
    vals = tuple(RatFunc.from_rational(v) for v in (Fraction(1, 2), 2, 2, 2, 1))
    p = Params(vals, "q=1/2,a=2,b=2,c=2,d=1")
    with pytest.raises(DegenerateParameters):
        askey_wilson(4, p)


def test_eigenfunctions(gpoint):
    for n in range(9):
        p = askey_wilson(n, gpoint)
        assert apply_dsym(p, gpoint) == p.scale(eigenvalue(n, gpoint))


def test_eigenfunctions_symbolic_small(sym):
    for n in range(4):
        p = askey_wilson(n, sym)
        assert apply_dsym(p, sym) == p.scale(eigenvalue(n, sym))


def test_pn_symmetric_in_parameter_swaps():
    base = {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5, "d": 7}
    p_base = make_params("specialized", base)
    for swap in (("a", "b"), ("a", "c")):
        other = dict(base)
        other[swap[0]], other[swap[1]] = other[swap[1]], other[swap[0]]
        p_other = make_params("specialized", other)
        for n in range(6):
            assert askey_wilson(n, p_base) == askey_wilson(n, p_other)


# ---------------------------------------------------------------------------
# Three-term recurrence


def test_recurrence_beta0_closed_form(sym):
    e1, e2, e3, e4 = sym_e(sym)
    ((beta, gamma),) = recurrence_coeffs(0, sym)
    assert beta == (e3 - e1) / (e4 - 1)
    assert gamma == ZERO


def test_recurrence_frozen_values(gpoint):
    beta, gamma = recurrence_coeffs(1, gpoint)[1]
    assert beta.as_fraction() == Fraction(305035, 394174)
    assert gamma.as_fraction() == Fraction(1392300, 6857917)
    with pytest.raises(ValueError):
        recurrence_coeffs(-1, gpoint)


def test_recurrence_regenerates_the_family(gpoint):
    # P_(n+1) = (z + z^-1) P_n - beta_n P_n - gamma_n P_(n-1)
    prev, cur = LaurentPoly.zero(), LaurentPoly.one()
    for n, (beta, gamma) in enumerate(recurrence_coeffs(5, gpoint)):
        nxt = apply_k1(cur) - cur.scale(beta) - prev.scale(gamma)
        assert nxt == askey_wilson(n + 1, gpoint)
        prev, cur = cur, nxt


def test_recurrence_residual_symbolic(sym):
    rec = recurrence_coeffs(2, sym)
    for n in range(1, 3):
        beta, gamma = rec[n]
        residual = (
            apply_k1(askey_wilson(n, sym))
            - askey_wilson(n + 1, sym)
            - askey_wilson(n, sym).scale(beta)
            - askey_wilson(n - 1, sym).scale(gamma)
        )
        assert residual.is_zero()


# ---------------------------------------------------------------------------
# An independent oracle: the operators in the monic-family basis


def to_monic_basis(f, params, size):
    """Coordinates of a symmetric Laurent polynomial over P_0..P_size."""
    family = [askey_wilson(n, params) for n in range(size + 1)]
    out = [ZERO] * (size + 1)
    rest = f
    for n in range(size, -1, -1):
        coef = rest.coeff(n)
        out[n] = coef
        rest = rest - family[n].scale(coef)
    assert rest.is_zero()
    return out


def matrix_model_apply(word, vec, params, size):
    lam = [eigenvalue(n, params) for n in range(size + 1)]
    rec = recurrence_coeffs(size, params)
    for letter in reversed(tuple(word)):
        if letter == "K0":
            vec = [lam[n] * v for n, v in enumerate(vec)]
        else:
            out = [ZERO] * (size + 1)
            for n, v in enumerate(vec):
                if v.is_zero():
                    continue
                beta, gamma = rec[n]
                out[n + 1] = out[n + 1] + v
                out[n] = out[n] + beta * v
                if n:
                    out[n - 1] = out[n - 1] + gamma * v
            vec = out
    return vec


@pytest.mark.parametrize(
    "word",
    [("K0",), ("K1",), ("K0", "K1", "K0"), ("K1", "K1", "K0"), ("K0", "K0", "K1", "K1")],
)
def test_word_action_matches_matrix_model(gpoint, word):
    size = 2 + sum(1 for letter in word if letter == "K1") + 1
    f = symmetric_basis(2) + symmetric_basis(1)
    vec = matrix_model_apply(word, to_monic_basis(f, gpoint, size), gpoint, size)
    expected = LaurentPoly.zero()
    for n, coef in enumerate(vec):
        expected = expected + askey_wilson(n, gpoint).scale(coef)
    assert apply_word(word, f, gpoint) == expected


# ---------------------------------------------------------------------------
# The shifted family


def test_shifted_family_basics(sym):
    q, a, b, c, d = vals(sym)
    assert shifted_qn(0, sym).is_zero()
    q1 = shifted_qn(1, sym)
    assert q1 == LaurentPoly({1: ONE, 0: -(a + b) / (a * b), -1: (a * b).inv()})
    with pytest.raises(ValueError):
        shifted_qn(-1, sym)


def test_shifted_family_monic_and_distinct(gpoint):
    for n in range(1, 7):
        qn = shifted_qn(n, gpoint)
        assert qn.degree() == n
        assert qn.coeff(n) == ONE
        assert qn != askey_wilson(n, gpoint)


# ---------------------------------------------------------------------------
# Casimir scalar action and the operator relations


def _bare_casimir_images(max_degree, params):
    # the Casimir relation is the word combination minus Q0, so at Q0 := 0 it
    # is the bare combination; yields its phi-coordinates on each phi_k
    sc = structure_constants(params)
    constants = [sc, sc._replace(Q0=ZERO)]
    for k, residual in enumerate(relation_residuals(max_degree, params, constants)):
        assert not any(residual("casimir")), f"phi_{k}"
        coords = residual("casimir", 1)
        yield k, {j: c for j, c in enumerate(coords) if c}


def test_casimir_is_scalar_on_symmetric_basis(gpoint):
    q0 = RatFunc.from_rational(Fraction(-12175, 4))
    assert structure_constants(gpoint).Q0 == q0
    for k, image in _bare_casimir_images(6, gpoint):
        assert image == {k: q0}


def test_casimir_scalar_symbolic_spot(sym):
    q0 = structure_constants(sym).Q0
    assert all(image == {k: q0} for k, image in _bare_casimir_images(2, sym))


def test_casimir_on_random_symmetric_combination(gpoint):
    # word by word on a z-form input, through the public apply_word
    rng = random.Random(5)
    f = LaurentPoly.zero()
    for k in range(5):
        f = f + symmetric_basis(k).scale(
            RatFunc.from_rational(rng.randint(1, 9))
        )
    image = LaurentPoly.zero()
    for word, coef in quotient_relations(gpoint)["casimir"].terms.items():
        image = image + apply_word(word, f, gpoint).scale(coef)
    assert image.is_zero()


def test_operator_relations_hold(gpoint):
    residuals = [
        residual(name) for residual in relation_residuals(6, gpoint) for name in ("rel1", "rel2")
    ]
    assert len(residuals) == 14
    assert not any(any(r) for r in residuals)


def test_operator_relations_hold_symbolic_small(sym):
    for residual in relation_residuals(2, sym):
        assert not any(residual("rel1")) and not any(residual("rel2"))


def test_operator_relations_detect_wrong_constant(gpoint):
    sc = structure_constants(gpoint)
    constants = [sc._replace(B=sc.B + ONE)]
    residuals = [
        residual(name) for residual in relation_residuals(3, gpoint, constants)
        for name in ("rel1", "rel2")
    ]
    assert any(any(r) for r in residuals)
