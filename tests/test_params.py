import random
from collections import OrderedDict
from fractions import Fraction
from math import gcd, prod
from operator import add

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st
from sympy import QQ, Poly, Symbol, cyclotomic_poly
from sympy.polys.fields import field

from rank1daha.errors import (
    DegenerateParameters,
    DivisionByZero,
    ExtensionDisabled,
    MissingAssignment,
    UnkeyedDenominator,
)
from rank1daha.field import RatFunc
from rank1daha.laurent import _cyclotomic, _expanded, _Keyed, _Lau, _lau, _parts
from rank1daha.modp import PRIME, ModP, _carrier, _value_carrier, random_params_mod_p
from rank1daha.params import (
    _PARAMS_CACHE_BOUND,
    Params,
    _check_admissible,
    _params_cache_entry,
    eigenvalue,
    elementary_symmetric,
    make_params,
    structure_constants,
)

# sympy's field Q(q,a,b,c,d) is the oracle of the scalar arithmetic and its text
_FIELD = field("q,a,b,c,d", QQ)[0]

Q = RatFunc.gen("q")
A = RatFunc.gen("a")
B = RatFunc.gen("b")
C = RatFunc.gen("c")
D = RatFunc.gen("d")


# ---------------------------------------------------------------------------
# make_params and admissibility


def test_symbolic_params(sym):
    assert sym.is_symbolic
    assert str(sym.value("a")) == "a"


def test_specialized_valid():
    p = make_params(
        "specialized",
        {"q": Fraction(3, 2), "a": 2, "b": Fraction(1, 3), "c": 5, "d": 7},
    )
    assert not p.is_symbolic
    assert p.value("b").as_fraction() == Fraction(1, 3)


def test_q_equal_one_rejected():
    with pytest.raises(DegenerateParameters) as excinfo:
        make_params("specialized", {"q": 1, "a": 2, "b": 2, "c": 2, "d": 2})
    assert excinfo.value.m == 1


def test_q_root_of_unity_rejected():
    # q = -1 hits q^2 = 1
    with pytest.raises(DegenerateParameters) as excinfo:
        make_params("specialized", {"q": -1, "a": 2, "b": 3, "c": 5, "d": 7})
    assert excinfo.value.m == 2


def test_ab_equal_one_rejected():
    with pytest.raises(DegenerateParameters):
        make_params(
            "specialized",
            {"q": Fraction(3, 2), "a": 2, "b": Fraction(1, 2), "c": 5, "d": 7},
        )


def test_abcd_power_rejected():
    # abcd = 1 violates abcd*q^m != 1 at m = 0
    with pytest.raises(DegenerateParameters) as excinfo:
        make_params(
            "specialized",
            {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5, "d": Fraction(1, 30)},
        )
    assert excinfo.value.m == 0


def test_zero_parameter_rejected():
    with pytest.raises(DegenerateParameters):
        make_params("specialized", {"q": Fraction(3, 2), "a": 0, "b": 3, "c": 5, "d": 7})


def test_missing_assignment():
    with pytest.raises(MissingAssignment):
        make_params("specialized", {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5})
    with pytest.raises(MissingAssignment):
        make_params("specialized", None)


def test_symbolic_takes_no_assignments():
    with pytest.raises(ValueError):
        make_params("symbolic", {"q": 2, "a": 2, "b": 3, "c": 5, "d": 7})


# ---------------------------------------------------------------------------
# Scalar arithmetic


def test_mul_inverse_cancels():
    assert Q.inv() * Q == RatFunc.one()


def test_p_over_p_minus_one_is_zero():
    p = A * A * B * Q - C
    assert (p / p - RatFunc.one()).is_zero()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        RatFunc.zero().inv()
    with pytest.raises(DivisionByZero):
        Q / RatFunc.zero()


def test_canonical_form_is_stable():
    x = (A + B) * (A - B) / (Q * Q)
    y = (A * A - B * B) / (Q * Q)
    assert x == y
    assert hash(x) == hash(y)
    assert str(x) == str(y)


_small = st.integers(min_value=-4, max_value=4)
_atoms = [RatFunc.one(), Q, A, B, C * D, Q * A]


@st.composite
def ratfuncs(draw):
    coeffs = draw(st.lists(_small, min_size=1, max_size=4))
    val = RatFunc.zero()
    for i, c in enumerate(coeffs):
        val = val + _atoms[i % len(_atoms)] * c
    if draw(st.booleans()):
        val = val / (Q + 2)  # nonzero denominator keeps things rational
    return val


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    if x.is_constant() or len(_parts(x.r0)[0].t) <= 2:
        if not x.is_zero():
            assert x * x.inv() == RatFunc.one()
    else:  # a numerator of three or more terms has no inverse over keys
        with pytest.raises(UnkeyedDenominator):
            x.inv()


# Scalar arithmetic must give exactly what sympy's field operations give, for
# Laurent values and for values over keyed denominators alike: the same
# element of Q(q,a,b,c,d), in the unique stored form, printed as sympy
# prints it.  Each drawn value is built twice, as a RatFunc by the kernel's
# own arithmetic and as sympy's element.

_coefs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_monoms = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 5)
_terms = st.lists(st.tuples(_coefs, _monoms), min_size=1, max_size=3)
_ZEXP = (0,) * 5
_GENS = [RatFunc.gen(name) for name in "qabcd"]


def _both(terms):
    """sum c x^e over ``terms`` as (a RatFunc by the kernel's arithmetic,
    sympy's element)."""
    kernel, poly = RatFunc.zero(), {}
    for coef, exps in terms:
        k = RatFunc.from_rational(coef)
        for gen, e in zip(_GENS, exps):
            k = k * gen**e
        kernel, poly[exps] = kernel + k, poly.get(exps, 0) + coef
    shift = [max(0, -min(col)) for col in zip(*poly)]
    ring = _FIELD.ring
    numer = ring({tuple(map(add, e, shift)): QQ(c.numerator, c.denominator) for e, c in poly.items() if c})
    return kernel, _FIELD.new(numer, ring({tuple(shift): QQ(1)}))


def _in_y(coeffs, w):
    # sum c_i y^i for y = x^w, as _both terms
    return [(Fraction(int(c)), tuple(i * e for e in w)) for i, c in enumerate(coeffs) if c]


def to_field(x: RatFunc):
    """sympy's element of a RatFunc, read from its stored form."""
    if x.is_constant():
        c = x.as_fraction()
        return _FIELD(QQ(c.numerator, c.denominator))
    n, keys = _parts(x.r0)
    out = _both([(Fraction(c, n.d), e) for e, c in n.t.items()])[1]
    for key, e in keys.items():
        out = out / _both([(Fraction(c), m) for m, c in _expanded(key).t.items()])[1] ** e
    return out


@st.composite
def keyed_factors(draw):
    """A factor f(y) in a Laurent monomial y, as (1/f and f by the kernel,
    f by sympy): a binomial alpha + beta y, Phi_k(y) for k <= 6, or 1 +- y^g,
    which splits into cyclotomic keys."""
    w = draw(_monoms.filter(any))
    g = gcd(*w)
    w = tuple(e // g for e in w)  # y primitive: its exponents have gcd 1
    kind = draw(st.sampled_from(["binomial", "cyclotomic", "split"]))
    if kind == "binomial":
        alpha, beta = draw(st.tuples(*[st.integers(-4, 4).filter(bool)] * 2))
        kernel, oracle = _both(_in_y([alpha, beta], w))
        return kernel.inv(), kernel, oracle
    if kind == "split":
        power, sign = draw(st.integers(2, 4)), draw(st.sampled_from([1, -1]))
        kernel, oracle = _both(_in_y([1] + [0] * (power - 1) + [sign], w))
        return kernel.inv(), kernel, oracle
    # from sympy's table: 1/Phi_k(y) = prod(Phi_j(y), j | k, j < k) / (y^k - 1)
    k, y = draw(st.integers(1, 6)), Symbol("y")
    rest = prod((cyclotomic_poly(j, y, polys=True) for j in range(1, k) if not k % j), start=Poly(1, y))
    inverse = _both(_in_y(rest.all_coeffs()[::-1], w))[0] / _both(_in_y([-1] + [0] * (k - 1) + [1], w))[0]
    kernel, oracle = _both(_in_y(cyclotomic_poly(k, y, polys=True).all_coeffs()[::-1], w))
    return inverse, kernel, oracle


@st.composite
def keyed_values(draw):
    """A Laurent numerator over at most two drawn factors, as (a RatFunc,
    sympy's element); sometimes the numerator also holds the first factor,
    which must cancel."""
    kernel, oracle = _both(draw(_terms))
    factors = draw(st.lists(keyed_factors(), max_size=2))
    for inverse, _, f in factors:
        kernel, oracle = kernel * inverse, oracle / f
    if factors and draw(st.booleans()):
        _, k, o = factors[0]
        kernel, oracle = kernel * k, oracle * o
    return kernel, oracle


def assert_canonical(x: RatFunc):
    """x is in its stored form: a reduced Laurent numerator over sorted keys,
    each primitive, oriented and irreducible, none dividing the numerator."""
    if x.is_constant():
        return
    (n, keys), numer = _parts(x.r0), to_field(RatFunc(_parts(x.r0)[0]))
    assert type(n) is _Lau and n.d > 0 and all(n.t.values()) and gcd(n.d, *n.t.values()) == 1
    if type(x.r0) is _Lau:
        return
    assert type(x.r0) is _Keyed and x.r0.k and list(x.r0.k) == sorted(x.r0.k)
    for (v, p), e in x.r0.k:
        assert e > 0 and gcd(*v) == 1 and next(w for w in v if w) > 0
        y = Symbol("y")
        assert (len(p) == 2 and p[0] > 0 and abs(p[0]) != abs(p[1]) and gcd(*p) == 1) or any(
            tuple(cyclotomic_poly(k, y, polys=True).all_coeffs()[::-1]) == p for k in range(1, 13)
        ), p
        # the key stays in the denominator: it does not divide the numerator
        assert len((numer / to_field(RatFunc(_expanded((v, p))))).denom) > 1


def assert_same_scalar(got: RatFunc, want):
    """``got`` is want, in its stored form: Laurent exactly when the reduced
    denominator is a monomial, and printed as sympy prints want."""
    assert to_field(got) == want
    if got.is_constant():
        assert want.numer.is_ground and want.denom.is_ground
    else:
        assert (type(got.r0) is _Lau) == (len(want.denom) == 1)
    assert_canonical(got)
    assert str(got) == str(want)


def _splits(n: _Lau) -> bool:
    """Whether a numerator has an inverse: a monomial, or a binomial
    c0 + c1 x^w with w primitive or |c0| = |c1|."""
    if len(n.t) == 1:
        return True
    if len(n.t) > 2:
        return False
    (e0, c0), (e1, c1) = n.t.items()
    return abs(c0) == abs(c1) or gcd(*(i - j for i, j in zip(e0, e1))) == 1


def assert_same_inverse(got: RatFunc, want):
    """got.inv() is 1/want where got's numerator splits into keys; elsewhere
    it raises UnkeyedDenominator."""
    if got.is_constant() or _splits(_parts(got.r0)[0]):
        assert_same_scalar(got.inv(), 1 / want)
        assert got.inv() * got == 1
    else:
        with pytest.raises(UnkeyedDenominator):
            got.inv()


# no shrink phase: each example runs sympy's field arithmetic, so shrinking
# a failure took minutes; the failing example prints as drawn
_ORACLE_SETTINGS = settings(
    max_examples=150, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


@_ORACLE_SETTINGS
@given(keyed_values(), keyed_values())
def test_keyed_arithmetic_matches_sympy(x, y):
    (gx, x), (gy, y) = x, y
    assert_same_scalar(gx, x)
    assert_same_scalar(gx + gy, x + y)
    assert_same_scalar(gx - gy, x - y)
    assert_same_scalar(-gx, -x)
    assert_same_scalar(gx * gy, x * y)
    assert (gx == gy) == (x == y)
    # equal values built two ways are equal, with equal hashes
    for one, two in ((gx + gy - gy, gx), (gx * gy, gy * gx), ((gx + gy) * (gx - gy), gx * gx - gy * gy)):
        assert one == two and hash(one) == hash(two)
    if x:
        assert_same_inverse(gx, x)


def test_three_term_inverse_raises():
    # the one inverse the keyed form has no place for: a numerator with
    # three terms would become a denominator that is not a product of keys
    # (1 - qa = -Phi_1(qa), so the numerator over it is -(q + a + 1)), nor does
    # a binomial in a power of y whose coefficients differ in size
    for value, text in ((Q + A + 1, "q + a + 1"), ((Q + A + 1) / (1 - Q * A), "-q - a - 1"),
                        (1 - 4 * Q * Q, "-4*q**2 + 1")):
        with pytest.raises(UnkeyedDenominator) as excinfo:
            value.inv()
        assert str(excinfo.value).startswith(f"1/({text}) ")
    # a binomial that splits into keys has one: 1 - q^6 over Phi_1..Phi_6
    assert (1 - Q**6).inv() * (1 - Q) * (1 + Q) * (1 + Q + Q * Q) * (1 - Q + Q * Q) == 1


@st.composite
def field_elements(draw):
    """sympy's elements with a one-term denominator."""
    numer = _both(draw(_terms))[1]
    denom = _both([(draw(_coefs.filter(bool)), draw(_monoms))])[1]
    return numer / denom


def from_field(x) -> RatFunc:
    """The RatFunc of sympy's element with a one-term denominator, by the
    kernel's arithmetic."""
    ((shift, c),) = x.denom.terms()
    terms = [(Fraction(int(n.numerator), int(n.denominator)), e) for e, n in x.numer.terms()]
    return _both(terms)[0] / _both([(Fraction(int(c.numerator), int(c.denominator)), shift)])[0]


@_ORACLE_SETTINGS
@given(field_elements(), field_elements())
def test_one_term_denominator_arithmetic_matches_sympy(x, y):
    gx, gy = from_field(x), from_field(y)
    assert_same_scalar(gx, x)
    assert_same_scalar(gx + gy, x + y)
    assert_same_scalar(gx - gy, x - y)
    assert_same_scalar(-gx, -x)
    assert_same_scalar(gx * gy, x * y)
    if x:
        assert_same_inverse(gx, x)


@settings(deadline=None)
@given(_coefs, keyed_values())
def test_ground_scalars_enter_the_field_reduced(c, x):
    g, qc = RatFunc.from_rational(c), _FIELD(QQ(c.numerator, c.denominator))
    part = g._part()
    assert (part.t, part.d) == (({_ZEXP: c.numerator} if c else {}), c.denominator)
    assert_same_scalar(g * x[0], x[1] * qc)
    assert_same_scalar(g + x[0], x[1] + qc)


@settings(max_examples=100, deadline=None)
@given(field_elements())
def test_monomial_denominators_round_trip_through_the_laurent_form(x):
    value = from_field(x)
    if value.is_constant():
        return
    comp = value.r0
    assert type(comp) is _Lau
    assert comp.d > 0 and all(comp.t.values())
    assert gcd(comp.d, *comp.t.values()) == 1
    fresh = RatFunc(_lau(dict(comp.t), comp.d))  # the constructor takes a component
    assert fresh == value and hash(fresh) == hash(value)
    assert to_field(fresh) == x and str(fresh) == str(x)

# Ground scalars compute with Python integers; Fraction is the oracle.

_rationals = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
)


def assert_ground(got, want: Fraction):
    """``got`` is the ground scalar ``want``, stored reduced."""
    assert got.is_constant()
    assert (got.g.numerator, got.g.denominator) == (want.numerator, want.denominator)
    assert str(got) == str(want)


@settings(max_examples=300, deadline=None)
@given(_rationals, _rationals, st.integers(min_value=-5, max_value=5))
def test_ground_arithmetic_matches_fraction(x, y, n):
    x, y = Fraction(x), Fraction(y)
    gx, gy = RatFunc.from_rational(x), RatFunc.from_rational(y)
    assert_ground(gx + gy, x + y)
    assert_ground(gx - gy, x - y)
    assert_ground(gx * gy, x * y)
    assert_ground(-gx, -x)
    assert_ground(gx + y, x + y)  # a Fraction or int operand is coerced
    assert_ground(y - gx, y - x)
    if y:
        assert_ground(gx / gy, x / y)
        assert_ground(gy.inv(), 1 / y)
    if x or n >= 0:
        assert_ground(gx**n, x**n)
    assert (gx == gy) == (x == y)
    assert gx == RatFunc.from_rational(x) and gx == x
    assert hash(gx) == hash(x)
    assert gx.as_fraction() == x
    # the text is the one the rational function field prints for it
    assert str(gx) == str(_FIELD(QQ(x.numerator, x.denominator)))


def test_params_cache_keeps_the_most_recently_used():
    points = [
        make_params("specialized", {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5, "d": 7 + i})
        for i in range(_PARAMS_CACHE_BOUND + 1)
    ]
    cache = OrderedDict()
    built = []

    def build(params):
        built.append(params)
        return object()

    first = _params_cache_entry(cache, points[0], build)
    for p in points[1:-1]:
        _params_cache_entry(cache, p, build)
    assert _params_cache_entry(cache, points[0], build) is first  # a hit
    _params_cache_entry(cache, points[-1], build)  # evicts points[1]
    assert len(cache) == _PARAMS_CACHE_BOUND
    assert points[0] in cache and points[1] not in cache
    assert built == points


def test_with_square_root_makes_abcd_over_q_a_square(sym, gpoint):
    p = sym.with_square_root()
    q, a, b, c, d = p.vals
    assert (q, a, b, c) == (Q, A, B, C) and d == Q * D * D / (A * B * C)
    assert a * b * c * d / q == D * D
    assert p.label == "symbolic;d->qd^2/(abc)"
    dual = p.dual()
    assert dual.vals == (Q, D, A * B / D, A * C / D, Q * D / (B * C))
    assert dual.dual() == p
    # abcd/q is not a square at the base point itself
    with pytest.raises(ExtensionDisabled):
        sym.dual()
    # a constant point has its own root or none, and is not moved
    assert gpoint.with_square_root() is gpoint
    point = random_params_mod_p(random.Random(0))
    assert point.with_square_root() is point


def test_laurent_square_roots():
    assert (Q * Q * A**4 / (B * B)).sqrt() == Q * A * A / B
    assert (RatFunc.from_rational(Fraction(9, 4)) * C**-2).sqrt() == Fraction(3, 2) / C
    assert RatFunc.from_rational(Fraction(9, 4)).sqrt() == Fraction(3, 2)
    for no_root in (
        Q * A * A,  # an odd exponent
        2 * A * A,  # a coefficient that is not a square
        -(A * A),
        A * A / (3 * B * B),  # a denominator that is not a square
        (A + B) * (A + B),  # a square of several terms
        A * A / (Q + 1),  # a multi-term denominator
        RatFunc.zero(),
    ):
        assert no_root.sqrt() is None


def test_random_params_mod_p_are_generic_with_a_dual():
    bound = 16
    for seed in range(10):
        params = random_params_mod_p(random.Random(seed))
        again = random_params_mod_p(random.Random(seed))
        assert params == again and params.label == again.label
        assert all(type(v) is ModP for v in params.vals)
        assert params.label.endswith(" mod 2^61-1")
        q, a, b, c, d = (v.v for v in params.vals)
        assert 0 not in (q, a, b, c, d)
        assert all(pow(q, m, PRIME) != 1 for m in range(1, bound + 1))
        e4 = a * b * c * d
        assert all(e4 * pow(q, m, PRIME) % PRIME != 1 for m in range(bound + 1))
        assert a * b % PRIME != 1
        u = e4 * pow(q, -1, PRIME) % PRIME
        assert pow(u, (PRIME - 1) // 2, PRIME) == 1  # Euler's criterion
        dual = params.dual()
        assert dual.value("a") ** 2 == u
        assert dual.value("a").v == pow(u, (PRIME + 1) // 4, PRIME)
    labels = {random_params_mod_p(random.Random(seed)).label for seed in range(10)}
    assert len(labels) == 10


class _ScriptedRng:
    def __init__(self, draws):
        self.draws = list(draws)

    def randrange(self, stop):
        assert stop == PRIME
        return self.draws.pop(0)


def test_random_params_mod_p_resamples():
    # ab = 1 mod p; then abcd/q = 3, a non-residue (p = 1 mod 3, p = 3 mod 4);
    # then abcd/q = 4
    half = (PRIME + 1) // 2
    rng = _ScriptedRng([3, 2, half, 5, 7, 2, 1, 2, 1, 3, 2, 1, 2, 1, 4])
    params = random_params_mod_p(rng)
    assert not rng.draws
    assert [v.v for v in params.vals] == [2, 1, 2, 1, 4]
    assert params.dual().value("a") ** 2 == 4


@pytest.mark.parametrize("which", ["sym", "gpoint", "modp"])
def test_carrier_carries_the_scalars_of_its_point(which, request):
    if which == "modp":
        point = random_params_mod_p(random.Random(3))
    else:
        point = request.getfixturevalue(which)
    carrier, q = _carrier(point), point.vals[0]
    assert carrier.p == (PRIME if which == "modp" else 0)
    assert carrier.vals == tuple(map(carrier.lift, point.vals))
    assert tuple(map(carrier.drop, carrier.vals)) == point.vals
    assert (carrier.drop(carrier.zero), carrier.drop(carrier.one)) == (q - q, q**0)
    x = carrier.vals[0]
    # mod reduces an unreduced product and a negative residue
    assert carrier.drop(carrier.mod(x * x * x)) == q**3
    assert carrier.drop(carrier.mod(-x)) == -q
    assert carrier.drop(carrier.mod(carrier.inv(x) * x)) == q**0
    assert carrier.drop(carrier.mod(carrier.power(x, -3))) == q**-3
    assert carrier.drop(carrier.mod(carrier.power(x, -3) * carrier.power(x, 3))) == q**0
    # settle reduces, and drops what reduces to zero: at GF(p) x/x - 1 is an
    # unreduced multiple of p
    acc = {"zero": x - x, "cancels": carrier.inv(x) * x - carrier.one, "kept": x * x}
    assert carrier.settle(acc) == {"kept": carrier.mod(x * x)}
    # the z-form entry points carry the values as they are at every point
    values = _value_carrier(point)
    assert (values.p, values.vals, values.lift(q), values.drop(q)) == (0, point.vals, q, q)


def test_admissibility_mod_p():
    # a primitive cube root of unity (-1 + sqrt(-3))/2: p = 1 mod 3
    omega = (ModP(-1) + ModP(-3).sqrt()) / 2
    assert omega != 1 and omega**3 == 1
    vals = [omega, *(ModP(v) for v in (2, 3, 5, 7))]
    with pytest.raises(DegenerateParameters) as excinfo:
        _check_admissible(vals)
    assert (excinfo.value.clause, excinfo.value.m) == ("q^m = 1", 3)
    vals = [ModP(v) for v in (2, 2, Fraction(1, 2), 5, 7)]
    with pytest.raises(DegenerateParameters, match="ab = 1"):
        _check_admissible(vals)
    # derived families are validated mod p, as at the rational points of
    # test_every_rational_family_is_validated
    def point(*vals):
        return Params(tuple(ModP(v) for v in vals), "mod p")

    shifts_to_ab_one = point(2, Fraction(1, 3), Fraction(3, 4), Fraction(1, 4), Fraction(9, 2))
    with pytest.raises(DegenerateParameters, match="ab = 1"):
        shifts_to_ab_one.shifted()


# ---------------------------------------------------------------------------
# The prime field GF(p)

_fractions = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(Fraction),
    st.fractions(max_denominator=10**6),
)


def _mod_p(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


@settings(max_examples=200, deadline=None)
@given(_fractions, _fractions)
def test_mod_p_arithmetic_matches_fractions(x, y):
    mx, my = ModP(x), ModP(y)
    assert 0 <= mx.v < PRIME and mx.v == _mod_p(x)
    assert (mx + my).v == _mod_p(x + y)
    assert (mx - my).v == _mod_p(x - y)
    assert (mx * my).v == _mod_p(x * y)
    assert (-mx).v == _mod_p(-x)
    assert (mx**3).v == _mod_p(x**3) and (mx**0).v == 1
    # a nonzero multiple of p, such as p itself, is zero mod p
    assert mx.is_zero() == (not _mod_p(x)) == (not mx)
    if _mod_p(x):
        assert mx.inv().v == _mod_p(1 / x)
        assert (mx**-2).v == _mod_p(x**-2)
        assert (my / mx).v == _mod_p(y / x)
    else:
        with pytest.raises(DivisionByZero):
            mx.inv()
        with pytest.raises(DivisionByZero):
            my / mx
        with pytest.raises(DivisionByZero):
            mx**-1
    assert (mx == my) == (_mod_p(x) == _mod_p(y))
    assert hash(ModP(x)) == hash(mx)


@settings(max_examples=100, deadline=None)
@given(_fractions, _fractions)
def test_mod_p_coerces_ground_scalars_ints_and_fractions(x, y):
    mx, want = ModP(x), _mod_p(x + y)
    for other in (RatFunc.from_rational(y), y):
        for got in (mx + other, other + mx):
            assert type(got) is ModP and got.v == want
        assert (mx * other).v == (other * mx).v == _mod_p(x * y)
        assert (mx - other).v == _mod_p(x - y) and (other - mx).v == _mod_p(y - x)
        if _mod_p(x):
            assert (other / mx).v == _mod_p(y / x)
        else:
            with pytest.raises(DivisionByZero):
                other / mx
        assert (mx == other) == (other == mx) == (_mod_p(x) == _mod_p(y))
    if y.denominator == 1:
        n = int(y)
        assert (mx + n).v == (n + mx).v == want
        assert (mx * n).v == (n * mx).v == _mod_p(x * n)
    assert ModP(RatFunc.from_rational(y)) == ModP(y)
    assert mx == RatFunc.from_rational(x) and RatFunc.from_rational(x) == mx


def test_mod_p_rejects_symbolic_scalars():
    m = ModP(5)
    for symbolic in (A, Q / (A + 1)):
        for op in (
            lambda: m + symbolic,
            lambda: symbolic + m,
            lambda: m - symbolic,
            lambda: symbolic - m,
            lambda: m * symbolic,
            lambda: symbolic * m,
            lambda: m / symbolic,
            lambda: symbolic / m,
            lambda: m == symbolic,
            lambda: ModP(symbolic),
        ):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError):
        ModP(1.5)
    with pytest.raises(DivisionByZero):
        ModP(Fraction(1, PRIME))


def test_mod_p_square_roots():
    assert ModP(4).sqrt() ** 2 == 4
    assert ModP(-1).sqrt() is None  # p = 3 mod 4
    assert ModP(3).sqrt() is None
    assert ModP(0).sqrt() == 0


# ---------------------------------------------------------------------------
# Derived scalars


def test_elementary_symmetric_symbolic(sym):
    e1, e2, e3, e4 = elementary_symmetric(sym)
    assert e4 == A * B * C * D
    assert e1 == A + B + C + D


def test_elementary_symmetric_at_unit_point(sym):
    # a=b=c=d=1 is outside the admissible region (ab = 1), so evaluate the
    # symbolic polynomials at that point instead of building Params there.
    point = {"q": Fraction(2), "a": 1, "b": 1, "c": 1, "d": 1}
    values = [e.evaluate(point)[0] for e in elementary_symmetric(sym)]
    assert values == [4, 6, 4, 1]


def test_elementary_symmetric_2357(gpoint):
    values = [e.as_fraction() for e in elementary_symmetric(gpoint)]
    assert values == [17, 101, 247, 210]


def test_structure_constants_c0(sym):
    sc = structure_constants(sym)
    assert sc.C0 == (Q - Q.inv()) ** 2
    pq2 = make_params("specialized", {"q": 2, "a": 2, "b": 3, "c": 5, "d": 7})
    assert structure_constants(pq2).C0.as_fraction() == Fraction(9, 4)


def test_structure_constants_are_symmetric_in_cd(sym):
    # swapping c and d fixes every constant of the two-generator relations
    sc = structure_constants(sym)
    pt = {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5, "d": 7}
    pt_swapped = {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 7, "d": 5}
    for name in ("B", "C0", "C1", "D0", "D1", "Q0"):
        val = getattr(sc, name)
        assert val.evaluate(pt) == val.evaluate(pt_swapped)


def test_eigenvalues(sym):
    assert eigenvalue(0, sym) == RatFunc.one() + A * B * C * D / Q
    assert eigenvalue(1, sym) == Q.inv() + A * B * C * D
    with pytest.raises(ValueError):
        eigenvalue(-1, sym)


def test_eigenvalues_distinct(gpoint):
    values = [eigenvalue(n, gpoint).as_fraction() for n in range(21)]
    assert len(set(values)) == 21


# ---------------------------------------------------------------------------
# Parameter transforms


def test_shifted_params(sym):
    sh = sym.shifted()
    assert sh.value("a") == Q * A
    assert sh.value("b") == Q * B
    assert sh.value("c") == C


def test_dual_params_symbolic_involution(sym):
    point = sym.with_square_root()
    dual = point.dual()
    s = D  # the root of abcd/q at this point
    assert dual.value("a") == s
    assert dual.value("b") == A * B / s
    back = dual.dual()
    for name in ("q", "a", "b", "c", "d"):
        assert back.value(name) == point.value(name)


def test_dual_params_rational_point(spoint):
    dual = spoint.dual()
    assert dual.value("a").as_fraction() == 2  # s = sqrt(abcd/q) = 2
    assert dual.value("b").as_fraction() == Fraction(15, 2)
    back = dual.dual()
    for name in ("q", "a", "b", "c", "d"):
        assert back.value(name) == spoint.value(name)


def test_dual_needs_exact_square_root(gpoint):
    # abcd/q = 140 has no rational square root
    with pytest.raises(ExtensionDisabled):
        gpoint.dual()


def test_dual_at_a_given_root(spoint):
    # abcd/q = 4: the root -2 gives the other dual family
    dual = spoint.dual(RatFunc.from_rational(-2))
    assert [v.as_fraction() for v in dual.vals] == [
        Fraction(1155, 4), -2, Fraction(-15, 2), Fraction(-21, 2), Fraction(-33, 2)
    ]
    assert dual.label == spoint.dual().label
    with pytest.raises(ValueError):
        spoint.dual(RatFunc.from_rational(3))
    # the double dual at the root a is the identity, whatever root the
    # field picks for the dual family's abcd/q = a^2
    point = make_params("specialized", {"q": 2, "a": -2, "b": -1, "c": 1, "d": 1})
    dual = point.dual()
    assert dual.dual().value("a").as_fraction() == 2
    assert dual.dual(point.value("a")) == point


def test_params_hold_values_and_label(gpoint):
    same = Params(vals=gpoint.vals, label=gpoint.label)
    assert (same.vals, same.label) == (gpoint.vals, gpoint.label)
    assert gpoint.label == "q=3/2,a=2,b=3,c=5,d=7"
    assert [v.as_fraction() for v in gpoint.vals] == [Fraction(3, 2), 2, 3, 5, 7]
    values = gpoint.values()
    values["a"] = RatFunc.one()  # callers may mutate the dict they get
    assert gpoint.value("a").as_fraction() == 2
    # equality and hashing ignore the label, not the values
    relabelled = Params(gpoint.vals, "elsewhere")
    assert relabelled == gpoint and hash(relabelled) == hash(gpoint)
    assert Params(gpoint.shifted().vals, gpoint.label) != gpoint
    # parameter sets key caches by a hash computed once, so they stay as built
    for name in ("vals", "label", "_hash"):
        with pytest.raises(AttributeError):
            setattr(gpoint, name, None)
        with pytest.raises(AttributeError):
            delattr(gpoint, name)
    assert gpoint == same and gpoint.label == "q=3/2,a=2,b=3,c=5,d=7"


def test_shifted_point_equals_the_point_it_names(gpoint):
    shifted = gpoint.shifted()
    direct = make_params("specialized", {"q": Fraction(3, 2), "a": 3, "b": Fraction(9, 2),
                                         "c": 5, "d": 7})
    assert shifted == direct and hash(shifted) == hash(direct)
    assert shifted.label == "q=3/2,a=2,b=3,c=5,d=7;shift(a->qa,b->qb)"


def test_derived_labels(spoint, sym):
    assert spoint.dual().label == spoint.label + ";dual(s,ab/s,ac/s,ad/s)"
    assert sym.with_square_root().dual().shifted().label == (
        "symbolic;d->qd^2/(abc);dual(s,ab/s,ac/s,ad/s);shift(a->qa,b->qb)"
    )


def test_every_rational_family_is_validated():
    # q^2 ab = 1 here, so the shifted family has ab = 1
    point = make_params(
        "specialized",
        {"q": 2, "a": Fraction(1, 3), "b": Fraction(3, 4), "c": Fraction(1, 4),
         "d": Fraction(9, 2)},
    )
    with pytest.raises(DegenerateParameters):
        point.shifted()
    # the dual family (3/8, 2/3, 2/9, 4) is admissible, but q^2 a'b' = 1 again
    dual = point.dual()
    assert [v.as_fraction() for v in dual.vals] == [
        2, Fraction(3, 8), Fraction(2, 3), Fraction(2, 9), 4
    ]
    with pytest.raises(DegenerateParameters):
        dual.shifted()
