"""Why the catalog decides every step row at (m, n) = (1, 1).

The argument of the ``ncalg`` module docstring: K1 = Z + Z^-1 and
K~0 = Y + uY^-1 commute with F, Z^m = p_m(K1) + q_m(K1) Z and
Y^n = p'_n(K~0) + Y q'_n(K~0), so F Z^m Y^n F is a sum of four base
sandwiches G_X = F X F shifted by K1 on the left and K~0 on the right.
Every key then stays in the box |k| <= m, |l| <= n, and a corner
(sk m, sl n) scales as corner(1, 1) u^((sn - sl)(n - 1)/2).  Here the
closed form and the scaling law are compared with the kernel, the rule on
the table's u-exponents gets its controls, and a work gate pins one
evaluation per step row and point.
"""

import random

import pytest
from rewriting import step_lhs

from rank1daha import ncalg, steps, verify
from rank1daha.modp import random_params_mod_p
from rank1daha.reports import RunConfig
from rank1daha.steps import STEP_IDENTITIES, check_step_identity
from rank1daha.verify import run_checks
from rank1daha.words import NormalForm


@pytest.fixture(scope="module", params=["gpoint", "modp"])
def point(request):
    if request.param == "modp":
        return random_params_mod_p(random.Random(5))
    return request.getfixturevalue("gpoint")


def _plus(u, v, zero):
    u, v = u + [zero] * (len(v) - len(u)), v + [zero] * (len(u) - len(v))
    return [x + y for x, y in zip(u, v)]


def _split(k, s, one):
    """(p, q) with X^k = p(K) + q(K) X, where X^2 = K X - s and
    X^-1 = s^-1 (K - X): coefficient lists indexed by the power of K."""
    zero, si = one - one, s.inv()
    p, q = [one], [zero]
    for _ in range(abs(k)):
        if k > 0:  # X (p + q X) = -s q + (p + K q) X
            p, q = [-s * c for c in q], _plus(p, [zero] + q, zero)
        else:  # X^-1 (p + q X) = (s^-1 K p + q) - s^-1 p X
            p, q = _plus([zero] + [si * c for c in p], q, zero), [-si * c for c in p]
    return p, q


def _add(out, terms, c):
    # out += c terms, on coefficient dicts keyed by (k, l, i)
    for key, x in terms.items():
        out[key] = out[key] + c * x if key in out else c * x


def _polynomial(poly, terms, moves):
    """poly(K) times terms, K acting on a key (k, l, i) as the sum of c times
    the key moved by (dk, dl), over the moves (dk, dl, c)."""
    out, power = {}, terms
    for c in poly:
        _add(out, power, c)
        moved = {}
        for (k, l, i), x in power.items():
            for dk, dl, c_move in moves:
                _add(moved, {(k + dk, l + dl, i): x}, c_move)
        power = moved
    return out


def _closed_form(system, family, m, n):
    """F Z^m Y^n F as p_m G_1 p'_n + p_m G_Y q'_n + q_m G_Z p'_n + q_m G_ZY q'_n,
    from the four base sandwiches G_X = F X F by shifts alone."""
    one, u = system.one, system.u
    total = {}
    for a, kz in zip(_split(m, one, one), (0, 1)):  # Z^2 = K1 Z - 1
        for b, ly in zip(_split(n, u, one), (0, 1)):  # Y^2 = K~0 Y - u
            base = system._normal_form(system._sandwich(family, (kz, ly, 0))).terms
            inner = _polynomial(b, base, [(0, 1, one), (0, -1, u)])  # times K~0 on the right
            _add(total, _polynomial(a, inner, [(1, 0, one), (-1, 0, one)]), one)  # K1 times
    return NormalForm(total)


def _check_closed_form(params, bound):
    system = ncalg.rewrite_system(params)
    for family in ("sym", "asym"):
        for m in range(-bound, bound + 1):
            for n in range(-bound, bound + 1):
                kernel = system._normal_form(system._sandwich(family, (m, n, 0)))
                assert _closed_form(system, family, m, n) == kernel, (family, m, n)


def test_closed_form_is_the_kernel(point):
    _check_closed_form(point, 4)


def test_closed_form_is_the_kernel_symbolically(sym):
    _check_closed_form(sym, 2)


def _check_scaling(params, bound):
    system = ncalg.rewrite_system(params)
    nonzero = 0
    for name, row in STEP_IDENTITIES.items():
        if row.kind == "exact":
            continue
        uses_m, uses_n = row.uses()
        sn = row.signs[1]
        base = step_lhs(row, 1, 1, params)
        for m in range(1, bound + 1) if uses_m else (1,):
            for n in range(1, bound + 1) if uses_n else (1,):
                lhs = step_lhs(row, m, n, params)
                kmax, lmax = m if uses_m else 0, n if uses_n else 0
                assert all(abs(k) <= kmax and abs(l) <= lmax for k, l, _ in lhs.terms), (name, m, n)
                for sk in (1, -1) if uses_m else (0,):
                    for sl in (1, -1) if uses_n else (0,):
                        factor = system.u ** ((sn - sl) * (n - 1) // 2)
                        for i in (0, 1):
                            corner = lhs.coeff(sk * m, sl * n, i)
                            assert corner == base.coeff(sk, sl, i) * factor, (name, m, n, sk, sl, i)
                            nonzero += not corner.is_zero()
    assert nonzero > 0


def test_corners_scale_and_keys_stay_in_the_box(point):
    _check_scaling(point, 4)


def test_corners_scale_symbolically(sym):
    _check_scaling(sym, 2)


def test_every_row_keeps_the_scaling_rule():
    assert {name: steps._scaling_break(row) for name, row in STEP_IDENTITIES.items()} == {
        name: "" for name in STEP_IDENTITIES
    }


# ---------------------------------------------------------------------------
# Controls: a u-exponent the signs do not force fails before any product


def _lhs_calls(monkeypatch):
    calls = []
    lhs = steps._lifted_step_lhs

    def counted(row, m, n, system):
        calls.append((row.check, m, n))
        return lhs(row, m, n, system)

    monkeypatch.setattr(steps, "_lifted_step_lhs", counted)
    return calls


def test_wrong_u_exponent_fails_before_any_product(monkeypatch, gpoint):
    row = STEP_IDENTITIES["47"]
    leading = {**row.leading, (0, -1): ((-1, 0, 1, 1, 0),)}  # -ab for -ab u^n
    monkeypatch.setitem(steps.STEP_IDENTITIES, "47", row._replace(leading=leading))
    calls = _lhs_calls(monkeypatch)
    summary = verify._CATALOG_BY_ID["step.47"].runner(gpoint, {}, random.Random(0))
    assert summary == (
        "(0, -1) coefficient term (-1, 0, 1, 1, 0): u^(0 n), forced u^(1 n)"
    )
    assert calls == []
    # the general evaluator, the oracle, agrees that the row is false
    assert not check_step_identity("47", 1, 2, gpoint)[1]
    assert calls == [("step.47", 1, 2)]  # the counter counts


def test_wrong_step3_scalar_exponent_fails(monkeypatch, gpoint):
    row = STEP_IDENTITIES["sph3.3"]  # scalar q u^-n
    monkeypatch.setitem(steps.STEP_IDENTITIES, "sph3.3", row._replace(scalar=((1, 1, 0, 0, 0),)))
    calls = _lhs_calls(monkeypatch)
    summary = verify._CATALOG_BY_ID["step3.spherical"].runner(gpoint, {}, random.Random(0))
    assert summary == (
        "sph3.3 scalar coefficient term (1, 1, 0, 0, 0): u^(0 n), forced u^(-1 n)"
    )
    assert calls == []
    assert not check_step_identity("sph3.3", 1, 2, gpoint)[1]
    assert calls == [("step3.spherical", 1, 2)]  # the counter counts


def test_wrong_middle_exponent_fails(monkeypatch, gpoint):
    row = STEP_IDENTITIES["56"]
    monkeypatch.setitem(
        steps.STEP_IDENTITIES, "56", row._replace(middle={("K0", "K1"): ((1, 0, 0, 0, 1),)})
    )
    summary = verify._CATALOG_BY_ID["step.56"].runner(gpoint, {}, random.Random(0))
    assert summary.startswith("K0 K1 coefficient term (1, 0, 0, 0, 1): u^(1 n)")


# ---------------------------------------------------------------------------
# Work gate: one evaluation per step row and point, and --max-mn bounds nothing


def _step_calls(monkeypatch):
    calls = []
    check = steps.check_step_identity

    def counted(identity, m, n, params):
        calls.append((m, n))
        return check(identity, m, n, params)

    monkeypatch.setattr(steps, "check_step_identity", counted)
    return calls


def _zeroed(report):
    return [r._replace(elapsed_ms=0) for r in report.results]


def test_default_run_evaluates_each_step_row_once(monkeypatch):
    calls = _step_calls(monkeypatch)
    report = run_checks(RunConfig(max_mn=3))
    assert report.overall == "pass"
    assert calls == [(1, 1)] * len(STEP_IDENTITIES) == [(1, 1)] * 34
    assert _zeroed(run_checks(RunConfig(max_mn=1))) == _zeroed(report)


def test_prob_run_evaluates_each_step_row_once_per_trial(monkeypatch):
    calls = _step_calls(monkeypatch)
    report = run_checks(RunConfig(mode="prob", trials=2))
    assert report.overall == "pass"
    assert calls == [(1, 1)] * 68
