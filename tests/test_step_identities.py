"""The catalog of compression identities behind the two isomorphisms.

Every entry states that a short word in the embedded AW generators, cut
down by a right factor T1+1 (symmetric family) or T1+ab (antisymmetric
family), equals its listed leading Laurent terms plus a dominated rest.
The checker returns the residual and a verdict, so the tests can pin
literal leading coefficients as well as sweep the whole table.  The
catalog evaluates each row at (m, n) = (1, 1) only, which decides every
exponent (``test_step_scaling.py``); these sweeps over general (m, n) are
the oracle of that argument.
"""

import random

import pytest
from rewriting import leading_at, rewrite
from test_factor_products import _step_lhs_oracle

from rank1daha import aw3, ncalg, steps, words
from rank1daha.errors import UnknownIdentity
from rank1daha.modp import random_params_mod_p
from rank1daha.reports import RunConfig
from rank1daha.steps import STEP_IDENTITIES, check_step_identity
from rank1daha.verify import run_checks
from rank1daha.aw3 import symmetrizer
from rank1daha.words import Element


def u_of(params):
    v = params.values()
    return v["a"] * v["b"] * v["c"] * v["d"] / v["q"]


# ---------------------------------------------------------------------------
# Full sweep at a generic rational point


def test_all_identities_hold_for_small_exponents(gpoint):
    for name in sorted(STEP_IDENTITIES):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                residual, ok = check_step_identity(name, m, n, gpoint)
                assert ok, f"{name} fails at (m, n) = ({m}, {n})"


def test_one_index_identities_ignore_the_other_exponent(gpoint):
    # "44" depends on m only: the residual must not change with n
    r1, _ = check_step_identity("44", 2, 1, gpoint)
    r2, _ = check_step_identity("44", 2, 3, gpoint)
    assert r1 == r2


# ---------------------------------------------------------------------------
# Symbolic spot checks, including the two pinned leading-term patterns


@pytest.mark.parametrize("name", ["44", "49", "56", "a44", "a49", "sph3.1", "asph3.2"])
def test_symbolic_samples(sym, name):
    residual, ok = check_step_identity(name, 1, 1, sym)
    assert ok
    residual, ok = check_step_identity(name, 2, 2, sym)
    assert ok


def test_mixed_power_leading_terms(sym):
    v = sym.values()
    ab = v["a"] * v["b"]
    u = u_of(sym)
    spec = STEP_IDENTITIES["49"]
    assert leading_at(spec, 1, 1, sym) == {(1, 1): 1, (-1, -1): -ab * u}


def test_sandwiched_product_leading_terms(sym):
    # K1 (K0 K1) K0 with both exponents 2: four corners, top weight q
    v = sym.values()
    q, ab, u = v["q"], v["a"] * v["b"], u_of(sym)
    spec = STEP_IDENTITIES["56"]
    expected = {
        (2, 2): q,
        (-2, 2): q.inv(),
        (2, -2): q.inv() * u**2,
        (-2, -2): q.inv() * u**2 * (1 + ab - q * q * ab),
    }
    assert leading_at(spec, 2, 2, sym) == expected


def test_exact_compressions_have_zero_residual(sym):
    for name in ("44.exact", "45.exact"):
        residual, ok = check_step_identity(name, 1, 1, sym)
        assert ok
        assert residual.is_zero()


# ---------------------------------------------------------------------------
# Negative controls: one perturbed row of each left-side kind must fail


def _plus_one(coef):
    return coef + ((1, 0, 0, 0, 0),)


# one row of each left-side kind, and the coefficient to perturb (None: the
# step-3 scalar c)
_CONTROLS = [
    ("49", (-1, -1)),
    ("a55", (1, -1)),
    ("56", (-1, -1)),
    ("45.exact", (0, 0)),
    ("sph3.2", None),
]


def test_controls_cover_every_kind():
    kinds = {row.kind for row in STEP_IDENTITIES.values()}
    assert {STEP_IDENTITIES[name].kind for name, _ in _CONTROLS} == kinds
    assert len(STEP_IDENTITIES) == 34


def _perturbed(row, key):
    if key is None:
        return row._replace(scalar=_plus_one(row.scalar))
    leading = dict(row.leading)
    leading[key] = _plus_one(leading[key])
    return row._replace(leading=leading)


@pytest.mark.parametrize("name, key", _CONTROLS)
def test_perturbed_row_fails(monkeypatch, gpoint, name, key):
    assert check_step_identity(name, 2, 2, gpoint)[1]
    monkeypatch.setitem(steps.STEP_IDENTITIES, name, _perturbed(STEP_IDENTITIES[name], key))
    residual, ok = check_step_identity(name, 2, 2, gpoint)
    assert not ok
    assert not residual.is_zero()


@pytest.mark.parametrize("which", ["gpoint", "modp", "sym"])
@pytest.mark.parametrize("name, key", _CONTROLS)
def test_perturbed_residual_matches_rewriting(monkeypatch, request, which, name, key):
    # a failure prints the residual, so it must be the oracle's: the rewritten
    # expanded left side minus the leading terms times F
    if which == "modp":
        point = random_params_mod_p(random.Random(3))
    else:
        point = request.getfixturevalue(which)
    row = _perturbed(STEP_IDENTITIES[name], key)
    monkeypatch.setitem(steps.STEP_IDENTITIES, name, row)
    m, n = (1, 1) if row.kind == "exact" else (2, 2)
    q, a, b, c, d = point.vals
    bases = (q, a, b, a * b * c * d / q)
    leading = {
        words._basis_word(sk * m, sl * n, 0): steps._coef(coef, n, bases)
        for (sk, sl), coef in row.leading.items()
    }
    f, _ = symmetrizer(row.family, point)
    expected = rewrite(_step_lhs_oracle(row, 2, 2, point) - Element("daha", leading) * f, point)
    residual, ok = check_step_identity(name, 2, 2, point)
    assert not ok
    assert residual == expected


@pytest.mark.parametrize("which", ["gpoint", "modp"])
def test_residual_off_the_right_factor_fails(monkeypatch, request, which):
    # the T1 factorisation is a test of its own: a dominated residual must
    # also be R (T1+eps), so adding F keeps the verdict and T1 alone breaks it
    if which == "modp":
        point = random_params_mod_p(random.Random(3))
    else:
        point = request.getfixturevalue(which)
    system = ncalg.rewrite_system(point)
    one, eps = system.carrier.one, aw3._symmetrizer(system, "sym")[(0, 0, 0)]
    lhs, (base, _) = steps._lifted_step_lhs, check_step_identity("44", 2, 1, point)

    def plus(extra):
        def patched(row, m, n, system):
            return system._linear(((one, lhs(row, m, n, system)), (one, extra)))

        return patched

    monkeypatch.setattr(steps, "_lifted_step_lhs", plus({(0, 0, 1): one, (0, 0, 0): eps}))
    assert check_step_identity("44", 2, 1, point)[1]
    monkeypatch.setattr(steps, "_lifted_step_lhs", plus({(0, 0, 1): one}))
    residual, ok = check_step_identity("44", 2, 1, point)
    assert not ok
    assert (residual - base).terms == {(0, 0, 1): 1}


@pytest.mark.parametrize("name, key", _CONTROLS)
def test_perturbed_row_fails_in_prob_mode(monkeypatch, name, key):
    # the controls still bite at random points of GF(p)
    row = STEP_IDENTITIES[name]
    config = RunConfig(checks=[row.check], mode="prob", trials=2, max_mn=2)
    assert [(r.verdict, r.trials) for r in run_checks(config).results] == [("pass", 2)]
    monkeypatch.setitem(steps.STEP_IDENTITIES, name, _perturbed(row, key))
    (result,) = run_checks(config).results
    assert (result.verdict, result.trials) == ("fail", 1)
    assert result.residual_summary.startswith("at q=")
    assert " mod 2^61-1: " in result.residual_summary


# ---------------------------------------------------------------------------
# Input validation


def test_unknown_identity_rejected(gpoint):
    with pytest.raises(UnknownIdentity):
        check_step_identity("46", 1, 1, gpoint)


def test_nonpositive_exponents_rejected(gpoint):
    with pytest.raises(ValueError):
        check_step_identity("44", 0, 1, gpoint)
    with pytest.raises(ValueError):
        check_step_identity("49", 2, -1, gpoint)
