"""The check catalog, runner, reports, and the expression/config parsers."""

import hashlib
import json
import random
import weakref
from collections import Counter, OrderedDict
from fractions import Fraction
from types import SimpleNamespace

import pytest

from rank1daha import aw3, checks, cli, family, laurent, modp, ncalg, polyrep, steps, verify
from rank1daha import params as params_module
from rank1daha.checks import CHECK_CATALOG, CheckSpec
from rank1daha.errors import ConfigError, DegenerateParameters, ParseError
from rank1daha.expression import parse_expression
from rank1daha.field import RatFunc
from rank1daha.modp import random_params_mod_p
from rank1daha.params import Params, make_params
from rank1daha.reports import (
    RunConfig,
    load_report,
    parse_config_file,
    parse_param_assignments,
    render_text,
)
from rank1daha.verify import TOOL_VERSION, check_ids, emit_report, run_checks
from rank1daha.words import Element

ONE = RatFunc.one()


# ---------------------------------------------------------------------------
# Catalog shape


def test_catalog_ids_unique_and_complete():
    ids = check_ids()
    assert len(ids) == 46
    assert len(set(ids)) == 46
    for required in (
        "relations-daha",
        "embed.rel34",
        "idempotents",
        "step.44",
        "astep.56",
        "step.44.exact",
        "step3.spherical",
        "step3.antispherical",
        "iso.spherical.rank",
        "iso.antispherical.rank",
        "centralizer.t1",
        "center.daha",
        "duality.aw",
        "duality.daha",
        "shiftops",
        "eigen.Pn",
        "casimir.scalar",
        "awrel.inrep",
    ):
        assert required in ids


def test_catalog_statements_self_contained():
    for spec in CHECK_CATALOG:
        assert spec.statement.strip()
        assert spec.default_mode in ("exact", "prob")


def test_catalog_output_pinned(capsys):
    # ids, order, statements and default modes are part of the interface;
    # the hash is that of `python -m rank1daha.cli catalog`
    assert cli.main(["catalog"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "3aaf422c595472af0ccfa3a8cb114143b17be4017aa349d52c81f4e5f2869ce4"


class _NoDraws(random.Random):
    """A generator whose every draw raises: each draw method of Random goes
    through random() or getrandbits()."""

    def random(self):
        raise AssertionError("drew a random number")

    def getrandbits(self, k):
        raise AssertionError("drew random bits")


def test_no_check_samples_at_a_given_point():
    # every verdict is a statement checked at its point: at a point of GF(p)
    # no check draws from its generator, so none samples random words; only a
    # symbolic point makes the rank certificates draw their witness points
    point = random_params_mod_p(random.Random(11))
    bounds = {"max_mn": 1, "max_degree": 1, "max_n": 2}
    outcomes = {}
    for spec in CHECK_CATALOG:
        try:
            outcome = spec.runner(point, bounds, _NoDraws())
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        if outcome:
            outcomes[spec.id] = outcome
    assert outcomes == {}
    # control: a symbolic point does draw
    with pytest.raises(AssertionError, match="drew"):
        verify._CATALOG_BY_ID["center.daha"].runner(make_params("symbolic"), bounds, _NoDraws())


# ---------------------------------------------------------------------------
# Runner behavior


def test_run_checks_filters_and_orders():
    config = RunConfig(checks=["idempotents", "embed.t1central"])
    report = run_checks(config)
    # results follow catalog order, not request order
    assert [r.id for r in report.results] == ["embed.t1central", "idempotents"]
    assert report.overall == "pass"
    assert report.tool_version == TOOL_VERSION
    assert report.params_echo == "symbolic"
    assert all(r.verdict == "pass" and r.trials == 1 for r in report.results)


def test_run_checks_rejects_bad_config():
    with pytest.raises(ConfigError):
        run_checks(RunConfig(checks=["no-such-check"]))
    with pytest.raises(ConfigError):
        run_checks(RunConfig(mode="approximate"))
    with pytest.raises(ConfigError):
        run_checks(RunConfig(trials=0))
    # empty sizes: no exponent for the step rows, no P_n, no degree
    with pytest.raises(ConfigError, match="max-mn"):
        run_checks(RunConfig(checks=["step.44"], max_mn=0))
    with pytest.raises(ConfigError, match="max-n"):
        run_checks(RunConfig(checks=["eigen.Pn"], max_n=-1))
    with pytest.raises(ConfigError, match="max-degree"):
        run_checks(RunConfig(checks=["casimir.scalar"], max_degree=-1))


def test_prob_mode_rejects_a_given_point(capsys, tmp_path):
    # prob mode draws its own points, so a report echoing --params would lie
    point = make_params("specialized", {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5, "d": 7})
    with pytest.raises(ConfigError, match="prob mode"):
        run_checks(RunConfig(checks=["casimir.scalar"], mode="prob", params=point))
    flags = ["--checks", "casimir.scalar", "--mode", "prob", "--params", "q=3/2,a=2,b=3,c=5,d=7"]
    assert cli.main(["verify", "run", *flags]) == 2
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("checks = casimir.scalar\nmode = prob\nparams = q=3/2,a=2,b=3,c=5,d=7\n")
    assert cli.main(["verify", "run", "--config", str(cfg)]) == 2
    assert "prob mode" in capsys.readouterr().err
    # either one alone still runs
    assert cli.main(["verify", "run", "--config", str(cfg), "--mode", "exact"]) == 0
    assert cli.main(["verify", "run", "--config", str(cfg), "--symbolic", "--trials", "1"]) == 0


def test_a_check_that_cannot_run_at_a_point_is_skipped(tmp_path):
    # abcd/q = 140 has no rational square root, so no dual family exists
    # at this point; the duality checks are skipped and the run passes
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "run", "--checks", "duality.aw,duality.daha,casimir.scalar",
         "--params", "q=3/2,a=2,b=3,c=5,d=7", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    report = load_report(str(out))
    assert report.overall == "pass"
    verdicts = {r.id: (r.verdict, r.residual_summary.split(":")[0]) for r in report.results}
    assert verdicts == {
        "duality.aw": ("skip", "ExtensionDisabled"),
        "duality.daha": ("skip", "ExtensionDisabled"),
        "casimir.scalar": ("pass", ""),
    }
    lines = render_text(report).splitlines()
    assert lines[3].startswith("duality.aw               skip ")
    assert lines[-1] == "overall pass"
    # a skip does not hide a failure next to it: at ac = 1, abcd/q = 14
    # has no rational root and gamma_1 vanishes
    degenerate = make_params(
        "specialized", {"q": Fraction(3, 2), "a": 2, "b": 3, "c": Fraction(1, 2), "d": 7}
    )
    report = run_checks(RunConfig(checks=["duality.daha", "recurrence"], params=degenerate))
    assert [r.verdict for r in report.results] == ["skip", "fail"]
    assert report.overall == "fail"


def test_prob_mode_draws_admissible_points():
    config = RunConfig(checks=["symmetry.abcd"], trials=3)
    report = run_checks(config)
    (result,) = report.results
    assert result.verdict == "pass"
    assert result.trials == 3


def test_check_error_is_captured_not_raised():
    # abcd*q^3 = 1 slips past a genericity bound of 2; the polynomial
    # normalization then degenerates inside the check
    p = make_params(
        "specialized",
        {"q": Fraction(1, 2), "a": 2, "b": 2, "c": 2, "d": 1},
        genericity_bound=2,
    )
    report = run_checks(RunConfig(checks=["eigen.Pn"], mode="exact", params=p))
    (result,) = report.results
    assert result.verdict == "error"
    assert "DegenerateParameters" in result.residual_summary
    assert report.overall == "fail"


def test_any_runner_exception_still_yields_a_report(monkeypatch, tmp_path):
    def runner(params, bounds, rng):
        raise RuntimeError("runner broke")

    spec = CheckSpec("raises", "a check whose runner raises", "exact", runner)
    monkeypatch.setattr(verify, "CHECK_CATALOG", [*CHECK_CATALOG, spec])
    monkeypatch.setitem(verify._CATALOG_BY_ID, spec.id, spec)
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "run", "--checks", "raises,idempotents", "--format", "json", "--out", str(out)]
    )
    assert code == 1
    data = json.loads(out.read_text())
    assert data["overall"] == "fail"
    verdicts = {r["id"]: (r["verdict"], r["residual_summary"]) for r in data["results"]}
    assert verdicts == {
        "idempotents": ("pass", ""),
        "raises": ("error", "RuntimeError: runner broke"),
    }
    # in prob mode the error names the random point it was raised at
    code = cli.main(
        ["verify", "run", "--checks", "raises", "--mode", "prob", "--trials", "2",
         "--format", "json", "--out", str(out)]
    )
    assert code == 1
    (row,) = json.loads(out.read_text())["results"]
    point = random_params_mod_p(random.Random("1729:trial:0"))
    assert (row["verdict"], row["trials"]) == ("error", 1)
    assert row["residual_summary"] == f"at {point.label}: RuntimeError: runner broke"


def test_every_check_runs_trial_k_at_one_point(monkeypatch):
    # the points of a prob run depend on the seed and the trial only: trial k
    # of every check sees one point, whichever checks run beside it
    seen = {}

    def recording(check_id):
        def runner(params, bounds, rng):
            seen.setdefault(check_id, []).append(params)
            return ""

        return runner

    specs = [CheckSpec(cid, "records its points", "prob", recording(cid)) for cid in ("p1", "p2")]
    monkeypatch.setattr(verify, "CHECK_CATALOG", [*CHECK_CATALOG, *specs])
    for spec in specs:
        monkeypatch.setitem(verify._CATALOG_BY_ID, spec.id, spec)
    report = run_checks(RunConfig(checks=["p1", "p2"], mode="prob", trials=3))
    assert [(r.verdict, r.trials) for r in report.results] == [("pass", 3)] * 2
    together = seen.copy()
    seen.clear()
    run_checks(RunConfig(checks=["p2"], mode="prob", trials=3))
    points = [random_params_mod_p(random.Random(f"1729:trial:{k}")) for k in range(3)]
    assert together["p1"] == together["p2"] == seen["p2"] == points
    labels = [p.label for p in points]
    assert [p.label for p in together["p1"]] == [p.label for p in seen["p2"]] == labels
    assert len(set(labels)) == 3
    # another seed, other points
    seen.clear()
    run_checks(RunConfig(checks=["p1"], mode="prob", trials=3, seed=7))
    assert not set(seen["p1"]) & set(points)


def test_checks_of_one_trial_share_a_rewrite_system(monkeypatch):
    """Work gate: with one point per trial, the checks of trial k share one
    rewrite system and its memoized products.  Three checks at two trials
    built 6 systems when every check drew its own points."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    built = [0]
    init = ncalg.RewriteSystem.__init__

    def counted(self, params):
        built[0] += 1
        init(self, params)

    monkeypatch.setattr(ncalg.RewriteSystem, "__init__", counted)
    config = RunConfig(checks=["step.44", "step3.spherical", "center.daha"], mode="prob", trials=2)
    assert [(r.verdict, r.trials) for r in run_checks(config).results] == [("pass", 2)] * 3
    assert built[0] == 2


def test_prob_run_keeps_per_params_caches_bounded(monkeypatch):
    """A prob run holds one trial's rewrite systems at a time: each of 16
    trials finds the cache empty and builds its point's system, and only the
    last trial's is left when the run ends.  The least-recently-used bound
    kept 8."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    held = []
    init = ncalg.RewriteSystem.__init__

    def counted(self, params):
        held.append(len(ncalg._SYSTEMS))
        init(self, params)

    monkeypatch.setattr(ncalg.RewriteSystem, "__init__", counted)
    config = RunConfig(
        checks=["iso.spherical.rank", "casimir.scalar"],
        mode="prob",
        trials=16,
        max_degree=1,
    )
    report = run_checks(config)
    assert [(r.verdict, r.trials) for r in report.results] == [("pass", 16)] * 2
    assert held == [0] * 16
    assert list(ncalg._SYSTEMS) == [random_params_mod_p(random.Random("1729:trial:15"))]


def test_each_trial_of_a_prob_row_is_one_run_one(monkeypatch):
    """The benchmark's tracer wraps verify._run_one for its per-check spans:
    every trial of every prob row goes through it, at that trial's point."""
    seen = []
    run_one = verify._run_one

    def recording(spec, config):
        seen.append((spec.id, config.params.label))
        return run_one(spec, config)

    monkeypatch.setattr(verify, "_run_one", recording)
    run_checks(RunConfig(checks=["idempotents", "casimir.scalar"], mode="prob", trials=2))
    labels = [random_params_mod_p(random.Random(f"1729:trial:{k}")).label for k in range(2)]
    assert seen == [(cid, label) for label in labels for cid in ("idempotents", "casimir.scalar")]


def test_prob_row_time_is_truncated_once(monkeypatch):
    # two trials of 0.6 ms each: truncating each trial first would report 0 ms
    ticks = iter(k * 0.0006 for k in range(4))
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    _register(monkeypatch, {"p1": lambda params, bounds, rng: ""})
    report = run_checks(RunConfig(checks=["p1"], mode="prob", trials=2))
    assert [(r.trials, r.elapsed_ms) for r in report.results] == [(2, 1)]


def _register(monkeypatch, runners):
    # prob-mode catalog entries after the real ones, one per (id, runner)
    specs = [CheckSpec(cid, "a test runner", "prob", runner) for cid, runner in runners.items()]
    monkeypatch.setattr(verify, "CHECK_CATALOG", [*CHECK_CATALOG, *specs])
    for spec in specs:
        monkeypatch.setitem(verify._CATALOG_BY_ID, spec.id, spec)


def test_prob_rows_run_trial_major(monkeypatch):
    """Trial k of every prob row runs before trial k+1 of any row; exact rows
    run first; a row that fails stops at its first failing trial, with that
    trial's point in its summary, while the others go on."""
    calls = []

    def recording(check_id, fails_at=None):
        def runner(params, bounds, rng):
            calls.append((check_id, params))
            return "planted" if fails_at is not None and params == points[fails_at] else ""

        return runner

    points = [random_params_mod_p(random.Random(f"1729:trial:{k}")) for k in range(3)]
    _register(monkeypatch, {"p1": recording("p1"), "p2": recording("p2", fails_at=1),
                            "p3": recording("p3")})
    report = run_checks(RunConfig(checks=["p1", "p2", "p3"], mode="prob", trials=3))
    rows = [(r.id, r.verdict, r.trials, r.residual_summary) for r in report.results]
    assert rows == [
        ("p1", "pass", 3, ""),
        ("p2", "fail", 2, f"at {points[1].label}: planted"),
        ("p3", "pass", 3, ""),
    ]
    assert calls == [
        ("p1", points[0]), ("p2", points[0]), ("p3", points[0]),
        ("p1", points[1]), ("p2", points[1]), ("p3", points[1]),
        ("p1", points[2]), ("p3", points[2]),
    ]
    # in the default modes the exact rows run before trial 0 of any prob row
    calls.clear()
    exact = CheckSpec("e1", "an exact test runner", "exact", recording("e1"))
    monkeypatch.setattr(verify, "CHECK_CATALOG", [exact, *verify.CHECK_CATALOG])
    monkeypatch.setitem(verify._CATALOG_BY_ID, "e1", exact)
    report = run_checks(RunConfig(checks=["p1", "e1"], trials=2))
    assert [r.id for r in report.results] == ["e1", "p1"]
    assert [(cid, p.label) for cid, p in calls] == [
        ("e1", "symbolic"), ("p1", points[0].label), ("p1", points[1].label),
    ]


def test_prob_run_builds_each_trial_system_once(monkeypatch):
    """Work gate: --mode prob --trials 8 over the whole catalog constructs 24
    rewrite systems, one each for every trial point, its perturbed control
    (relations-daha) and its dual point; with check-major order and a cache
    of 8 points the dual points evicted the trial systems and the run built
    48.  No system of an earlier trial is alive while trial k runs."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    built = []
    init = ncalg.RewriteSystem.__init__

    def recorded(self, params):
        init(self, params)
        built.append((weakref.ref(self), params))

    def probe(params, bounds, rng):
        alive = {p for ref, p in built if ref() is not None}
        return "" if alive <= {params, params.dual()} else f"{len(alive)} points alive"

    monkeypatch.setattr(ncalg.RewriteSystem, "__init__", recorded)
    _register(monkeypatch, {"probe": probe})
    report = run_checks(RunConfig(mode="prob", trials=8))
    assert [(r.verdict, r.trials) for r in report.results] == [("pass", 8)] * len(report.results)
    assert len(built) == 24
    points = [random_params_mod_p(random.Random(f"1729:trial:{k}")) for k in range(8)]
    per_point = Counter(p for _, p in built)
    assert per_point == {**{p: 2 for p in points}, **{p.dual(): 1 for p in points}}


def test_prob_mode_takes_no_rational_arithmetic(monkeypatch):
    """Work gate: at points of GF(p) every parameter-dependent scalar is a
    residue, so no rational number grows, and the word coefficients 1 of
    the K-words meet only residues."""
    ground_ops = []

    def counted(name):
        method = getattr(RatFunc, name)

        def run(self, *args):
            if self.is_constant():
                values = (x.as_fraction() if isinstance(x, RatFunc) else x for x in args)
                ground_ops.append((name, self.as_fraction(), *values))
            return method(self, *args)

        return run

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv"):
        monkeypatch.setattr(RatFunc, name, counted(name))
    half = RatFunc.from_rational(Fraction(1, 2))
    assert half + half == 1 and ground_ops == [("__add__", Fraction(1, 2), Fraction(1, 2))]
    ground_ops.clear()
    config = RunConfig(checks=["iso.spherical.rank"], mode="prob", trials=2)
    assert [(r.verdict, r.trials) for r in run_checks(config).results] == [("pass", 2)]
    assert ground_ops == []


def test_full_catalog_passes_in_prob_mode(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "run", "--mode", "prob", "--trials", "2", "--format", "json", "--out", str(out)]
    )
    data = json.loads(out.read_text())
    assert [r["id"] for r in data["results"]] == check_ids()
    failing = [(r["id"], r["residual_summary"]) for r in data["results"] if r["verdict"] != "pass"]
    assert failing == []
    assert all(r["trials"] == 2 for r in data["results"])
    assert (data["overall"], code) == ("pass", 0)


def test_duality_involution_takes_the_root_a(monkeypatch):
    # abcd/q = 1 gives s = 1, and abcd/q of the dual family is 4 = a^2 with
    # a = -2: the field's own root 2 would move a, b, c and d
    point = make_params("specialized", {"q": 2, "a": -2, "b": -1, "c": 1, "d": 1})
    report = run_checks(RunConfig(checks=["duality.daha"], params=point))
    assert [(r.verdict, r.residual_summary) for r in report.results] == [("pass", "")]
    # control: a double dual taken at the wrong root must fail
    dual = Params.dual

    def wrong_root(self, root=None):
        return dual(self, None if root is None else -root)

    monkeypatch.setattr(Params, "dual", wrong_root)
    runner = verify._CATALOG_BY_ID["duality.daha"].runner
    bounds = {"max_mn": 1, "max_degree": 0, "max_n": 0}
    assert runner(point, bounds, random.Random(0)) == "dual of dual moved parameter a"


def test_duality_aw_fails_when_the_map_keeps_word_order(monkeypatch, sym):
    # an anti-map that does not reverse words is an algebra map, not duality
    monkeypatch.setattr(Element, "map_letters_reversed", Element.map_letters)
    runner = verify._CATALOG_BY_ID["duality.aw"].runner
    bounds = {"max_mn": 1, "max_degree": 0, "max_n": 0}
    at_symbolic = runner(sym, bounds, random.Random(0))
    # the failure names the moved point, where d in a residual reads as s
    assert at_symbolic.startswith("at symbolic;d->qd^2/(abc): ")
    assert runner(random_params_mod_p(random.Random(1)), bounds, random.Random(0))


def test_duality_aw_embeds_no_relation_image(monkeypatch, sym):
    # the relations' images are corollaries named in the statement: the row
    # embeds the two sides of the Casimir scaling and nothing else
    calls = Counter()
    for name in ("embed_aw", "iso_image"):
        function = getattr(aw3, name)

        def counted(*args, _name=name, _function=function):
            calls[_name] += 1
            return _function(*args)

        monkeypatch.setattr(aw3, name, counted)
    runner = verify._CATALOG_BY_ID["duality.aw"].runner
    assert runner(sym, {"max_mn": 1, "max_degree": 0, "max_n": 0}, random.Random(0)) == ""
    assert calls == {"embed_aw": 2}


@pytest.mark.parametrize("which", ["sym", "modp"])
def test_duality_aw_control_catches_a_blind_scalar_comparison(monkeypatch, which, request):
    # with the Casimir scalar read as 0 at both ends, qa/(bcd) passes and so
    # does its reciprocal, which the control rejects
    structure_constants = aw3.structure_constants
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())  # no point's constants memoized
    monkeypatch.setattr(
        aw3, "structure_constants",
        lambda point: structure_constants(point)._replace(Q0=RatFunc.zero()),
    )
    runner = verify._CATALOG_BY_ID["duality.aw"].runner
    failure = runner(_point(which, request), {"max_mn": 1, "max_degree": 0, "max_n": 0},
                     random.Random(0))
    assert "control: dual Casimir scalar is also bcd/(qa)" in failure


def test_duality_aw_control_is_moot_where_the_factor_is_its_reciprocal():
    # qa = bcd = 6 and abcd/q = 9: the reciprocal is no perturbation, and the row passes
    point = make_params("specialized", {"q": 2, "a": 3, "b": 1, "c": 2, "d": 3})
    report = run_checks(RunConfig(checks=["duality.aw"], params=point))
    assert [(r.verdict, r.residual_summary) for r in report.results] == [("pass", "")]


def _counted(monkeypatch, name):
    """The first arguments of every call of family's ``name``, as they run."""
    calls, function = [], getattr(family, name)

    def counted(n, *args):
        calls.append(n)
        return function(n, *args)

    monkeypatch.setattr(family, name, counted)
    return calls


def test_symmetry_check_builds_no_polynomial(monkeypatch, gpoint):
    # beta_k and gamma_k, k < max_n, are compared, and no P_n is built
    built = _counted(monkeypatch, "_pn_terms")
    coefficients = _counted(monkeypatch, "_coefficients")
    runner = verify._CATALOG_BY_ID["symmetry.abcd"].runner
    assert runner(gpoint, {"max_mn": 1, "max_degree": 0, "max_n": 5}, random.Random(0)) == ""
    assert built == []
    # each k < 5 unswapped once and at both swaps, and the control's k = 0
    assert sorted(coefficients) == sorted([*range(5)] * 3 + [0, 0])
    # the degree follows --max-n
    coefficients.clear()
    assert runner(gpoint, {"max_mn": 1, "max_degree": 0, "max_n": 2}, random.Random(0)) == ""
    assert sorted(coefficients) == [0] * 5 + [1] * 3
    # the counters count: eigen.Pn builds P_0 and P_1
    eigen = verify._CATALOG_BY_ID["eigen.Pn"].runner
    assert eigen(gpoint, {"max_mn": 1, "max_degree": 0, "max_n": 1}, random.Random(0)) == ""
    assert built == [0, 1]


def _point(which, request):
    if which == "modp":
        return random_params_mod_p(random.Random(3))
    return request.getfixturevalue(which)


@pytest.mark.parametrize("which", ["sym", "gpoint", "modp"])
def test_symmetry_control_fails_on_a_blind_comparison(monkeypatch, which, request):
    params = _point(which, request)
    runner = verify._CATALOG_BY_ID["symmetry.abcd"].runner
    bounds = {"max_mn": 1, "max_degree": 0, "max_n": 3}
    # the control is a statement over Q(q,a,b,c,d): a point with a = b passes
    equal = make_params("specialized", {"q": Fraction(3, 2), "a": 2, "b": 2, "c": 5, "d": 7})
    assert runner(equal, bounds, random.Random(0)) == ""
    # a closed form not symmetric under the swaps fails the comparison ...
    rows = family._CLOSED_FORMS["A"]
    monkeypatch.setitem(family._CLOSED_FORMS, "A", (rows[0], (("ab", 1, 1, 1), *rows[1][1:])))
    summary = runner(params, bounds, random.Random(0))
    assert summary.startswith("beta_0 changes under swapping a and b: ")
    monkeypatch.setitem(family._CLOSED_FORMS, "A", rows)
    # ... and a comparison blind to every difference fails the control
    monkeypatch.setattr(family, "_reduced", lambda terms, values: RatFunc.zero())
    summary = runner(params, bounds, random.Random(0))
    assert summary == "control: A_0 does not change under swapping a and b"


@pytest.fixture
def field_ops(monkeypatch):
    """The values over keyed denominators, as they are built: the scalars
    whose reduced denominator is not a monomial."""
    built = []
    keyed = laurent._keyed

    def counted_keyed(*args):
        out = keyed(*args)
        if type(out) is laurent._Keyed:
            built.append(out)
        return out

    monkeypatch.setattr(laurent, "_keyed", counted_keyed)
    # the counter counts: 1 + q has no single-term inverse
    (RatFunc.one() + RatFunc.gen("q")).inv()
    assert len(built) == 1
    built.clear()
    return built


def test_symbolic_checks_take_no_general_gcd(monkeypatch, field_ops, sym):
    """Work gate: over symbolic parameters these checks only meet monomial
    denominators, so no value over keyed denominators is built."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    bounds = {"max_mn": 1, "max_degree": 2, "max_n": 2}
    for spec in CHECK_CATALOG:
        assert spec.runner(sym, bounds, random.Random(0)) == "", spec.id
    assert len(field_ops) == 0
    # the counter sees a keyed value: 1 - ab has no single-term inverse
    a, b = sym.value("a"), sym.value("b")
    inverse = (RatFunc.one() - a * b).inv()
    assert type(inverse.r0) is laurent._Keyed and field_ops == [inverse.r0]
    assert inverse * (RatFunc.one() - a * b) == RatFunc.one()


def test_symbolic_eigen_check_at_degree_six_takes_no_general_gcd(field_ops, sym):
    runner = verify._CATALOG_BY_ID["eigen.Pn"].runner
    assert runner(sym, {"max_mn": 1, "max_degree": 0, "max_n": 6}, random.Random(0)) == ""
    assert field_ops == []


@pytest.mark.parametrize("check_id", ["recurrence", "symmetry.abcd"])
def test_symbolic_family_checks_at_degree_eight_take_no_general_gcd(field_ops, sym, check_id):
    """Work gate: at the default --max-n 8 the closed forms and the cleared
    coordinates of P_n meet only monomial denominators."""
    runner = verify._CATALOG_BY_ID[check_id].runner
    assert runner(sym, {"max_mn": 1, "max_degree": 0, "max_n": 8}, random.Random(0)) == ""
    assert field_ops == []


def test_center_check_forms_each_commutator_once(monkeypatch):
    """Work gate: the control reads the Z blocks of the commutators the
    kernel has formed: 38 basis elements times 3 generators times 2 basis
    products, where forming the Z commutators again took 304 products."""
    calls, product = [], ncalg.RewriteSystem._product

    def counted(self, key1, key2, spent=None):
        if spent is None:  # a product asked for, not a sub-product of one
            calls.append((key1, key2))
        return product(self, key1, key2, spent)

    monkeypatch.setattr(ncalg.RewriteSystem, "_product", counted)
    point = random_params_mod_p(random.Random(3))
    assert verify._CATALOG_BY_ID["center.daha"].runner(point, {}, random.Random(0)) == ""
    assert len(calls) == 228


RANK_CHECKS = ("iso.spherical.rank", "iso.antispherical.rank", "centralizer.t1", "center.daha")


def test_multiplicativity_controls_catch_a_vacuous_map(monkeypatch, gpoint):
    # a map that sends everything to zero satisfies every multiplicativity
    # identity (test_acceptance.py::test_05 has the compression's control);
    # under the rank certificates its images have rank 0, which proves nothing
    monkeypatch.setattr(ncalg.RewriteSystem, "_iso_image", lambda self, family, terms: {})
    bounds = {"max_mn": 1, "max_degree": 0, "max_n": 0}
    for check_id in RANK_CHECKS[:2]:
        with pytest.raises(DegenerateParameters, match=f"rank drops at {gpoint.label}$"):
            verify._CATALOG_BY_ID[check_id].runner(gpoint, bounds, random.Random(0))


def _rank_dropping_at(monkeypatch, drops):
    """Patch the rank routine to return one less at the points where
    ``drops(point, seen)`` holds, ``seen`` being the list of points it has
    met so far, in order; returns that list."""
    rank, seen = aw3._rank, []

    def patched(vectors, params):
        if params not in seen:
            seen.append(params)
        return rank(vectors, params) - drops(params, seen)

    monkeypatch.setattr(aw3, "_rank", patched)
    return seen


@pytest.mark.parametrize("check_id", RANK_CHECKS)
def test_rank_certificate_redraws_after_a_drop(monkeypatch, check_id):
    seen = _rank_dropping_at(monkeypatch, lambda params, seen: params == seen[0])
    (result,) = run_checks(RunConfig(checks=[check_id], mode="exact")).results
    assert (result.verdict, result.residual_summary, len(seen)) == ("pass", "", 2)


@pytest.mark.parametrize("check_id", RANK_CHECKS)
def test_rank_certificate_that_always_drops_is_an_error(monkeypatch, gpoint, check_id):
    seen = _rank_dropping_at(monkeypatch, lambda params, seen: True)
    (result,) = run_checks(RunConfig(checks=[check_id], mode="exact")).results
    assert result.verdict == "error"
    summary = result.residual_summary
    assert summary.startswith("DegenerateParameters: degenerate parameters: rank drops at q=")
    assert [point.label for point in seen] == summary.split("rank drops at ")[1].split("; ")
    assert len(seen) == 3
    # at a given point the point itself is the only witness
    (result,) = run_checks(RunConfig(checks=[check_id], params=gpoint)).results
    assert result.verdict == "error"
    assert result.residual_summary.endswith(f"rank drops at {gpoint.label}")


def _rank_summary(monkeypatch, check_id, point, **patches):
    for name, value in patches.items():
        monkeypatch.setattr(aw3, name, value)
    return verify._CATALOG_BY_ID[check_id].runner(point, {}, random.Random(0))


@pytest.mark.parametrize("which", ["gpoint", "modp"])
def test_rank_certificates_fail_on_planted_defects(monkeypatch, which, request):
    point = random_params_mod_p(random.Random(3)) if which == "modp" else request.getfixturevalue(which)
    rank, system = aw3._rank, ncalg.RewriteSystem
    for check_id in RANK_CHECKS:
        assert verify._CATALOG_BY_ID[check_id].runner(point, {}, random.Random(0)) == ""
    # a rank routine blind to dependencies breaks each control
    count = lambda vectors, params: len(list(vectors))
    assert _rank_summary(monkeypatch, "iso.spherical.rank", point, _rank=count) == (
        "control: rank 21 with J(K0) = 2 J(K1)"
    )
    assert _rank_summary(monkeypatch, "center.daha", point, _rank=count) == (
        "the scalars do not commute with every generator"
    )
    assert _rank_summary(monkeypatch, "centralizer.t1", point, _rank=count) == (
        "embedded rank 26 exceeds the kernel dimension 0"
    )
    one_short = lambda vectors, params: len(list(vectors)) - 1
    assert _rank_summary(monkeypatch, "center.daha", point, _rank=one_short) == (
        "control: kernel 1 for Z alone"
    )
    monkeypatch.setattr(aw3, "_rank", rank)
    # embedded words that leave the box or do not commute with T1
    embed_word = system._embed_word
    for key, word in (((3, 0, 0), "K1"), ((1, 0, 0), "K0 K1")):
        wrong = lambda self, w, word=tuple(word.split()), key=key: (
            {key: self._lift_one} if w == word else embed_word(self, w)
        )
        monkeypatch.setattr(system, "_embed_word", wrong)
        summary = _rank_summary(monkeypatch, "centralizer.t1", point)
        assert summary == f"embedded {word} leaves the box or does not commute with T1"
    monkeypatch.setattr(system, "_embed_word", embed_word)
    # basis products under which everything commutes accept Z, and make the
    # center everything
    product = system._product
    monkeypatch.setattr(system, "_product", lambda self, key1, key2, spent=None: {})
    assert _rank_summary(monkeypatch, "centralizer.t1", point) == (
        "control: Z accepted in place of an embedded word"
    )
    with pytest.raises(DegenerateParameters, match="rank drops at"):
        _rank_summary(monkeypatch, "center.daha", point)
    monkeypatch.setattr(system, "_product", product)
    # a dependent image is a drop, never a fail
    iso_image = system._iso_image
    dependent = lambda self, family, terms: iso_image(
        self, family, {("K1",): self._lift_one} if ("K0",) in terms else terms
    )
    monkeypatch.setattr(system, "_iso_image", dependent)
    with pytest.raises(DegenerateParameters, match="rank drops at"):
        _rank_summary(monkeypatch, "iso.spherical.rank", point)


def _counted_settles(monkeypatch):
    """The number of RewriteSystem._settle calls, as they run."""
    calls, settle = [0], ncalg.RewriteSystem._settle

    def counted(self, acc):
        calls[0] += 1
        return settle(self, acc)

    monkeypatch.setattr(ncalg.RewriteSystem, "_settle", counted)
    return calls


def test_rank_settles_once_per_vector(monkeypatch):
    """Work gate: _rank eliminates each vector in place, reducing only the
    coefficients at pivot keys it reads, and settles it once; a pivot row
    is kept as it is, so no settle is made per pivot.  The kernel images of
    center.daha are read without re-lifting."""
    point = random_params_mod_p(random.Random(3))
    span = range(-3, 4)
    box = [(m, n, i) for m in span for n in span for i in (0, 1) if abs(m) + abs(n) + i <= 3]
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    checks._kernel(point, box, gens)  # warm the products
    settles = _counted_settles(monkeypatch)
    kernel, images = checks._kernel(point, box, gens)
    assert (len(images), kernel, settles[0]) == (38, 1, 38)


def _new_modp_count(monkeypatch):
    """The number of ModP objects built, as they are built."""
    built, new, init = [0], modp._new, modp.ModP.__init__

    def counted_new(cls):
        built[0] += cls is modp.ModP
        return new(cls)

    def counted_init(self, value):
        built[0] += 1
        init(self, value)

    monkeypatch.setattr(modp, "_new", counted_new)
    monkeypatch.setattr(modp.ModP, "__init__", counted_init)
    return built


def test_warm_gfp_verdicts_build_no_modp(monkeypatch):
    """Work gate: at a warm point of GF(p) the rank certificates, every step
    row, recurrence and symmetry.abcd reach their verdicts on int residues,
    and so do eigen.Pn's residuals: one passing trial builds no ModP.  The
    commutators are differences of memoized basis products, the step
    residual is read only where a row fails, and the family identities are
    summed at the point from the values their terms carry."""
    point = random_params_mod_p(random.Random(11))
    bounds = {"max_mn": 3, "max_degree": 16, "max_n": 8}
    step_ids = [spec.id for spec in CHECK_CATALOG if spec.id.startswith(("step", "astep"))]
    runners = [verify._CATALOG_BY_ID[cid].runner for cid in (*RANK_CHECKS, *step_ids)]
    runners += [verify._CATALOG_BY_ID[cid].runner for cid in ("recurrence", "symmetry.abcd")]

    def trial():
        for runner in runners:
            assert runner(point, bounds, random.Random(0)) == ""
        for monic, eigen in family.check_eigen_in_rep(bounds["max_n"], point):
            assert not monic and not any(eigen)

    trial()
    built = _new_modp_count(monkeypatch)
    point.vals[0] * point.vals[1]  # the counter counts
    assert built == [1]
    built[0] = 0
    trial()
    assert built == [0]


@pytest.mark.parametrize("which", ["sym", "gpoint", "modp"])
def test_relations_check_resolves_every_overlap(which, request):
    params = random_params_mod_p(random.Random(3)) if which == "modp" else request.getfixturevalue(which)
    pairs = list(ncalg.RewriteSystem(params).critical_pairs())
    assert len(pairs) == 25
    assert all(nf.is_zero() for _, nf in pairs)
    runner = verify._CATALOG_BY_ID["relations-daha"].runner
    bounds = {"max_mn": 1, "max_degree": 0, "max_n": 0}
    assert runner(params, bounds, random.Random(0)) == ""


def test_relations_check_fails_on_a_perturbed_rule(monkeypatch, gpoint):
    # raise a coefficient of the Y*Z rule: the check must name an overlap
    init = ncalg.RewriteSystem.__init__

    def perturbed(self, params):
        init(self, params)
        first, (word, coef), *rest = self.rules[("Y", "Z")]
        self.rules[("Y", "Z")] = (first, (word, coef + ONE), *rest)

    monkeypatch.setattr(ncalg.RewriteSystem, "__init__", perturbed)
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    runner = verify._CATALOG_BY_ID["relations-daha"].runner
    summary = runner(gpoint, {"max_mn": 1, "max_degree": 0, "max_n": 0}, random.Random(0))
    assert summary.startswith("overlap ") and "does not resolve" in summary
    unresolved = [xyz for xyz, nf in ncalg.RewriteSystem(gpoint).critical_pairs() if not nf.is_zero()]
    assert 0 < len(unresolved) < 25


@pytest.mark.parametrize("which", ["gpoint", "modp"])
def test_relations_control_stops_at_its_first_unresolved_overlap(monkeypatch, which, request):
    """Work gate: the critical pairs are reduced as they are read, so the
    perturbed T1*Z control stops at its first unresolved overlap, the second
    of the 25, where reducing all of them took about 3 ms per GF(p) trial."""
    params = _point(which, request)
    systems, reduce_terms = [], ncalg.RewriteSystem.reduce_terms

    def counted(self, *args, **kwargs):
        systems.append(self)
        return reduce_terms(self, *args, **kwargs)

    monkeypatch.setattr(ncalg.RewriteSystem, "reduce_terms", counted)
    runner = verify._CATALOG_BY_ID["relations-daha"].runner
    assert runner(params, {"max_mn": 1, "max_degree": 0, "max_n": 0}, random.Random(0)) == ""
    shared = ncalg.rewrite_system(params)
    assert sum(system is shared for system in systems) == 25
    assert 1 <= sum(system is not shared for system in systems) <= 2


def _perturbed_relations_summary(monkeypatch, params, change):
    """The relations-daha summary with ``change`` applied to every rule table."""
    init = ncalg.RewriteSystem.__init__

    def perturbed(self, params):
        init(self, params)
        change(self)

    monkeypatch.setattr(ncalg.RewriteSystem, "__init__", perturbed)
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    runner = verify._CATALOG_BY_ID["relations-daha"].runner
    return runner(params, {"max_mn": 1, "max_degree": 0, "max_n": 0}, random.Random(0))


def test_relations_check_names_a_rule_that_breaks_the_order(monkeypatch, gpoint):
    def append(system):
        system.rules[("Y", "Yi")] += ((("Zi", "Y"), system.one),)

    summary = _perturbed_relations_summary(monkeypatch, gpoint, append)
    assert summary == "rule Y*Yi: right-side word Zi Y is not below its left side"


def test_relations_check_names_a_pair_without_a_rule(monkeypatch, gpoint):
    def drop(system):
        del system.rules[("Yi", "Y")]

    summary = _perturbed_relations_summary(monkeypatch, gpoint, drop)
    assert summary == "letter pair Yi*Y: having a rule disagrees with being a basis word"


@pytest.mark.parametrize(
    "method, summary",
    [
        ("critical_pairs", "perturbed T1*Z rule still resolves every overlap"),
        ("termination_failures", "T1*Z rule with Z^-1 Y appended still lies in the order"),
    ],
)
def test_relations_check_controls_fail_on_their_own(monkeypatch, gpoint, method, summary):
    # a certificate part that passes everything leaves its control failing
    monkeypatch.setattr(ncalg.RewriteSystem, method, lambda self: [])
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    runner = verify._CATALOG_BY_ID["relations-daha"].runner
    assert runner(gpoint, {"max_mn": 1, "max_degree": 0, "max_n": 0}, random.Random(0)) == summary


def _perturbed(monkeypatch, name, n_bad, change):
    """Apply ``change`` to what family's ``name`` returns for P_(n_bad)."""
    function = getattr(family, name)

    def patched(n, values):
        out = function(n, values)
        return change(out) if n == n_bad else out

    monkeypatch.setattr(family, name, patched)


def test_eigen_check_fails_on_a_wrong_coordinate(monkeypatch, sym, gpoint):
    # 1 - ab q^1 in place of the 4phi3 factor 1 - ab q^0 of P_2
    def change(rows):
        (rise, step, fall, (_, ac, ad)), *rest = rows
        return [(rise, step, fall, (("ab", 1), ac, ad)), *rest]

    _perturbed(monkeypatch, "_pn_factors", 2, change)
    runner = verify._CATALOG_BY_ID["eigen.Pn"].runner
    for params in (sym, gpoint, random_params_mod_p(random.Random(3))):
        summary = runner(params, {"max_mn": 1, "max_degree": 0, "max_n": 3}, random.Random(0))
        assert summary.startswith("eigenvalue equation fails at n=2, k=0: ")


def test_eigen_check_fails_on_a_wrong_normaliser(monkeypatch, sym, gpoint):
    # the monic identity c~_n (-a)^n q^(n(n-1)/2) = N_n is computed, not built in
    _perturbed(monkeypatch, "_pn_terms", 3, lambda out: (out[0], (out[1][0] + 1, *out[1][1:])))
    runner = verify._CATALOG_BY_ID["eigen.Pn"].runner
    for params in (sym, gpoint, random_params_mod_p(random.Random(3))):
        summary = runner(params, {"max_mn": 1, "max_degree": 0, "max_n": 3}, random.Random(0))
        assert summary == "P_3 is not monic"


def test_step_check_failure_summaries(monkeypatch):
    # a step check fails on a perturbed row; a group names the failing row
    point = make_params(
        "specialized", {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5, "d": 7}
    )
    bounds = {"max_mn": 2, "max_degree": 0, "max_n": 0}
    perturb = ((1, 0, 0, 0, 0),)
    row = steps.STEP_IDENTITIES["49"]
    leading = {**row.leading, (1, 1): row.leading[(1, 1)] + perturb}
    monkeypatch.setitem(
        steps.STEP_IDENTITIES, "49", row._replace(leading=leading)
    )
    # the step-3 scalar's perturbation keeps the u-exponent its signs force,
    # so the row reaches its (1, 1) evaluation
    row = steps.STEP_IDENTITIES["sph3.3"]
    monkeypatch.setitem(
        steps.STEP_IDENTITIES, "sph3.3", row._replace(scalar=row.scalar + ((1, 0, 0, 0, -1),))
    )

    def summary(check_id):
        return verify._CATALOG_BY_ID[check_id].runner(point, bounds, random.Random(0))

    assert summary("step.49").startswith("(m,n)=(1,1): ")
    assert summary("step3.spherical").startswith("sph3.3 (m,n)=(1,1): ")
    assert summary("step.50") == ""


def test_given_point_runs_exact_there():
    # a prob-default check runs once, exactly, at a user-given point: the
    # point ac = 1 makes gamma_1 vanish, where random points would pass
    degenerate = make_params(
        "specialized", {"q": Fraction(3, 2), "a": 2, "b": 3, "c": Fraction(1, 2), "d": 7}
    )
    report = run_checks(RunConfig(checks=["recurrence"], params=degenerate))
    (result,) = report.results
    assert (result.verdict, result.trials) == ("fail", 1)
    assert result.residual_summary == "gamma_1 = 0"
    generic = make_params(
        "specialized", {"q": Fraction(3, 2), "a": 2, "b": 3, "c": 5, "d": 7}
    )
    report = run_checks(RunConfig(checks=["recurrence"], params=generic))
    (result,) = report.results
    assert (result.verdict, result.trials) == ("pass", 1)
    assert report.overall == "pass"


@pytest.mark.parametrize("which", ["sym", "gpoint", "modp"])
def test_recurrence_check_fails_on_a_broken_family(monkeypatch, which, request):
    # a residual of the recurrence is a verdict, not an error: 1 - bc q^n in
    # place of the factor 1 - bc q^(n-1) of C_n shows first at n = 1, since
    # C_0 has the factor 1 - q^0 = 0
    params = _point(which, request)
    power, (one, bc, *rest) = family._CLOSED_FORMS["C"]
    monkeypatch.setitem(family._CLOSED_FORMS, "C", (power, (one, ("bc", 1, 0, 1), *rest)))
    runner = verify._CATALOG_BY_ID["recurrence"].runner
    assert runner(params, {"max_mn": 1, "max_degree": 0, "max_n": 0}, random.Random(0)) == ""
    summary = runner(params, {"max_mn": 1, "max_degree": 0, "max_n": 4}, random.Random(0))
    assert summary.startswith("three-term recurrence fails at n=1, ")


@pytest.mark.parametrize("which", ["sym", "gpoint", "modp"])
def test_recurrence_check_reads_the_n0_relation(monkeypatch, which, request):
    # (z + z^-1) P_0 = P_1 + beta_0 P_0 has no gamma term: P_1 with a wrong
    # 4phi3 factor must show in the relation at n = 0
    def change(rows):
        ((rise, step, fall, (_, ac, ad)),) = rows
        return [(rise, step, fall, (("ab", 1), ac, ad))]

    _perturbed(monkeypatch, "_pn_factors", 1, change)
    runner = verify._CATALOG_BY_ID["recurrence"].runner
    bounds = {"max_mn": 1, "max_degree": 0, "max_n": 2}
    summary = runner(_point(which, request), bounds, random.Random(0))
    assert summary.startswith("three-term recurrence fails at n=0, k=0: "), summary


def test_recurrence_obeys_max_n_and_builds_each_polynomial_once(monkeypatch, sym):
    built = _counted(monkeypatch, "_pn_factors")
    coefficients = _counted(monkeypatch, "_coefficients")
    runner = verify._CATALOG_BY_ID["recurrence"].runner
    assert runner(sym, {"max_mn": 1, "max_degree": 0, "max_n": 2}, random.Random(0)) == ""
    assert built == [0, 1, 2, 3]
    assert coefficients == [0, 1, 2]


def test_casimir_check_builds_the_casimir_element_once(monkeypatch, gpoint):
    # once at the true structure constants and once at the perturbed-B control's
    built = []
    quotient_relations = polyrep.quotient_relations

    def counted(params, sc=None):
        built.append(params)
        return quotient_relations(params, sc)

    monkeypatch.setattr(polyrep, "quotient_relations", counted)
    runner = verify._CATALOG_BY_ID["casimir.scalar"].runner
    assert runner(gpoint, {"max_mn": 1, "max_degree": 3, "max_n": 0}, random.Random(0)) == ""
    assert built == [gpoint, gpoint]


def test_point_constants_and_relations_are_built_once_per_point(monkeypatch, sym):
    """Work gate: the rows that read a point's structure constants or its
    relations (the embed rows, idempotents and both relation rows on phi_k)
    build each once per distinct point, kept by the point's rewrite system;
    each perturbed-B control builds its own relations.  Each row building its
    own took 6 structure_constants and 8 aw_relations builds per point."""
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())
    constants, relations = [], []
    structure_constants, aw_relations = aw3.structure_constants, aw3.aw_relations

    def counted_constants(params):
        constants.append(params)
        return structure_constants(params)

    def counted_relations(params, sc=None):
        if sc is not None:  # a build; None reads the point's own
            relations.append(params)
        return aw_relations(params, sc)

    monkeypatch.setattr(aw3, "structure_constants", counted_constants)
    monkeypatch.setattr(aw3, "aw_relations", counted_relations)
    ids = ("embed.rel34", "embed.rel35", "embed.rel36", "embed.t1central", "idempotents",
           "casimir.scalar", "awrel.inrep")
    points = [sym, random_params_mod_p(random.Random(3))]
    for point in points:
        for check_id in ids:
            runner = verify._CATALOG_BY_ID[check_id].runner
            assert runner(point, {"max_degree": 1, "max_n": 0}, random.Random(0)) == "", check_id
    assert constants == points
    assert Counter(relations) == {point: 3 for point in points}  # 1 + 2 controls


def test_family_identities_fall_back_where_a_factor_vanishes_mod_p(monkeypatch):
    """At a point of GF(p) where 1 - ac vanishes, the sum of a family
    identity at the point decides nothing; _reduced divides out the factors
    its terms share instead, as at a rational point.  There the recurrence
    holds and gamma_1 = A_0 C_1 vanishes, as at q=3/2,a=2,b=3,c=1/2,d=7."""
    q, a, b, _, d = random_params_mod_p(random.Random(5)).vals
    point = Params((q, a, b, a.inv(), d), 16, "ac = 1 mod 2^61-1")
    values, key = polyrep._Factors(*polyrep._lifted(point)), ("ac", 0)
    assert values[key] == 0
    # one term: its value at the point is 0, its reduced value its scalar
    term = values.term(3, {key: 1})
    assert term[2] is None
    assert family._reduced([term], values) == 3
    assert family._reduced([term, values.term(-3, {key: 1})], values) == 0
    assert values.term(3, {key: 1, ("ab", 0): 1})[2] is None
    # the recurrence: rows whose terms carry 1 - ac are reduced, the others summed
    rows, reduced = [], family._reduced

    def recorded(terms, values):
        carried = any(term[1].get(key, 0) > 0 for term in terms)
        rows.append((carried, all(term[2] is not None for term in terms)))
        return reduced(terms, values)

    monkeypatch.setattr(family, "_reduced", recorded)
    runner = verify._CATALOG_BY_ID["recurrence"].runner
    bounds = {"max_mn": 1, "max_degree": 0, "max_n": 4}
    assert runner(point, bounds, random.Random(0)) == "gamma_1 = 0"
    assert (True, False) in rows and (False, True) in rows
    assert (True, True) not in rows


REP_CHECKS = ("casimir.scalar", "awrel.inrep")


def _rep_summary(check_id, params, max_degree=RunConfig().max_degree) -> str:
    runner = verify._CATALOG_BY_ID[check_id].runner
    return runner(params, {"max_mn": 1, "max_degree": max_degree, "max_n": 0}, random.Random(0))


def test_default_degree_decides_every_degree(sym):
    # the coordinates of a length-L word's image of phi_k are Laurent polynomials
    # in q^k with exponents in [-L, 3L], so 4L + 1 distinct powers of q decide them
    longest = max(len(w) for rel in aw3.quotient_relations(sym).values() for w in rel.terms)
    assert RunConfig().max_degree == 4 * longest == params_module._GENERICITY_BOUND


@pytest.mark.parametrize("which", ["sym", "gpoint", "modp"])
def test_rep_checks_never_meet_the_z_form(monkeypatch, which, request):
    params = _point(which, request)

    def refuse(*args):
        raise AssertionError("a check converted between z-form and coordinates")

    monkeypatch.setattr(polyrep, "_to_phi", refuse)
    monkeypatch.setattr(polyrep, "_from_phi", refuse)
    for check_id in REP_CHECKS:
        assert _rep_summary(check_id, params) == "", check_id


def _planted_constant(monkeypatch, name):
    # structure_constants as the checks see it, with the named constant plus one
    true = aw3.structure_constants
    monkeypatch.setattr(ncalg, "_SYSTEMS", OrderedDict())  # no point's constants memoized

    def planted(params):
        sc = true(params)
        return sc._replace(**{name: getattr(sc, name) + ONE})

    monkeypatch.setattr(aw3, "structure_constants", planted)


@pytest.mark.parametrize("which", ["sym", "modp"])
def test_rep_checks_fail_on_a_wrong_b(monkeypatch, which, request):
    params = _point(which, request)
    _planted_constant(monkeypatch, "B")
    assert _rep_summary("casimir.scalar", params, 0).startswith("casimir on phi_0: ")
    assert _rep_summary("awrel.inrep", params, 0).startswith("rel1 on phi_0: ")


@pytest.mark.parametrize("which", ["sym", "modp"])
def test_casimir_check_fails_on_a_wrong_q0(monkeypatch, which, request):
    params = _point(which, request)
    _planted_constant(monkeypatch, "Q0")
    # the relation's scalar term drops by one: the residual is -phi_0, -1 read in
    # the field of the point
    minus_one = str(-(params.value("q") ** 0))
    assert _rep_summary("casimir.scalar", params, 0) == f"casimir on phi_0: phi_0: {minus_one}"
    assert _rep_summary("awrel.inrep", params, 0) == ""


@pytest.mark.parametrize("check_id", REP_CHECKS)
def test_rep_check_controls_fail_on_their_own(monkeypatch, gpoint, check_id):
    # a control whose perturbation changes nothing is reported
    monkeypatch.setattr(params_module.StructureConstants, "_replace", lambda sc, **changes: sc)
    assert _rep_summary(check_id, gpoint, 0) == "perturbed-B control unexpectedly passed"


@pytest.mark.parametrize("which", ["sym", "modp"])
def test_rep_checks_fail_on_a_wrong_operator_entry_at_degree_twelve(monkeypatch, which, request):
    # a wrong mu_12 is out of reach of the words on phi_k, k <= 6, but not of
    # the default size
    params = _point(which, request)
    grow = polyrep._Basis.grow

    def planted(basis, size):
        fresh = len(basis.mu) <= 12
        grow(basis, size)
        if fresh and len(basis.mu) > 12:
            basis.mu[12] = basis.mu[12] + 1
        return basis

    monkeypatch.setattr(polyrep._Basis, "grow", planted)
    for check_id in REP_CHECKS:
        assert _rep_summary(check_id, params, 6) == "", check_id
        assert " on phi_" in _rep_summary(check_id, params), check_id


def test_reports_deterministic_for_fixed_seed(tmp_path):
    config = RunConfig(checks=["idempotents", "symmetry.abcd"], trials=2, seed=7)
    paths = []
    for run in range(2):
        report = run_checks(config)
        report = report._replace(results=[r._replace(elapsed_ms=0) for r in report.results])
        path = tmp_path / f"run{run}.json"
        emit_report(report, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# Reports


def test_report_json_round_trip(tmp_path):
    report = run_checks(RunConfig(checks=["idempotents"]))
    path = tmp_path / "report.json"
    emit_report(report, str(path))
    loaded = load_report(str(path))
    assert loaded.to_dict() == report.to_dict()
    data = json.loads(path.read_text())
    assert data["overall"] == "pass"
    assert data["seed"] == 1729
    # keys the report format does not know are ignored; a missing one is named
    data["note"] = "extra"
    data["results"][0]["note"] = "extra"
    path.write_text(json.dumps(data))
    assert load_report(str(path)).to_dict() == report.to_dict()
    del data["results"][0]["trials"]
    path.write_text(json.dumps(data))
    with pytest.raises(KeyError, match="trials"):
        load_report(str(path))


def test_render_text_one_line_per_check():
    report = run_checks(RunConfig(checks=["embed.t1central", "idempotents"]))
    text = render_text(report)
    lines = text.splitlines()
    assert len(lines) == 3 + len(report.results) + 1
    assert lines[0] == f"tool_version {TOOL_VERSION}"
    assert lines[-1] == "overall pass"
    assert any(line.startswith("idempotents") for line in lines)


def test_emit_report_text_format_and_unknown(tmp_path):
    report = run_checks(RunConfig(checks=["idempotents"]))
    path = tmp_path / "report.txt"
    emit_report(report, str(path), format="text")
    assert path.read_text() == render_text(report)
    with pytest.raises(ConfigError):
        emit_report(report, str(tmp_path / "report.yaml"), format="yaml")


# ---------------------------------------------------------------------------
# Expression parsing


def test_parse_quadratic_product(sym):
    v = sym.values()
    ab = v["a"] * v["b"]
    e = parse_expression("(T1+1)*(T1+a*b)")
    assert e.terms == {("T1", "T1"): ONE, ("T1",): ab + 1, (): ab}


def test_parse_negative_powers_and_scalars():
    e = parse_expression("Y^-2")
    assert e.terms == {("Yi", "Yi"): ONE}
    e = parse_expression("T1/2")
    assert e.terms == {("T1",): RatFunc.from_rational(Fraction(1, 2))}
    e = parse_expression("q^-1*a")
    q, a = RatFunc.gen("q"), RatFunc.gen("a")
    assert e.terms == {(): a / q}


def test_parse_merges_equal_words():
    e = parse_expression("T1*T1 + T1*T1")
    assert e.terms == {("T1", "T1"): RatFunc.from_rational(2)}


def test_parse_aw_alphabet():
    e = parse_expression("q*K0*K1 - 2*K1", alphabet="aw")
    q = RatFunc.gen("q")
    assert e.terms == {("K0", "K1"): q, ("K1",): RatFunc.from_rational(-2)}
    with pytest.raises(ParseError):
        parse_expression("Y", alphabet="aw")
    with pytest.raises(ConfigError):
        parse_expression("T1", alphabet="hecke")


def test_parse_cancellation_drops_words():
    e = parse_expression("Z*Y - Z*Y")
    assert e.terms == {}


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_expression("T1 + W0")
    assert info.value.position == 5
    assert "T1" in info.value.expected

    with pytest.raises(ParseError) as info:
        parse_expression("T1 T1")
    assert info.value.position == 3

    with pytest.raises(ParseError) as info:
        parse_expression("(T1")
    assert info.value.expected == frozenset({")"})

    with pytest.raises(ParseError):
        parse_expression("T1^-1")
    with pytest.raises(ParseError):
        parse_expression("1/(K0)", alphabet="aw")
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("T1 @ Z")


# ---------------------------------------------------------------------------
# Configuration parsing


def test_parse_param_assignments():
    out = parse_param_assignments("q=3/2, a=2,b=3,c=5,d=7")
    assert out == {
        "q": Fraction(3, 2),
        "a": Fraction(2),
        "b": Fraction(3),
        "c": Fraction(5),
        "d": Fraction(7),
    }


def test_parse_param_assignments_errors():
    with pytest.raises(ConfigError):
        parse_param_assignments("q=1,a=2,b=3,c=5,e=7")
    with pytest.raises(ConfigError):
        parse_param_assignments("q=1,a=2,b=3")
    with pytest.raises(ConfigError):
        parse_param_assignments("q=x,a=2,b=3,c=5,d=7")
    with pytest.raises(ConfigError):
        parse_param_assignments("q")


def test_parse_config_file(tmp_path):
    path = tmp_path / "verify.cfg"
    path.write_text(
        "# a comment\n"
        "\n"
        "checks = idempotents, embed.t1central\n"
        "max_mn = 4\n"
        "params = q=3/2,a=2,b=3,c=5,d=7\n"
    )
    out = parse_config_file(str(path))
    assert out == {
        "checks": "idempotents, embed.t1central",
        "max-mn": "4",
        "params": "q=3/2,a=2,b=3,c=5,d=7",
    }


def test_parse_config_file_errors(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("colour = blue\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_key))

    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_line))
