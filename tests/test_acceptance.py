"""Top-level acceptance properties, one test per criterion.

Each test is self-contained and asserts exact (rational) zero residuals;
there are no floating-point tolerances anywhere.  Runtime ceilings are
asserted where the contract states one.  Run with -v to get one
pass/fail line per criterion.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from rank1daha import verify
from rank1daha.aw3 import (
    _rank,
    compress,
    duality_image,
    embed_aw,
    iso_image,
    shift_operator_identities,
)
from rank1daha.field import RatFunc
from rank1daha.ncalg import multiply, reduce
from rank1daha.params import eigenvalue, structure_constants
from rank1daha.polyrep import apply_dsym, askey_wilson, relation_residuals
from rank1daha.reports import RunConfig
from rank1daha.steps import check_step_identity
from rank1daha.verify import run_checks
from rank1daha.words import Element, NormalForm, symmetrizer

ONE = RatFunc.one()
DAHA_LETTERS = ("T1", "Y", "Yi", "Z", "Zi")
AW_LETTERS = ("K0", "K1", "T1")


def all_pass(report):
    failures = [
        (r.id, r.verdict, r.residual_summary)
        for r in report.results
        if r.verdict != "pass"
    ]
    assert not failures, failures
    assert report.overall == "pass"


def test_01_normal_forms_budgeted_stable_and_strategy_independent(sym):
    start = time.monotonic()
    rng = random.Random(1729)
    for _ in range(100):
        word = tuple(rng.choice(DAHA_LETTERS) for _ in range(rng.randint(1, 6)))
        e = Element("daha", {word: ONE})
        left = reduce(e, sym, strategy="leftmost")
        right = reduce(e, sym, strategy="rightmost")
        assert left == right
        assert reduce(left.as_element(), sym) == left
    assert time.monotonic() - start < 30


def test_02_central_extension_embedding_kills_all_relations():
    start = time.monotonic()
    report = run_checks(
        RunConfig(
            checks=[
                "embed.rel34",
                "embed.rel35",
                "embed.rel36",
                "embed.t1central",
                "idempotents",
            ],
            mode="exact",
        )
    )
    all_pass(report)
    assert time.monotonic() - start < 120


def test_03_symmetric_compression_identities_certified(sym):
    start = time.monotonic()
    names = [
        "44", "45", "47", "48", "49", "50", "51", "52", "53", "54", "55", "56",
        "44.exact", "45.exact", "sph3.1", "sph3.2", "sph3.3", "sph3.4",
    ]
    for name in names:
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                residual, ok = check_step_identity(name, m, n, sym)
                assert ok, f"{name} at ({m}, {n}): {residual}"
    assert time.monotonic() - start < 300


def test_04_antisymmetric_compression_identities_certified(sym):
    names = [
        "a44", "a45", "a47", "a48", "a49", "a50", "a51", "a52", "a53",
        "a54", "a55", "a56", "asph3.1", "asph3.2", "asph3.3", "asph3.4",
    ]
    for name in names:
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                residual, ok = check_step_identity(name, m, n, sym)
                assert ok, f"{name} at ({m}, {n}): {residual}"


def _compression_failure(compress, family, e, params):
    """The first pair of short DAHA words U, V with FUF FVF != e FUFVF, or a
    failed control: FUF FVF = FUFVF on every pair; "" when both hold."""
    f, _ = symmetrizer(family, params)
    words = [()] + [(x,) for x in DAHA_LETTERS] + [("Z", "T1", "Yi"), ("Yi", "Zi", "T1")]
    unscaled_differs = False
    for u, v in itertools.product(words, words):
        u, v = Element("daha", {u: ONE}), Element("daha", {v: ONE})
        left = multiply(compress(family, u, params), compress(family, v, params), params)
        right = compress(family, u * f * v, params)
        if left != right.scale(e):
            return f"not multiplicative on {u} | {v}"
        unscaled_differs = unscaled_differs or left != right
    return "" if unscaled_differs else "control: FUF FVF = FUFVF on every pair"


def test_05_subalgebra_isomorphisms_multiplicative_on_short_words(sym):
    # the compression by e^-1 F is e^-2 FuF, so it is multiplicative on the
    # subalgebra exactly when FUF FVF = e FUFVF; that follows from F^2 = eF
    # and associativity, and is checked here on pairs of short words
    zero = lambda family, u, params: NormalForm.zero()
    for family in ("sym", "asym"):
        _, e = symmetrizer(family, sym)
        assert _compression_failure(compress, family, e, sym) == "", family
        # controls: the identity needs e, and a map that is zero everywhere fails
        assert _compression_failure(compress, family, e + ONE, sym).startswith(
            "not multiplicative on "
        )
        assert _compression_failure(zero, family, e, sym) == "control: FUF FVF = FUFVF on every pair"
    # the isomorphism is e^-1 J with J(U) = U~ F, so it is multiplicative
    # exactly when J(U) J(V) = e J(UV); U and V run over the K-words of
    # length <= 2, so UV over those of length <= 4
    words = [w for k in range(5) for w in itertools.product(("K0", "K1"), repeat=k)]
    for family in ("sym", "asym"):
        _, e = symmetrizer(family, sym)
        images = {w: iso_image(family, Element("aw", {w: ONE}), sym) for w in words}
        short = [w for w in words if len(w) <= 2]
        for u, v in itertools.product(short, short):
            assert multiply(images[u], images[v], sym) == images[u + v].scale(e), (family, u, v)
        # controls: the map tells K0 K1 from K1 K0, and the identity needs e
        assert multiply(images[("K0",)], images[("K1",)], sym) != images[("K1", "K0")].scale(e)
        assert multiply(images[()], images[()], sym) != images[()].scale(e + ONE)


def test_06_casimir_word_acts_as_its_scalar(sym):
    # the Casimir relation is the word combination minus Q0: it vanishes on
    # phi_k exactly when the word maps phi_k to Q0 phi_k
    for k, residual in enumerate(relation_residuals(6, sym)):
        assert not any(residual("casimir")), f"phi_{k}"


def test_07_eigenfunctions_and_distinct_eigenvalues(gpoint):
    for n in range(9):
        p = askey_wilson(n, gpoint)
        assert apply_dsym(p, gpoint) == p.scale(eigenvalue(n, gpoint)), f"n = {n}"
    lams = [eigenvalue(n, gpoint) for n in range(21)]
    assert len(set(lams)) == 21


def test_08_operator_relations_zero_with_nonzero_control(sym):
    sc = structure_constants(sym)
    constants = [sc, sc._replace(B=sc.B + ONE)]
    perturbed = []
    for k, residual in enumerate(relation_residuals(6, sym, constants)):
        for name in ("rel1", "rel2"):
            assert not any(residual(name)), f"{name} on phi_{k}"
            if k <= 1:
                perturbed.extend(residual(name, 1))
    assert any(perturbed)


def test_09_shift_operator_compressions_vanish(sym, gpoint):
    first, second = shift_operator_identities(sym)
    assert first.is_zero()
    assert second.is_zero()
    # control: dropping a factor a*b from the Y^-1 coefficient breaks it
    v = gpoint.values()
    ab, cd, q = v["a"] * v["b"], v["c"] * v["d"], v["q"]
    middle = Element(
        "daha", {("Y",): ONE, ("Yi",): ab * cd / q, (): -(ab * cd / q + ab)}
    )
    f = Element("daha", {("T1",): ONE, (): ONE})
    assert not reduce(f * middle * f, gpoint).is_zero()


def test_10_duality_anti_maps_respect_relations_and_products(spoint):
    report = run_checks(RunConfig(checks=["duality.aw", "duality.daha"], mode="exact"))
    all_pass(report)
    rng = random.Random(52)
    for _ in range(20):
        u = Element(
            "daha",
            {tuple(rng.choice(DAHA_LETTERS) for _ in range(rng.randint(1, 4))): ONE},
        )
        v = Element(
            "daha",
            {tuple(rng.choice(DAHA_LETTERS) for _ in range(rng.randint(1, 4))): ONE},
        )
        iu, dual = duality_image(u, "DAHA", spoint)
        iv, _ = duality_image(v, "DAHA", spoint)
        iuv, _ = duality_image(u * v, "DAHA", spoint)
        assert reduce(iuv, dual) == multiply(reduce(iv, dual), reduce(iu, dual), dual)
    for _ in range(20):
        u = Element(
            "aw",
            {tuple(rng.choice(AW_LETTERS) for _ in range(rng.randint(1, 3))): ONE},
        )
        v = Element(
            "aw",
            {tuple(rng.choice(AW_LETTERS) for _ in range(rng.randint(1, 3))): ONE},
        )
        iu, dual = duality_image(u, "AW", spoint)
        iv, _ = duality_image(v, "AW", spoint)
        iuv, _ = duality_image(u * v, "AW", spoint)
        assert embed_aw(iuv, dual) == multiply(
            embed_aw(iv, dual), embed_aw(iu, dual), dual
        )


def test_11_no_central_basis_elements_at_low_degree(gpoint):
    # x -> ([x, Z], [x, Y], [x, T1]) on the identity and the 37 other
    # Z^m Y^n T1^i with |m|+|n|+i <= 3 has rank 37: only the scalars commute
    box = [(m, n, i) for m in range(-3, 4) for n in range(-3, 4) for i in (0, 1)]
    box = [NormalForm({key: ONE}) for key in box if abs(key[0]) + abs(key[1]) + key[2] <= 3]
    gens = [NormalForm({key: ONE}) for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    images = [
        {
            (j, key): c
            for j, g in enumerate(gens)
            for key, c in (multiply(x, g, gpoint) - multiply(g, x, gpoint)).terms.items()
        }
        for x in box
    ]
    assert (len(images), _rank(images, gpoint)) == (38, 37)
    # the catalog's certificate, at the same point
    runner = verify._CATALOG_BY_ID["center.daha"].runner
    assert runner(gpoint, {}, random.Random(0)) == ""


def test_12_cli_reports_deterministic_and_exit_codes_track_verdict(tmp_path):
    base = [
        sys.executable,
        "-m",
        "rank1daha.cli",
        "verify",
        "run",
        "--checks",
        "step.49,eigen.Pn,recurrence,casimir.scalar,symmetry.abcd",
        "--seed",
        "1729",
        "--trials",
        "3",
        "--format",
        "json",
    ]
    dumps = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        proc = subprocess.run(
            base + ["--out", str(out)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["overall"] == "pass"
        for result in data["results"]:
            result["elapsed_ms"] = 0
        dumps.append(json.dumps(data, sort_keys=True).encode())
    assert dumps[0] == dumps[1]

    # a failing run exits 1: the requested eigenfunction range crosses a
    # degeneracy the admissibility window cannot see
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "rank1daha.cli",
            "verify",
            "run",
            "--checks",
            "eigen.Pn",
            "--mode",
            "exact",
            "--params",
            "q=1/2,a=2,b=4,c=8,d=4096",
            "--max-n",
            "19",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    # and a configuration error exits 2
    proc = subprocess.run(
        [sys.executable, "-m", "rank1daha.cli", "verify", "run", "--checks", "wat"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
