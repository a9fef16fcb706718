"""sympy is imported only for multi-term denominators and printing, and no
introspection module at all.

Runs at GF(p) points and at rational points compute with Python integers,
and symbolic scalars with monomial denominators with Laurent polynomials
over Z, so a process that meets none of these never imports sympy.  Each
case runs in a fresh interpreter, since the test process itself has long
imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# runs one command line through the CLI, then prints whether sympy was imported
_PROBE = """
import sys
from rank1daha import cli
code = cli.main(sys.argv[1:])
print(code, "sympy" in sys.modules)
"""


def _last_line(source: str, *argv: str) -> str:
    """The last line that ``python -c source argv...`` prints."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()[-1]


def _probe(*argv: str) -> tuple[int, bool]:
    code, loaded = _last_line(_PROBE, *argv).split()
    return int(code), loaded == "True"


def test_importing_the_package_loads_no_sympy():
    source = "import sys, rank1daha, rank1daha.cli; print('sympy' in sys.modules)"
    assert _last_line(source) == "False"


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 1 MB of
    # resident memory and some milliseconds of every process's start-up
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    source = f"import sys, rank1daha.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _last_line(source) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        # GF(p) points, the duality check included
        ("verify", "run", "--mode", "prob", "--trials", "1",
         "--checks", "iso.spherical.rank,eigen.Pn,duality.daha"),
        # a rational point; the duality.aw row is a skip that prints abcd/q = 140
        ("verify", "run", "--params", "q=3/2,a=2,b=3,c=5,d=7",
         "--checks", "step.44,duality.aw", "--max-mn", "1"),
    ],
    ids=["prob", "rational-point"],
)
def test_runs_without_rational_functions_load_no_sympy(argv):
    assert _probe(*argv) == (0, False)


def test_symbolic_scalars_with_monomial_denominators_load_no_sympy():
    # the step identities, both duality checks at d -> qd^2/(abc), the
    # identities of P_n on factored terms, whose denominators are never
    # expanded, and the quotient relations on phi_k at the default --max-degree
    checks = (
        "step.44,duality.aw,duality.daha,eigen.Pn,recurrence,symmetry.abcd,"
        "casimir.scalar,awrel.inrep"
    )
    argv = ("verify", "run", "--mode", "exact", "--checks", checks, "--max-mn", "1", "--max-n", "2")
    assert _probe(*argv) == (0, False)


def test_a_symbolic_run_loads_sympy():
    # askey_wilson divides by the normalising scalar of P_n, which has a
    # multi-term denominator, and the polynomial prints symbolic scalars
    assert _probe("aw-poly", "--n", "1") == (0, True)


def test_printing_a_symbolic_scalar_loads_sympy():
    source = (
        "import sys; from rank1daha.params import RatFunc; "
        "x = RatFunc.gen('q') * RatFunc.gen('a') + 1; before = 'sympy' in sys.modules; "
        "text = str(x); print(text, before, 'sympy' in sys.modules)"
    )
    assert _last_line(source) == "q*a + 1 False True"
