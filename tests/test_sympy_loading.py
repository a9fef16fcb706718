"""No command imports sympy, and importing the CLI loads no introspection
module.

Ground scalars are Python ints, symbolic ones Laurent polynomials over Z
or Laurent numerators over keyed factors, and their text is the package's
own.  Each probe runs one command in a fresh interpreter where
``sys.modules["sympy"]`` is None, so that any import of sympy raises, since
the test process itself has long imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# runs one command line through the CLI with sympy unimportable, then prints
# its exit code and whether it wrote any output
_PROBE = """
import io, sys
sys.modules["sympy"] = None
from rank1daha import cli
out, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(sys.argv[1:])
text, sys.stdout = sys.stdout.getvalue(), out
print(code, bool(text))
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
        # every check at its default mode and sizes: exact at symbolic
        # parameters (the sym-exact checks at the default --max-degree among
        # them) or prob
        ("verify", "run"),
        ("verify", "run", "--mode", "prob", "--trials", "1"),
        ("verify", "run", "--params", "q=3/2,a=2,b=3,c=5,d=7"),
        # P_3 over keyed denominators, and P_2 at (qa, qb, c, d) times the
        # shifted family's prefactor
        ("aw-poly", "--n", "3"),
        ("aw-poly", "--shifted", "--n", "3"),
        # symbolic scalars printed, one of them over keyed denominators
        ("reduce", "T1*Z"),
        ("reduce", "Z/(1+2*q) + Z/(a+b)"),
        ("catalog",),
    ],
    ids=["verify-run", "prob", "rational-point", "aw-poly", "aw-poly-shifted", "reduce",
         "reduce-keyed", "catalog"],
)
def test_no_command_imports_sympy(argv):
    assert _last_line(_PROBE, *argv) == "0 True"
