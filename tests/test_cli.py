"""The command-line entry points.

Most tests drive main() in process and read captured output; one
subprocess test per entry style proves the module and console-script
launch paths work outside the test process. The console-script test
always runs the entry point declared in pyproject.toml through a
launcher of the kind pip generates, so it needs no installation; when
an installed `rank1daha` script is on PATH it runs that script too.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rank1daha.cli import main
from rank1daha.verify import check_ids

GPARAMS = "q=3/2,a=2,b=3,c=5,d=7"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# reduce


def test_reduce_quadratic_to_basis(capsys):
    code, out, _ = run_cli(capsys, "reduce", "T1*Z")
    assert code == 0
    lines = out.splitlines()
    assert "(a*b + 1) * Z^-1" in lines
    assert "1 * Z^-1 T1" in lines
    assert "(-a - b) * 1" in lines


def test_reduce_at_rational_point(capsys):
    code, out, _ = run_cli(capsys, "reduce", "Y*Z", "--params", GPARAMS)
    assert code == 0
    assert out.strip()


def test_reduce_aw_alphabet_embeds(capsys):
    code, out, _ = run_cli(capsys, "reduce", "K1", "--alphabet", "aw")
    assert code == 0
    assert out.splitlines() == ["1 * Z^-1", "1 * Z"]


def test_reduce_over_keyed_denominators(capsys):
    # the sum over (1 + 2q)(a + b), with the denominator expanded in the
    # field's order of terms
    code, out, _ = run_cli(capsys, "reduce", "Z/(1+2*q) + Z/(a+b)")
    assert code == 0
    assert out == "((2*q + a + b + 1)/(2*q*a + 2*q*b + a + b)) * Z\n"


def test_reduce_three_term_denominator_exits_2(capsys):
    code, out, err = run_cli(capsys, "reduce", "Z/(1+q+a)")
    assert (code, out) == (2, "")
    assert err.startswith("error: UnkeyedDenominator: 1/(q + a + 1) ")


def test_reduce_reads_parameter_letters_at_the_point(capsys):
    # at q=3/2, a=2 the letters are those values, so 1+q+a = 9/2 is a constant
    code, out, _ = run_cli(capsys, "reduce", "q*Z", "--params", GPARAMS)
    assert (code, out) == (0, "3/2 * Z\n")
    code, out, _ = run_cli(capsys, "reduce", "Z/(1+q+a)", "--params", GPARAMS)
    assert (code, out) == (0, "2/9 * Z\n")
    code, out, _ = run_cli(capsys, "reduce", "q*K1", "--alphabet", "aw", "--params", GPARAMS)
    assert (code, out) == (0, "3/2 * Z^-1\n3/2 * Z\n")


def test_reduce_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "reduce", "T1 +")
    assert code == 2
    assert "parse error" in err


def test_reduce_degenerate_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "reduce", "T1", "--params", "q=1,a=2,b=3,c=5,d=7")
    assert code == 2
    assert "q^m = 1" in err


# ---------------------------------------------------------------------------
# aw-poly


def test_aw_poly_symbolic_p1(capsys):
    code, out, _ = run_cli(capsys, "aw-poly", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "-1: 1"
    assert lines[2] == "1: 1"


def test_aw_poly_specialized(capsys):
    code, out, _ = run_cli(capsys, "aw-poly", "--n", "1", "--params", GPARAMS)
    assert code == 0
    assert out.splitlines()[1] == "0: -230/209"


def test_aw_poly_shifted_q0_is_zero(capsys):
    code, out, _ = run_cli(capsys, "aw-poly", "--n", "0", "--shifted")
    assert code == 0
    assert out.strip() == "0: 0"


def test_aw_poly_negative_degree_exits_2(capsys):
    code, _, err = run_cli(capsys, "aw-poly", "--n", "-3")
    assert code == 2
    assert "nonnegative" in err


# ---------------------------------------------------------------------------
# catalog


def test_catalog_lists_every_check(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    ids = [line for line in lines if not line.startswith(" ")]
    assert ids == check_ids()
    statements = [line for line in lines if line.startswith("    ")]
    assert len(statements) == len(ids)
    assert all(s.strip() for s in statements)


# ---------------------------------------------------------------------------
# verify run


def test_verify_run_text_report(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "run", "--checks", "embed.t1central,idempotents"
    )
    assert code == 0
    assert out.splitlines()[-1] == "overall pass"
    assert any(line.startswith("idempotents") for line in out.splitlines())


def test_verify_run_json_out(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "run",
        "--checks",
        "idempotents",
        "--format",
        "json",
        "--out",
        str(path),
    )
    assert code == 0
    assert f"report written to {path}" in out
    data = json.loads(path.read_text())
    assert data["overall"] == "pass"
    assert [r["id"] for r in data["results"]] == ["idempotents"]


def test_verify_run_json_to_stdout(capsys):
    # without --out the report goes to stdout in the requested format
    code, out, _ = run_cli(
        capsys, "verify", "run", "--checks", "idempotents", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["overall"] == "pass"
    assert [r["id"] for r in data["results"]] == ["idempotents"]


def test_verify_run_config_file_with_cli_override(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("checks = idempotents\nseed = 5\n")
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "run",
        "--config",
        str(cfg),
        "--seed",
        "9",
        "--format",
        "json",
        "--out",
        str(path),
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["seed"] == 9
    assert [r["id"] for r in data["results"]] == ["idempotents"]


def test_verify_run_failure_exits_1(capsys):
    # abcd*q^18 = 1 is outside the admissibility window but inside the
    # requested eigenfunction range, so the check errors and the run fails
    code, out, _ = run_cli(
        capsys,
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
    )
    assert code == 1
    assert out.splitlines()[-1] == "overall fail"


def test_verify_run_unknown_check_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "run", "--checks", "nonsense")
    assert code == 2
    assert "unknown check ids" in err


@pytest.mark.parametrize(
    "option, value", [("--max-mn", "0"), ("--max-n", "-1"), ("--max-degree", "-1")]
)
def test_verify_run_empty_size_exits_2(capsys, option, value):
    # at an empty size the checks reading it would pass without checking anything
    checks = "step.44,step.49,eigen.Pn,casimir.scalar,awrel.inrep,symmetry.abcd"
    code, out, err = run_cli(capsys, "verify", "run", "--checks", checks, option, value)
    assert code == 2
    assert option[2:] in err
    assert "pass" not in out


# ---------------------------------------------------------------------------
# process-level entry points


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rank1daha.cli", "aw-poly", "--n", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0: 1"


def _assert_console_contract(command):
    """Run `command` as the console script: a reduction exits 0 with its
    normal form, a parse error exits with main()'s code 2."""
    proc = subprocess.run(
        [*command, "reduce", "Y*Yi"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 * 1"
    proc = subprocess.run(
        [*command, "reduce", "T1 +"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")  # in the stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["rank1daha"]
    assert entry == "rank1daha.cli:main"
    module, attr = entry.split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _assert_console_contract([sys.executable, "-c", launcher])

    installed = shutil.which("rank1daha")
    if installed is not None:
        _assert_console_contract([installed])
