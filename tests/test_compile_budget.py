"""Every module of the package compiles within one token budget.

The benchmark and the tests run with ``PYTHONDONTWRITEBYTECODE=1``, so each
process compiles the package from source, and the parser and compiler free
one module's working memory before the next module is compiled.  The
largest single compile therefore sets the start-up peak of resident
memory.  ``tracemalloc`` puts the compile peak of a module of 12,742
tokens at 4.33 MB, and about 1.4 MB at 4,500 (Python 3.11.7).
"""

import tokenize
from pathlib import Path

import pytest

BUDGET = 4500
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rank1daha"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_compiles_within_the_token_budget(path):
    with open(path, encoding="utf-8") as handle:
        tokens = sum(1 for _ in tokenize.generate_tokens(handle.readline))
    assert tokens <= BUDGET, f"{path.name}: {tokens} tokens"
