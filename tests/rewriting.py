"""Breadth-first word rewriting: the oracle of the kernel's normal forms.

``rewrite_terms`` applies the two-letter rules of a rewrite system to
whole words, one redex per word and round, until only basis words
Z^m Y^n T1^i remain.  It shares no sub-products with the kernel's
memoized basis products, so the tests compare every product path, and
``reduce`` itself, with it.  Its work and memory grow fast with the
length of a word, so the tests keep to short ones.  Its ``budget``
bounds the rule applications of one whole rewriting.

``step_lhs`` and ``leading_at`` read a step identity's left side and its
leading terms off the kernel, for the tests that compare them.
"""

from __future__ import annotations

from typing import Mapping

from rank1daha.errors import BudgetExhausted
from rank1daha import ncalg, steps
from rank1daha.field import RatFunc
from rank1daha.ncalg import RewriteSystem, rewrite_system
from rank1daha.params import Params
from rank1daha.words import Element, NormalForm, _is_basis_word, _word_key

BUDGET = 10**6


def rewrite_terms(
    system: RewriteSystem,
    terms: Mapping[tuple[str, ...], RatFunc],
    budget: int = BUDGET,
    strategy: str = "leftmost",
) -> NormalForm:
    """The normal form of the sum of c w over the words and coefficients of
    ``terms``, by rewriting whole words with the rules of ``system``."""
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    # on the kernel's lifted coefficients (``terms`` may be lifted already),
    # settled once per round
    lift, zero = system._lift, system._lift_zero
    out: dict = {}
    pending = system._settle({tuple(w): lift(c) for w, c in terms.items()})
    steps = 0
    while pending:
        next_pending: dict = {}
        for word, coef in pending.items():
            pos = system._find_redex(word, strategy)
            if pos is None:
                if not _is_basis_word(word):  # a rule table short of a left side
                    raise ValueError(f"irreducible word {' '.join(word)} is not a basis word")
                key = _word_key(word)
                out[key] = out.get(key, zero) + coef
                continue
            steps += 1
            if steps > budget:
                raise BudgetExhausted(
                    f"rewriting exceeded {budget} rule applications"
                )
            head, tail = word[:pos], word[pos + 2 :]
            for repl, rcoef in system.rules[(word[pos], word[pos + 1])]:
                word2 = head + repl + tail
                next_pending[word2] = next_pending.get(word2, zero) + coef * lift(rcoef)
        pending = system._settle(next_pending)
    return system._normal_form(system._settle(out))


def rewrite(
    e: Element, params: Params, budget: int = BUDGET, strategy: str = "leftmost"
) -> NormalForm:
    """The normal form of an element over the five-letter alphabet, by
    rewriting its words with the rules of the point's rewrite system."""
    if e.alphabet != "daha":
        raise ValueError("rewriting expects an element over the five-letter alphabet")
    return rewrite_terms(rewrite_system(params), e.terms, budget, strategy)


def step_lhs(row: steps.StepRow, m: int, n: int, params: Params) -> NormalForm:
    """The kernel's left side of a step identity at exponents (m, n)."""
    system = rewrite_system(params)
    return system._normal_form(steps._lifted_step_lhs(row, m, n, system))


def leading_at(row: steps.StepRow, m: int, n: int, params: Params) -> dict[tuple[int, int], RatFunc]:
    """A step identity's leading terms at exponents (m, n): (k, l) -> coefficient."""
    system = rewrite_system(params)
    return {key: system._drop(c) for key, c in steps._leading(row, m, n, system).items()}
