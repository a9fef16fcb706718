"""Exception types shared by every module of the kernel."""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateParameters(KernelError):
    """A parameter assignment violates one of the genericity conditions.

    ``clause`` names the violated condition; ``m`` is the exponent at which
    a power condition failed (``None`` for non-power clauses).
    """

    def __init__(self, clause: str, m: int | None = None):
        self.clause = clause
        self.m = m
        at = f" at m={m}" if m is not None else ""
        super().__init__(f"degenerate parameters: {clause}{at}")


class MissingAssignment(KernelError):
    """Specialized parameters were requested without a full assignment."""


class DivisionByZero(KernelError):
    """Division or inversion of a zero scalar."""


class UnkeyedDenominator(KernelError):
    """A symbolic scalar would get a denominator that is not a product of
    keys: binomials alpha + beta y and cyclotomic polynomials Phi_k(y) in
    one Laurent monomial y of q, a, b, c, d (the denominators of the
    Askey-Wilson family and of the rewrite rules are such products).  Only
    a value whose numerator is a monomial or such a binomial has an
    inverse; the message names the polynomial that was to be inverted.
    """


class BudgetExhausted(KernelError):
    """The rewrite engine exceeded its step budget.

    The one budget is ``ncalg.DEFAULT_BUDGET``: the rule applications
    behind each basis product not yet memoized, its new sub-products
    included.  The rewrite rules terminate
    (``RewriteSystem.termination_failures`` checks an order that every rule
    decreases; the ``relations-daha`` check runs it), so hitting the budget
    means a product longer than the budget allows, or a rule table that
    fails that check.  Such a table can also nest past the interpreter's
    recursion limit first, which raises this too.
    """


class UnknownIdentity(KernelError):
    """An identity name outside the published step-identity catalog."""


class ExtensionDisabled(KernelError):
    """The dual family needs a square root s of abcd/q, and the point's
    coefficient field has none.  In a verification run that is a rational
    point where abcd/q is not the square of a rational: the duality checks
    first move a symbolic point to one where abcd/q is a square."""


class NotSymmetric(KernelError):
    """A Laurent polynomial argument was required to be symmetric."""


class ParseError(KernelError):
    """Expression text rejected by the parser.

    ``position`` is a 0-based character offset; ``expected`` is the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: frozenset[str]):
        self.position = position
        self.expected = frozenset(expected)
        exp = ", ".join(sorted(self.expected))
        super().__init__(f"{message} at position {position} (expected: {exp})")


class ConfigError(KernelError):
    """Invalid verification-run configuration."""
