"""Exact kernel for the rank-one double affine Hecke algebra of type
(C1v, C1), the Askey-Wilson q-commutator algebra with Casimir element,
and their polynomial representation, together with a catalog of
mechanically verified identities.

All arithmetic is exact: coefficients are rational functions in the
parameters q, a, b, c, d over the rationals.  The duality maps need a
square root s of abcd/q, which the symbolic point gains by the field
embedding d -> q d^2/(abc).  Probabilistic checks evaluate the same
identities exactly at random points of GF(2^61 - 1).

The subalgebra maps are exported in cleared form, for F = T1+1 or T1+ab
with F^2 = eF (``symmetrizer``): ``compress`` returns F u F, e^2 times the
idempotent compression, and ``iso_image`` U~ F, e times the isomorphism.
"""

from .errors import (
    BudgetExhausted,
    ConfigError,
    DegenerateParameters,
    DivisionByZero,
    ExtensionDisabled,
    KernelError,
    MissingAssignment,
    NotSymmetric,
    ParseError,
    UnkeyedDenominator,
    UnknownIdentity,
)
from .ncalg import (
    AW_ALPHABET,
    DAHA_ALPHABET,
    DEFAULT_BUDGET,
    Element,
    NormalForm,
    RewriteSystem,
    aw_relations,
    check_step_identity,
    compress,
    duality_image,
    embed_aw,
    embed_element,
    iso_image,
    multiply,
    quotient_relations,
    reduce,
    rewrite_system,
    shift_operator_identities,
    symmetrizer,
)
from .params import (
    PARAM_NAMES,
    Params,
    RatFunc,
    StructureConstants,
    eigenvalue,
    elementary_symmetric,
    make_params,
    random_params_mod_p,
    structure_constants,
)
from .polyrep import (
    LaurentPoly,
    apply_dsym,
    apply_k1,
    apply_word,
    askey_wilson,
    recurrence_coeffs,
    relation_residuals,
    shifted_qn,
)
from .verify import (
    TOOL_VERSION,
    CheckResult,
    CheckSpec,
    Report,
    RunConfig,
    check_ids,
    emit_report,
    load_report,
    parse_expression,
    run_checks,
)

__version__ = TOOL_VERSION

__all__ = [
    "AW_ALPHABET",
    "BudgetExhausted",
    "CheckResult",
    "CheckSpec",
    "ConfigError",
    "DAHA_ALPHABET",
    "DEFAULT_BUDGET",
    "DegenerateParameters",
    "DivisionByZero",
    "Element",
    "ExtensionDisabled",
    "KernelError",
    "LaurentPoly",
    "MissingAssignment",
    "NormalForm",
    "NotSymmetric",
    "PARAM_NAMES",
    "Params",
    "ParseError",
    "RatFunc",
    "Report",
    "RewriteSystem",
    "RunConfig",
    "StructureConstants",
    "TOOL_VERSION",
    "UnkeyedDenominator",
    "UnknownIdentity",
    "apply_dsym",
    "apply_k1",
    "apply_word",
    "askey_wilson",
    "aw_relations",
    "check_ids",
    "check_step_identity",
    "compress",
    "duality_image",
    "eigenvalue",
    "elementary_symmetric",
    "embed_aw",
    "embed_element",
    "emit_report",
    "iso_image",
    "load_report",
    "make_params",
    "multiply",
    "parse_expression",
    "quotient_relations",
    "random_params_mod_p",
    "recurrence_coeffs",
    "reduce",
    "relation_residuals",
    "rewrite_system",
    "run_checks",
    "shift_operator_identities",
    "shifted_qn",
    "structure_constants",
    "symmetrizer",
]
