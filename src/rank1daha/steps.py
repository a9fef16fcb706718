"""The step identities: the compression catalog behind the two subalgebra
isomorphisms, as data rows with one evaluator and a strict-dominance test.

Each row of :data:`STEP_IDENTITIES` states LHS = (leading terms +
dominated rest) F, with F = T1+1 for the spherical family ("sym") and
F = T1+ab for the antispherical one ("asym").  A row holds:

- ``signs`` (sm, sn), each in {1, -1, 0}: the signs of the exponents m and
  n in the left side, 0 where the identity does not read that exponent
  (an exact row reads neither, and sm is the sign of its one letter);
- ``kind``, the shape of the left side:
  "sandwich" F Z^(sm m) Y^(sn n) F;
  "embed" K1^(|sm| m) K0^(|sn| n) F, the K-letters embedded;
  "mixed" K1^(m-1) w K0^(n-1) F with the middle word w of ``middle``;
  "exact" F Z^sm F, a one-letter compression whose residual must vanish;
  "step3" (1-q^2) F Z^(sm m) Y^(sn n) F - c K1^(m-1) w K0^(n-1) F, with
  c = ``scalar``, whose whole left side is dominated (no leading terms);
- ``leading``: (sk, sl) -> coefficient of Z^(sk m) Y^(sl n);
- ``check`` and ``statement``: the verification-catalog check the row
  belongs to and, on that check's first row, the check's statement.

Every coefficient is a tuple of integer terms (c, i, j, k, l) meaning the
sum of c q^i a^j b^k u^(l n) with u = abcd/q.  :func:`check_step_identity`
evaluates every row, and a row that holds at (1, 1) holds for every m, n >= 1
iff each term has the l its signs force (:func:`_scaling_break`): (sn - sl)/2
at the corner (sk, sl), (sn - 1)/2 in a step-3 scalar, 0 in a middle word or
where n is not read.  F commutes with K1 = Z + Z^-1 and K~0 = Y + uY^-1
(``embed.t1central``); Z^2 = K1 Z - 1 and Y^2 = K~0 Y - u give, for all integers,
Z^m = p_m(K1) + q_m(K1) Z and Y^n = p'_n(K~0) + Y q'_n(K~0), so F Z^m Y^n F =
p_m G_1 p'_n + p_m G_Y q'_n + q_m G_Z p'_n + q_m G_ZY q'_n with G_X = F X F, and
the K-words are K1^(m-1) J(w)F K~0^(n-1) (Koornwinder, SIGMA 3 (2007) 063).
The polynomials shift basis keys (Z is leftmost, K~0 passes T1), and each base
form is S F, S free of T1 on [-1, 1]^2: G_1 by ``idempotents``, G_Z, G_Y, G_ZY by
the (1, 1) instances of step.44, 47, 49 (astep.* for "asym"), J(w)F by the row's
own.  So every key at (m, n) has |k| <= m, |l| <= n, and a corner is reached
only through extreme coefficients, free of m and homogeneous in n (deg Y = 1,
deg u = 2): corner(m, n) = corner(1, 1) u^((sn - sl)(n - 1)/2).

:func:`check_step_identity` forms its residual, the T1 factorisation and the
dominance test in one pass on the product kernel's lifted coefficients, and
builds the residual's normal form only when it is read.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from . import ncalg
from .errors import UnknownIdentity
from .field import RatFunc
from .ncalg import RewriteSystem
from .params import Params
from .words import NormalForm, Word, _DeferredNormalForm

__all__ = ["STEP_IDENTITIES", "StepRow", "check_step_identity"]


# a scalar as terms (c, i, j, k, l): the sum of c q^i a^j b^k u^(l n), u = abcd/q
Coef = tuple[tuple[int, int, int, int, int], ...]


# ---------------------------------------------------------------------------
# The strict-dominance filtration


def _dominated(keys: Iterable[tuple[int, int, int]], m: int, n: int) -> bool:
    """Strict-dominance test on the basis keys of a normal form: each key
    must be free of T1, and its monomial Z^k Y^l must satisfy |k| <= |m|,
    |l| <= |n| and (|k|, |l|) != (|m|, |n|)."""
    m, n = abs(m), abs(n)
    for k, l, i in keys:
        k, l = abs(k), abs(l)
        if i or k > m or l > n or (k == m and l == n):
            return False
    return True


def _step_verdict(residual: dict, eps, bound, system: RewriteSystem) -> bool:
    """Whether the lifted normal form ``residual`` is R (T1+eps) with R free
    of T1 and strictly dominated by ``bound`` = (m, n), or zero where
    ``bound`` is None; eps is lifted too.  One pass over its keys, each T1
    key read with its T1-free partner, reducing only what it reads."""
    zero, mod = system.carrier.zero, system.carrier.mod
    rest = []  # the keys of R
    for (k, l, i), c in residual.items():
        if i:
            r1, r0 = c, residual.get((k, l, 0), zero) - eps * c
        elif (k, l, 1) in residual:
            continue  # read with its T1 partner
        else:
            r1, r0 = zero, c
        r1, r0 = mod(r1), mod(r0)
        if r0:
            return False  # the T1-free part is not eps times the T1 part
        if r1:
            rest.append((k, l, 0))
    return not rest if bound is None else _dominated(rest, *bound)


# ---------------------------------------------------------------------------
# The step-identity catalog


# coefficient shorthands, named by their monomial: M = minus, AB = ab,
# UN = u^n, UMN = u^-n
_1 = ((1, 0, 0, 0, 0),)
_M1 = ((-1, 0, 0, 0, 0),)
_AB = ((1, 0, 1, 1, 0),)
_MAB = ((-1, 0, 1, 1, 0),)
_UN = ((1, 0, 0, 0, 1),)
_MUN = ((-1, 0, 0, 0, 1),)
_UMN = ((1, 0, 0, 0, -1),)
_MABUN = ((-1, 0, 1, 1, 1),)
_ABUMN = ((1, 0, 1, 1, -1),)
_M1MAB = ((-1, 0, 0, 0, 0), (-1, 0, 1, 1, 0))
_1AB = ((1, 0, 0, 0, 0), (1, 0, 1, 1, 0))
_ONE_MINUS_Q2 = ((1, 0, 0, 0, 0), (-1, 2, 0, 0, 0))

# middle words w of the step-3 rows
_K1K0_MINUS_QK0K1 = {("K1", "K0"): _1, ("K0", "K1"): ((-1, 1, 0, 0, 0),)}
_MINUS_QK1K0_PLUS_K0K1 = {("K1", "K0"): ((-1, 1, 0, 0, 0),), ("K0", "K1"): _1}


class StepRow(NamedTuple):
    """One step identity as plain data; the module docstring gives the
    format.  ``statement`` is the catalog statement of ``check``, given on
    the first row of that check only."""

    check: str
    family: str  # "sym" (F = T1+1) | "asym" (F = T1+ab)
    kind: str  # "sandwich" | "embed" | "mixed" | "exact" | "step3"
    signs: tuple[int, int]
    leading: Mapping[tuple[int, int], Coef]
    statement: str = ""
    middle: Mapping[Word, Coef] = {}  # shared by the rows without one, never mutated
    scalar: Coef = _1

    def uses(self) -> tuple[bool, bool]:
        """Whether the identity reads m and whether it reads n; the exact
        one-letter compressions read neither."""
        if self.kind == "exact":
            return False, False
        return self.signs[0] != 0, self.signs[1] != 0


def _leading(row: StepRow, m: int, n: int, system: RewriteSystem) -> dict:
    # the leading terms at exponents (m, n): (k, l) -> lifted coefficient
    m, n = _step_exponents(row, m, n)
    return {
        (sk * m, sl * n): _table_coef(system, coef, n) for (sk, sl), coef in row.leading.items()
    }


def _coef(terms: Coef, n: int, bases: tuple[RatFunc, ...]) -> RatFunc:
    """Evaluate a coefficient: the sum of c q^i a^j b^k u^(l n), u = abcd/q,
    with bases (q, a, b, u)."""
    out = RatFunc.zero()
    for c, i, j, k, l in terms:
        term = RatFunc.from_rational(c)
        for base, e in zip(bases, (i, j, k, l * n)):
            if e:
                term = term * base**e
        out = out + term
    return out


def _table_coef(system: RewriteSystem, terms: Coef, n: int):
    """A step-table coefficient at exponent n, lifted, memoized on the
    rewrite system."""
    build = lambda: system.carrier.lift(_coef(terms, n, system._bases))
    return system._once(("coefficient", terms, n), build)


# In catalog order: each spherical row next to its antispherical analogue.
STEP_IDENTITIES: dict[str, StepRow] = {
    # -- step 1: sandwiches F Z^(+-m) Y^(+-n) F
    "44": StepRow(
        "step.44", "sym", "sandwich", (1, 0), {(1, 0): _1, (-1, 0): _1},
        "(T1+1) Z^m (T1+1) = (Z^m + Z^-m + dominated) (T1+1)",
    ),
    "a44": StepRow(
        "astep.44", "asym", "sandwich", (1, 0), {(1, 0): _AB, (-1, 0): _AB},
        "antispherical analogue: (T1+ab) Z^m (T1+ab) = (ab(Z^m + Z^-m) + dominated) (T1+ab)",
    ),
    "45": StepRow(
        "step.45", "sym", "sandwich", (-1, 0), {(1, 0): _MAB, (-1, 0): _MAB},
        "(T1+1) Z^-m (T1+1) = (-ab(Z^m + Z^-m) + dominated) (T1+1)",
    ),
    "a45": StepRow(
        "astep.45", "asym", "sandwich", (-1, 0), {(1, 0): _M1, (-1, 0): _M1},
        "antispherical analogue: (T1+ab) Z^-m (T1+ab) = (-(Z^m + Z^-m) + dominated) (T1+ab)",
    ),
    "47": StepRow(
        "step.47", "sym", "sandwich", (0, 1), {(0, 1): _MAB, (0, -1): _MABUN},
        "(T1+1) Y^n (T1+1) = (-ab(Y^n + u^n Y^-n) + dominated) (T1+1), u = abcd/q",
    ),
    "a47": StepRow(
        "astep.47", "asym", "sandwich", (0, 1), {(0, 1): _M1, (0, -1): _MUN},
        "antispherical analogue: (T1+ab) Y^n (T1+ab) = (-(Y^n + u^n Y^-n) + dominated) "
        "(T1+ab), u = abcd/q",
    ),
    "48": StepRow(
        "step.48", "sym", "sandwich", (0, -1), {(0, 1): _UMN, (0, -1): _1},
        "(T1+1) Y^-n (T1+1) = (u^-n Y^n + Y^-n + dominated) (T1+1)",
    ),
    "a48": StepRow(
        "astep.48", "asym", "sandwich", (0, -1), {(0, 1): _ABUMN, (0, -1): _AB},
        "antispherical analogue: (T1+ab) Y^-n (T1+ab) = (ab(u^-n Y^n + Y^-n) + dominated) "
        "(T1+ab)",
    ),
    "49": StepRow(
        "step.49", "sym", "sandwich", (1, 1), {(1, 1): _1, (-1, -1): _MABUN},
        "(T1+1) Z^m Y^n (T1+1) = (Z^m Y^n - ab u^n Z^-m Y^-n + dominated) (T1+1)",
    ),
    "a49": StepRow(
        "astep.49", "asym", "sandwich", (1, 1), {(1, 1): _AB, (-1, -1): _MUN},
        "antispherical analogue: (T1+ab) Z^m Y^n (T1+ab) = (ab Z^m Y^n - u^n Z^-m Y^-n "
        "+ dominated) (T1+ab)",
    ),
    "50": StepRow(
        "step.50", "sym", "sandwich", (-1, 1),
        {(1, 1): _M1MAB, (1, -1): _MABUN, (-1, 1): _MAB},
        "(T1+1) Z^-m Y^n (T1+1) = (-(ab+1) Z^m Y^n - ab u^n Z^m Y^-n - ab Z^-m Y^n "
        "+ dominated) (T1+1)",
    ),
    "a50": StepRow(
        "astep.50", "asym", "sandwich", (-1, 1),
        {(1, 1): _M1MAB, (1, -1): _MUN, (-1, 1): _M1},
        "antispherical analogue: (T1+ab) Z^-m Y^n (T1+ab) = (-(ab+1) Z^m Y^n - u^n "
        "Z^m Y^-n - Z^-m Y^n + dominated) (T1+ab)",
    ),
    "51": StepRow(
        "step.51", "sym", "sandwich", (1, -1),
        {(1, -1): _1, (-1, 1): _UMN, (-1, -1): _1AB},
        "(T1+1) Z^m Y^-n (T1+1) = (Z^m Y^-n + u^-n Z^-m Y^n + (1+ab) Z^-m Y^-n "
        "+ dominated) (T1+1)",
    ),
    "a51": StepRow(
        "astep.51", "asym", "sandwich", (1, -1),
        {(1, -1): _AB, (-1, 1): _ABUMN, (-1, -1): _1AB},
        "antispherical analogue: (T1+ab) Z^m Y^-n (T1+ab) = (ab Z^m Y^-n + ab u^-n Z^-m Y^n "
        "+ (1+ab) Z^-m Y^-n + dominated) (T1+ab)",
    ),
    "52": StepRow(
        "step.52", "sym", "sandwich", (-1, -1), {(1, 1): _UMN, (-1, -1): _MAB},
        "(T1+1) Z^-m Y^-n (T1+1) = (u^-n Z^m Y^n - ab Z^-m Y^-n + dominated) (T1+1)",
    ),
    "a52": StepRow(
        "astep.52", "asym", "sandwich", (-1, -1), {(1, 1): _ABUMN, (-1, -1): _M1},
        "antispherical analogue: (T1+ab) Z^-m Y^-n (T1+ab) = (ab u^-n Z^m Y^n - Z^-m Y^-n "
        "+ dominated) (T1+ab)",
    ),
    # -- step 2: embedded K1^m K0^n F and the mixed word K1^(m-1) K0 K1 K0^(n-1) F
    "53": StepRow(
        "step.53", "sym", "embed", (1, 0), {(1, 0): _1, (-1, 0): _1},
        "K1^m (T1+1) = (Z^m + Z^-m + dominated) (T1+1), K-letters embedded",
    ),
    "a53": StepRow(
        "astep.53", "asym", "embed", (1, 0), {(1, 0): _1, (-1, 0): _1},
        "antispherical analogue: K1^m (T1+ab) = (Z^m + Z^-m + dominated) (T1+ab), "
        "K-letters embedded",
    ),
    "54": StepRow(
        "step.54", "sym", "embed", (0, 1), {(0, 1): _1, (0, -1): _UN},
        "K0^n (T1+1) = (Y^n + u^n Y^-n + dominated) (T1+1)",
    ),
    "a54": StepRow(
        "astep.54", "asym", "embed", (0, 1), {(0, 1): _1, (0, -1): _UN},
        "antispherical analogue: K0^n (T1+ab) = (Y^n + u^n Y^-n + dominated) (T1+ab)",
    ),
    "55": StepRow(
        "step.55", "sym", "embed", (1, 1),
        {(1, 1): _1, (-1, 1): _1, (1, -1): _UN, (-1, -1): _UN},
        "K1^m K0^n (T1+1) = (Z^m Y^n + Z^-m Y^n + u^n Z^m Y^-n + u^n Z^-m Y^-n "
        "+ dominated) (T1+1)",
    ),
    "a55": StepRow(
        "astep.55", "asym", "embed", (1, 1),
        {(1, 1): _1, (-1, 1): _1, (1, -1): _UN, (-1, -1): _UN},
        "antispherical analogue: K1^m K0^n (T1+ab) = (Z^m Y^n + Z^-m Y^n + u^n Z^m Y^-n "
        "+ u^n Z^-m Y^-n + dominated) (T1+ab)",
    ),
    "56": StepRow(
        "step.56", "sym", "mixed", (1, 1),
        {
            (1, 1): ((1, 1, 0, 0, 0),),
            (-1, 1): ((1, -1, 0, 0, 0),),
            (1, -1): ((1, -1, 0, 0, 1),),
            (-1, -1): ((1, -1, 0, 0, 1), (1, -1, 1, 1, 1), (-1, 1, 1, 1, 1)),
        },
        "K1^(m-1) K0 K1 K0^(n-1) (T1+1) = (q Z^m Y^n + q^-1 Z^-m Y^n + q^-1 u^n Z^m Y^-n "
        "+ q^-1 u^n (1+ab-q^2 ab) Z^-m Y^-n + dominated) (T1+1)",
        middle={("K0", "K1"): _1},
    ),
    "a56": StepRow(
        "astep.56", "asym", "mixed", (1, 1),
        {
            (1, 1): ((1, 1, 0, 0, 0),),
            (-1, 1): ((1, -1, 0, 0, 0),),
            (1, -1): ((1, -1, 0, 0, 1),),
            (-1, -1): ((1, -1, -1, -1, 1), (1, -1, 0, 0, 1), (-1, 1, -1, -1, 1)),
        },
        "antispherical analogue: K1^(m-1) K0 K1 K0^(n-1) (T1+ab) = (q Z^m Y^n + q^-1 Z^-m "
        "Y^n + q^-1 u^n Z^m Y^-n + (q ab)^-1 u^n (1+ab-q^2) Z^-m Y^-n + dominated) (T1+ab)",
        middle={("K0", "K1"): _1},
    ),
    # -- the two exact one-letter compressions F Z^(+-1) F
    "44.exact": StepRow(
        "step.44.exact", "sym", "exact", (1, 0),
        {(1, 0): _1, (-1, 0): _1, (0, 0): ((-1, 0, 1, 0, 0), (-1, 0, 0, 1, 0))},
        "(T1+1) Z (T1+1) = (Z + Z^-1 - (a+b)) (T1+1), coefficient-exact",
    ),
    "45.exact": StepRow(
        "step.45.exact", "sym", "exact", (-1, 0),
        {(1, 0): _MAB, (-1, 0): _MAB, (0, 0): ((1, 0, 1, 0, 0), (1, 0, 0, 1, 0))},
        "(T1+1) Z^-1 (T1+1) = (-ab(Z + Z^-1) + a+b) (T1+1), coefficient-exact",
    ),
    # -- step 3: (1-q^2) F Z^(+-m) Y^(+-n) F - c K1^(m-1) w K0^(n-1) F is dominated
    "sph3.1": StepRow(
        "step3.spherical", "sym", "step3", (1, 1), {},
        "the four leading-coefficient displays expressing (T1+1) Z^(+-m) Y^(+-n) (T1+1) "
        "through embedded K-words times (T1+1), up to dominated terms",
        middle=_K1K0_MINUS_QK0K1,
    ),
    "sph3.2": StepRow(
        "step3.spherical", "sym", "step3", (-1, 1), {},
        middle={
            ("K1", "K0"): ((-1, -1, 0, 0, 0), (-1, -1, 1, 1, 0), (1, 1, 1, 1, 0)),
            ("K0", "K1"): _1,
        },
        scalar=((1, 1, 0, 0, 0),),
    ),
    "sph3.3": StepRow(
        "step3.spherical", "sym", "step3", (1, -1), {},
        middle=_MINUS_QK1K0_PLUS_K0K1, scalar=((1, 1, 0, 0, -1),),
    ),
    "sph3.4": StepRow(
        "step3.spherical", "sym", "step3", (-1, -1), {},
        middle=_K1K0_MINUS_QK0K1, scalar=_UMN,
    ),
    "asph3.1": StepRow(
        "step3.antispherical", "asym", "step3", (1, 1), {},
        "the four antispherical leading-coefficient displays with factor (T1+ab) "
        "and K0 read at shifted parameters",
        middle=_K1K0_MINUS_QK0K1, scalar=_AB,
    ),
    "asph3.2": StepRow(
        "step3.antispherical", "asym", "step3", (-1, 1), {},
        middle={
            ("K1", "K0"): ((-1, 0, 0, 0, 0), (-1, 0, 1, 1, 0), (1, 2, 0, 0, 0)),
            ("K0", "K1"): ((1, 1, 1, 1, 0),),
        },
    ),
    "asph3.3": StepRow(
        "step3.antispherical", "asym", "step3", (1, -1), {},
        middle=_MINUS_QK1K0_PLUS_K0K1, scalar=((1, 1, 1, 1, -1),),
    ),
    "asph3.4": StepRow(
        "step3.antispherical", "asym", "step3", (-1, -1), {},
        middle=_K1K0_MINUS_QK0K1, scalar=_ABUMN,
    ),
}


def _scaling_break(row: StepRow) -> str:
    """The first term of ``row`` that breaks the docstring's scaling rule, or ""."""
    sn = row.signs[1]  # 0 where the row reads no n
    forced = [(str(key), c, (sn - key[1]) / 2) for key, c in row.leading.items()]
    forced += [(" ".join(w), c, 0) for w, c in row.middle.items()]
    forced += [("scalar", row.scalar, (sn - 1) / 2)] if row.kind == "step3" else []
    return next((f"{where} coefficient term {t}: u^({t[4]} n), forced u^({l:g} n)"
                 for where, terms, l in forced for t in terms if t[4] != l), "")


def _step_exponents(row: StepRow, m: int, n: int) -> tuple[int, int]:
    # the exact rows compress one letter whatever the exponents
    return (1, 1) if row.kind == "exact" else (m, n)


def _lifted_step_lhs(row: StepRow, m: int, n: int, system: RewriteSystem) -> dict:
    # products of lifted factors: the compression F (basis monomial) F, and
    # the embedded K-words times F
    m, n = _step_exponents(row, m, n)
    sm, sn = row.signs
    if row.kind in ("sandwich", "exact", "step3"):
        sandwich = system._sandwich(row.family, (sm * m, sn * n, 0))
        if row.kind != "step3":
            return sandwich
    if row.kind == "embed":  # one word, coefficient 1: the memoized image itself
        word = ("K1",) * (abs(sm) * m) + ("K0",) * (abs(sn) * n)
        return system._word_times_f(row.family, word)
    k_word = {
        ("K1",) * (m - 1) + w + ("K0",) * (n - 1): _table_coef(system, coef, n)
        for w, coef in row.middle.items()
    }
    if row.kind != "step3":
        return system._embed_times_f(row.family, k_word)
    c1, c2 = _table_coef(system, _ONE_MINUS_Q2, n), _table_coef(system, row.scalar, n)
    images = ((-c2 * c, system._word_times_f(row.family, w)) for w, c in k_word.items())
    return system._linear(((c1, sandwich), *images))


def check_step_identity(identity: str, m: int, n: int, params: Params) -> tuple[NormalForm, bool]:
    """Verify one step identity at exponents (m, n).

    Returns (residual, verdict): the residual is the left side in normal
    form minus the stated leading terms times F; the verdict is True when
    the residual factors as R F, F = T1+1 (spherical family) or T1+ab
    (antispherical family), with R strictly dominated by the exponents the
    identity reads, and for exact identities when the residual is zero.
    One-index identities read only the exponent they use.  The left side
    is a product of reduced factors (F, a basis monomial, an embedded
    K-word).  The catalog reads (1, 1), which with :func:`_scaling_break`
    decides every exponent; the general (m, n) is the tests' oracle.

    Everything up to the verdict runs on the product kernel's lifted
    coefficients, int residues at a point of GF(p): the residual is the
    left side with the leading terms subtracted at their keys, read in one
    pass, and its normal form is built when its terms are first read.  The
    table coefficients, the compressions and the embedded K-words times F
    are memoized on the rewrite system.
    """
    row = STEP_IDENTITIES.get(identity)
    if row is None:
        raise UnknownIdentity(
            f"unknown step identity {identity!r}; known: {sorted(STEP_IDENTITIES)}"
        )
    if m < 1 or n < 1:
        raise ValueError("step identities take positive exponents")
    system = ncalg.rewrite_system(params)
    eps = system._symmetrizer(row.family)[(0, 0, 0)]
    lead_f: dict = {}  # the leading terms times F = T1+eps
    for (k, l), c in _leading(row, m, n, system).items():
        lead_f[(k, l, 1)], lead_f[(k, l, 0)] = c, c * eps
    # the left side, memoized, differs from the residual at these keys only
    residual = dict(_lifted_step_lhs(row, m, n, system))
    zero, settle = system.carrier.zero, system.carrier.settle
    for key, c in lead_f.items():
        residual[key] = residual.get(key, zero) - c
    uses_m, uses_n = row.uses()
    bound = None if row.kind == "exact" else (m if uses_m else 0, n if uses_n else 0)
    verdict = _step_verdict(residual, eps, bound, system)
    return _DeferredNormalForm(lambda: system._normal_form(settle(residual))), verdict
