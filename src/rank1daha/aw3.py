"""The Askey-Wilson algebra AW(3) and the double affine Hecke algebra.

The relations of the three-generator central extension and of its
two-generator quotient (:func:`aw_relations`, :func:`quotient_relations`),
one table of words with coefficients; the embedding K0 -> Y + (abcd/q) Y^-1,
K1 -> Z + Z^-1, T1 -> T1 (:func:`embed_aw`); the spherical and antispherical
maps in cleared form: :func:`compress` returns F u F, e^2 times the
compression by the idempotent e^-1 F, and :func:`iso_image` returns U~ F,
e times the subalgebra isomorphism U -> e^-1 U~ F, so no coefficient is
divided by e (F and e from :func:`rank1daha.words.symmetrizer`); the
duality anti-maps; the shift-operator identities; and :func:`_rank`, the
rank routine of the catalog's rank certificates.

The maps are products of reduced factors through the memoized basis
products of the point's rewrite system: :func:`embed_aw` reads each K-word
left to right, its prefix times the next letter's image, :func:`compress`
multiplies F (reduced u) F, and :func:`iso_image` sums embedded K-words
times F, so they never expand a product into its words.  The rank
certificates read commutators [x, g] = xg - gx of basis monomials from the
memoized products and the isomorphism's images through
:meth:`rank1daha.ncalg.RewriteSystem._iso_image`, and :func:`_rank`
eliminates those lifted vectors in place.  A point's structure constants,
and its relations at each set of constants, are built once and kept in
its rewrite system's memo, so the checks that share a point share them.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import ncalg
from .field import RatFunc
from .params import Params, StructureConstants, structure_constants
from .words import _ONE, Element, NormalForm, Word, _acc, _coerce_scalar, _embedding_images

__all__ = [
    "embed_element",
    "embed_aw",
    "aw_relations",
    "quotient_relations",
    "compress",
    "iso_image",
    "duality_image",
    "shift_operator_identities",
]


def _rank(vectors: Iterable[Mapping], params: Params) -> int:
    """The rank of ``vectors``, dicts from keys to the product kernel's
    lifted coefficients at the point ``params`` (int residues, not
    necessarily reduced, at a point of GF(p)), by echelon form.  Each
    vector is eliminated in place: a pivot row is subtracted, scaled by
    the vector's coefficient at the pivot key over the row's, where that
    is nonzero, and the vector is settled once; it is kept as a pivot row
    as it is, with its largest key as the pivot key (on the commutator
    images of the center certificate that leaves less to eliminate than
    its first key) and the inverse of its coefficient there."""
    carrier = ncalg.rewrite_system(params).carrier
    zero, mod, inv, settle = carrier.zero, carrier.mod, carrier.inv, carrier.settle
    pivots: dict = {}  # key -> (row, 1 / row[key]), row 0 at earlier pivot keys
    for vector in vectors:
        v = dict(vector)
        for key, (row, row_inv) in pivots.items():
            c = v.get(key)
            if c is not None and (c := mod(c * row_inv)):
                for k, x in row.items():
                    v[k] = v.get(k, zero) - c * x
        v = settle(v)
        if v:
            key = max(v)
            pivots[key] = (v, inv(v[key]))
    return len(pivots)


# ---------------------------------------------------------------------------
# The central-extension embedding


def embed_element(e: Element, params: Params) -> Element:
    """The letterwise image of a three-generator element inside the
    five-letter algebra, before reduction."""
    if e.alphabet != "aw":
        raise ValueError("embed expects an element over the K0/K1/T1 alphabet")
    images = {k: nf.as_element() for k, nf in _embedding_images(params).items()}
    return e.map_letters(images, "daha")


def embed_aw(e: Element, params: Params) -> NormalForm:
    """Embed K0 -> Y + (abcd/q) Y^-1, K1 -> Z + Z^-1, T1 -> T1, in normal
    form.  Each K-word is read left to right, its reduced prefix multiplied
    by the next letter's image as in :func:`rank1daha.ncalg.multiply`; the
    prefixes are memoized on the rewrite system of ``params``, so every call
    at that point shares them.

    The embedding is injective, so equal normal forms certify equality in
    the three-generator algebra."""
    if e.alphabet != "aw":
        raise ValueError("embed expects an element over the K0/K1/T1 alphabet")
    system = ncalg.rewrite_system(params)
    words = ((system.carrier.lift(c), system._embed_word(word)) for word, c in e.terms.items())
    return system._normal_form(system._linear(words))


def aw_relations(
    params: Params, sc: StructureConstants | None = None
) -> dict[str, Element]:
    """The defining relations of the central extension over K0/K1/T1, each
    as one element (left side minus right side) whose embedding reduces to
    zero: the two deformed q-commutator relations rel34 and rel35, the
    Casimir relation rel36, the centrality of T1, and the quadratic.  The
    structure constants default to those of ``params``, and the relations
    at each set of constants are built once per point (:func:`_relations`)."""
    sc = _constants(params) if sc is None else sc
    system = ncalg.rewrite_system(params)
    return dict(system._once(("relations", sc), lambda: _relations(params, sc)))


def _relations(params: Params, sc: StructureConstants) -> dict[str, Element]:
    # the relations of aw_relations at the structure constants sc
    q = params.value("q")
    ab = params.value("a") * params.value("b")
    qpqi = q + q.inv()
    clin = q + _ONE + q.inv()
    cmid = q * q + _ONE + (q * q).inv()
    # the terms in T1+ab are written out: X (T1+ab) = X T1 + ab X
    rows = {
        "rel34": (
            (qpqi, "K1 K0 K1"), (-1, "K1 K1 K0"), (-1, "K0 K1 K1"),
            (-(sc.B + ab * sc.E), "K1"), (-sc.E, "K1 T1"), (-sc.C0, "K0"),
            (-(sc.D0 + ab * sc.F0), ""), (-sc.F0, "T1"),
        ),
        "rel35": (
            (qpqi, "K0 K1 K0"), (-1, "K0 K0 K1"), (-1, "K1 K0 K0"),
            (-(sc.B + ab * sc.E), "K0"), (-sc.E, "K0 T1"), (-sc.C1, "K1"),
            (-(sc.D1 + ab * sc.F1), ""), (-sc.F1, "T1"),
        ),
        "rel36": (
            (1, "K1 K0 K1 K0"), (-cmid, "K0 K1 K0 K1"), (qpqi, "K0 K0 K1 K1"),
            (qpqi * sc.C0, "K0 K0"), (qpqi * sc.C1, "K1 K1"),
            (clin * (sc.B + ab * sc.E), "K0 K1"), (clin * sc.E, "K0 K1 T1"),
            (sc.B + ab * sc.E, "K1 K0"), (sc.E, "K1 K0 T1"),
            (clin * (sc.D0 + ab * sc.F0), "K0"), (clin * sc.F0, "K0 T1"),
            (clin * (sc.D1 + ab * sc.F1), "K1"), (clin * sc.F1, "K1 T1"),
            (sc.G, "T1"), (ab * sc.G - sc.Q0, ""),
        ),
        "central0": ((1, "K0 T1"), (-1, "T1 K0")),
        "central1": ((1, "K1 T1"), (-1, "T1 K1")),
        "quad": ((1, "T1 T1"), (ab + 1, "T1"), (ab, "")),
    }
    out = {}
    for name, terms in rows.items():
        acc: dict[Word, RatFunc] = {}
        for coef, word in terms:
            _acc(acc, tuple(word.split()), _coerce_scalar(coef))
        out[name] = Element("aw", acc)
    return out


def quotient_relations(
    params: Params, sc: StructureConstants | None = None
) -> dict[str, Element]:
    """The relations of the two-generator quotient T1 = -ab: rel1 and rel2
    (the q-commutator relations) and the Casimir relation, which is the
    degree-four Casimir word combination minus its scalar Q0.  They are
    rel34, rel35 and rel36 of :func:`aw_relations` with T1 replaced by -ab."""
    rels = aw_relations(params, sc)
    minus_ab = -(params.value("a") * params.value("b"))
    return {
        name: rels[source].substitute_t1(minus_ab)
        for name, source in (("rel1", "rel34"), ("rel2", "rel35"), ("casimir", "rel36"))
    }


def _constants(params: Params) -> StructureConstants:
    """The structure constants of ``params``, built once per point."""
    return ncalg.rewrite_system(params)._once(("constants",), lambda: structure_constants(params))


# ---------------------------------------------------------------------------
# The spherical and antispherical maps


def compress(family: str, u: Element, params: Params) -> NormalForm:
    """The two-sided compression F u F in normal form, as the product
    F (reduced u) F, F kept by the rewrite system.  The compression by the
    idempotent e^-1 F is e^-2 times this."""
    system = ncalg.rewrite_system(params)
    u_nf = system._lifted(ncalg.reduce(u, params))
    return system._normal_form(system._compress(family, u_nf))


def iso_image(family: str, u: Element, params: Params) -> NormalForm:
    """U~ F in normal form, the embedding of U~ times F, as in the step
    rows.  The isomorphism U -> e^-1 U~ F from the two-generator quotient
    algebra onto the spherical ("sym") or antispherical ("asym")
    subalgebra is e^-1 times this.  U~ is the K0/K1 word U read in the
    central extension; for "asym" K0 is first replaced by q K0, since the
    source is the quotient at the shifted parameters (qa, qb, c, d)."""
    if u.alphabet != "aw":
        raise ValueError("the subalgebra isomorphisms take K0/K1 words")
    system = ncalg.rewrite_system(params)
    terms = {word: system.carrier.lift(c) for word, c in u.terms.items()}
    return system._normal_form(system._iso_image(family, terms))


# ---------------------------------------------------------------------------
# Duality anti-isomorphisms


def duality_image(
    e: Element, which: str, params: Params
) -> tuple[Element, Params]:
    """Anti-algebra map onto the dual-parameter algebra.

    ``which`` selects the alphabet: "AW" maps K0 -> s K1, K1 -> a^-1 K0,
    T1 -> T1; "DAHA" maps Y -> s Z^-1, Z -> a Y^-1, T1 -> T1 (and inverse
    letters accordingly), where s^2 = abcd/q.  Words are reversed;
    coefficients pass through unchanged.  The returned parameters are the
    dual family (s, ab/s, ac/s, ad/s), so s must lie in the coefficient
    field: at a constant point that has a root, or at the symbolic point
    moved by :meth:`Params.with_square_root`, where s = d.

    The published target data for these maps lists the first dual
    parameter as 1/s; that choice fails the quadratic relation of T1
    (it would need ab to change value).  The value s used here makes the
    dual parameter products match (a'b' = ab, a'c' = ac, a'd' = ad), makes
    the map involutive on parameters, and sends every defining relation to
    zero; see the verification catalog.
    """
    target = params.dual()
    vals = params.values()
    a = vals["a"]
    s_val = target.value("a")
    if which == "AW":
        if e.alphabet != "aw":
            raise ValueError("AW duality takes elements over K0/K1/T1")
        images = {
            "K0": Element("aw", {("K1",): s_val}),
            "K1": Element("aw", {("K0",): a.inv()}),
            "T1": Element.generator("T1", "aw"),
        }
        return e.map_letters_reversed(images, "aw"), target
    if which == "DAHA":
        if e.alphabet != "daha":
            raise ValueError("DAHA duality takes elements over T1/Y/Z")
        images = {
            "T1": Element.generator("T1", "daha"),
            "Y": Element("daha", {("Zi",): s_val}),
            "Yi": Element("daha", {("Z",): s_val.inv()}),
            "Z": Element("daha", {("Yi",): a}),
            "Zi": Element("daha", {("Y",): a.inv()}),
        }
        return e.map_letters_reversed(images, "daha"), target
    raise ValueError(f"unknown duality variant {which!r}")


# ---------------------------------------------------------------------------
# Shift operators


def _shift_operators(params: Params) -> tuple[Element, Element]:
    # D- = Y + (a^2 b^2 cd/q) Y^-1 - (abcd/q + ab), D+ = Y + (cd/q) Y^-1 - (cd/q + 1)
    q, a, b, c, d = params.vals
    ab, cd_q = a * b, c * d / q
    return (
        Element("daha", {("Y",): _ONE, ("Yi",): ab * ab * cd_q, (): -(ab * cd_q + ab)}),
        Element("daha", {("Y",): _ONE, ("Yi",): cd_q, (): -(cd_q + _ONE)}),
    )


def shift_operator_identities(params: Params) -> tuple[NormalForm, NormalForm]:
    """Both shift-operator compressions; each must reduce to zero.

    They are :func:`compress` of Y + (a^2 b^2 cd/q) Y^-1 - (abcd/q + ab) by
    T1+1 and of Y + (cd/q) Y^-1 - (cd/q + 1) by T1+ab."""
    d_minus, d_plus = _shift_operators(params)
    return compress("sym", d_minus, params), compress("asym", d_plus, params)
