"""Expressions over the algebra's generators, parsed into elements.

The command line's ``reduce`` reads its argument here: generators,
parameter names read at a point, integer literals, the four operations
(division by scalars), powers, and parentheses.
"""

from __future__ import annotations

from .errors import ConfigError, ParseError
from .field import _ONE, RatFunc
from .laurent import PARAM_NAMES
from .params import Params, make_params
from .words import AW_ALPHABET, DAHA_ALPHABET, Element

__all__ = ["parse_expression"]


_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(
            f"unexpected character {ch!r}", i, frozenset({"generator", "number"})
        )
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser producing an Element; scalars are carried
    as coefficients of the empty word, so mixed scalar/word arithmetic
    falls out of Element's own operations."""

    def __init__(self, text: str, alphabet: str, params: Params):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.params = params
        self.letters = DAHA_ALPHABET if alphabet == "daha" else AW_ALPHABET

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind}, found {tok[1] or 'end of input'}",
                tok[2],
                frozenset({kind}),
            )
        return self.advance()

    def parse(self) -> Element:
        value = self.parse_expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(
                f"unexpected trailing {tok[1]!r}",
                tok[2],
                frozenset({"+", "-", "*", "/", "^", "end of input"}),
            )
        return value

    def parse_expr(self) -> Element:
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.advance()[0] == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            term = self.parse_term()
            value = value + term if op == "+" else value - term
        return value

    def parse_term(self) -> Element:
        value = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            factor = self.parse_factor()
            if op == "*":
                value = value * factor
            else:
                scalar = self._as_scalar(factor)
                value = value * scalar.inv()
        return value

    def parse_factor(self) -> Element:
        atom_pos = self.peek()[2]
        value = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            tok = self.expect("INT")
            exponent = sign * int(tok[1])
            value = self._power(value, exponent, atom_pos)
        return value

    def parse_atom(self) -> Element:
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok[0] == "INT":
            self.advance()
            return Element(
                self.alphabet, {(): RatFunc.from_rational(int(tok[1]))}
            )
        if tok[0] == "NAME":
            self.advance()
            name = tok[1]
            if name in self.letters:
                return Element(self.alphabet, {(name,): _ONE})
            if name in PARAM_NAMES:
                return Element(self.alphabet, {(): self.params.value(name)})
            raise ParseError(
                f"unknown name {name!r} for the {self.alphabet} alphabet",
                tok[2],
                frozenset(self.letters) | frozenset(PARAM_NAMES),
            )
        raise ParseError(
            f"expected a value, found {tok[1] or 'end of input'}",
            tok[2],
            frozenset({"generator", "number", "("}),
        )

    def _as_scalar(self, e: Element) -> RatFunc:
        if set(e.terms) <= {()}:
            return e.terms.get((), RatFunc.zero())
        raise ParseError(
            "division is only defined by scalar expressions",
            self.peek()[2],
            frozenset({"scalar"}),
        )

    _INVERTIBLE = {"Y": "Yi", "Yi": "Y", "Z": "Zi", "Zi": "Z"}

    def _power(self, value: Element, exponent: int, pos: int) -> Element:
        if set(value.terms) <= {()}:
            scalar = value.terms.get((), RatFunc.zero())
            return Element(self.alphabet, {(): scalar**exponent})
        if exponent >= 0:
            return value**exponent
        # a negative exponent of a word: a single invertible letter only
        if len(value.terms) == 1:
            (word, coef), = value.terms.items()
            if len(word) == 1 and word[0] in self._INVERTIBLE and coef == _ONE:
                inverse = self._INVERTIBLE[word[0]]
                return Element(self.alphabet, {(inverse,) * (-exponent): _ONE})
        raise ParseError(
            "negative exponents apply only to Y, Z, or scalars",
            pos,
            frozenset({"Y", "Z", "scalar"}),
        )


def parse_expression(text: str, alphabet: str = "daha", params: Params | None = None) -> Element:
    """Parse an expression over the requested alphabet.

    Grammar: generators (T1, Y, Yi, Z, Zi or K0, K1, T1), parameter names
    q,a,b,c,d (their values at ``params``, by default the symbolic point's
    free symbols) and integer literals as scalars, '+', '-', '*', '/'
    (division by scalars), '^' with integer exponents (negative allowed on
    Y and Z, meaning inverse powers), and parentheses.
    """
    if alphabet not in ("daha", "aw"):
        raise ConfigError(f"unknown alphabet {alphabet!r}")
    return _Parser(text, alphabet, params or make_params("symbolic")).parse()
