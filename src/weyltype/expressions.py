"""Surface syntax for elements: tokenizer, evaluating parser and printer.

Grammar (the printer emits exactly this form; parse . print is the identity
on canonical output):

    element  := term (("+" | "-") term)*
    term     := scalar ("*" factor)*            -- bare scalars are terms
              | (scalar "*")? factor ("*" factor)*
    factor   := "x" "[" vector (";" natvector)? "]"
              | "d" nat ("^" nat)?                    -- a power <= MAX_POWER
              | "[" element "," element "]"
              | "(" element ")"
    scalar   := int ("/" posint)?
    vector   := "(" (rational ("," rational)*)? ")"

The empty vector "()" denotes the zero vector of the expected length.

The parser evaluates as it reads: each grammar rule returns the Element it
denotes, folding products and sums left to right, so an x[...] off the
lattice raises NotMember before any syntax error further right.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .algebra import Element, Signature
from .errors import DimensionError, ExpressionError, ExprSyntaxError
from .rationals import point_str, rational_str


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_PUNCT = {"[": "LBRACK", "]": "RBRACK", "(": "LPAREN", ")": "RPAREN",
          ",": "COMMA", ";": "SEMI", "+": "PLUS", "-": "MINUS",
          "*": "STAR", "/": "SLASH", "^": "CARET"}

_KIND_LABELS = {"X": "'x'", "D": "'d'", "NAT": "a number", "END": "end of input",
                **{kind: f"'{ch}'" for ch, kind in _PUNCT.items()}}


def _label(kind: str) -> str:
    return _KIND_LABELS.get(kind, kind)


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


def tokenize(src: str) -> list[Token]:
    out = []
    k = 0
    while k < len(src):
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdecimal():
            j = k
            while j < len(src) and src[j].isdecimal():
                j += 1
            out.append(Token("NAT", src[k:j], k))
            k = j
            continue
        if ch == "x":
            out.append(Token("X", ch, k))
            k += 1
            continue
        if ch == "d":
            out.append(Token("D", ch, k))
            k += 1
            continue
        if ch in _PUNCT:
            out.append(Token(_PUNCT[ch], ch, k))
            k += 1
            continue
        raise ExprSyntaxError(k, {"a token"}, repr(ch))
    out.append(Token("END", "", len(src)))
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# The deepest nesting of "(" and "[".  Each level holds three Python frames,
# so a fixed bound, not the interpreter's recursion limit or the caller's
# stack depth, decides which input is refused.
MAX_NESTING = 100

# The highest power of a d_q: d_q^N times x^alpha has N + 1 terms of N-bit binomials.
MAX_POWER = 100


class _Parser:
    def __init__(self, tokens: list[Token], sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.k = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def take(self, kind: str) -> Token:
        tok = self.tokens[self.k]
        if tok.kind != kind:
            raise ExprSyntaxError(tok.pos, {_label(kind)}, _label(tok.kind))
        self.k += 1
        return tok

    def nat(self) -> tuple[Token, int]:
        """The next NAT token and its value.  A number longer than the
        interpreter's limit for int() (sys.get_int_max_str_digits) is a
        syntax error at the token."""
        tok = self.take("NAT")
        try:
            return tok, int(tok.text)
        except ValueError:
            raise ExprSyntaxError(tok.pos, {f"a number of at most {sys.get_int_max_str_digits()} "
                                            f"digits"}, f"{len(tok.text)} digits") from None

    def error(self, expected) -> ExprSyntaxError:
        tok = self.peek()
        return ExprSyntaxError(tok.pos, {_label(k) for k in expected},
                               _label(tok.kind))

    # -- grammar ----------------------------------------------------------

    def element(self) -> Element:
        out = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            if self.take(self.peek().kind).kind == "PLUS":
                out = out + self.term()
            else:
                out = out - self.term()
        return out

    def term(self) -> Element:
        kind = self.peek().kind
        if kind in ("NAT", "MINUS"):
            out = self.sig.scalar(self.rational())
        elif kind in ("X", "D", "LBRACK", "LPAREN"):
            out = self.factor()
        else:
            raise self.error({"NAT", "X", "D", "LBRACK", "LPAREN"})
        while self.peek().kind == "STAR":
            self.take("STAR")
            out = out * self.factor()
        return out

    def factor(self) -> Element:
        tok = self.peek()
        if tok.kind == "X":
            return self.gen_x()
        if tok.kind == "D":
            return self.gen_d()
        if tok.kind not in ("LBRACK", "LPAREN"):
            raise self.error({"X", "D", "LBRACK", "LPAREN"})
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(tok.pos, {f"at most {MAX_NESTING} nested brackets"},
                                  _label(tok.kind))
        self.depth += 1
        self.take(tok.kind)
        out = self.element()
        if tok.kind == "LBRACK":
            self.take("COMMA")
            rhs = self.element()
            self.take("RBRACK")
            out = out.bracket(rhs)
        else:
            self.take("RPAREN")
        self.depth -= 1
        return out

    def gen_x(self) -> Element:
        self.take("X")
        self.take("LBRACK")
        alpha = self.vector("coordinates")
        i = None
        if self.peek().kind == "SEMI":
            self.take("SEMI")
            pos = self.peek().pos
            i = self.vector("entries", nat_only=True)
            if any(i[self.sig.ell1:]):
                raise DimensionError(pos, f"polynomial index of the monomial with alpha "
                                          f"{point_str(alpha)}, i {point_str(i)}, mu "
                                          f"{point_str((0,) * self.sig.ell)} extends past "
                                          f"slot {self.sig.ell1}")
            i = tuple(int(x) for x in i)
        self.take("RBRACK")
        return self.sig.x(alpha, i)

    def gen_d(self) -> Element:
        self.take("D")
        tok, index = self.nat()
        if not 1 <= index <= self.sig.ell:
            raise DimensionError(tok.pos, f"derivation index {index} outside 1..{self.sig.ell}")
        power = 1
        if self.peek().kind == "CARET":
            self.take("CARET")
            tok, power = self.nat()
            if power > MAX_POWER:
                raise ExprSyntaxError(tok.pos, {f"a power of at most {MAX_POWER}"}, tok.text)
        return self.sig.d(index, power)

    def vector(self, noun: str, nat_only: bool = False) -> tuple[Fraction, ...]:
        """l entries; the empty vector "()" is the zero vector."""
        pos = self.take("LPAREN").pos
        entries: list[Fraction] = []
        if self.peek().kind != "RPAREN":
            entries.append(self.rational(nat_only))
            while self.peek().kind == "COMMA":
                self.take("COMMA")
                entries.append(self.rational(nat_only))
        self.take("RPAREN")
        if not entries:
            return (Fraction(0),) * self.sig.ell
        if len(entries) != self.sig.ell:
            raise DimensionError(pos, f"expected {self.sig.ell} {noun}, got {len(entries)}")
        return tuple(entries)

    def rational(self, nat_only: bool = False) -> Fraction:
        sign = 1
        if self.peek().kind == "MINUS":
            if nat_only:
                raise self.error({"NAT"})
            self.take("MINUS")
            sign = -1
        num = self.nat()[1]
        if not nat_only and self.peek().kind == "SLASH":
            self.take("SLASH")
            den_tok, den = self.nat()
            if den == 0:
                raise ExprSyntaxError(den_tok.pos, {"positive integer"}, "0")
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def parse_and_eval(src: str, sig: Signature) -> Element:
    """The element that ``src`` denotes in sig; tokenizer errors come first,
    the rest are raised where the parser meets them."""
    try:
        parser = _Parser(tokenize(src), sig)
        out = parser.element()
        end = parser.peek()
        if end.kind != "END":
            raise ExprSyntaxError(end.pos, {"+", "-", "*", "end of input"}, end.kind)
        return out
    except ExpressionError as exc:
        raise exc.locate(src)


# ---------------------------------------------------------------------------
# canonical printer
# ---------------------------------------------------------------------------

def _vector_text(entries) -> str:
    return "(" + ",".join(rational_str(Fraction(x)) for x in entries) + ")"


def _term_factors(sig: Signature, monomial) -> list[str]:
    al, i, mu = monomial
    factors = []
    if any(al) or any(i):
        ambient = sig.lattice.ambient(al)
        factors.append(f"x[{_vector_text(ambient)};{_vector_text(i)}]")
    for q, k in enumerate(mu):
        if k == 1:
            factors.append(f"d{q + 1}")
        elif k > 1:
            factors.append(f"d{q + 1}^{k}")
    return factors


def _term_text(coeff: Fraction, factors: list[str]) -> str:
    if not factors:
        return rational_str(coeff)
    body = " * ".join(factors)
    if coeff == 1:
        return body
    return f"{rational_str(coeff)} * {body}"


def format_element(e: Element) -> str:
    """Canonical text form; terms in canonical order, no zero-power factors."""
    if e.is_zero:
        return "0"
    sig = e.signature
    pieces = []
    for idx, (m, c) in enumerate(e.sorted_terms()):
        factors = _term_factors(sig, m)
        if idx == 0:
            pieces.append(_term_text(c, factors))
        elif c > 0:
            pieces.append(" + " + _term_text(c, factors))
        else:
            pieces.append(" - " + _term_text(-c, factors))
    return "".join(pieces)
