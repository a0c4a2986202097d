"""Surface syntax for elements: tokenizer, parser, evaluator and printer.

Grammar (the printer emits exactly this form; parse . print is the identity
on canonical output):

    element  := term (("+" | "-") term)*
    term     := scalar ("*" factor)*            -- bare scalars are terms
              | (scalar "*")? factor ("*" factor)*
    factor   := "x" "[" vector (";" natvector)? "]"
              | "d" nat ("^" nat)?
              | "[" element "," element "]"
              | "(" element ")"
    scalar   := int ("/" posint)?
    vector   := "(" (rational ("," rational)*)? ")"

The empty vector "()" denotes the zero vector of the expected length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element, Signature
from .errors import DimensionError, ExprSyntaxError
from .rationals import point_str, rational_str


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scalar:
    value: Fraction


@dataclass(frozen=True)
class GenX:
    alpha: tuple[Fraction, ...]
    i: tuple[int, ...] | None


@dataclass(frozen=True)
class GenD:
    index: int
    power: int


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Bracket:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Paren:
    inner: object


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


@dataclass(frozen=True)
class Token:
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
        if ch.isdigit():
            j = k
            while j < len(src) and src[j].isdigit():
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

class _Parser:
    def __init__(self, tokens: list[Token], sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.k = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def take(self, kind: str) -> Token:
        tok = self.tokens[self.k]
        if tok.kind != kind:
            raise ExprSyntaxError(tok.pos, {_label(kind)}, _label(tok.kind))
        self.k += 1
        return tok

    def error(self, expected) -> ExprSyntaxError:
        tok = self.peek()
        return ExprSyntaxError(tok.pos, {_label(k) for k in expected},
                               _label(tok.kind))

    # -- grammar ----------------------------------------------------------

    def element(self):
        terms = [self.term()]
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.take(self.peek().kind)
            term = self.term()
            if op.kind == "MINUS":
                term = _negate(term)
            terms.append(term)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self):
        if self.peek().kind not in ("NAT", "MINUS", "X", "D", "LBRACK", "LPAREN"):
            raise self.error({"NAT", "X", "D", "LBRACK", "LPAREN"})
        factors: list = []
        if self.peek().kind in ("NAT", "MINUS"):
            factors.append(Scalar(self.scalar()))
            while self.peek().kind == "STAR":
                self.take("STAR")
                factors.append(self.factor())
        else:
            factors.append(self.factor())
            while self.peek().kind == "STAR":
                self.take("STAR")
                factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self):
        tok = self.peek()
        if tok.kind == "X":
            return self.gen_x()
        if tok.kind == "D":
            return self.gen_d()
        if tok.kind == "LBRACK":
            self.take("LBRACK")
            lhs = self.element()
            self.take("COMMA")
            rhs = self.element()
            self.take("RBRACK")
            return Bracket(lhs, rhs)
        if tok.kind == "LPAREN":
            self.take("LPAREN")
            inner = self.element()
            self.take("RPAREN")
            return Paren(inner)
        raise self.error({"X", "D", "LBRACK", "LPAREN"})

    def gen_x(self):
        self.take("X")
        self.take("LBRACK")
        pos = self.peek().pos
        alpha = self.vector()
        if len(alpha) == 0:
            alpha = (Fraction(0),) * self.sig.ell
        if len(alpha) != self.sig.ell:
            raise DimensionError(pos, f"expected {self.sig.ell} coordinates, got {len(alpha)}")
        i = None
        if self.peek().kind == "SEMI":
            self.take("SEMI")
            pos = self.peek().pos
            raw = self.vector(nat_only=True)
            if len(raw) == 0:
                raw = (Fraction(0),) * self.sig.ell
            if len(raw) != self.sig.ell:
                raise DimensionError(pos, f"expected {self.sig.ell} entries, got {len(raw)}")
            if any(raw[self.sig.ell1:]):
                raise DimensionError(pos, f"polynomial index of the monomial with alpha "
                                          f"{point_str(alpha)}, i {point_str(raw)}, mu "
                                          f"{point_str((0,) * self.sig.ell)} extends past "
                                          f"slot {self.sig.ell1}")
            i = tuple(int(x) for x in raw)
        self.take("RBRACK")
        return GenX(alpha, i)

    def gen_d(self):
        self.take("D")
        tok = self.take("NAT")
        index = int(tok.text)
        if not 1 <= index <= self.sig.ell:
            raise DimensionError(tok.pos, f"derivation index {index} outside 1..{self.sig.ell}")
        power = 1
        if self.peek().kind == "CARET":
            self.take("CARET")
            power = int(self.take("NAT").text)
        return GenD(index, power)

    def vector(self, nat_only: bool = False) -> tuple[Fraction, ...]:
        self.take("LPAREN")
        entries: list[Fraction] = []
        if self.peek().kind != "RPAREN":
            entries.append(self.rational(nat_only))
            while self.peek().kind == "COMMA":
                self.take("COMMA")
                entries.append(self.rational(nat_only))
        self.take("RPAREN")
        return tuple(entries)

    def rational(self, nat_only: bool = False) -> Fraction:
        sign = 1
        if self.peek().kind == "MINUS":
            if nat_only:
                raise self.error({"NAT"})
            self.take("MINUS")
            sign = -1
        num = int(self.take("NAT").text)
        if not nat_only and self.peek().kind == "SLASH":
            self.take("SLASH")
            den_tok = self.take("NAT")
            if int(den_tok.text) == 0:
                raise ExprSyntaxError(den_tok.pos, {"positive integer"}, "0")
            return Fraction(sign * num, int(den_tok.text))
        return Fraction(sign * num)

    def scalar(self) -> Fraction:
        return self.rational()


def _negate(node):
    if isinstance(node, Scalar):
        return Scalar(-node.value)
    if isinstance(node, Product) and node.factors and isinstance(node.factors[0], Scalar):
        return Product((Scalar(-node.factors[0].value),) + node.factors[1:])
    return Product((Scalar(Fraction(-1)), node))


def parse_element(src: str, sig: Signature):
    """Parse surface syntax into an AST, checking vector lengths against sig."""
    try:
        parser = _Parser(tokenize(src), sig)
        ast = parser.element()
        end = parser.peek()
        if end.kind != "END":
            raise ExprSyntaxError(end.pos, {"+", "-", "*", "end of input"}, end.kind)
        return ast
    except (ExprSyntaxError, DimensionError) as exc:
        raise exc.locate(src)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_expr(ast, sig: Signature) -> Element:
    """Evaluate an AST against the signature; products fold left to right."""
    if isinstance(ast, Scalar):
        return sig.scalar(ast.value)
    if isinstance(ast, GenX):
        return sig.x(ast.alpha, ast.i)
    if isinstance(ast, GenD):
        return sig.d(ast.index, ast.power)
    if isinstance(ast, Product):
        out = eval_expr(ast.factors[0], sig)
        for node in ast.factors[1:]:
            out = out * eval_expr(node, sig)
        return out
    if isinstance(ast, Sum):
        out = sig.zero()
        for node in ast.terms:
            out = out + eval_expr(node, sig)
        return out
    if isinstance(ast, Bracket):
        return eval_expr(ast.lhs, sig).bracket(eval_expr(ast.rhs, sig))
    if isinstance(ast, Paren):
        return eval_expr(ast.inner, sig)
    raise TypeError(f"not an expression node: {ast!r}")


def parse_and_eval(src: str, sig: Signature) -> Element:
    return eval_expr(parse_element(src, sig), sig)


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
