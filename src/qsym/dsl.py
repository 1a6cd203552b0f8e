"""A small expression language for partition-calculus elements.

Grammar (lowest to highest precedence):

    sum    :=  oxterm (("+" | "-") oxterm)*
    oxterm :=  prod ("ox" prod)*
    prod   :=  unary ("*" unary)*
    unary  :=  ("adj" | "rotl" | "rotr" | "asym") "(" sum ")"
             | "scale" "(" poly "," sum ")"
             | "compose" "(" sum "," sum ")"
             | "tensor" "(" sum "," sum ")"
             | atom
    atom   :=  builtin | name | literal | "(" sum ")"

``a * b`` composes with b applied first; ``ox`` is the horizontal tensor and
binds more loosely than ``*``.  Builtins: id(k), cap, cup, cross, sing, merge,
fork, block(k,l), pk(k).  Literals use the partition text format
``P(2,2){1 2' | 2 1'}``.  Polynomial literals ``poly(n^2 - 2*n + 1)`` have
integer coefficients in the loop parameter n.

Fixture files hold one identity per ``check`` line::

    # comment
    let half_sq = asym(id(2))
    check square-idempotent: half_sq * half_sq == half_sq

The parser evaluates as it reads: each grammar rule returns the exact
``PartLin`` of its text, and each operator checks the shapes of its operands
at its own token before the algebra runs, so shape errors carry source
positions.  Point counts and polynomial powers are size-guarded before they
are built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .config import guard_dense
from .errors import InvalidInputError, ParseError
from .partitions import Partition, PartLin, antisymmetrize, compose
from .polyq import PolyQ, N_POLY

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lit>P\(\s*\d+\s*,\s*\d+\s*\)\s*\{[^}]*\})
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>==|[-+*^(),])
    """,
    re.X,
)

_UNARY = ("adj", "rotl", "rotr", "asym")
_CONSTANTS = {
    "cap": Partition.cap,
    "cup": Partition.cup,
    "cross": Partition.crossing,
    "sing": Partition.singleton,
    "merge": Partition.merge,
    "fork": Partition.fork,
}
_RESERVED = set(_UNARY) | set(_CONSTANTS) | {
    "scale", "compose", "tensor", "poly", "ox", "n", "id", "block", "pk",
}


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, line_offset: int = 1):
    tokens = []
    line, col = line_offset, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind != "ws":
            tokens.append(Token(kind, raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# Deepest expression the parser accepts, counting brackets, call arguments
# and each operator of a chain (a chain is a left-deep tree): deeper input is
# a ParseError instead of a RecursionError.
MAX_DEPTH = 100


class Parser:
    """Recursive descent over the tokens; each rule returns the value of its
    text, evaluated in ``env``."""

    def __init__(self, tokens, env):
        self.tokens = tokens
        self.env = env
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def deeper(self, t: Token) -> int:
        """Enter one more level at token t; return the level before."""
        depth = self.depth
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             t.line, t.col)
        return depth

    # expression grammar --------------------------------------------------------

    def parse_expr(self) -> PartLin:
        depth = self.deeper(self.peek())
        value = self.parse_oxterm()
        while self.peek().text in ("+", "-"):
            t = self.next()
            self.deeper(t)
            value = _apply(t, t.text, value, self.parse_oxterm())
        self.depth = depth
        return value

    def parse_oxterm(self) -> PartLin:
        depth = self.depth
        value = self.parse_prod()
        while self.peek().text == "ox":
            t = self.next()
            self.deeper(t)
            value = _apply(t, "tensor", value, self.parse_prod())
        self.depth = depth
        return value

    def parse_prod(self) -> PartLin:
        depth = self.depth
        value = self.parse_unary()
        while self.peek().text == "*":
            t = self.next()
            self.deeper(t)
            value = _apply(t, "compose", value, self.parse_unary())
        self.depth = depth
        return value

    def parse_unary(self) -> PartLin:
        t = self.peek()
        if t.kind == "name" and t.text in _UNARY:
            self.next()
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return _unary(t, arg)
        if t.kind == "name" and t.text == "scale":
            self.next()
            self.expect("(")
            poly = self.parse_poly_literal()
            self.expect(",")
            arg = self.parse_expr()
            self.expect(")")
            return arg.scale(poly)
        if t.kind == "name" and t.text in ("compose", "tensor"):
            self.next()
            self.expect("(")
            lhs = self.parse_expr()
            self.expect(",")
            rhs = self.parse_expr()
            self.expect(")")
            return _apply(t, t.text, lhs, rhs)
        return self.parse_atom()

    def parse_atom(self) -> PartLin:
        t = self.next()
        if t.kind == "lit":
            k, l = re.match(r"P\(\s*(\d+)\s*,\s*(\d+)", t.text).groups()
            _guard_points(_int(k, t), _int(l, t))
            try:
                return PartLin.of(Partition.parse(t.text))
            except InvalidInputError as exc:
                raise ParseError(str(exc), t.line, t.col) from None
        if t.text == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        if t.kind == "name":
            if t.text in ("id", "block", "pk"):
                return self.parse_sized(t)
            if t.text in _CONSTANTS:
                return PartLin.of(_CONSTANTS[t.text]())
            if t.text in _RESERVED:
                raise ParseError(f"misplaced keyword {t.text!r}", t.line, t.col)
            if t.text not in self.env:
                raise ParseError(f"unknown identifier {t.text!r}", t.line, t.col)
            return self.env[t.text]
        raise ParseError(f"unexpected token {t.text or 'end of input'!r}", t.line, t.col)

    def parse_sized(self, t: Token) -> PartLin:
        """id(k), block(k,l) or pk(k); the point count is size-guarded
        before any point list is built."""
        self.expect("(")
        k = self.next_int()
        if t.text == "block":
            self.expect(",")
            l = self.next_int()
        self.expect(")")
        if t.text == "id":
            _guard_points(k, k)
            return PartLin.of(Partition.identity(k))
        if t.text == "block":
            if k + l < 1:
                raise ParseError("block(k,l) needs at least one point", t.line, t.col)
            _guard_points(k, l)
            return PartLin.of(Partition.block(k, l))
        if k < 1:
            raise ParseError("pk(k) needs k >= 1", t.line, t.col)
        _guard_points(0, 2 * k)
        return PartLin.of(Partition.cycle(k))

    def next_int(self) -> int:
        t = self.next()
        if t.kind != "int":
            raise ParseError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return _int(t.text, t)

    # polynomial sub-grammar --------------------------------------------------------

    def parse_poly_literal(self) -> PolyQ:
        self.expect("poly")
        self.expect("(")
        poly = self.parse_poly_sum()
        self.expect(")")
        return poly

    def parse_poly_sum(self) -> PolyQ:
        depth = self.deeper(self.peek())
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        node = self.parse_poly_prod()
        if neg:
            node = -node
        while self.peek().text in ("+", "-"):
            t = self.next()
            rhs = self.parse_poly_prod()
            node = node + rhs if t.text == "+" else node - rhs
        self.depth = depth
        return node

    def parse_poly_prod(self) -> PolyQ:
        node = self.parse_poly_factor()
        while self.peek().text == "*":
            self.next()
            node = node * self.parse_poly_factor()
        return node

    def parse_poly_factor(self) -> PolyQ:
        base = self.parse_poly_atom()
        if self.peek().text == "^":
            self.next()
            return base ** self.next_int()
        return base

    def parse_poly_atom(self) -> PolyQ:
        t = self.next()
        if t.kind == "int":
            return PolyQ.const(_int(t.text, t))
        if t.text == "n":
            return N_POLY
        if t.text == "(":
            node = self.parse_poly_sum()
            self.expect(")")
            return node
        if t.text == "-":
            self.deeper(t)
            return -self.parse_poly_atom()
        raise ParseError(f"bad polynomial token {t.text!r}", t.line, t.col)


def _int(digits: str, t: Token) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter converts
        raise ParseError(f"integer of {len(digits)} digits is too long",
                         t.line, t.col) from None


def _guard_points(k: int, l: int):
    guard_dense(k + l, f"partition P({k},{l})")


def _unary(t: Token, arg: PartLin) -> PartLin:
    """The function named by token t applied to arg, arity-checked at t."""
    if t.text == "adj":
        return arg.adjoint()
    if t.text == "asym":
        if arg.k % 2 or arg.l % 2:
            raise ParseError(f"asym needs even rows, got shape ({arg.k},{arg.l})",
                             t.line, t.col)
        return antisymmetrize(arg)
    if arg.k == 0:
        raise ParseError("cannot rotate: upper row is empty", t.line, t.col)
    return arg.rotate("left" if t.text == "rotl" else "right")


def _apply(t: Token, op: str, lhs: PartLin, rhs: PartLin) -> PartLin:
    """lhs op rhs for the operator at token t, arity-checked at t."""
    if op == "compose":
        if lhs.k != rhs.l:
            raise ParseError(f"cannot compose: left expects {lhs.k} inputs, "
                             f"right produces {rhs.l} outputs", t.line, t.col)
        return compose(lhs, rhs)
    if op == "tensor":
        return lhs.tensor(rhs)
    if (lhs.k, lhs.l) != (rhs.k, rhs.l):
        raise ParseError(f"cannot add shapes ({lhs.k},{lhs.l}) and ({rhs.k},{rhs.l})",
                         t.line, t.col)
    return lhs + rhs if op == "+" else lhs - rhs


def eval_text(text: str, env: dict[str, PartLin] | None = None) -> PartLin:
    """The exact value of expression ``text``, with names bound in ``env``."""
    p = Parser(_tokenize(text), env or {})
    value = p.parse_expr()
    if not p.at_end():
        t = p.peek()
        raise ParseError(f"trailing input starting at {t.text!r}", t.line, t.col)
    return value


# -- fixture files --------------------------------------------------------------------

@dataclass
class FixtureCheck:
    name: str
    lhs: PartLin
    rhs: PartLin
    kind: str = "check"  # 'check' must hold; 'flag' records a known discrepancy


def load_fixture_file(text: str) -> list[FixtureCheck]:
    """Parse a fixture file: '#' comments, 'let name = expr' bindings, and
    'check name: lhs == rhs' identities, evaluated in order.

    A ``flag`` line has the same shape as ``check`` but marks an identity that
    is recorded as transcribed even though it is not expected to hold; suites
    report its exact residual as a finding instead of failing on it.
    """
    env: dict[str, PartLin] = {}
    checks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("let "):
            name, _, expr_text = line[4:].partition("=")
            name = name.strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ParseError(f"bad let name {name!r}", lineno, 1)
            if name in _RESERVED:
                raise ParseError(f"cannot rebind reserved name {name!r}", lineno, 1)
            env[name] = eval_text(expr_text, env)
            continue
        kind = None
        if line.startswith("check "):
            kind, rest = "check", line[6:]
        elif line.startswith("flag "):
            kind, rest = "flag", line[5:]
        if kind:
            head, _, body = rest.partition(":")
            name = head.strip()
            lhs_text, sep, rhs_text = body.partition("==")
            if not sep:
                raise ParseError(f"{kind} needs 'lhs == rhs'", lineno, 1)
            checks.append(FixtureCheck(name, eval_text(lhs_text, env),
                                       eval_text(rhs_text, env), kind))
            continue
        raise ParseError(f"unrecognized fixture line: {raw!r}", lineno, 1)
    return checks
