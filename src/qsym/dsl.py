"""A small expression language for partition-calculus elements.

The grammar is two tables.  ``_BINARY`` gives each infix operator its
precedence level, from the loosest to the tightest, and its operation:

    expr(0) :=  expr(1) (("+" | "-") expr(1))*       sum, difference
    expr(1) :=  expr(2) ("ox" expr(2))*              tensor
    expr(2) :=  atom ("*" atom)*                     compose
    atom    :=  call | constant | name | literal | "(" expr(0) ")"

``_CALLS`` gives each function the kinds of its arguments, an expression
(``expr``), a polynomial literal (``poly``) or an integer (``int``):

    adj(expr)  rotl(expr)  rotr(expr)  asym(expr)  scale(poly, expr)
    compose(expr, expr)  tensor(expr, expr)  id(int)  block(int, int)  pk(int)

Every chain is left-deep.  ``a * b`` composes with b applied first; ``ox`` is
the horizontal tensor and binds more loosely than ``*``.  Constants: cap,
cup, cross, sing, merge, fork.  Literals use the partition text format
``P(2,2){1 2' | 2 1'}``.  Polynomial literals ``poly(n^2 - 2*n + 1)`` have
integer coefficients in the loop parameter n: their rules compute on tuples
of integer coefficients, multiplying with ``cyclotomic._poly_mul``, the
package's one polynomial product, and each literal becomes one ``PolyQ``.

Fixture files hold one identity per ``check`` line::

    # comment
    let half_sq = asym(id(2))
    check square-idempotent: half_sq * half_sq == half_sq

The parser evaluates as it reads: each grammar rule returns the exact
``PartLin`` of its text, and each operator and call checks the shapes and
sizes of its operands at its own token before the algebra runs, so shape
errors carry source positions.  Point counts and polynomial powers are
size-guarded before they are built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest

from .config import guard_dense
from .cyclotomic import _poly_mul
from .errors import InvalidInputError, ParseError
from .partitions import Partition, PartLin, antisymmetrize, compose
from .polyq import PolyQ, _strip

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

_CONSTANTS = {"cap": Partition.cap, "cup": Partition.cup, "cross": Partition.crossing,
              "sing": Partition.singleton, "merge": Partition.merge, "fork": Partition.fork}
# infix token -> (precedence level, loosest first; the operation of _apply)
_BINARY = {"+": (0, "+"), "-": (0, "-"), "ox": (1, "tensor"), "*": (2, "compose")}
_ATOM_LEVEL = 1 + max(level for level, _ in _BINARY.values())
# function name -> the kinds of its arguments
_CALLS = {
    "adj": ("expr",), "rotl": ("expr",), "rotr": ("expr",), "asym": ("expr",),
    "scale": ("poly", "expr"), "compose": ("expr", "expr"), "tensor": ("expr", "expr"),
    "id": ("int",), "block": ("int", "int"), "pk": ("int",),
}
_RESERVED = {*_BINARY, *_CALLS, *_CONSTANTS, "poly", "n"}


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int = 1, col: int = 1):
    """Tokens of ``text``, positioned as if it started at ``line``, ``col``."""
    tokens = []
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

    def parse_expr(self, level: int = 0) -> PartLin:
        """The left-deep chain of the operators of ``level`` over operands of
        the next level.  The outermost level opens one depth level, and each
        operator of a chain one more."""
        if level == _ATOM_LEVEL:
            return self.parse_atom()
        depth = self.deeper(self.peek()) if level == 0 else self.depth
        value = self.parse_expr(level + 1)
        while (op := _BINARY.get(self.peek().text)) and op[0] == level:
            t = self.next()
            self.deeper(t)
            value = _apply(t, op[1], value, self.parse_expr(level + 1))
        self.depth = depth
        return value

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
            if t.text in _CALLS:
                return self.parse_call(t)
            if t.text in _CONSTANTS:
                return PartLin.of(_CONSTANTS[t.text]())
            if t.text in _RESERVED:
                raise ParseError(f"misplaced keyword {t.text!r}", t.line, t.col)
            if t.text not in self.env:
                raise ParseError(f"unknown identifier {t.text!r}", t.line, t.col)
            return self.env[t.text]
        raise ParseError(f"unexpected token {t.text or 'end of input'!r}", t.line, t.col)

    def parse_call(self, t: Token) -> PartLin:
        """The call of the function named by token t, its arguments read by
        their kinds in ``_CALLS``; each expression or polynomial argument
        opens one depth level."""
        self.expect("(")
        args = []
        for kind in _CALLS[t.text]:
            if args:
                self.expect(",")
            args.append(self.parse_expr() if kind == "expr" else
                        self.parse_poly_literal() if kind == "poly" else self.next_int())
        self.expect(")")
        return _apply(t, t.text, *args)

    def next_int(self) -> int:
        t = self.next()
        if t.kind != "int":
            raise ParseError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return _int(t.text, t)

    # polynomial sub-grammar: each rule returns the integer coefficients of its
    # text, constant term first, trailing zeros stripped --------------------------

    def parse_poly_literal(self) -> PolyQ:
        self.expect("poly")
        self.expect("(")
        coeffs = self.parse_poly_sum()
        self.expect(")")
        return PolyQ._raw(coeffs, 1)

    def parse_poly_sum(self) -> tuple:
        depth = self.deeper(self.peek())
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        node = self.parse_poly_prod()
        if neg:
            node = _poly_add((), node, -1)
        while self.peek().text in ("+", "-"):
            t = self.next()
            node = _poly_add(node, self.parse_poly_prod(), 1 if t.text == "+" else -1)
        self.depth = depth
        return node

    def parse_poly_prod(self) -> tuple:
        node = self.parse_poly_factor()
        while self.peek().text == "*":
            self.next()
            node = _strip(_poly_mul(node, self.parse_poly_factor()))
        return node

    def parse_poly_factor(self) -> tuple:
        base = self.parse_poly_atom()
        if self.peek().text != "^":
            return base
        self.next()
        k = self.next_int()
        # k products of at most len*k by len coefficients each, the zero
        # polynomial counted as one coefficient so its loop is bounded too
        guard_dense((max(1, len(base)) * k) ** 2, "polynomial power")
        out = (1,)
        for _ in range(k):
            out = _strip(_poly_mul(out, base))
        return out

    def parse_poly_atom(self) -> tuple:
        t = self.next()
        if t.kind == "int":
            return _strip((_int(t.text, t),))
        if t.text == "n":
            return (0, 1)
        if t.text == "(":
            node = self.parse_poly_sum()
            self.expect(")")
            return node
        if t.text == "-":
            self.deeper(t)
            return _poly_add((), self.parse_poly_atom(), -1)
        raise ParseError(f"bad polynomial token {t.text!r}", t.line, t.col)


def _poly_add(a: tuple, b: tuple, sign: int) -> tuple:
    """a + sign * b on integer coefficient tuples."""
    return _strip([x + sign * y for x, y in zip_longest(a, b, fillvalue=0)])


def _int(digits: str, t: Token) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter converts
        raise ParseError(f"integer of {len(digits)} digits is too long",
                         t.line, t.col) from None


def _guard_points(k: int, l: int):
    guard_dense(k + l, f"partition P({k},{l})")


def _apply(t: Token, op: str, *args) -> PartLin:
    """Operation ``op`` of an operator or a call on ``args``: every shape and
    size error is raised at token t, and a point count is size-guarded
    before its point list is built."""
    def fail(message):
        raise ParseError(message, t.line, t.col)

    a, b = args[0], args[-1]
    if op == "compose":
        if a.k != b.l:
            fail(f"cannot compose: left expects {a.k} inputs, right produces {b.l} outputs")
        return compose(a, b)
    if op == "tensor":
        return a.tensor(b)
    if op in ("+", "-"):
        if (a.k, a.l) != (b.k, b.l):
            fail(f"cannot add shapes ({a.k},{a.l}) and ({b.k},{b.l})")
        return a + b if op == "+" else a - b
    if op == "scale":
        return b.scale(a)
    if op == "adj":
        return a.adjoint()
    if op == "asym":
        if a.k % 2 or a.l % 2:
            fail(f"asym needs even rows, got shape ({a.k},{a.l})")
        return antisymmetrize(a)
    if op in ("rotl", "rotr"):
        if a.k == 0:
            fail("cannot rotate: upper row is empty")
        return a.rotate("left" if op == "rotl" else "right")
    if op == "id":
        _guard_points(a, a)
        return PartLin.of(Partition.identity(a))
    if op == "block":
        if a + b < 1:
            fail("block(k,l) needs at least one point")
        _guard_points(a, b)
        return PartLin.of(Partition.block(a, b))
    # pk(k), the one operation left
    if a < 1:
        fail("pk(k) needs k >= 1")
    _guard_points(0, 2 * a)
    return PartLin.of(Partition.cycle(a))


def eval_text(text: str, env: dict[str, PartLin] | None = None,
              line: int = 1, col: int = 1) -> PartLin:
    """The exact value of expression ``text``, with names bound in ``env``;
    error positions count from ``line`` and ``col``, where ``text`` starts."""
    p = Parser(_tokenize(text, line, col), env or {})
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
        indent = len(raw) - len(raw.lstrip())

        def value(expr_text, rest):  # rest: the suffix of line that starts expr_text
            return eval_text(expr_text, env, lineno, indent + len(line) - len(rest) + 1)

        if line.startswith("let "):
            name, _, expr_text = line[4:].partition("=")
            name = name.strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ParseError(f"bad let name {name!r}", lineno, 1)
            if name in _RESERVED:
                raise ParseError(f"cannot rebind reserved name {name!r}", lineno, 1)
            env[name] = value(expr_text, expr_text)
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
            checks.append(FixtureCheck(name, value(lhs_text, body),
                                       value(rhs_text, rhs_text), kind))
            continue
        raise ParseError(f"unrecognized fixture line: {raw!r}", lineno, 1)
    return checks
