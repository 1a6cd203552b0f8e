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

Every expression is arity-checked before evaluation, so shape errors carry
source positions instead of surfacing from the algebra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
_RESERVED = set(_UNARY) | {
    "scale", "compose", "tensor", "poly", "ox", "n",
    "id", "cap", "cup", "cross", "sing", "merge", "fork", "block", "pk",
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


# -- AST ------------------------------------------------------------------------

@dataclass
class Node:
    line: int
    col: int


@dataclass
class Lit(Node):
    partition: Partition


@dataclass
class NameRef(Node):
    name: str


@dataclass
class Builtin(Node):
    name: str
    args: tuple[int, ...] = ()


@dataclass
class Unary(Node):
    op: str
    arg: Node


@dataclass
class Scale(Node):
    poly: PolyQ
    arg: Node


@dataclass
class Bin(Node):
    op: str  # 'compose' | 'tensor' | 'add' | 'sub'
    lhs: Node
    rhs: Node


# Deepest expression the parser accepts, counting brackets, call arguments
# and each operator of a chain (a chain is a left-deep tree): deeper input is
# a ParseError instead of a RecursionError in the parser or the evaluator.
MAX_DEPTH = 100


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
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

    def parse_expr(self) -> Node:
        depth = self.deeper(self.peek())
        node = self.parse_oxterm()
        while self.peek().text in ("+", "-"):
            t = self.next()
            self.deeper(t)
            rhs = self.parse_oxterm()
            node = Bin(t.line, t.col, "add" if t.text == "+" else "sub", node, rhs)
        self.depth = depth
        return node

    def parse_oxterm(self) -> Node:
        depth = self.depth
        node = self.parse_prod()
        while self.peek().text == "ox":
            t = self.next()
            self.deeper(t)
            node = Bin(t.line, t.col, "tensor", node, self.parse_prod())
        self.depth = depth
        return node

    def parse_prod(self) -> Node:
        depth = self.depth
        node = self.parse_unary()
        while self.peek().text == "*":
            t = self.next()
            self.deeper(t)
            node = Bin(t.line, t.col, "compose", node, self.parse_unary())
        self.depth = depth
        return node

    def parse_unary(self) -> Node:
        t = self.peek()
        if t.kind == "name" and t.text in _UNARY:
            self.next()
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return Unary(t.line, t.col, t.text, arg)
        if t.kind == "name" and t.text == "scale":
            self.next()
            self.expect("(")
            poly = self.parse_poly_literal()
            self.expect(",")
            arg = self.parse_expr()
            self.expect(")")
            return Scale(t.line, t.col, poly, arg)
        if t.kind == "name" and t.text in ("compose", "tensor"):
            self.next()
            self.expect("(")
            lhs = self.parse_expr()
            self.expect(",")
            rhs = self.parse_expr()
            self.expect(")")
            return Bin(t.line, t.col, t.text, lhs, rhs)
        return self.parse_atom()

    def parse_atom(self) -> Node:
        t = self.next()
        if t.kind == "lit":
            try:
                p = Partition.parse(t.text)
            except InvalidInputError as exc:
                raise ParseError(str(exc), t.line, t.col) from None
            return Lit(t.line, t.col, p)
        if t.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if t.kind == "name":
            if t.text in ("id", "block", "pk"):
                self.expect("(")
                args = [int(self.next_int())]
                if t.text == "block":
                    self.expect(",")
                    args.append(int(self.next_int()))
                self.expect(")")
                return Builtin(t.line, t.col, t.text, tuple(args))
            if t.text in ("cap", "cup", "cross", "sing", "merge", "fork"):
                return Builtin(t.line, t.col, t.text)
            if t.text in _RESERVED:
                raise ParseError(f"misplaced keyword {t.text!r}", t.line, t.col)
            return NameRef(t.line, t.col, t.text)
        raise ParseError(f"unexpected token {t.text or 'end of input'!r}", t.line, t.col)

    def next_int(self) -> int:
        t = self.next()
        if t.kind != "int":
            raise ParseError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return int(t.text)

    # polynomial sub-grammar --------------------------------------------------------

    def parse_poly_literal(self) -> PolyQ:
        t = self.expect("poly")
        self.expect("(")
        poly = self.parse_poly_sum()
        self.expect(")")
        return poly

    def expect_name(self, name):
        t = self.next()
        if t.text != name:
            raise ParseError(f"expected {name!r}, found {t.text!r}", t.line, t.col)
        return t

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
            return PolyQ.const(int(t.text))
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


def parse(text: str) -> Node:
    p = Parser(_tokenize(text))
    node = p.parse_expr()
    if not p.at_end():
        t = p.peek()
        raise ParseError(f"trailing input starting at {t.text!r}", t.line, t.col)
    return node


# -- arity inference ---------------------------------------------------------------

_BUILTIN_SHAPES = {
    "cap": (2, 0),
    "cup": (0, 2),
    "cross": (2, 2),
    "sing": (0, 1),
    "merge": (2, 1),
    "fork": (1, 2),
}


def infer_shape(node: Node, env_shapes: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """Upper/lower point counts of the value of ``node``; raises ParseError
    with the node position on any arity violation."""

    def err(msg):
        raise ParseError(msg, node.line, node.col)

    if isinstance(node, Lit):
        return (node.partition.k, node.partition.l)
    if isinstance(node, NameRef):
        if node.name not in env_shapes:
            err(f"unknown identifier {node.name!r}")
        return env_shapes[node.name]
    if isinstance(node, Builtin):
        if node.name == "id":
            return (node.args[0], node.args[0])
        if node.name == "block":
            if sum(node.args) < 1:
                err("block(k,l) needs at least one point")
            return node.args
        if node.name == "pk":
            if node.args[0] < 1:
                err("pk(k) needs k >= 1")
            return (0, 2 * node.args[0])
        return _BUILTIN_SHAPES[node.name]
    if isinstance(node, Unary):
        k, l = infer_shape(node.arg, env_shapes)
        if node.op == "adj":
            return (l, k)
        if node.op == "asym":
            if k % 2 or l % 2:
                err(f"asym needs even rows, got shape ({k},{l})")
            return (k, l)
        if node.op in ("rotl", "rotr"):
            if k == 0:
                err("cannot rotate: upper row is empty")
            return (k - 1, l + 1)
    if isinstance(node, Scale):
        return infer_shape(node.arg, env_shapes)
    if isinstance(node, Bin):
        ks = infer_shape(node.lhs, env_shapes)
        kr = infer_shape(node.rhs, env_shapes)
        if node.op == "compose":
            if ks[0] != kr[1]:
                err(
                    f"cannot compose: left expects {ks[0]} inputs, "
                    f"right produces {kr[1]} outputs"
                )
            return (kr[0], ks[1])
        if node.op == "tensor":
            return (ks[0] + kr[0], ks[1] + kr[1])
        if ks != kr:
            err(f"cannot add shapes ({ks[0]},{ks[1]}) and ({kr[0]},{kr[1]})")
        return ks
    raise AssertionError(f"unhandled node {node!r}")


# -- evaluation ---------------------------------------------------------------------

def evaluate(node: Node, env: dict[str, PartLin] | None = None) -> PartLin:
    """Evaluate an arity-checked expression to an exact PartLin."""
    env = env or {}
    infer_shape(node, {name: (e.k, e.l) for name, e in env.items()})
    return _eval(node, env)


def _eval(node: Node, env) -> PartLin:
    if isinstance(node, Lit):
        return PartLin.of(node.partition)
    if isinstance(node, NameRef):
        return env[node.name]
    if isinstance(node, Builtin):
        if node.name == "id":
            return PartLin.of(Partition.identity(node.args[0]))
        if node.name == "block":
            return PartLin.of(Partition.block(*node.args))
        if node.name == "pk":
            return PartLin.of(Partition.cycle(node.args[0]))
        return PartLin.of(
            {
                "cap": Partition.cap,
                "cup": Partition.cup,
                "cross": Partition.crossing,
                "sing": Partition.singleton,
                "merge": Partition.merge,
                "fork": Partition.fork,
            }[node.name]()
        )
    if isinstance(node, Unary):
        arg = _eval(node.arg, env)
        if node.op == "adj":
            return arg.adjoint()
        if node.op == "asym":
            return antisymmetrize(arg)
        if node.op == "rotl":
            return arg.rotate("left", "down")
        if node.op == "rotr":
            return arg.rotate("right", "down")
    if isinstance(node, Scale):
        return _eval(node.arg, env).scale(node.poly)
    if isinstance(node, Bin):
        lhs = _eval(node.lhs, env)
        rhs = _eval(node.rhs, env)
        if node.op == "compose":
            return compose(lhs, rhs)
        if node.op == "tensor":
            return lhs.tensor(rhs)
        if node.op == "add":
            return lhs + rhs
        return lhs - rhs
    raise AssertionError(f"unhandled node {node!r}")


def eval_text(text: str, env: dict[str, PartLin] | None = None) -> PartLin:
    return evaluate(parse(text), env)


# -- printing -----------------------------------------------------------------------

def to_text(node: Node) -> str:
    """Parseable rendering; round-trips through parse up to positions."""
    if isinstance(node, Lit):
        return str(node.partition)
    if isinstance(node, NameRef):
        return node.name
    if isinstance(node, Builtin):
        if node.args:
            return f"{node.name}({','.join(map(str, node.args))})"
        return node.name
    if isinstance(node, Unary):
        return f"{node.op}({to_text(node.arg)})"
    if isinstance(node, Scale):
        return f"scale(poly({node.poly}), {to_text(node.arg)})"
    if isinstance(node, Bin):
        if node.op in ("add", "sub"):
            sym = "+" if node.op == "add" else "-"
            return f"({to_text(node.lhs)} {sym} {to_text(node.rhs)})"
        if node.op == "tensor":
            return f"({to_text(node.lhs)} ox {to_text(node.rhs)})"
        return f"({to_text(node.lhs)} * {to_text(node.rhs)})"
    raise AssertionError(f"unhandled node {node!r}")


def ast_equal(a: Node, b: Node) -> bool:
    """Structural equality ignoring source positions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Lit):
        return a.partition == b.partition
    if isinstance(a, NameRef):
        return a.name == b.name
    if isinstance(a, Builtin):
        return (a.name, a.args) == (b.name, b.args)
    if isinstance(a, Unary):
        return a.op == b.op and ast_equal(a.arg, b.arg)
    if isinstance(a, Scale):
        return a.poly == b.poly and ast_equal(a.arg, b.arg)
    if isinstance(a, Bin):
        return a.op == b.op and ast_equal(a.lhs, b.lhs) and ast_equal(a.rhs, b.rhs)
    return False


# -- fixture files --------------------------------------------------------------------

@dataclass
class FixtureCheck:
    name: str
    lhs_text: str
    rhs_text: str
    lhs: PartLin
    rhs: PartLin
    line: int
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
            checks.append(
                FixtureCheck(
                    name=name,
                    lhs_text=lhs_text.strip(),
                    rhs_text=rhs_text.strip(),
                    lhs=eval_text(lhs_text, env),
                    rhs=eval_text(rhs_text, env),
                    line=lineno,
                    kind=kind,
                )
            )
            continue
        raise ParseError(f"unrecognized fixture line: {raw!r}", lineno, 1)
    return checks
