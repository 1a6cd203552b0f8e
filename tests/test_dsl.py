import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsym.dsl import Parser, _tokenize, eval_text, load_fixture_file
from qsym.errors import ParseError
from qsym.lemmas import load_all_fixtures
from qsym.partitions import Partition, PartLin, antisymmetrize, compose
from qsym.polyq import PolyQ

from oracles import N_POLY, Poly, partition_rotate, ref_antisym_row

DATA = Path(__file__).resolve().parent / "data"


def test_parse_compose_function_form():
    assert eval_text("compose(cap, cup)") == eval_text("cap * cup")
    assert eval_text("tensor(cap, sing)") == eval_text("cap ox sing")


def test_parse_scale_node():
    expected = PartLin.of(Partition.cycle(5)).scale(N_POLY - 4)
    assert eval_text("scale(poly(n-4), pk(5))") == expected


def test_parse_literal_difference():
    e = eval_text("asym(block(2,2)) - asym(P(2,2){1 2' | 2 1'})")
    block = antisymmetrize(PartLin.of(Partition.block(2, 2)))
    cross = antisymmetrize(PartLin.of(Partition.crossing()))
    assert e == block - cross


def test_eval_loop():
    e = eval_text("compose(cap, cup)")
    assert e == PartLin.of(Partition.identity(0), N_POLY)
    assert eval_text("cap * cup") == e


def test_eval_asym_id2():
    assert eval_text("asym(id(2))") == PartLin(2, 2, ref_antisym_row(1).terms)


def test_eval_pk2():
    e = eval_text("pk(2)")
    assert e == PartLin.of(Partition.parse("P(0,4){1' 4' | 2' 3'}"))


def test_precedence_star_over_ox_over_sum():
    # each text, its explicitly bracketed form, and a misreading whose shapes
    # do not match or whose value differs
    cases = [
        ("cross * cross ox id(1)", "(cross * cross) ox id(1)", "cross * (cross ox id(1))"),
        ("cap ox cap + cap * cross ox cap", "(cap ox cap) + ((cap * cross) ox cap)",
         "((cap ox cap) + cap) * (cross ox cap)"),
        ("cap + cap * asym(id(2))", "cap + (cap * asym(id(2)))",
         "(cap + cap) * asym(id(2))"),
        ("cap - cap - cap", "(cap - cap) - cap", "cap - (cap - cap)"),  # left-deep
    ]
    for text, bracketed, misread in cases:
        value = eval_text(text)
        assert value == eval_text(bracketed), text
        try:
            assert eval_text(misread) != value, misread
        except ParseError:
            pass


def test_roundtrip_texts_evaluate_to_their_algebra():
    merge, fork, sing = (PartLin.of(p) for p in
                         (Partition.merge(), Partition.fork(), Partition.singleton()))
    cases = [
        ("compose(cap, cup)",
         compose(PartLin.of(Partition.cap()), PartLin.of(Partition.cup()))),
        ("scale(poly(n^2 - 2*n), asym(pk(3)))",
         antisymmetrize(PartLin.of(Partition.cycle(3))).scale(N_POLY**2 - 2 * N_POLY)),
        ("merge * adj(merge) + sing ox adj(sing)",
         compose(merge, fork) + sing.tensor(sing.adjoint())),
        ("P(2,2){1 2' | 2 1'} * cross", PartLin.of(Partition.identity(2))),
        ("rotl(merge) ox rotr(fork)", merge.rotate("left").tensor(fork.rotate("right"))),
    ]
    for text, expected in cases:
        assert eval_text(text) == expected, text


def test_eval_rotations_match_algebra():
    m = Partition.merge()
    assert eval_text("rotl(merge)") == PartLin.of(partition_rotate(m, "left"))
    assert eval_text("rotr(merge)") == PartLin.of(partition_rotate(m, "right"))
    assert eval_text("adj(cap)") == PartLin.of(Partition.cup())


def test_poly_literals():
    e = eval_text("scale(poly((n-4)*(n-6)*(n-8)), id(1))")
    expected = (N_POLY - 4) * (N_POLY - 6) * (N_POLY - 8)
    assert e.terms[Partition.identity(1)] == expected


# A polynomial tree as (text, value, level): level 0 is a sum, 1 a product,
# 2 a power or a negation, 3 an atom.  An operand below the level its place
# needs is bracketed, so a negated base of a power is bracketed: -a^k reads
# as -(a^k) at the start of a sum and as (-a)^k after an operator.
def _bracket(tree, level):
    text, value, at = tree
    return (text if at >= level else f"({text})"), value


poly_leaves = st.one_of(
    st.integers(0, 12).map(lambda c: (str(c), Poly.const(c), 3)),
    st.just(("n", N_POLY, 3)))


def _poly_node(children):
    def binary(op, a, b):
        if op == "*":
            (ta, va), (tb, vb) = _bracket(a, 1), _bracket(b, 2)
            return f"{ta} * {tb}", va * vb, 1
        (ta, va), (tb, vb) = _bracket(a, 0), _bracket(b, 1)
        return f"{ta} {op} {tb}", (va + vb if op == "+" else va - vb), 0

    def negate(a):
        ta, va = _bracket(a, 3)
        return f"-{ta}", -va, 2

    def power(a, k):
        ta, va = _bracket(a, 3)
        return f"{ta}^{k}", va**k, 2

    return st.one_of(
        st.builds(binary, st.sampled_from("+-*"), children, children),
        st.builds(negate, children),
        st.builds(power, children, st.integers(0, 4)))


@given(st.recursive(poly_leaves, _poly_node, max_leaves=8))
@example(("0 * n", Poly(), 1))
@example(("n - n", Poly(), 0))
@example(("0^3", Poly(), 2))
@example(("(n - 2)^0 - 1", Poly(), 0))
@settings(max_examples=300, deadline=None)
def test_poly_literals_match_oracle(tree):
    """A poly(...) literal is one PolyQ in normal form, equal to its tree
    computed with the oracle's Q[n] arithmetic."""
    text, value, _ = tree
    literal = Parser(_tokenize(f"poly({text})"), {}).parse_poly_literal()
    assert type(literal) is PolyQ and literal == value
    assert literal.numerators == value.numerators and literal.den == 1
    assert eval_text(f"scale(poly({text}), id(1))") == PartLin.of(Partition.identity(1), value)


def test_arity_error_positions():
    with pytest.raises(ParseError) as e:
        eval_text("cap * cap")
    assert "compose" in str(e.value)
    with pytest.raises(ParseError):
        eval_text("cap + cup")
    with pytest.raises(ParseError):
        eval_text("asym(sing)")
    with pytest.raises(ParseError):
        eval_text("nonexistent * cap")


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as e:
        eval_text("cap + + cup")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        eval_text("cap cup")


def test_unknown_poly_token():
    with pytest.raises(ParseError):
        eval_text("scale(poly(x), cap)")


# Each input holds one error; message, line and column are those the
# expression language has always reported for it.
@pytest.mark.parametrize("text,message,line,col", [
    ("cap * cap", "cannot compose: left expects 2 inputs, right produces 0 outputs", 1, 5),
    ("compose(cap, cap)",
     "cannot compose: left expects 2 inputs, right produces 0 outputs", 1, 1),
    ("merge * cap", "cannot compose: left expects 2 inputs, right produces 0 outputs", 1, 7),
    ("id(2) * cap ox id(1)",
     "cannot compose: left expects 2 inputs, right produces 0 outputs", 1, 7),
    ("cap *\n  cup * cup",
     "cannot compose: left expects 0 inputs, right produces 2 outputs", 2, 7),
    ("cap * (cup ox sing)",
     "cannot compose: left expects 2 inputs, right produces 3 outputs", 1, 5),
    ("(cap ox cap) * cup",
     "cannot compose: left expects 4 inputs, right produces 2 outputs", 1, 14),
    ("cap + cup", "cannot add shapes (2,0) and (0,2)", 1, 5),
    ("cap - cup", "cannot add shapes (2,0) and (0,2)", 1, 5),
    ("cap + cap * cup", "cannot add shapes (2,0) and (0,0)", 1, 5),
    ("asym(sing)", "asym needs even rows, got shape (0,1)", 1, 1),
    ("asym(merge)", "asym needs even rows, got shape (2,1)", 1, 1),
    ("asym(id(1))", "asym needs even rows, got shape (1,1)", 1, 1),
    ("rotl(cup)", "cannot rotate: upper row is empty", 1, 1),
    ("rotr(cup)", "cannot rotate: upper row is empty", 1, 1),
    ("rotl(P(0,0){})", "cannot rotate: upper row is empty", 1, 1),
    ("block(0,0)", "block(k,l) needs at least one point", 1, 1),
    ("pk(0)", "pk(k) needs k >= 1", 1, 1),
    ("nonexistent * cap", "unknown identifier 'nonexistent'", 1, 1),
    ("ox", "misplaced keyword 'ox'", 1, 1),
    ("poly(n)", "misplaced keyword 'poly'", 1, 1),
    ("adj(cap", "expected ')', found 'end of input'", 1, 8),
    ("(cap", "expected ')', found 'end of input'", 1, 5),
    ("adj(cap, cup)", "expected ')', found ','", 1, 8),
    ("scale(poly(n), cap", "expected ')', found 'end of input'", 1, 19),
    ("id", "expected '(', found 'end of input'", 1, 3),
    ("block(1 1)", "expected ',', found '1'", 1, 9),
    ("tensor(cap)", "expected ',', found ')'", 1, 11),
    ("compose(cap cup)", "expected ',', found 'cup'", 1, 13),
    ("scale(poly(n) cap)", "expected ',', found 'cap'", 1, 15),
    ("scale(cap, cap)", "expected 'poly', found 'cap'", 1, 7),
    ("id(x)", "expected an integer, found 'x'", 1, 4),
    ("scale(poly(n^-1), cap)", "expected an integer, found '-'", 1, 14),
    ("scale(poly(n^x), cap)", "expected an integer, found 'x'", 1, 14),
    ("scale(poly(x), cap)", "bad polynomial token 'x'", 1, 12),
    ("scale(poly(()), cap)", "bad polynomial token ')'", 1, 13),
    ("P(2,2){1 1'}", "blocks do not cover all points (missing [1, 3])", 1, 1),
    ("P(1,1){1}", "blocks do not cover all points (missing [1])", 1, 1),
    ("P(1,1){1 2'}", "lower point 2' out of range 1'..1'", 1, 1),
    ("P(1,1){ | }", "empty block in 'P(1,1){ | }'", 1, 1),
    ("cap + + cup", "unexpected token '+'", 1, 7),
    ("cap ox", "unexpected token 'end of input'", 1, 7),
    ("cap cup", "trailing input starting at 'cup'", 1, 5),
    ("cap)", "trailing input starting at ')'", 1, 4),
    ("cap ==", "trailing input starting at '=='", 1, 5),
    ("@", "unexpected character '@'", 1, 1),
])
def test_single_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as e:
        eval_text(text)
    assert str(e.value) == f"{message} (line {line}, column {col})"
    assert (e.value.line, e.value.col) == (line, col)


def test_first_error_in_reading_order_is_reported():
    # the compose is evaluated as soon as its right operand is read, so its
    # error comes before the missing operand at the end
    with pytest.raises(ParseError) as e:
        eval_text("cap * cap +")
    assert (e.value.line, e.value.col) == (1, 5)
    assert str(e.value).startswith("cannot compose:")


def test_non_integer_point_label_is_a_parse_error():
    with pytest.raises(ParseError) as e:
        eval_text("P(1,1){1 x'}")
    assert str(e.value) == "bad point label \"x'\" (line 1, column 1)"


def test_fixture_file():
    text = """
# a loop closes to n
check loop-closure: compose(cap, cup) == scale(poly(n), P(0,0){})

let a2 = asym(id(2))
check projector: a2 * a2 == a2
"""
    checks = load_fixture_file(text)
    assert [c.name for c in checks] == ["loop-closure", "projector"]
    assert all(c.lhs == c.rhs for c in checks)


def test_fixture_file_rejects_garbage():
    with pytest.raises(ParseError):
        load_fixture_file("cheque loop: cap == cap")
    with pytest.raises(ParseError):
        load_fixture_file("let cap = cup")
    with pytest.raises(ParseError):
        load_fixture_file("check x: cap = cap")


@pytest.mark.parametrize("text,line,col", [
    ("let a = cap\n\nlet b = a * a", 3, 11),
    ("# note\n  check c: cap == cap * cap", 2, 23),
    ("check c: cap * cap == cap  # comment", 1, 14),
    ("let a = cap\nflag f: cup == (a", 2, 18),
])
def test_fixture_errors_name_their_own_line_and_column(text, line, col):
    # positions count in the file, not from the start of each expression
    with pytest.raises(ParseError) as e:
        load_fixture_file(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value).endswith(f"(line {line}, column {col})")


def _digest(value: PartLin) -> str:
    return hashlib.sha256(json.dumps(value.to_json(), sort_keys=True).encode()).hexdigest()


def test_fixture_values_match_their_pinned_digests():
    # one sha256 per side of every shipped fixture check, of its sorted to_json
    pinned = json.loads((DATA / "fixtures-eval.json").read_text())
    got = {
        f"{fname.removesuffix('.pcalc')}/{chk.name}": {"lhs": _digest(chk.lhs),
                                                        "rhs": _digest(chk.rhs)}
        for fname, checks in load_all_fixtures().items()
        for chk in checks
    }
    assert sorted(got) == sorted(pinned)
    differ = [name for name in pinned if got[name] != pinned[name]]
    assert not differ, f"fixture checks whose value changed: {differ}"
