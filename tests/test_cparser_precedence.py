"""Operator precedence and associativity of the C expression parser.

The expected tree for every pair of binary operators comes from the
pretty-printer's own table (``cpretty._BINARY_PRECEDENCE``), not from
the parser under test: ``a op1 b op2 c`` groups to the right exactly
when ``op2`` binds tighter, and to the left otherwise (C's binary
operators are all left-associative).  The boundaries with unary
operators, casts, ``?:``, assignment and the comma operator are spelled
out case by case.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cfront.cast import (
    Assignment,
    Binary,
    Cast,
    Comma,
    Conditional,
    Ident,
    Unary,
)
from repro.cfront.cparser import parse_c
from repro.cfront.cpretty import _BINARY_PRECEDENCE

OPS = sorted(_BINARY_PRECEDENCE)


def shape(expr):
    """The tree as nested tuples: operator first, then operands."""
    match expr:
        case Ident(name=name):
            return name
        case Binary(op=op, left=left, right=right):
            return (op, shape(left), shape(right))
        case Unary(op=op, operand=operand, postfix=postfix):
            return ("post" + op if postfix else op, shape(operand))
        case Cast(operand=operand):
            return ("cast", shape(operand))
        case Conditional(cond=cond, then=then, other=other):
            return ("?:", shape(cond), shape(then), shape(other))
        case Assignment(op=op, target=target, value=value):
            return (op, shape(target), shape(value))
        case Comma(left=left, right=right):
            return (",", shape(left), shape(right))
    raise AssertionError(f"unexpected node {expr!r}")


def parse_expr(text: str):
    unit = parse_c(f"int a, b, c, d, e;\nint f(void) {{ return {text}; }}\n")
    (ret,) = unit.items[-1].body.body
    return shape(ret.value)


@pytest.mark.parametrize("op1,op2", list(itertools.product(OPS, OPS)))
def test_binary_pair(op1, op2):
    if _BINARY_PRECEDENCE[op2] > _BINARY_PRECEDENCE[op1]:
        expected = (op1, "a", (op2, "b", "c"))
    else:
        expected = (op2, (op1, "a", "b"), "c")
    assert parse_expr(f"a {op1} b {op2} c") == expected


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("prefix", ["-", "+", "!", "~", "*", "&", "++", "--", "sizeof "])
def test_prefix_unary_binds_tighter_than_binary(prefix, op):
    assert parse_expr(f"{prefix}a {op} b") == (op, (prefix.strip(), "a"), "b")
    assert parse_expr(f"a {op} {prefix}b") == (op, "a", (prefix.strip(), "b"))


@pytest.mark.parametrize("op", OPS)
def test_postfix_and_cast_bind_tighter_than_binary(op):
    assert parse_expr(f"a++ {op} b--") == (op, ("post++", "a"), ("post--", "b"))
    assert parse_expr(f"(int) a {op} b") == (op, ("cast", "a"), "b")
    assert parse_expr(f"a {op} (char *) b") == (op, "a", ("cast", "b"))


def test_cast_of_unary_and_unary_of_cast():
    assert parse_expr("(int) -a") == ("cast", ("-", "a"))
    assert parse_expr("-(int) a") == ("-", ("cast", "a"))
    assert parse_expr("(int) a++") == ("cast", ("post++", "a"))


@pytest.mark.parametrize("op", OPS)
def test_conditional_is_looser_than_every_binary(op):
    assert parse_expr(f"a {op} b ? c : d") == ("?:", (op, "a", "b"), "c", "d")
    assert parse_expr(f"a ? b : c {op} d") == ("?:", "a", "b", (op, "c", "d"))
    assert parse_expr(f"a ? b {op} c : d") == ("?:", "a", (op, "b", "c"), "d")


def test_conditional_associates_right():
    assert parse_expr("a ? b : c ? d : e") == ("?:", "a", "b", ("?:", "c", "d", "e"))
    assert parse_expr("a ? b ? c : d : e") == ("?:", "a", ("?:", "b", "c", "d"), "e")


@pytest.mark.parametrize("op", OPS)
def test_assignment_is_looser_than_binary(op):
    assert parse_expr(f"a = b {op} c") == ("=", "a", (op, "b", "c"))


@pytest.mark.parametrize(
    "assign", ["=", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "<<=", ">>="]
)
def test_assignment_associates_right_and_takes_a_conditional(assign):
    assert parse_expr(f"a {assign} b = c") == (assign, "a", ("=", "b", "c"))
    assert parse_expr(f"a {assign} b ? c : d") == (assign, "a", ("?:", "b", "c", "d"))


def test_comma_is_loosest_and_associates_left():
    assert parse_expr("a, b, c") == (",", (",", "a", "b"), "c")
    assert parse_expr("a = b, c = d") == (",", ("=", "a", "b"), ("=", "c", "d"))
    assert parse_expr("a ? b, c : d") == ("?:", "a", (",", "b", "c"), "d")
    assert parse_expr("a || b, c && d") == (",", ("||", "a", "b"), ("&&", "c", "d"))


def test_parentheses_override_precedence():
    assert parse_expr("(a + b) * c") == ("*", ("+", "a", "b"), "c")
    assert parse_expr("a - (b - c)") == ("-", "a", ("-", "b", "c"))
