"""The Polynomial-valued recursive-descent parser that parse_poly used to run.

Every name and literal goes through the validating Polynomial constructor.
Sums, products and powers are spelled out below as plain Fraction loops, in
the order Polynomial's arithmetic used to run them (power by squaring), so
that the reference shares no kernel with the term-dict parser in polycore
it is compared with (tests/test_parse_reference.py): equal terms in equal
order.
"""

from fractions import Fraction
from typing import Sequence

from hypersos.polycore import Polynomial, PolyParseError, _tokenize


def add(p: Polynomial, q: Polynomial, sign: int = 1) -> Polynomial:
    out = dict(p.terms)
    for m, c in q.terms.items():
        s = out.get(m, 0) + sign * c
        if s:
            out[m] = s
        else:
            del out[m]
    return Polynomial(p.nvars, out)


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    acc = {}
    for ma, ca in p.terms.items():
        for mb, cb in q.terms.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            acc[m] = acc.get(m, 0) + ca * cb
    return Polynomial(p.nvars, acc)


def power(p: Polynomial, k: int) -> Polynomial:
    result = Polynomial.const(p.nvars, 1)
    base = p
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base) if k > 1 else base
        k >>= 1
    return result


def scale(p: Polynomial, c: Fraction) -> Polynomial:
    return Polynomial(p.nvars, {m: v * c for m, v in p.terms.items()})


class ReferenceParser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.toks = _tokenize(text)
        self.k = 0
        self.names = {name: i for i, name in enumerate(variables)}
        self.nvars = len(variables)

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", pos)

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected token {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = add(p, q, 1 if val == "+" else -1)
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = mul(p, self.factor())
            elif kind == "op" and val == "/":
                self.next()
                q = self.factor()
                if q.total_degree() > 0:
                    raise PolyParseError("divisor must be a nonzero constant", pos)
                c = q.coefficient((0,) * self.nvars)
                if c == 0:
                    raise PolyParseError("division by zero", pos)
                p = scale(p, Fraction(1) / c)
            else:
                return p

    def factor(self) -> Polynomial:
        base = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            return power(base, int(val))
        return base

    def base(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "num":
            return Polynomial.const(self.nvars, int(val))
        if kind == "name":
            if val not in self.names:
                raise PolyParseError(f"unknown variable {val!r}", pos)
            return Polynomial.variable(self.nvars, self.names[val])
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        if kind == "op" and val == "-":
            return scale(self.factor(), Fraction(-1))
        if kind == "op" and val == "+":
            return self.factor()
        raise PolyParseError(f"unexpected token {val!r}", pos)


def reference_parse(text: str, variables: Sequence[str]) -> Polynomial:
    """parse_poly as it was: the same duplicate-name check, then ReferenceParser."""
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return ReferenceParser(text, variables).parse()
