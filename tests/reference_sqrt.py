"""An independent square root for the tests: the greedy peel over Q on exponent tuples.

The leading term of p must be the square of the root's leading term, and
each following root term is (leading term of p - r^2) / (2 * leading term
of r), under graded lex.  Coefficients stay Fractions and monomials stay
tuples, so the reference shares no kernel with the packed integer peel of
perfect_square_root that it checks.
"""

import math
from fractions import Fraction

from hypersos.polycore import Polynomial


def grlex(mono):
    return sum(mono), mono


def fraction_square_root(p):
    """r with r * r = p and a positive leading coefficient, or None.

    Over Q every step divides exactly, so only the monomials and the order
    decide.
    """
    if p.is_zero():
        return Polynomial.zero(p.nvars)
    rem = dict(p.terms)
    lead = max(rem, key=grlex)
    c = rem.pop(lead)
    num, den = c.numerator, c.denominator
    if any(e % 2 for e in lead) or c < 0 or math.isqrt(num) ** 2 != num or math.isqrt(den) ** 2 != den:
        return None
    half = last = tuple(e // 2 for e in lead)
    r0 = Fraction(math.isqrt(num), math.isqrt(den))
    root = {half: r0}
    while rem:
        m = max(rem, key=grlex)
        t = tuple(x - y for x, y in zip(m, half))
        if any(e < 0 for e in t) or grlex(t) >= grlex(last):
            return None
        last, tc = t, rem[m] / (2 * r0)
        # rem for r + tc*x^t is rem - 2*tc*x^t*r - tc^2*x^(2t)
        updates = [(tuple(a + b for a, b in zip(k, t)), -2 * tc * v) for k, v in root.items()]
        for k, v in updates + [(tuple(2 * e for e in t), -tc * tc)]:
            rem[k] = rem.get(k, 0) + v
            if not rem[k]:
                del rem[k]
        root[t] = tc
    return Polynomial(p.nvars, root)
