"""Exact real-root counting, isolation, and interlacing for rational polynomials.

Sturm sequences drive everything.  With the convention that zero values are
dropped before counting sign variations, V(a) - V(b) for the standard chain
of the square-free part counts the distinct real roots in the half-open
interval (a, b]; infinite endpoints are replaced by a Cauchy bound.  The
chain of p ends in a multiple of gcd(p, p'), so one chain gives both the
square-free part and, after one division, its root count.

Interlacing is decided without isolating a root: with r = gcd(f, f') and
F = f / r, g interlaces f iff r | g and the Wronskian F'(g/r) - F(g/r)'
never changes sign (see `roots_interlace`).  Every verdict here is exact.

The chains run fraction-free: only signs enter a Sturm count, so each chain
element is a primitive integer positive multiple of the chain over Q (a
primitive pseudo-remainder sequence), evaluated at n/d by integer Horner on
d^k * q(n/d).  Bisection points and interval ends stay Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .polycore import UniPoly, squarefree_decomposition
from .polycore import _powers, _primitive, _primitive_coeffs, _pseudo_remainder
from .verdicts import Verdict, certified_no, certified_yes


class SturmSequence:
    """Chain p, p', then negated remainders (zero tail dropped), over Z.

    `chain` holds primitive integer coefficient lists (index = power of t),
    each a positive multiple of the euclidean chain's element over Q (a
    pseudo-remainder is negated back when lc^(delta+1) < 0), so signs and
    variation counts are the same.
    """

    def __init__(self, p: UniPoly):
        if p.is_zero():
            raise ValueError("zero polynomial")
        first = _primitive_coeffs(p)
        chain = [first, _primitive([i * c for i, c in enumerate(first)][1:])]
        while chain[-1]:
            a, b = chain[-2], chain[-1]
            # prem(a, b) = lc(b)^(deg a - deg b + 1) * rem(a, b)
            flip = b[-1] > 0 or (len(a) - len(b)) % 2 == 1
            chain.append(_primitive([-c if flip else c for c in _pseudo_remainder(a, b)]))
        chain.pop()
        self.chain = chain

    def variations_at(self, x: Fraction) -> int:
        return _count_changes(self._values(Fraction(x)))

    def _values(self, x: Fraction, count: Optional[int] = None) -> list[int]:
        """d^deg(q) * q(n/d) for the first `count` chain elements q (default all).

        With x = n/d and d > 0, each has the sign of q(x).
        """
        n, d = x.as_integer_ratio()
        dpow = _powers(d, len(self.chain[0]) - 1)
        out = []
        for cs in self.chain[:count]:
            acc = 0
            for c, dk in zip(reversed(cs), dpow):
                acc = acc * n + c * dk
            out.append(acc)
        return out

    def root_bound(self) -> Fraction:
        """Cauchy bound of the chain's first element, the same as for p.

        The variation count is constant on intervals free of roots of that
        element, so evaluating at +-bound is the same as at +-infinity.
        """
        cs = self.chain[0]
        return 1 + Fraction(max(map(abs, cs[:-1]), default=0), abs(cs[-1]))

    def last(self) -> UniPoly:
        """The chain's last element: a nonzero constant multiple of gcd(p, p')."""
        return UniPoly(self.chain[-1])


def _count_changes(values: list) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_root_count(p: UniPoly, lo: Optional[Fraction] = None, hi: Optional[Fraction] = None) -> int:
    """Number of distinct real roots of p in (lo, hi]; None means +-infinity."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"empty interval: lo = {lo} > hi = {hi}")
    if p.degree() == 0:
        return 0
    return _sturm_count_sqfree(_squarefree_chain(p)[1], lo, hi)


def _squarefree_chain(p: UniPoly) -> tuple[UniPoly, SturmSequence]:
    """p / gcd(p, p') (p itself when square-free) and its chain; deg p >= 1."""
    seq = SturmSequence(p)
    r = seq.last()
    if r.degree() == 0:
        return p, seq
    part = p.divmod(r)[0]
    return part, SturmSequence(part)


def _sturm_count_sqfree(seq: SturmSequence, lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
    if lo is None or hi is None:
        bound = seq.root_bound()
        lo = -bound if lo is None else lo
        hi = bound if hi is None else hi
    return seq.variations_at(lo) - seq.variations_at(hi)


@dataclass
class IsolatingInterval:
    """One distinct real root: in (lo, hi] when lo < hi, exactly lo when lo == hi.

    `factor` is the square-free polynomial this root belongs to; it is kept so
    callers can refine the interval further.
    """

    lo: Fraction
    hi: Fraction
    multiplicity: int
    factor: UniPoly

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains_point(self, x: Fraction) -> bool:
        if self.is_exact:
            return x == self.lo
        return self.lo < x <= self.hi


@dataclass
class RootList:
    intervals: list[IsolatingInterval]
    degree: int

    def total_multiplicity(self) -> int:
        return sum(iv.multiplicity for iv in self.intervals)


def _refine_step(iv: IsolatingInterval, seq: SturmSequence) -> IsolatingInterval:
    """Halve a non-exact isolating interval (or collapse it onto a found root)."""
    if iv.is_exact:
        return iv
    mid = (iv.lo + iv.hi) / 2
    values = seq._values(mid)
    if values[0] == 0:
        return IsolatingInterval(mid, mid, iv.multiplicity, iv.factor)
    if _count_changes(values) - seq.variations_at(iv.hi) == 1:
        return IsolatingInterval(mid, iv.hi, iv.multiplicity, iv.factor)
    return IsolatingInterval(iv.lo, mid, iv.multiplicity, iv.factor)


def _isolate_sqfree(q: UniPoly, seq: SturmSequence, precision: Fraction, multiplicity: int) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for all real roots of square-free q, whose chain is seq."""
    bound = seq.root_bound()
    out: list[IsolatingInterval] = []
    # (lo, hi, V(lo), V(hi)): V(lo) - V(hi) roots lie in (lo, hi]
    stack = [(-bound, bound, seq.variations_at(-bound), seq.variations_at(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append(_refine_interval(q, seq, lo, hi, v_hi, precision, multiplicity))
        elif v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = seq.variations_at(mid)
            stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out


def _refine_interval(q, seq, lo, hi, v_hi, precision, multiplicity) -> IsolatingInterval:
    # invariant: exactly one root of q lies in (lo, hi], and v_hi = V(hi)
    if seq._values(hi, 1)[0] == 0:
        return IsolatingInterval(hi, hi, multiplicity, q)
    lo_is_root = seq._values(lo, 1)[0] == 0
    while hi - lo > precision or lo_is_root:
        mid = (lo + hi) / 2
        values = seq._values(mid)
        if values[0] == 0:
            return IsolatingInterval(mid, mid, multiplicity, q)
        v_mid = _count_changes(values)
        if v_mid - v_hi == 1:
            lo, lo_is_root = mid, False
        else:
            hi, v_hi = mid, v_mid
    return IsolatingInterval(lo, hi, multiplicity, q)


def _disjoint(a: IsolatingInterval, b: IsolatingInterval) -> bool:
    if a.is_exact and b.is_exact:
        return a.lo != b.lo
    if a.is_exact:
        return not b.contains_point(a.lo)
    if b.is_exact:
        return not a.contains_point(b.lo)
    return a.hi <= b.lo or b.hi <= a.lo


def isolate_real_roots(p: UniPoly, precision: Fraction = Fraction(1, 1024)) -> RootList:
    """Isolate every distinct real root of p with its multiplicity.

    Multiplicities come from the square-free (Yun) decomposition; intervals
    across different square-free factors are refined until pairwise disjoint.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    groups: list[tuple[SturmSequence, list[IsolatingInterval]]] = []
    for factor, mult in squarefree_decomposition(p):
        seq = SturmSequence(factor)
        ivs = _isolate_sqfree(factor, seq, precision, mult)
        if ivs:
            groups.append((seq, ivs))
    # roots of distinct square-free factors differ, so bisection separates them
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            seq_i, ivs_i = groups[gi]
            seq_j, ivs_j = groups[gj]
            for a in range(len(ivs_i)):
                for b in range(len(ivs_j)):
                    while not _disjoint(ivs_i[a], ivs_j[b]):
                        ivs_i[a] = _refine_step(ivs_i[a], seq_i)
                        ivs_j[b] = _refine_step(ivs_j[b], seq_j)
    intervals = [iv for _, ivs in groups for iv in ivs]
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    return RootList(intervals, p.degree())


def is_real_rooted(p: UniPoly) -> bool:
    """True iff the real roots of p, counted with multiplicity, number deg p.

    That is, iff the square-free part has as many real roots as its degree.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree() == 0:
        return True
    part, seq = _squarefree_chain(p)
    return _sturm_count_sqfree(seq, None, None) == part.degree()


def roots_interlace(f: UniPoly, g: UniPoly, strict: bool = False) -> Verdict:
    """Do the roots of g weave between the roots of f (deg g = deg f - 1)?

    Both polynomials must be real-rooted (otherwise CERTIFIED_NO).  With
    roots a_1 <= ... <= a_d of f and b_1 <= ... <= b_{d-1} of g, counted
    with multiplicity, the verdict decides a_i <= b_i <= a_{i+1} for every i
    (strictly when strict=True) without isolating a root.

    A root of f of multiplicity m squeezes m - 1 roots of g onto itself, so
    with r = gcd(f, f') and F = f / r, g interlaces f iff r | g and G = g / r
    interlaces the square-free F, which holds iff the Wronskian
    W = F'G - FG' never changes sign: no odd-multiplicity square-free factor
    of W has a real root.  Strict interlacing holds iff r is constant and W
    has no real root.  The test on f'g - fg' itself is false for repeated
    roots: for f = -2(x+4)^5 (x-2) and g = (x+4)^2 (x+1)^3 it is
    -2(x+1)^2 (x+4)^6 (x^2-4x+22), of one sign, yet b_3 = -1 > a_4 = -4.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("zero polynomial")
    d = f.degree()
    if g.degree() != d - 1:
        raise ValueError(f"degree mismatch: deg g = {g.degree()}, need deg f - 1 = {d - 1}")
    F, fseq = _squarefree_chain(f)
    if _sturm_count_sqfree(fseq, None, None) != F.degree():
        return certified_no(witness="f", detail="f is not real-rooted")
    if not is_real_rooted(g):
        return certified_no(witness="g", detail="g is not real-rooted")
    if d <= 1:
        return certified_yes(detail="trivial: no interior roots required")
    G = g
    if F.degree() < d:
        if strict:
            return certified_no(witness="r constant", detail="f has a repeated root: gcd(f, f') is not constant")
        G, rem = g.divmod(f.divmod(F)[0])
        if not rem.is_zero():
            return certified_no(witness="r | g", detail="gcd(f, f') does not divide g")
    W = F.derivative() * G - F * G.derivative()
    if strict:
        if sturm_root_count(W) > 0:
            return certified_no(witness="W has no real root", detail="the Wronskian F'G - FG' has a real root")
        return certified_yes(detail="strict interlacing")
    if any(m % 2 and sturm_root_count(q) > 0 for q, m in squarefree_decomposition(W)):
        return certified_no(witness="W keeps its sign", detail="the Wronskian F'G - FG' changes sign")
    return certified_yes(detail="interlacing")
