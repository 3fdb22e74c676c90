"""Sturm counting, isolation, and exact interlacing verdicts."""

import random
from fractions import Fraction

import pytest

from hypersos import realroots
from hypersos.polycore import UniPoly, squarefree_decomposition, uni_gcd
from hypersos.realroots import (
    SturmSequence,
    is_real_rooted,
    isolate_real_roots,
    roots_interlace,
    sturm_root_count,
)
from hypersos.verdicts import Status


def from_roots(roots):
    p = UniPoly([1])
    for r in roots:
        p = p * UniPoly([-Fraction(r), 1])
    return p


def test_sturm_count_examples():
    assert sturm_root_count(UniPoly([-1, 0, 1])) == 2
    assert sturm_root_count(UniPoly([1, 0, 1])) == 0
    # (t-1)^2 (t+2): two distinct real roots
    assert sturm_root_count(from_roots([1, 1, -2])) == 2


def test_sturm_count_half_open_convention():
    p = from_roots([0, 1])
    assert sturm_root_count(p, Fraction(-1), Fraction(0)) == 1  # 0 included
    assert sturm_root_count(p, Fraction(0), Fraction(1)) == 1  # 0 excluded, 1 included
    assert sturm_root_count(p, Fraction(0), Fraction(1, 2)) == 0


def test_sturm_count_against_grid_scan():
    # distinct roots at quarter-integers; scanning at odd eighths never hits a
    # root and each grid gap holds at most one, so sign changes count exactly
    rng = random.Random(31)
    for _ in range(40):
        k = rng.randint(1, 6)
        pool = [Fraction(n, 4) for n in range(-40, 41)]
        roots = sorted(rng.sample(pool, k))
        p = from_roots(roots)
        grid = [Fraction(2 * j + 1, 8) for j in range(-44, 44)]
        changes = sum(1 for a, b in zip(grid, grid[1:]) if p(a) * p(b) < 0)
        assert changes == len(roots)
        assert sturm_root_count(p) == len(roots)


def test_sturm_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        sturm_root_count(UniPoly([]))


def test_sturm_count_rejects_reversed_interval():
    p = UniPoly([-1, 0, 1])
    with pytest.raises(ValueError):
        sturm_root_count(p, Fraction(2), Fraction(-2))
    assert sturm_root_count(p, Fraction(1), Fraction(1)) == 0
    assert sturm_root_count(p, 2, 2) == 0


def test_isolate_sqrt2():
    rl = isolate_real_roots(UniPoly([-2, 0, 1]), Fraction(1, 100))
    assert len(rl.intervals) == 2
    neg, pos = rl.intervals
    assert neg.hi - neg.lo <= Fraction(1, 100)
    assert pos.hi - pos.lo <= Fraction(1, 100)
    assert neg.hi < 0 < pos.lo
    assert pos.lo**2 < 2 <= pos.hi**2  # sqrt(2) in (lo, hi]
    assert neg.hi**2 < 2 <= neg.lo**2
    assert rl.total_multiplicity() == 2


def test_isolate_triple_root_at_zero():
    rl = isolate_real_roots(UniPoly([0, 0, 0, 1]))
    assert len(rl.intervals) == 1
    iv = rl.intervals[0]
    assert iv.lo == iv.hi == 0
    assert iv.multiplicity == 3


def test_isolate_rational_roots_exact():
    rl = isolate_real_roots(UniPoly([0, -1, 1]))  # t^2 - t
    assert [(iv.lo, iv.hi) for iv in rl.intervals] == [(0, 0), (1, 1)]


def test_isolation_sign_invariant():
    rng = random.Random(37)
    for _ in range(30):
        k = rng.randint(1, 5)
        roots = sorted(rng.sample(range(-8, 9), k))
        p = from_roots(roots)
        rl = isolate_real_roots(p, Fraction(1, 64))
        assert len(rl.intervals) == k
        sf = naive_squarefree_part(p)
        for iv in rl.intervals:
            if iv.is_exact:
                assert p(iv.lo) == 0
            else:
                assert sf(iv.lo) * sf(iv.hi) < 0


def test_is_real_rooted_examples():
    assert is_real_rooted(UniPoly([-1, 0, 1]))
    assert not is_real_rooted(UniPoly([1, 0, 1]))
    # t^2 (t^2 + 1)
    assert not is_real_rooted(UniPoly([0, 0, 1, 0, 1]))


def test_roots_interlace_examples():
    assert roots_interlace(UniPoly([-1, 0, 1]), UniPoly([0, 1]), strict=True).is_yes
    f = from_roots([1, 2, 3])
    g = from_roots([5, 6])
    assert roots_interlace(f, g).is_no
    # derivative interlacing (Rolle)
    f2 = UniPoly([0, -1, 0, 1])  # t^3 - t
    assert roots_interlace(f2, f2.derivative()).is_yes


def test_roots_interlace_shared_roots_and_multiplicity():
    f = from_roots([1, 2])
    g = from_roots([1])
    assert roots_interlace(f, g).is_yes
    assert roots_interlace(f, g, strict=True).is_no
    f3 = from_roots([-1, 1, 1])
    assert roots_interlace(f3, from_roots([-1, 1])).is_yes
    assert roots_interlace(f3, from_roots([Fraction(1, 2), Fraction(3, 4)])).is_no


def test_roots_interlace_non_real_rooted_is_no():
    assert roots_interlace(UniPoly([1, 0, 1]), UniPoly([0, 1])).is_no  # f complex roots
    assert roots_interlace(UniPoly([0, -1, 0, 1]), UniPoly([1, 0, 1])).is_no  # g complex roots


def test_roots_interlace_degree_mismatch():
    with pytest.raises(ValueError):
        roots_interlace(UniPoly([-1, 0, 1]), UniPoly([-1, 0, 1]))


def test_rolle_property_randomized():
    rng = random.Random(41)
    for _ in range(40):
        k = rng.randint(2, 6)
        roots = [rng.randint(-6, 6) for _ in range(k)]
        p = from_roots(roots)
        square_free = len(set(roots)) == len(roots)
        v = roots_interlace(p, p.derivative(), strict=square_free)
        assert v.is_yes, (roots, v.detail)


def sorted_roots_interlace(froots, groots, strict):
    """The definition: a_i <= b_i <= a_(i+1) on the sorted root lists (< when strict)."""
    a, b = sorted(froots), sorted(groots)
    le = (lambda x, y: x < y) if strict else (lambda x, y: x <= y)
    return all(le(a[i], b[i]) and le(b[i], a[i + 1]) for i in range(len(b)))


def interlacing_case(rng):
    """(f, g, [expected non-strict, expected strict]) from known rational roots.

    f's roots repeat often; g's roots are mostly picked at or between
    neighbouring roots of f, so they are often shared, and sometimes moved
    away; either polynomial may trade two roots for an irreducible quadratic.
    """
    pool = [Fraction(k, 2) for k in range(-4, 5)]
    froots = sorted(rng.choice(pool[: rng.randint(2, 9)]) for _ in range(rng.randint(1, 7)))
    groots = [rng.choice([lo, hi, (lo + hi) / 2]) for lo, hi in zip(froots, froots[1:])]
    if groots and rng.random() < 0.4:
        groots[rng.randrange(len(groots))] += rng.choice([Fraction(-1, 2), Fraction(1, 4), 1])
    f, g = (from_roots(rs) * rng.choice([-3, -1, Fraction(2, 3), 1]) for rs in (froots, groots))
    want = [sorted_roots_interlace(froots, groots, strict) for strict in (False, True)]
    for which, roots in enumerate((froots, groots)):
        if len(roots) >= 2 and rng.random() < 0.08:
            quad = UniPoly([rng.randint(2, 9), rng.randint(-2, 2), 1])  # discriminant < 0
            pair = from_roots(roots[-2:])
            f, g = (f.divmod(pair)[0] * quad, g) if which == 0 else (f, g.divmod(pair)[0] * quad)
            want = [False, False]
    return f, g, want


def test_roots_interlace_matches_sorted_root_reference():
    rng = random.Random(2012)
    seen = set()
    for _ in range(800):
        f, g, want = interlacing_case(rng)
        for strict, expected in zip((False, True), want):
            v = roots_interlace(f, g, strict=strict)
            assert v.is_yes == expected and v.is_no != expected, (f, g, strict, v.detail)
            seen.add((strict, expected, v.witness))
        seen.add(("repeated root in f", uni_gcd(f, f.derivative()).degree() > 0))
        seen.add(("shared root", uni_gcd(f, g).degree() > 0))
        seen.add(("signs", f.leading() > 0, g.leading() > 0))
    assert {(strict, True, None) for strict in (False, True)} <= seen
    for witness in ("f", "g", "r | g", "W keeps its sign"):
        assert (False, False, witness) in seen, witness
    for witness in ("f", "g", "r constant", "W has no real root"):
        assert (True, False, witness) in seen, witness
    assert {("repeated root in f", True), ("shared root", True)} <= seen
    assert {("signs", a, b) for a in (True, False) for b in (True, False)} <= seen


def test_roots_interlace_rolle_and_repeated_root_counterexamples():
    rng = random.Random(5)
    for _ in range(60):
        roots = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(rng.randint(2, 7))]
        f = from_roots(roots) * rng.choice([-2, 1])
        # Rolle: f' always interlaces a real-rooted f, strictly iff f is square-free
        assert roots_interlace(f, f.derivative()).is_yes
        assert roots_interlace(f, f.derivative(), strict=True).is_yes == (len(set(roots)) == len(roots))
    # f'g - fg' never changes sign for either pair, yet neither g interlaces f
    f = UniPoly([-1, 3, -3, 1]) * -2  # -2 (x-1)^3
    g = UniPoly([2, -2, 1])  # x^2 - 2x + 2, no real root
    x4, x1 = from_roots([-4]), from_roots([-1])
    f2 = x4 * x4 * x4 * x4 * x4 * from_roots([2]) * -2  # -2 (x+4)^5 (x-2)
    g2 = x4 * x4 * x1 * x1 * x1  # (x+4)^2 (x+1)^3
    for p, q in ((f, g), (f2, g2)):
        w = p.derivative() * q - p * q.derivative()
        assert all(m % 2 == 0 or sturm_root_count(r) == 0 for r, m in squarefree_decomposition(w))
        for strict in (False, True):
            assert roots_interlace(p, q, strict=strict).is_no
    assert roots_interlace(f, g).witness == "g"
    assert roots_interlace(f2, g2).witness == "r | g"


# -- the Fraction kernel that the integer chains replaced, kept as the reference --


class NaiveSturmSequence:
    """Euclidean Sturm chain over Q: p, p', then negated remainders."""

    def __init__(self, p):
        if p.is_zero():
            raise ValueError("zero polynomial")
        chain = [p, p.derivative()]
        while not chain[-1].is_zero():
            chain.append(-chain[-2].divmod(chain[-1])[1])
        chain.pop()
        self.chain = chain

    def variations_at(self, x):
        signs = [v > 0 for v in self._values(Fraction(x)) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def root_bound(self):
        # Cauchy's bound 1 + max |a_i / a_deg| strictly bounds every root
        p = self.chain[0]
        lc = abs(p.leading())
        return 1 + max((abs(c) / lc for c in p.coeffs[:-1]), default=Fraction(0))

    def last(self):
        return self.chain[-1]

    # the evaluation hook realroots' isolation loops call
    def _values(self, x, count=None):
        return [q(x) for q in self.chain[:count]]


def naive_uni_gcd(a, b):
    while not b.is_zero():
        r = a.divmod(b)[1]
        if not r.is_zero():
            r = r.monic()
        a, b = b, r
    return a if a.is_zero() else a.monic()


def naive_squarefree_decomposition(p):
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree() == 0:
        return []
    g = naive_uni_gcd(p, p.derivative())
    if g.degree() == 0:
        return [(p.monic(), 1)]
    out = []
    w, _ = p.divmod(g)
    y, _ = p.derivative().divmod(g)
    z = y - w.derivative()
    i = 1
    while w.degree() != 0:
        h = naive_uni_gcd(w, z)
        if h.degree() > 0:
            out.append((h.monic(), i))
        w, _ = w.divmod(h)
        y, _ = z.divmod(h)
        z = y - w.derivative()
        i += 1
    return out


def naive_squarefree_part(p):
    if p.degree() == 0:
        return UniPoly([1])
    return p.divmod(naive_uni_gcd(p, p.derivative()))[0].monic()


def naive_count(seq, lo=None, hi=None):
    bound = seq.root_bound()
    return seq.variations_at(-bound if lo is None else lo) - seq.variations_at(bound if hi is None else hi)


def naive_sturm_root_count(p, lo=None, hi=None):
    return 0 if p.degree() == 0 else naive_count(NaiveSturmSequence(naive_squarefree_part(p)), lo, hi)


DYADIC = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(-3, 4), Fraction(5, 8)]


def kernel_case(rng, kind, deg):
    """(p, rational roots of p) for one seeded case of degree about deg (0 to 12)."""
    if kind == 0:  # rational coefficients with large denominators, either leading sign
        big = 10**12
        # mostly one shared denominator, as a line restriction has; a few others.
        # Zero coefficients make remainder sequences skip degrees.
        den = rng.randint(1, big)
        cs = [Fraction(rng.choice([0, rng.randint(-big, big)]), rng.choice([den] * 4 + [rng.randint(1, big)])) for _ in range(deg + 1)]
        cs[-1] = cs[-1] or Fraction(rng.choice([-1, 1]))
        return UniPoly(cs), []
    scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 99))
    if kind in (1, 2, 3):  # linear factors at dyadic and integer points, repeats allowed
        roots = [rng.choice(DYADIC + [Fraction(rng.randint(-3, 3))]) for _ in range(max(deg, 1))]
        return from_roots(roots) * scale, roots
    # irreducible quadratics, some squared, times linear factors
    p, roots = UniPoly([scale]), []
    while p.degree() < min(deg, 9):
        if rng.random() < 0.5:
            c, s = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])), Fraction(rng.randint(1, 9), rng.choice([1, 4]))
            q = UniPoly([c * c + s, -2 * c, 1])  # (t - c)^2 + s
            p = p * q * (q if rng.random() < 0.3 else 1)
        else:
            r = rng.choice(DYADIC + [Fraction(rng.randint(-5, 5), rng.randint(1, 5))])
            p, roots = p * UniPoly([-r, 1]), roots + [r]
    return p, roots


def isolation_key(p):
    return [(iv.lo, iv.hi, iv.multiplicity, iv.factor) for iv in isolate_real_roots(p).intervals]


def interlace_key(f, g):
    v = roots_interlace(f, g)
    return (v.status, v.detail, v.witness)


def interlacing_partner(rng, p, roots):
    """A g of degree deg p - 1: p', or a product over most roots of a p that splits."""
    if rng.random() < 0.5 or len(roots) != p.degree() or len(roots) < 2:
        return p.derivative()
    return from_roots(rng.sample(roots, len(roots) - 2) + [rng.choice(DYADIC)]) * rng.choice([-1, 2])


def test_sturm_kernel_matches_naive_reference(monkeypatch):
    rng = random.Random(2012)
    # mostly low degrees, which keeps the Fraction reference affordable; every degree occurs
    cases = [kernel_case(rng, k % 6, k % 13 if k % 11 == 0 else min(rng.randint(0, 12) for _ in "abc")) for k in range(1020)]
    assert sum(1 for p, _ in cases if p.leading() < 0) > 400
    assert sum(1 for p, _ in cases if naive_squarefree_part(p).degree() < p.degree()) > 300
    assert {p.degree() for p, _ in cases} == set(range(13))
    isolations, interlacings = [], []
    for i, (p, roots) in enumerate(cases):
        sf = naive_squarefree_part(p)
        factors = naive_squarefree_decomposition(p)
        assert squarefree_decomposition(p) == factors
        q = cases[i - 1][0] if i % 6 else UniPoly([-1, 0, 1])
        w = UniPoly([Fraction(rng.randint(-9, 9)), rng.randint(1, 3)])
        a, b = (p * w, q * w * w) if i % 2 else (p, p.derivative())
        assert uni_gcd(a, b) == naive_uni_gcd(a, b)
        if p.degree() == 0:
            assert is_real_rooted(p) and sturm_root_count(p) == 0
            continue
        # the chain of sf, and of p when p = lc * sf (the chain scales by lc)
        seq = NaiveSturmSequence(sf)
        chains = [SturmSequence(sf)] + ([SturmSequence(p)] if sf.degree() == p.degree() else [])
        points = sorted(set(roots)) + rng.sample(DYADIC, 2) + [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))]
        for fast in chains:
            for x in points:
                assert fast.variations_at(x) == seq.variations_at(x), (p, x)
        assert chains[0].root_bound() == seq.root_bound()
        lo, hi = sorted(rng.sample(points, 2))
        for ends in ((lo, hi), (None, None)):
            assert sturm_root_count(p, *ends) == naive_count(seq, *ends), (p, ends)
        total = sum(m * naive_count(seq if f == sf else NaiveSturmSequence(f)) for f, m in factors)
        assert is_real_rooted(p) == (total == p.degree())
        if i % 5 == 1:
            isolations.append((p, isolation_key(p)))
        if i % 7 == 1:
            g = interlacing_partner(rng, p, roots)
            interlacings.append((p, g, interlace_key(p, g)))
    # the same isolation and interlacing code, run on the Fraction kernel
    for name, naive in (
        ("SturmSequence", NaiveSturmSequence),
        ("sturm_root_count", naive_sturm_root_count),
        ("squarefree_decomposition", naive_squarefree_decomposition),
    ):
        monkeypatch.setattr(realroots, name, naive)
    for p, key in isolations:
        assert isolation_key(p) == key, p
    for f, g, key in interlacings:
        assert interlace_key(f, g) == key, (f, g)
    assert {key[0] for _, _, key in interlacings} == {Status.CERTIFIED_YES, Status.CERTIFIED_NO}
