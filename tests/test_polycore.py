"""Exact polynomial arithmetic: examples and randomized ring properties."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from reference_det import det_by_permutations
from reference_sqrt import fraction_square_root

from hypersos.polycore import (
    Polynomial,
    PolyParseError,
    UniPoly,
    _IntForm,
    directional_derivative,
    exact_divide,
    evaluate,
    format_poly,
    parse_poly,
    perfect_square_root,
    poly_adjugate,
    poly_determinant,
    restrict_to_line,
    squarefree_decomposition,
    uni_gcd,
)

XYZ = ["x", "y", "z"]


def P(text, names=XYZ):
    return parse_poly(text, names)


def rand_poly(rng, nvars, max_deg=2, terms=4, coeff_bound=5):
    out = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3))
        if c:
            out[mono] = out.get(mono, Fraction(0)) + c
    return Polynomial(nvars, out)


# -- parsing and formatting ----------------------------------------------------


def test_parse_lorentz():
    f = P("x^2 - y^2 - z^2")
    assert f.num_terms() == 3
    assert f.coefficient((2, 0, 0)) == 1
    assert f.coefficient((0, 2, 0)) == -1


def test_parse_cubic_expands():
    f = P("(x - y)*(x + y)*(x + 2*y) - x*z^2")
    expected = P("x^3 + 2*x^2*y - x*y^2 - 2*y^3 - x*z^2")
    assert f == expected


def test_parse_collects_like_terms():
    f = parse_poly("x1 + x1", ["x1"])
    assert f == Polynomial(1, {(1,): 2})


def test_parse_rational_literals():
    f = P("3*x^2*y - 5/2*z^4")
    assert f.coefficient((2, 1, 0)) == 3
    assert f.coefficient((0, 0, 4)) == Fraction(-5, 2)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        P("x^2 + q")
    assert exc.value.pos == 6
    with pytest.raises(PolyParseError):
        P("x^2 +")
    with pytest.raises(PolyParseError):
        P("2 x")  # implicit multiplication forbidden
    with pytest.raises(PolyParseError):
        P("x^(2)")


def test_format_canonical():
    assert format_poly(P("3*x^2*y - 5/2*z^4"), XYZ) == "-5/2*z^4 + 3*x^2*y"
    assert format_poly(Polynomial.zero(3), XYZ) == "0"
    assert format_poly(P("-x + y"), XYZ) == "-x + y"


def test_format_parse_round_trip():
    rng = random.Random(2024)
    for _ in range(50):
        f = rand_poly(rng, 3)
        assert parse_poly(format_poly(f, XYZ), XYZ) == f


# -- evaluation and derivatives --------------------------------------------------


def test_evaluate_examples():
    assert evaluate(P("x^2 - y^2 - z^2"), [1, 0, 0]) == 1
    prod = Polynomial.monomial(3, (1, 1, 1))
    assert evaluate(prod, [1, 1, 1]) == 1


def test_evaluate_vamos_at_ones():
    # independent count: 4-subsets of an 8-set minus the five excluded ones
    from hypersos.corpus import VAMOS_EXCLUDED, gen_vamos

    expected = sum(
        1
        for s in itertools.combinations(range(1, 9), 4)
        if frozenset(s) not in VAMOS_EXCLUDED
    )
    assert expected == 65
    assert evaluate(gen_vamos(), [1] * 8) == expected


def test_partial_derivative_examples():
    assert P("x^2 - y^2 - z^2").partial(0) == P("2*x")
    prod = Polynomial.monomial(3, (1, 1, 1))
    assert prod.partial(0) == P("y*z")
    cubic = P("(x - y)*(x + y)*(x + 2*y) - x*z^2")
    assert cubic.partial(0) == P("3*x^2 + 4*x*y - y^2 - z^2")


def test_directional_derivative_examples():
    f = P("x^2 - y^2 - z^2")
    assert directional_derivative(f, [1, 0, 0]) == P("2*x")
    prod = Polynomial.monomial(3, (1, 1, 1))
    assert directional_derivative(prod, [1, 1, 1]) == P("x*y + x*z + y*z")


def test_directional_derivative_of_symmetric_det_entry():
    # derivative of det(X) along E = e_11 equals the complementary adjugate entry
    from hypersos.corpus import gen_sym_det, sym_det_direction

    det2 = gen_sym_det(2)  # variables X11, X12, X22
    E = [[1, 0], [0, 0]]
    d = directional_derivative(det2, sym_det_direction(E))
    names = ["X11", "X12", "X22"]
    assert d == parse_poly("X22", names)


def test_directional_derivative_linear_in_direction():
    rng = random.Random(7)
    for _ in range(30):
        f = rand_poly(rng, 3)
        a = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        ab = [x + y for x, y in zip(a, b)]
        assert directional_derivative(f, ab) == directional_derivative(f, a) + directional_derivative(f, b)


# -- line restriction ------------------------------------------------------------


def test_restrict_to_line_examples():
    f = P("x^2 - y^2 - z^2")
    assert restrict_to_line(f, [1, 0, 0], [0, 1, 0]) == UniPoly([-1, 0, 1])
    assert restrict_to_line(f, [1, 0, 0], [0, 0, 0]) == UniPoly([0, 0, 1])
    prod = Polynomial.monomial(2, (1, 1))
    assert restrict_to_line(prod, [1, 1], [1, -1]) == UniPoly([-1, 0, 1])


def test_restrict_compatible_with_evaluation():
    rng = random.Random(11)
    for _ in range(40):
        f = rand_poly(rng, 3)
        e = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        a = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        t0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        line = restrict_to_line(f, e, a)
        point = [t0 * ei + ai for ei, ai in zip(e, a)]
        assert line(t0) == f.evaluate(point)


# -- the fraction-free kernel against a naive Fraction reference --------------------


def naive_evaluate(f, point):
    total = Fraction(0)
    for m, c in f.terms.items():
        v = c
        for k, x in zip(m, point):
            v *= Fraction(x) ** k
        total += v
    return total


def naive_restrict(f, e, a):
    """Expand every term of f(t*e + a) with Fraction binomials, one at a time."""
    d = max((sum(m) for m in f.terms), default=0)
    acc = [Fraction(0)] * (d + 1)
    for m, c in f.terms.items():
        term = [c]
        for ei, ai, k in zip(e, a, m):
            pw = [math.comb(k, j) * Fraction(ei) ** j * Fraction(ai) ** (k - j) for j in range(k + 1)]
            new = [Fraction(0)] * (len(term) + k)
            for s, ts in enumerate(term):
                for j, pj in enumerate(pw):
                    new[s + j] += ts * pj
            term = new
        for s, ts in enumerate(term):
            acc[s] += ts
    return UniPoly(acc)


def rand_rational(rng, bound=4):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 5))


def kernel_cases():
    """Seeded (f, e, a, point): rational and negative data, mixed degrees, edge cases."""
    rng = random.Random(2012)

    def vec(nvars):
        return [rand_rational(rng) if rng.random() < 0.6 else Fraction(rng.randint(-2, 2))
                for _ in range(nvars)]

    cases = []
    for trial in range(150):
        nvars = rng.randint(1, 4)
        f = rand_poly(rng, nvars, max_deg=rng.randint(1, 4), terms=rng.randint(1, 7))
        e, a, point = vec(nvars), vec(nvars), vec(nvars)
        if trial % 10 == 0:
            e = [Fraction(0)] * nvars
        cases.append((f, e, a, point))
    cases.append((Polynomial.zero(3), [1, 2, 3], [Fraction(1, 2), 0, -1], [1, Fraction(-2, 3), 5]))
    cases.append((Polynomial.const(0, Fraction(-7, 3)), [], [], []))
    cases.append((Polynomial.zero(0), [], [], []))
    inhom = P("3/2*x^3 - y*z + 5/7*z - 2")
    cases.append((inhom, [Fraction(1, 3), -2, Fraction(5, 4)], [Fraction(-1, 2), Fraction(2, 9), 1],
                  [Fraction(7, 5), Fraction(-3, 8), 0]))
    cases.append((inhom, [0, 0, 0], [Fraction(1, 6), -1, Fraction(3, 10)], [0, 0, 0]))
    return cases


def test_kernel_cases_cover_rational_inhomogeneous_and_edge_inputs():
    cases = kernel_cases()
    coeffs = [c for f, _, _, _ in cases for c in f.terms.values()]
    assert any(c.denominator > 1 and c < 0 for c in coeffs)
    assert any(not f.is_homogeneous() for f, _, _, _ in cases)
    assert any(f.is_zero() for f, _, _, _ in cases)
    assert any(f.nvars == 0 for f, _, _, _ in cases)
    assert any(f.nvars and not any(e) for f, e, _, _ in cases)
    for slot in (1, 2, 3):
        assert any(Fraction(x).denominator > 1 for case in cases for x in case[slot])


def test_evaluate_matches_naive_reference():
    for f, _, _, point in kernel_cases():
        got = f.evaluate(point)
        assert type(got) is Fraction
        assert got == naive_evaluate(f, point)


def test_evaluate_keeps_its_compiled_form():
    # evaluate compiles the polynomial once and keeps the form; repeated
    # calls give what a fresh compiled form gives, and the polynomial stays
    # immutable and compares, hashes and computes as before
    for f, e, a, point in kernel_cases():
        first = f.evaluate(point)
        form = f._form
        assert f.evaluate(a) == _IntForm(f.nvars, [f]).values_at(a)[0]
        assert f.evaluate(point) == first == _IntForm(f.nvars, [f]).values_at(point)[0]
        assert f._form is form
        fresh = Polynomial(f.nvars, f.terms)
        assert f == fresh and hash(f) == hash(fresh)
        with pytest.raises(AttributeError):
            f.nvars = 1
        with pytest.raises(AttributeError):
            f._form = None
        # results derived from an evaluated polynomial compile their own form
        for derived in (f + 1, f * f, -f, f * Fraction(2, 3), f - f):
            assert not hasattr(derived, "_form")
            assert derived == Polynomial(f.nvars, derived.terms)
            assert derived.evaluate(point) == naive_evaluate(derived, point)
        if f.nvars:
            g = f.partial(0)
            assert not hasattr(g, "_form")
            assert g.evaluate(point) == naive_evaluate(g, point)
    p = P("x*y - 2*z^2")
    p.evaluate([1, 2, 3])
    with pytest.raises(AttributeError):
        p.x = 1
    assert p == P("x*y - 2*z^2") and p * 2 == P("2*x*y - 4*z^2") and p + p == p * 2


def test_restrict_to_line_matches_naive_reference():
    for f, e, a, _ in kernel_cases():
        got = restrict_to_line(f, e, a)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got == naive_restrict(f, e, a)


def test_batch_kernels_match_naive_reference_per_polynomial():
    # one compiled form per variable count holds every kernel case of that
    # count (mixed degrees, inhomogeneous, zero): each value and restriction
    # must equal the naive one for its own polynomial
    by_nvars = {}
    for f, e, a, point in kernel_cases():
        by_nvars.setdefault(f.nvars, []).append((f, e, a, point))
    for nvars, cases in sorted(by_nvars.items()):
        polys = [f for f, _, _, _ in cases]
        form = _IntForm(nvars, polys)
        lines = [(e, a) for _, e, a, _ in cases[:6]]
        points = [point for _, _, _, point in cases[:6]]
        points.append([x.numerator for x in points[0]])  # an all-int point
        for point in points:
            got = form.values_at(point)
            assert all(type(v) is Fraction for v in got)
            assert got == [naive_evaluate(f, point) for f in polys]
        for e, a in lines:
            got = form.restrictions(e, a)
            assert all(type(c) is Fraction for line in got for c in line.coeffs)
            assert got == [naive_restrict(f, e, a) for f in polys]
            assert all(type(c) is int for _, cs in form.line_numerators(e, a) for c in cs)
    assert all(len({f.total_degree() for f, _, _, _ in by_nvars[n]}) > 2 for n in (1, 2, 3, 4))


def test_line_restriction_with_coordinates_zero_on_the_whole_line():
    # a term with a variable that is 0 in both the direction and the offset
    # vanishes on the line; skipping it must leave every restriction as the
    # naive one
    polys = [P("x^2*y + 3*z^3 - x*y*z + 1/2*y^2"), P("z^2 - 2*x*z"), P("y"), P("x^2 - 5")]
    form = _IntForm(3, polys)
    form.restrictions([1, 2, Fraction(1, 3)], [Fraction(-1, 2), 1, 4])
    lines = [
        ([1, 0, 0], [0, 0, 1]),  # y dead
        ([0, 0, 1], [0, 0, Fraction(2, 3)]),  # x and y dead
        ([0, 0, 0], [0, 0, 0]),  # every variable dead
        ([0, 1, 0], [Fraction(3, 2), 0, 0]),  # z dead
        ([2, -1, 1], [1, 1, -1]),  # none dead
    ]
    for e, a in lines:
        assert form.restrictions(e, a) == [naive_restrict(f, e, a) for f in polys], (e, a)


def test_batch_kernel_edge_inputs():
    empty = _IntForm(3, [])
    assert empty.values_at([1, Fraction(1, 2), 0]) == []
    assert empty.restrictions([1, 0, 0], [0, 1, 0]) == []
    zero = _IntForm(2, [Polynomial.zero(2), P("x*y - 1/2", ["x", "y"])])
    assert zero.values_at([Fraction(1, 3), 3]) == [0, Fraction(1, 2)]
    assert zero.restrictions([1, 0], [0, 2]) == [UniPoly.zero(), UniPoly([Fraction(-1, 2), 2])]
    const = _IntForm(0, [Polynomial.const(0, Fraction(-7, 3)), Polynomial.zero(0)])
    assert const.values_at([]) == [Fraction(-7, 3), 0]
    assert const.restrictions([], []) == [UniPoly([Fraction(-7, 3)]), UniPoly.zero()]
    form = _IntForm(3, [P("x^2 - y*z"), P("z")])
    for bad in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            form.values_at(bad)
        with pytest.raises(ValueError):
            form.restrictions(bad, [0, 0, 0])
        with pytest.raises(ValueError):
            form.restrictions([0, 0, 1], bad)
    with pytest.raises(ValueError):
        _IntForm(2, [P("x")])


def test_kernels_match_naive_fractions_on_large_and_edge_inputs():
    # coefficients up to 10^40, lines and points with denominators up to
    # 10^20 and zero or negative coordinates, nvars 0..6 and degree up to 8,
    # inhomogeneous, zero and constant polynomials: every value and every
    # restriction (read as base-2^B digits of one Kronecker value) must be
    # the naive Fraction one
    rng = random.Random(27)

    def big_rational():
        if rng.random() < 0.15:
            return Fraction(0)
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**rng.randint(0, 20)))

    checked = 0
    for trial in range(120):
        nvars = trial % 7
        polys = [Polynomial.zero(nvars), Polynomial.const(nvars, Fraction(-(10**40) + trial, 7))]
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                mono = [0] * nvars
                for _ in range(rng.randint(0, 8)):
                    if nvars:
                        mono[rng.randrange(nvars)] += 1
                terms[tuple(mono)] = Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**rng.randint(0, 12)))
            polys.append(Polynomial(nvars, terms))
        rng.shuffle(polys)
        e, a, point = ([big_rational() for _ in range(nvars)] for _ in range(3))
        if nvars and trial % 3 == 0:
            i = rng.randrange(nvars)
            e[i] = a[i] = Fraction(0)
        form = _IntForm(nvars, polys)
        assert form.restrictions(e, a) == [naive_restrict(f, e, a) for f in polys], (polys, e, a)
        assert form.values_at(point) == [naive_evaluate(f, point) for f in polys]
        checked += 1
    assert checked == 120

    # restriction coefficients at exactly +-(2^(B-1) - 1) for the B of
    # line_numerators (2^(B-1) just above norm * M^d, with M the largest of q
    # and the |E_i| + |A_i|): c t^2 on the line (1, 0) t + (0, 1), where
    # M = 1, and c * 3^2 * (-3)^3 t^2 on (3, 0) t + (0, -3), where M = 3
    for c, e, a, scale in ((2**40 - 1, [1, 0], [0, 1], 1), ((2**162 - 1) // 243, [3, 0], [0, -3], -243)):
        for sign in (1, -1):
            f = Polynomial(2, {(2, 3): Fraction(sign * c)})
            ((den, coeffs),) = _IntForm(2, [f]).line_numerators(e, a)
            top = 2 ** (c * abs(scale)).bit_length() - 1
            assert den == 1 and coeffs == [0, 0, sign * scale * c, 0, 0, 0] and abs(coeffs[2]) == top
            assert restrict_to_line(f, e, a) == naive_restrict(f, e, a)


def test_taylor_pieces_match_line_numerators():
    # the pieces D_e^j f / j! of a whole list, compiled once per direction,
    # give every line through e exactly as line_numerators expands it: mixed
    # degrees, homogeneous and inhomogeneous, zero and constant polynomials,
    # e rational over several denominators or with zero coordinates
    rng = random.Random(25)
    checked = 0
    for trial in range(60):
        nvars = 1 if trial % 5 == 0 else rng.randint(2, 4)
        polys = [rand_poly(rng, nvars, max_deg=rng.randint(1, 3), terms=rng.randint(1, 6)) for _ in range(3)]
        top = polys[0].total_degree()
        polys[0] = Polynomial(nvars, {m: c for m, c in polys[0].terms.items() if sum(m) == top})
        polys += [Polynomial.zero(nvars), Polynomial.const(nvars, rand_rational(rng) or 1)]
        rng.shuffle(polys)
        dens = [1, 2, 3, 5, 7]
        e = [Fraction(rng.randint(-4, 4), rng.choice(dens)) for _ in range(nvars)]
        if trial % 3 == 0:
            e[rng.randrange(nvars)] = Fraction(0)
        if trial % 20 == 1:
            e = [Fraction(0)] * nvars
        form = _IntForm(nvars, polys)
        pieces = form.taylor_pieces(e)
        assert pieces.widths == [max(f.total_degree(), 0) + 1 for f in polys]
        for _ in range(3):
            a = [rand_rational(rng) for _ in range(nvars)]
            got = pieces.restrictions(a)
            assert all(type(c) is Fraction for line in got for c in line.coeffs)
            assert got == form.restrictions(e, a), (polys, e, a)
            checked += 1
        # the pieces themselves are the scaled derivatives along e
        a = [rand_rational(rng) for _ in range(nvars)]
        values = iter(pieces.form.values_at(a))
        for f, width in zip(polys, pieces.widths):
            g, want = f, []
            for j in range(width):
                want.append(g.evaluate(a) / math.factorial(j))
                g = directional_derivative(g, e)
            assert [next(values) for _ in range(width)] == want
    assert checked == 180
    const = _IntForm(0, [Polynomial.const(0, Fraction(-7, 3)), Polynomial.zero(0)]).taylor_pieces([])
    assert const.restrictions([]) == [UniPoly([Fraction(-7, 3)]), UniPoly.zero()]
    assert _IntForm(3, []).taylor_pieces([1, 0, 0]).restrictions([0, 1, 0]) == []
    form = _IntForm(3, [P("x^2 - y*z"), P("z")])
    with pytest.raises(ValueError):
        form.taylor_pieces([1, 2])
    with pytest.raises(ValueError):
        form.taylor_pieces([1, 2, 3]).restrictions([1, 2, 3, 4])


# -- ring arithmetic against a naive dict-of-Fraction reference ---------------------


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def ref_scale(a, k):
    return {m: c * k for m, c in a.items() if c * k}


def ref_partial(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1 :]] = c * m[i]
    return out


def assert_clean(p):
    """What the public constructor would enforce: tuple keys, nonzero Fractions."""
    assert isinstance(p, Polynomial)
    for m, c in p.terms.items():
        assert type(m) is tuple and len(m) == p.nvars
        assert all(type(e) is int and e >= 0 for e in m)
        assert type(c) is Fraction and c != 0


def arith_cases():
    """Seeded (a, b) pairs in one ring: rational, negative, cancelling, zero, nvars=0."""
    rng = random.Random(2013)
    cases = []
    for trial in range(120):
        nvars = rng.randint(1, 3)
        a = rand_poly(rng, nvars, max_deg=rng.randint(1, 3), terms=rng.randint(1, 6))
        b = rand_poly(rng, nvars, max_deg=rng.randint(1, 3), terms=rng.randint(1, 6))
        if trial % 3 == 0:  # b cancels every other term of a exactly
            b = Polynomial(nvars, {**b.terms, **{m: -c for m, c in list(a.terms.items())[::2]}})
        cases.append((a, b))
    for nvars in (0, 2):
        z, c = Polynomial.zero(nvars), rand_poly(rng, nvars, terms=3)
        cases += [(z, z), (z, c), (c, z)]
    cases.append((Polynomial.const(0, Fraction(-3, 4)), Polynomial.const(0, Fraction(5, 6))))
    cases.append((P("x + 1/2*y"), P("x - 1/2*y")))  # the product cancels x*y
    return cases


def test_arith_cases_cover_cancellation_and_edge_inputs():
    cases = arith_cases()
    assert any(a.nvars == 0 for a, _ in cases)
    assert any(a.is_zero() for a, _ in cases) and any(b.is_zero() for _, b in cases)
    assert any(c.denominator > 1 and c < 0 for a, _ in cases for c in a.terms.values())
    assert any(len(ref_add(a.terms, b.terms)) < len(a.terms.keys() | b.terms.keys()) for a, b in cases)
    products = [{tuple(x + y for x, y in zip(ma, mb)) for ma in a.terms for mb in b.terms}
                for a, b in cases]
    assert any(len(ref_mul(a.terms, b.terms)) < len(p) for (a, b), p in zip(cases, products))


def test_ring_operations_match_naive_reference():
    k = Fraction(-7, 3)
    rng = random.Random(5)
    for a, b in arith_cases():
        checks = [
            (a + b, ref_add(a.terms, b.terms)),
            (a - b, ref_add(a.terms, b.terms, -1)),
            (a * b, ref_mul(a.terms, b.terms)),
            (a * k, ref_scale(a.terms, k)),
            (2 * a, ref_scale(a.terms, 2)),
            (a * 0, {}),
            (-a, ref_scale(a.terms, -1)),
            (a - a, {}),
        ]
        checks += [(a.partial(i), ref_partial(a.terms, i)) for i in range(a.nvars)]
        for got, want in checks:
            assert_clean(got)
            assert got.nvars == a.nvars and got.terms == want
        point = [rand_rational(rng) for _ in range(a.nvars)]
        assert a.evaluate(point) == naive_evaluate(a, point)
        assert (a * b).evaluate(point) == naive_evaluate(a, point) * naive_evaluate(b, point)


def test_division_and_square_root_match_naive_reference():
    rng = random.Random(6)
    for a, b in arith_cases():
        n = a.nvars
        if not b.is_zero():
            q = exact_divide(Polynomial(n, ref_mul(a.terms, b.terms)), b)
            assert_clean(q)
            assert q.terms == a.terms
            if b.total_degree() > 0:  # q*b + 1 would make b divide the constant 1
                assert exact_divide(Polynomial(n, ref_add(ref_mul(a.terms, b.terms), {(0,) * n: 1})), b) is None
        square = Polynomial(n, ref_mul(a.terms, a.terms))
        root = perfect_square_root(square)
        assert_clean(root)
        sign = 1 if a.is_zero() or a.leading_term()[1] > 0 else -1
        assert root.terms == ref_scale(a.terms, sign)
        if a.num_terms() >= 3:
            # a^2 + c*m = s^2 would factor c*m as (s - a)(s + a); the factors of
            # a monomial are monomials, which would leave a with at most two terms
            m = tuple(rng.randint(0, 3) for _ in range(n))
            bumped = ref_add(square.terms, {m: rand_rational(rng) or Fraction(1)})
            assert perfect_square_root(Polynomial(n, bumped)) is None


def test_ring_operations_skip_the_validating_constructor(monkeypatch):
    x, y = P("x"), P("y")
    a, b = P("1/2*x^2 - 3*x*y + y"), P("x - 2/3*y")
    square = a * a

    def refuse(self, *args, **kwargs):
        raise AssertionError("arithmetic re-validated its own result")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    results = [a + b, a - b, a * b, a * Fraction(3, 5), -a, a.partial(0),
               exact_divide(a * b, b), perfect_square_root(square), x * y]
    assert all(isinstance(r, Polynomial) for r in results)


def test_public_constructor_still_validates_and_drops_zeros():
    for nvars, terms in ((2, {(1,): 1}), (2, {(1, 0, 0): 1}), (2, {(1, -1): 2}), (0, {(1,): 1})):
        with pytest.raises(ValueError):
            Polynomial(nvars, terms)
    with pytest.raises(ValueError):
        Polynomial(-1)
    p = Polynomial(2, {(1, 0): 0, (0, 1): 3, (2, 0): Fraction(0, 5)})
    assert p.terms == {(0, 1): Fraction(3)}
    assert type(p.terms[(0, 1)]) is Fraction
    assert Polynomial(1, {(2,): Fraction(1, 2), (1,): 0}).terms == {(2,): Fraction(1, 2)}


# -- determinants and adjugates ----------------------------------------------------


def test_determinant_examples():
    n = 3
    diag = [[Polynomial.variable(n, i) if i == j else Polynomial.zero(n) for j in range(n)] for i in range(n)]
    assert poly_determinant(diag) == Polynomial.monomial(n, (1, 1, 1))

    names = ["X11", "X12", "X22"]
    X11, X12, X22 = (Polynomial.variable(3, i) for i in range(3))
    sym = [[X11, X12], [X12, X22]]
    assert poly_determinant(sym) == parse_poly("X11*X22 - X12^2", names)

    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    pencil = [[x + y, y], [y, x + y]]
    assert poly_determinant(pencil) == parse_poly("x^2 + 2*x*y", ["x", "y"])


def random_entry(rng, nvars, max_deg, terms, dens):
    """A polynomial of total degree <= max_deg, not necessarily homogeneous; zero with probability 1/5."""
    if rng.random() < 0.2:
        return Polynomial.zero(nvars)
    out = {}
    for _ in range(rng.randint(1, terms)):
        m = [0] * nvars
        for _ in range(rng.randint(0, max_deg) if nvars else 0):
            m[rng.randrange(nvars)] += 1
        out[tuple(m)] = Fraction(rng.randint(-5, 5), rng.choice(dens))
    return Polynomial(nvars, out)


def test_determinant_bareiss_matches_permutation_expansion():
    # sizes 1-6, 0-4 variables, entries of degree 0-3 over denominators up to
    # 10^9 + 7, with zero rows and columns, dependent rows and constant matrices
    rng = random.Random(13)
    dens = [1, 2, 3, 7, 10**9 + 7]
    seen = {"zero": 0, "nonzero": 0}
    for k in range(90):
        size, nvars, shape = 1 + k % 6, rng.randint(0, 4), k // 6 % 5
        max_deg = 0 if shape == 4 else rng.randint(1, 3 if size <= 4 else 2)
        M = [[random_entry(rng, nvars, max_deg, 3 if size <= 4 else 2, dens) for _ in range(size)]
             for _ in range(size)]
        r, c = rng.randrange(size), rng.randrange(size)
        if shape == 1:  # a zero row
            M[r] = [Polynomial.zero(nvars)] * size
        elif shape == 2:  # a zero column
            for row in M:
                row[c] = Polynomial.zero(nvars)
        elif shape == 3 and size > 1:  # row r is a polynomial multiple of another row
            scale = random_entry(rng, nvars, 1, 2, dens) or Polynomial.const(nvars, Fraction(-3, 10**9 + 7))
            M[r] = [x * scale for x in M[(r + 1) % size]]
        det = poly_determinant(M)
        assert det == det_by_permutations(M)
        seen["zero" if det.is_zero() else "nonzero"] += 1
    assert min(seen.values()) >= 25, seen
    # entries in different rings
    x2, x3 = Polynomial.variable(2, 0), Polynomial.variable(3, 0)
    for size in (2, 3, 5):
        M = [[x2 + k for k in range(size)] for _ in range(size)]
        M[size - 1][size - 1] = x3
        with pytest.raises(ValueError):
            poly_determinant(M)


def test_adjugate_examples():
    one = Polynomial.const(2, 1)
    p = parse_poly("x^2 + y", ["x", "y"])
    assert poly_adjugate([[p]]) == [[one]]

    n = 3
    x1, x2, x3 = (Polynomial.variable(n, i) for i in range(n))
    z = Polynomial.zero(n)
    diag = [[x1, z, z], [z, x2, z], [z, z, x3]]
    adj = poly_adjugate(diag)
    assert adj[0][0] == x2 * x3 and adj[1][1] == x1 * x3 and adj[2][2] == x1 * x2
    assert adj[0][1].is_zero()

    names = ["X11", "X12", "X22"]
    X11, X12, X22 = (Polynomial.variable(3, i) for i in range(3))
    sym = [[X11, X12], [X12, X22]]
    adj2 = poly_adjugate(sym)
    assert adj2 == [[X22, -X12], [-X12, X11]]


def test_adjugate_identity_randomized():
    rng = random.Random(17)
    for size in (2, 3, 4):
        for _ in range(6):
            M = [[None] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    p = rand_poly(rng, 2, max_deg=1, terms=2, coeff_bound=3)
                    M[i][j] = p
                    M[j][i] = p
            adj = poly_adjugate(M)
            det = poly_determinant(M)
            for i in range(size):
                for j in range(size):
                    acc = Polynomial.zero(2)
                    for k in range(size):
                        acc = acc + M[i][k] * adj[k][j]
                    assert acc == (det if i == j else Polynomial.zero(2))
            # adjugate of a symmetric matrix is symmetric
            for i in range(size):
                for j in range(size):
                    assert adj[i][j] == adj[j][i]


# -- division and square roots -------------------------------------------------------


def test_exact_divide_examples():
    f = P("x^2 - y^2 - z^2")
    assert exact_divide(f * f, f) == f
    assert exact_divide(P("x^2 - y^2"), P("x - y")) == P("x + y")
    assert exact_divide(P("x^2 + y^2"), P("x - y")) is None


def test_exact_divide_round_trip():
    rng = random.Random(19)
    for _ in range(40):
        p = rand_poly(rng, 3)
        f = rand_poly(rng, 3)
        if f.is_zero():
            continue
        assert exact_divide(p * f, f) == p


def test_exact_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        exact_divide(P("x"), Polynomial.zero(3))


def test_perfect_square_root_examples():
    assert perfect_square_root(P("x^2 + 2*x*y + y^2")) == P("x + y")
    assert perfect_square_root(P("x^2 + y^2")) is None
    assert perfect_square_root(Polynomial.zero(3)) == Polynomial.zero(3)
    # rational roots; a leading coefficient that is not a rational square, a
    # negative one, and a step whose division leaves a remainder
    assert perfect_square_root(P("1/4*x^2 - 1/3*x*y + 1/9*y^2")) == P("1/2*x - 1/3*y")
    assert perfect_square_root(P("9/4*x^2*z^2 + 6*x*z + 4")) == P("3/2*x*z + 2")
    for text in ("1/2*x^2", "-x^2 - y^2", "x^2 + x*y", "x^2 + 3*x*y + 9/4*y^2 + 1/7*z^2"):
        assert perfect_square_root(P(text)) is None
    # coordinate Wronskian of the degree-(n-1) elementary symmetric, n = 4
    from hypersos.corpus import gen_elementary_symmetric
    from hypersos.hypercone import delta_ij

    e3 = gen_elementary_symmetric(4, 3)
    d = delta_ij(e3, 0, 1)
    root = perfect_square_root(d)
    assert root == Polynomial.monomial(4, (0, 0, 1, 1))


def test_perfect_square_root_round_trip():
    rng = random.Random(23)
    for _ in range(40):
        r = rand_poly(rng, 3, max_deg=2, terms=3)
        if r.is_zero():
            continue
        root = perfect_square_root(r * r)
        assert root is not None
        assert root == r or root == -r
        assert root * root == r * r


def test_perfect_square_root_matches_the_fraction_peel():
    # squares (both signs of the root), near-squares, an odd leading exponent,
    # a negative leading coefficient and zero, in 0 to 5 variables, with
    # exponents up to 7 (fields filled to 2^k - 1 and 2^k) and large denominators
    rng = random.Random(31)
    kinds = {"square": 0, "near": 0, "odd": 0, "negative": 0, "zero": 0}
    found = {True: 0, False: 0}
    for k in range(600):
        n, kind = k % 6, list(kinds)[(k // 6) % 5]
        r = rand_poly(rng, n, max_deg=rng.choice([1, 2, 3, 4, 7]), terms=rng.randint(1, 5), coeff_bound=9)
        r = r * Fraction(rng.choice([1, -1]), rng.choice([1, 3, 10**9 + 7]))
        p = r * r
        if kind == "near" and not p.is_zero():
            m, c = rng.choice(sorted(p.terms.items()))
            p = p + Polynomial.monomial(n, m, c * Fraction(rng.choice([-1, 1]), rng.randint(2, 10**6)))
        elif kind == "odd":
            p = p * Polynomial.monomial(n, [1] * n) if n else Polynomial.const(0, 2)
        elif kind == "negative":
            p = -p
        elif kind == "zero":
            p = Polynomial.zero(n)
        expected = fraction_square_root(p)
        assert perfect_square_root(p) == expected, (kind, p.terms)
        kinds[kind] += 1
        found[expected is not None] += 1
        if kind == "square":
            assert expected is not None and expected * expected == p
    assert found[True] >= 200 and found[False] >= 200, found
    # leading coefficients that are not rational squares, constants and univariate fields at their edges
    x = Polynomial.variable(1, 0)
    for p in (x**2 * 2, x**2 * Fraction(4, 3), Polynomial.const(1, 4), Polynomial.const(1, -4),
              Polynomial.const(0, Fraction(9, 49)), (x**7 + 3) ** 2, (x**8 - x) ** 2, x**15, x**16 + 1):
        assert perfect_square_root(p) == fraction_square_root(p)


def test_ring_axioms_randomized():
    rng = random.Random(29)
    for _ in range(40):
        p, q, r = (rand_poly(rng, 3) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


# -- univariate helpers ------------------------------------------------------------


def test_unipoly_divmod_and_gcd():
    p = UniPoly([-1, 0, 1])  # t^2 - 1
    q = UniPoly([1, 1])  # t + 1
    quo, rem = p.divmod(q)
    assert rem.is_zero() and quo == UniPoly([-1, 1])
    g = uni_gcd(p, UniPoly([-1, 1]))
    assert g == UniPoly([-1, 1])


def test_squarefree_decomposition():
    # (t-1)^2 (t+2)
    p = UniPoly([2, -3, 0, 1])
    factors = squarefree_decomposition(p)
    assert sorted(m for _, m in factors) == [1, 2]
    rebuilt = UniPoly([1])
    for q, m in factors:
        for _ in range(m):
            rebuilt = rebuilt * q
    assert rebuilt == p.monic()
