"""Named polynomial families and the end-to-end Vamos pipeline."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from hypersos.corpus import (
    VAMOS_EXCLUDED,
    VAMOS_VANISHING_POINTS,
    VamosReport,
    gen_cubic_example,
    gen_elementary_symmetric,
    gen_lorentz,
    gen_product,
    gen_sym_det,
    gen_vamos,
    sym_det_direction,
    vamos_reproduction,
)
from hypersos.exactla import solve_affine_family
from hypersos.polycore import (
    Polynomial,
    directional_derivative,
    parse_poly,
    poly_adjugate,
    poly_determinant,
)


def test_generators_basic_shapes():
    assert gen_product(3) == Polynomial.monomial(3, (1, 1, 1))
    lor = gen_lorentz(4)
    assert lor.coefficient((2, 0, 0, 0)) == 1
    assert lor.coefficient((0, 0, 0, 2)) == -1
    e2 = gen_elementary_symmetric(3, 2)
    assert e2 == parse_poly("x1*x2 + x1*x3 + x2*x3", ["x1", "x2", "x3"])
    cubic = gen_cubic_example()
    assert cubic == parse_poly("x^3 + 2*x^2*y - x*y^2 - 2*y^3 - x*z^2", ["x", "y", "z"])


def test_generators_are_homogeneous():
    cases = [
        (gen_product(4), 4),
        (gen_lorentz(5), 2),
        (gen_elementary_symmetric(5, 3), 3),
        (gen_cubic_example(), 3),
        (gen_vamos(), 4),
        (gen_sym_det(3), 3),
    ]
    for poly, degree in cases:
        assert poly.is_homogeneous()
        assert poly.total_degree() == degree


def test_generator_input_validation():
    with pytest.raises(ValueError):
        gen_product(0)
    with pytest.raises(ValueError):
        gen_elementary_symmetric(3, 5)
    with pytest.raises(ValueError):
        gen_lorentz(1)


def test_vamos_support():
    h = gen_vamos()
    assert h.num_terms() == 65
    support = {frozenset(i + 1 for i, e in enumerate(m) if e) for m in h.terms}
    excluded = {frozenset(s) for s in itertools.combinations(range(1, 9), 4)} - support
    assert excluded == set(VAMOS_EXCLUDED)
    assert h.is_multiaffine()


def test_sym_det_trace_identity():
    # directional derivative of det along a symmetric E is trace(E * adj)
    rng = random.Random(79)
    for d in (2, 3):
        det = gen_sym_det(d)
        nvars = d * (d + 1) // 2
        index = {}
        k = 0
        for i in range(d):
            for j in range(i, d):
                index[(i, j)] = k
                index[(j, i)] = k
                k += 1
        X = [[Polynomial.variable(nvars, index[(i, j)]) for j in range(d)] for i in range(d)]
        assert poly_determinant(X) == det
        adj = poly_adjugate(X)
        for _ in range(5):
            E = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    v = Fraction(rng.randint(-3, 3))
                    E[i][j] = v
                    E[j][i] = v
            lhs = directional_derivative(det, sym_det_direction(E))
            rhs = Polynomial.zero(nvars)
            for r in range(d):
                for c in range(d):
                    if E[r][c]:
                        rhs = rhs + adj[c][r] * E[r][c]
            assert lhs == rhs


def test_product_partials_span_dimension():
    n = 4
    f = gen_product(n)
    partials = [f.partial(i) for i in range(n)]
    monos = sorted({m for p in partials for m in p.terms})
    rows = [[p.coefficient(m) for p in partials] for m in monos]
    sol = solve_affine_family([dict(enumerate(row)) for row in rows], [Fraction(0)] * len(rows), n)
    assert sol is not None
    _, null = sol
    assert len(null) == 0  # independent, so the span has dimension n


def test_vamos_reproduction_values():
    rep = vamos_reproduction()
    assert isinstance(rep, VamosReport)
    assert rep.W.num_terms() == 19
    assert rep.W.coefficient((2, 2, 2)) == 10
    assert rep.gram == [
        [Fraction(1), Fraction(1, 2), Fraction(1), Fraction(2)],
        [Fraction(1, 2), Fraction(1), Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(1), Fraction(1), Fraction(2)],
        [Fraction(2), Fraction(2), Fraction(2), Fraction(5)],
    ]
    assert rep.gram_det == Fraction(-1, 4)
    assert rep.conclusion.is_no
    for p in VAMOS_VANISHING_POINTS:
        assert rep.W.evaluate(p) == 0
    # report serializes deterministically
    data = json.loads(rep.to_json())
    assert data["gram_det"] == "-1/4"
    assert len(data["cubic_basis"]) == 4
