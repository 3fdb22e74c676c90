"""Generators for the named polynomial families and the Vamos pipeline.

The Vamos basis-generating polynomial is the standard counterexample here:
it is stable, but the coordinate Wronskian of its last two variables is not
a sum of squares.  `vamos_reproduction` mechanizes that proof end to end
with exact arithmetic: restrict to three variables, verify the known
six-point vanishing set, compute the unique Gram matrix over the cubics
vanishing there, and exhibit its negative determinant.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .exactla import mat_det, solve_affine_family
from .hypercone import delta_ij
from .polycore import (
    Polynomial,
    _IntForm,
    drop_trailing_variables,
    format_poly,
    identify_variables,
    parse_poly,
    poly_determinant,
)
from .soscert import GramSystem, monomials_of_degree
from .verdicts import Verdict, certified_no, frac_json


def gen_product(n: int) -> Polynomial:
    """x1 * x2 * ... * xn."""
    if n < 1:
        raise ValueError("n must be positive")
    return Polynomial.monomial(n, (1,) * n)


def gen_lorentz(n: int) -> Polynomial:
    """x1^2 - x2^2 - ... - xn^2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    terms = {}
    for i in range(n):
        mono = [0] * n
        mono[i] = 2
        terms[tuple(mono)] = Fraction(1) if i == 0 else Fraction(-1)
    return Polynomial(n, terms)


def gen_elementary_symmetric(n: int, d: int) -> Polynomial:
    """Sum of all degree-d square-free monomials in n variables."""
    if not 0 <= d <= n or n < 1:
        raise ValueError("need 0 <= d <= n")
    terms = {}
    for subset in itertools.combinations(range(n), d):
        mono = [0] * n
        for i in subset:
            mono[i] = 1
        terms[tuple(mono)] = Fraction(1)
    return Polynomial(n, terms)


def sym_det_variable_names(d: int) -> list[str]:
    return [f"X{i+1}{j+1}" for i in range(d) for j in range(i, d)]


def gen_sym_det(d: int) -> Polynomial:
    """Determinant of the generic d x d symmetric matrix, in d(d+1)/2 variables.

    Variable order is row-major on the upper triangle: X11, X12, ..., Xdd.
    """
    if d < 1:
        raise ValueError("d must be positive")
    nvars = d * (d + 1) // 2
    index = {}
    k = 0
    for i in range(d):
        for j in range(i, d):
            index[(i, j)] = k
            index[(j, i)] = k
            k += 1
    M = [[Polynomial.variable(nvars, index[(i, j)]) for j in range(d)] for i in range(d)]
    return poly_determinant(M)


def sym_det_direction(E) -> list[Fraction]:
    """Direction vector over the upper-triangle variables for d/dt det(X + tE)."""
    d = len(E)
    out = []
    for i in range(d):
        for j in range(i, d):
            out.append(Fraction(E[i][j]))
    return out


def gen_cubic_example() -> Polynomial:
    """(x - y)(x + y)(x + 2y) - x z^2, expanded over (x, y, z)."""
    return parse_poly("(x - y)*(x + y)*(x + 2*y) - x*z^2", ["x", "y", "z"])


VAMOS_EXCLUDED = (
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2, 5, 6}),
    frozenset({1, 2, 7, 8}),
    frozenset({3, 4, 5, 6}),
    frozenset({3, 4, 7, 8}),
)


def gen_vamos() -> Polynomial:
    """Basis-generating polynomial of the Vamos matroid: 65 quartic monomials."""
    terms = {}
    for subset in itertools.combinations(range(1, 9), 4):
        if frozenset(subset) in VAMOS_EXCLUDED:
            continue
        mono = [0] * 8
        for i in subset:
            mono[i - 1] = 1
        terms[tuple(mono)] = Fraction(1)
    return Polynomial(8, terms)


# the printed 19-term restriction W = (1/4) * Delta_78 h (x,x,y,y,z,z,w,w)
_W_TEXT = (
    "x^4*y^2 + 2*x^3*y^3 + x^2*y^4 + x^4*y*z + 5*x^3*y^2*z + 6*x^2*y^3*z"
    " + 2*x*y^4*z + x^4*z^2 + 5*x^3*y*z^2 + 10*x^2*y^2*z^2 + 6*x*y^3*z^2"
    " + y^4*z^2 + 2*x^3*z^3 + 6*x^2*y*z^3 + 6*x*y^2*z^3 + 2*y^3*z^3"
    " + x^2*z^4 + 2*x*y*z^4 + y^2*z^4"
)

VAMOS_VANISHING_POINTS = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(-1), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(1), Fraction(-1)),
)

_CUBIC_BASIS_TEXT = ("x^2*y + x*y^2", "x^2*z + x*z^2", "y^2*z + y*z^2", "x*y*z")


@dataclass
class VamosReport:
    """Every exact artifact of the restricted non-SOS proof."""

    W: Polynomial
    vanishing_points: list
    cubic_basis: list
    gram: list
    gram_det: Fraction
    conclusion: Verdict

    def to_jsonable(self) -> dict:
        names = ["x", "y", "z"]

        return {
            "W": format_poly(self.W, names),
            "vanishing_points": [[frac_json(c) for c in p] for p in self.vanishing_points],
            "cubic_basis": [format_poly(b, names) for b in self.cubic_basis],
            "gram": [[frac_json(x) for x in row] for row in self.gram],
            "gram_det": frac_json(self.gram_det),
            "conclusion": {
                "status": self.conclusion.status.value,
                "detail": self.conclusion.detail,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)


def vamos_reproduction() -> VamosReport:
    """Exact proof that the restricted Vamos Wronskian is not a sum of squares.

    Steps, each asserted exactly: Delta_78 of the Vamos polynomial does not
    involve x7, x8; its restriction to x1=x2, x3=x4, x5=x6 (scaled by 1/4)
    equals the known 19-term ternary sextic W; W vanishes at six projective
    points; the cubics vanishing at those points form a 4-dimensional space
    with the expected basis; the Gram system of W over that basis has a
    unique solution whose determinant is -1/4, so no PSD Gram matrix exists.
    """
    names3 = ["x", "y", "z"]
    h = gen_vamos()
    if h.num_terms() != 65:
        raise AssertionError("Vamos polynomial must have 65 monomials")
    d78 = delta_ij(h, 6, 7)
    if d78.degree_in(6) > 0 or d78.degree_in(7) > 0:
        raise AssertionError("Delta_78 must not involve x7 or x8")

    # restriction subspace x1=x2, x3=x4, x5=x6 with coordinates named
    # x5=x6 -> x, x3=x4 -> y, x1=x2 -> z (the labeling the 19-term form uses)
    restricted = identify_variables(d78, [2, 2, 1, 1, 0, 0, 3, 3], 4)
    if restricted.degree_in(3) > 0:
        raise AssertionError("restricted Wronskian unexpectedly involves w")
    W = drop_trailing_variables(restricted, 3) * Fraction(1, 4)

    expected_W = parse_poly(_W_TEXT, names3)
    if W != expected_W:
        raise AssertionError("restricted Wronskian does not match the expected 19-term form")

    # W and the claimed basis cubics, compiled once and read at the six points
    cubic_basis = [parse_poly(t, names3) for t in _CUBIC_BASIS_TEXT]
    form = _IntForm(3, [W, *cubic_basis])
    values = [form.values_at(p) for p in VAMOS_VANISHING_POINTS]
    for p, vals in zip(VAMOS_VANISHING_POINTS, values):
        if vals[0] != 0:
            raise AssertionError(f"W does not vanish at {p}")

    # cubics vanishing at the six points: rank of the 6 x 10 evaluation matrix
    monos = monomials_of_degree(3, 3)
    cubics = _IntForm(3, [Polynomial(3, {m: Fraction(1)}) for m in monos])
    rows = [cubics.values_at(p) for p in VAMOS_VANISHING_POINTS]
    sol = solve_affine_family([dict(enumerate(row)) for row in rows], [Fraction(0)] * 6, 10)
    assert sol is not None
    _, null_basis = sol
    if len(null_basis) != 4:
        raise AssertionError(f"vanishing cubics have dimension {len(null_basis)}, expected 4")

    if any(any(vals[1:]) for vals in values):
        raise AssertionError("claimed basis cubic does not vanish at all six points")
    coeff_rows = [[b.coefficient(m) for m in monos] for b in cubic_basis]
    indep = solve_affine_family([dict(enumerate(col)) for col in zip(*coeff_rows)], [Fraction(0)] * 10, 4)
    assert indep is not None
    if indep[1]:
        raise AssertionError("claimed basis cubics are linearly dependent")

    sys = GramSystem(W, cubic_basis)
    if sys.nullspace_dim != 0:
        raise AssertionError("Gram system over the vanishing cubics is not unique")
    gram = sys.particular_matrix()
    det = mat_det(gram)
    conclusion = certified_no(
        witness={"gram": gram, "det": det},
        detail=(
            "every square in an SOS decomposition of W must vanish at the six "
            "points, hence lies in the 4-dimensional cubic space; the unique "
            f"Gram matrix there has determinant {det} < 0, so W is not a sum of "
            "squares; since identifying variables maps sums of squares to sums "
            "of squares, the unrestricted pair-(7,8) Wronskian is not one either"
        ),
    )
    return VamosReport(
        W=W,
        vanishing_points=[list(p) for p in VAMOS_VANISHING_POINTS],
        cubic_basis=cubic_basis,
        gram=gram,
        gram_det=det,
        conclusion=conclusion,
    )
