"""Exact linear algebra against naive Fraction references.

`solve_affine_family` eliminates fraction-free, on integer rows.  The
reference below is the plain Fraction Gauss-Jordan elimination it replaced;
the reduced row echelon form is unique, so (particular, nullspace basis) must
agree exactly.  `mat_det` is checked against the permutation expansion.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hypersos.exactla import mat_det, solve_affine_family, solve_linear


def naive_affine_family(rows, rhs, nunknowns):
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    m = len(aug)
    pivot_cols = []
    r = 0
    for c in range(nunknowns):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
    if any(aug[i][nunknowns] != 0 for i in range(r, m)):
        return None
    particular = [Fraction(0)] * nunknowns
    for row, c in enumerate(pivot_cols):
        particular[c] = aug[row][nunknowns]
    null_basis = []
    for fc in range(nunknowns):
        if fc in pivot_cols:
            continue
        v = [Fraction(0)] * nunknowns
        v[fc] = Fraction(1)
        for row, c in enumerate(pivot_cols):
            v[c] = -aug[row][fc]
        null_basis.append(v)
    return particular, null_basis


def naive_det(A):
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-6, 6)
    if kind == "small":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if kind == "large":
        return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**15))
    return rng.choice((rng.randint(-6, 6), Fraction(rng.randint(-9, 9), rng.randint(1, 7))))


def _system(rng, i):
    """A seeded system; `i` cycles the entry kind and the structural defects."""
    m, n = rng.randint(0, 7), rng.randint(1, 7)
    kind = ("int", "small", "large", "mixed")[i % 4]
    density = rng.choice((0.3, 0.7, 1.0))
    rows = [[_entry(rng, kind) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    if m >= 3 and i % 3 == 1:  # rank deficient: one row is a combination of two others
        a, b = _entry(rng, "small"), _entry(rng, "small")
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if m and i % 5 == 2:
        rows[rng.randrange(m)] = [0] * n
    if i % 7 == 3:
        c = rng.randrange(n)
        for row in rows:
            row[c] = 0
    x = [_entry(rng, kind) for _ in range(n)]
    rhs = [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    if m and i % 2 == 1:  # inconsistent whenever the perturbed row depends on the others
        rhs[-1] += 1
    return rows, rhs, n


EDGE_SYSTEMS = [
    ([], [], 3),
    ([[0, 0, 0]], [0], 3),
    ([[0, 0]], [1], 2),
    ([[0, 0], [0, 0]], [0, 0], 2),
    ([[1, 2], [2, 4]], [3, 6], 2),
    ([[1, 2], [2, 4]], [3, 7], 2),
    ([[-3, 0, 5]], [Fraction(-7, 2)], 3),
    ([[2], [4], [-6]], [1, 2, -3], 1),
    ([[2], [4], [-6]], [1, 2, 3], 1),
    ([[Fraction(1, 10**20), Fraction(-1, 3)], [Fraction(7, 10**19), 1]], [1, Fraction(-5, 3)], 2),
]


def _cases():
    rng = random.Random(20260518)
    return EDGE_SYSTEMS + [_system(rng, i) for i in range(150)]


def test_affine_family_matches_naive_reference():
    for rows, rhs, n in _cases():
        got = solve_affine_family(rows, rhs, n)
        assert got == naive_affine_family(rows, rhs, n), (rows, rhs)
        if got is not None:
            particular, null = got
            assert all(type(x) is Fraction for v in [particular, *null] for x in v)


def test_affine_family_cases_cover_every_shape_and_outcome():
    cases = _cases()
    assert len(cases) >= 100
    shapes = {(len(r) > n) - (len(r) < n) for r, _, n in cases}
    assert shapes == {-1, 0, 1}  # wide, square, tall
    results = [naive_affine_family(*c) for c in cases]
    assert sum(r is None for r in results) >= 10
    assert sum(r is not None and bool(r[1]) for r in results) >= 10
    assert sum(r is not None and not r[1] for r in results) >= 10
    entries = [x for rows, _, _ in cases for row in rows for x in row]
    assert any(type(x) is int and x < 0 for x in entries)
    assert any(isinstance(x, Fraction) and x.denominator > 10**12 for x in entries)
    assert any(all(x == 0 for x in row) for rows, _, _ in cases for row in rows)
    assert any(rows and all(row[c] == 0 for row in rows) for rows, _, n in cases for c in range(n))


def test_mat_det_matches_permutation_expansion():
    rng = random.Random(7)
    checked = singular = 0
    for i in range(60):
        n = i % 7  # 0..6; sizes above 4 take poly_determinant's Bareiss path
        kind = ("int", "small", "large", "mixed")[i % 4]
        A = [[_entry(rng, kind) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(n)]
        if n >= 2 and i % 3 == 0:
            A[-1] = [2 * x - y for x, y in zip(A[0], A[1])]
        det = mat_det(A)
        assert type(det) is Fraction
        assert det == naive_det(A), A
        checked += 1
        singular += det == 0
    assert checked == 60 and singular >= 10
    assert mat_det([]) == 1
    assert mat_det([[0, 1], [1, 0]]) == -1
    for bad in ([[1, 2]], [[1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            mat_det(bad)


def test_solve_linear_solves_nonsingular_and_rejects_singular():
    rng = random.Random(11)
    solved = 0
    for i in range(40):
        n = 1 + i % 5
        A = [[_entry(rng, ("int", "small", "large")[i % 3]) for _ in range(n)] for _ in range(n)]
        b = [_entry(rng, "small") for _ in range(n)]
        if naive_det(A) == 0:
            continue
        x = solve_linear(A, b)
        assert x == naive_affine_family(A, b, n)[0]
        assert [sum(Fraction(a) * v for a, v in zip(row, x)) for row in A] == b
        solved += 1
    assert solved >= 30
    for A, b in (
        ([[1, 2], [2, 4]], [3, 6]),  # consistent, one free variable
        ([[1, 2], [2, 4]], [3, 7]),  # inconsistent
        ([[0, 0], [0, 0]], [0, 0]),
    ):
        with pytest.raises(ArithmeticError):
            solve_linear(A, b)
