"""Exact linear algebra against naive Fraction references.

`solve_affine_family` eliminates fraction-free, on sparse integer rows.  The
reference below is the plain dense Fraction Gauss-Jordan elimination it
replaced; the reduced row echelon form is unique, so (particular, nullspace
basis) must agree exactly once the sparse nullspace vectors are densified.  `ldl_psd` runs symmetric Bareiss elimination on integers; its
reference is the pivoted LDL^T over Fraction it replaced, and the whole
result (verdict, permutation, L, D, reason) must agree; every PSD result must
also reassemble to the permuted input.  `mat_det` is checked against the
permutation expansion.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from hypersos.exactla import LdlResult, ldl_psd, mat_det, solve_affine_family, solve_linear


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


def naive_ldl_psd(A):
    n = len(A)
    for i, row in enumerate(A):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j in range(i):
            if A[i][j] != A[j][i]:
                raise ValueError("matrix must be symmetric")
    work = [[Fraction(x) for x in row] for row in A]
    perm = list(range(n))
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    for k in range(n):
        idx = max(range(k, n), key=lambda i: work[i][i])
        if work[idx][idx] < 0:
            return LdlResult(False, perm, L, D, reason=f"negative diagonal pivot at row {perm[idx]}")
        if work[idx][idx] == 0:
            for i in range(k, n):
                if work[i][i] < 0:
                    return LdlResult(False, perm, L, D, reason=f"negative diagonal entry at row {perm[i]}")
                for j in range(k, n):
                    if work[i][j] != 0:
                        return LdlResult(
                            False, perm, L, D,
                            reason="zero diagonal with nonzero off-diagonal residual",
                        )
            return LdlResult(True, perm, L, D)
        if idx != k:
            work[k], work[idx] = work[idx], work[k]
            for row in work:
                row[k], row[idx] = row[idx], row[k]
            perm[k], perm[idx] = perm[idx], perm[k]
            for j in range(k):
                L[k][j], L[idx][j] = L[idx][j], L[k][j]
        d = work[k][k]
        D[k] = d
        for i in range(k + 1, n):
            L[i][k] = work[i][k] / d
        for i in range(k + 1, n):
            lik = L[i][k]
            if lik == 0:
                continue
            for j in range(k + 1, n):
                work[i][j] -= lik * work[k][j]
        for i in range(k + 1, n):
            work[i][k] = Fraction(0)
            work[k][i] = Fraction(0)
    return LdlResult(True, perm, L, D)


def ldl_reassemble(res):
    """L D L^T of a factorization, in plain Fraction arithmetic (permuted order)."""
    n = len(res.D)
    return [[sum(res.L[r][k] * res.D[k] * res.L[c][k] for k in range(min(r, c) + 1)) for c in range(n)]
            for r in range(n)]


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


def densified(result, n):
    """A solve_affine_family result with each nullspace dict as a dense list."""
    if result is None:
        return None
    particular, null = result
    return particular, [[v.get(k, Fraction(0)) for k in range(n)] for v in null]


def test_affine_family_matches_naive_reference():
    for rows, rhs, n in _cases():
        got = solve_affine_family([dict(enumerate(row)) for row in rows], rhs, n)
        assert densified(got, n) == naive_affine_family(rows, rhs, n), (rows, rhs)
        if got is not None:
            particular, null = got
            assert all(type(x) is Fraction for x in particular)
            assert all(type(x) is Fraction for v in null for x in v.values())


def test_affine_family_ignores_zero_and_repeated_rows():
    # zero rows and rows that repeat another up to a nonzero factor are
    # dropped before the elimination; the row space, hence the result, is the same
    rng = random.Random(2110)
    for rows, rhs, n in _cases():
        factors = [rng.choice([-3, -1, 2, Fraction(5, 7)]) for _ in rows]
        padded = list(zip(rows, rhs)) + [([0] * n, 0)] + [
            ([k * x for x in row], k * b) for k, row, b in zip(factors, rows, rhs)
        ]
        rng.shuffle(padded)
        got = solve_affine_family([dict(enumerate(r)) for r, _ in padded], [b for _, b in padded], n)
        assert got == solve_affine_family([dict(enumerate(row)) for row in rows], rhs, n), (rows, rhs)


def _wide_system(rng, i):
    """A seeded system of Gram shape: a few rows of 1-4 entries over 30-80 columns.

    It carries a row with only explicit zero entries, a multiple of another
    row, the sum of two rows, and sometimes a zero entry inside a row; every
    third system gives the multiple a perturbed right-hand side, so it is
    inconsistent.
    """
    m, n = rng.randint(2, 12), rng.randint(30, 80)
    kind = ("int", "small", "large", "mixed")[i % 4]
    rows = [{c: _entry(rng, kind) or 1 for c in rng.sample(range(n), rng.randint(1, 4))} for _ in range(m)]
    x = [_entry(rng, "small") for _ in range(n)]
    rhs = [sum(Fraction(v) * x[c] for c, v in row.items()) for row in rows]
    a, b = rng.sample(range(m), 2)
    factor = rng.choice([-3, -1, 2, Fraction(5, 7)])
    rows += [{c: 0 for c in rng.sample(range(n), 3)}, {c: factor * v for c, v in rows[a].items()},
             {c: rows[a].get(c, 0) + rows[b].get(c, 0) for c in {*rows[a], *rows[b]}}]
    rhs += [0, factor * rhs[a] + (i % 3 == 0), rhs[a] + rhs[b]]
    if i % 2:
        rows[b].setdefault(rng.randrange(n), 0)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[k] for k in order], [rhs[k] for k in order], n


def test_affine_family_of_gram_shape_matches_naive_reference():
    rng = random.Random(2211)
    outcomes = []
    for i in range(90):
        rows, rhs, n = _wide_system(rng, i)
        got = solve_affine_family(rows, rhs, n)
        assert densified(got, n) == naive_affine_family([[row.get(c, 0) for c in range(n)] for row in rows], rhs, n)
        outcomes.append(got is not None)
        if got is None:
            continue
        particular, null = got
        assert len(null) > n - len(rows)
        free = [max(v) for v in null]
        assert free == sorted(set(free))
        for f, v in zip(free, null):
            # nonzero entries in column order, 1 at the free column, which is the
            # last one, and no other free column
            assert list(v) == sorted(v) and all(v.values())
            assert v[f] == 1 and not set(v) & set(free) - {f}
            assert particular[f] == 0
    assert outcomes.count(False) == 30  # every third system, and no other


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
        n = i % 7  # 0..6
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
    # every entry over its own denominator near 10^12, so the lcm q runs to
    # about 12 n^2 digits and Bareiss works on q-scaled ints; below n = 3 a
    # zero leading entry swaps rows at once, and from n = 3 on two rows that
    # agree in their first two entries zero the second pivot
    for n in range(1, 7):
        A = [[Fraction(rng.randint(-10**6, 10**6), 10**12 + 37 * (n * i + j) + 1) for j in range(n)]
             for i in range(n)]
        A[0][0] = Fraction(0)
        if n >= 3:
            A[1][:2] = A[0][:2] = [Fraction(1, 10**12 + 3), Fraction(-5, 10**12 + 7)]
        det = mat_det(A)
        assert type(det) is Fraction and det == naive_det(A), A
        assert det != 0 or n == 1
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


def _ldl_entry(rng, kind, den):
    """One entry; the large-denominator kinds share `den`, as a rounded Gram matrix does."""
    if kind == "den12":
        return Fraction(rng.randint(-10**6, 10**6), den if rng.random() < 0.9 else rng.randint(1, 10**12))
    if kind == "den20":
        return Fraction(rng.randint(-10**9, 10**9), den if rng.random() < 0.9 else rng.randint(1, 10**20))
    if kind == "mixed":
        return rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                           rng.choice((0.5, -1.25, 3.0, 0.1))))
    return _entry(rng, kind)


def _gram(B):
    """B B^T, exactly: PSD of rank rank(B)."""
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)), Fraction(0)) for v in B] for u in B]


def _ldl_matrix(rng, i):
    """A seeded symmetric matrix; `i` cycles the size, entry kind, structure and rank."""
    n = i % 11
    kind = ("int", "small", "den12", "den20", "mixed")[i % 5]
    shape = (i // 11) % 5
    rank = (i // 55) % (n + 1)
    den = rng.randint(1, 10**6) if kind == "den12" else rng.randint(10**9, 10**10)
    entry = functools.partial(_ldl_entry, rng, kind, den)
    if shape == 4 and n >= 2:
        # a positive definite block beside a block whose diagonal is <= 0 with a zero maximum
        r = min(rank, n - 1)
        B = [[entry() for _ in range(r)] for _ in range(r)]
        A = [row + [0] * (n - r) for row in _gram(B)] + [[0] * n for _ in range(n - r)]
        for t in range(r):
            A[t][t] += 1
        for t in range(r, n):
            A[t][t] = rng.choice((0, -rng.randint(1, 5), -abs(entry())))
        z = rng.randrange(r, n)
        A[z][z] = 0
        if n - r >= 2 and rng.random() < 0.5:  # a nonzero residual beside the zero diagonal
            s, t = rng.sample(range(r, n), 2)
            A[s][t] = A[t][s] = entry() or 1
    else:
        B = [[entry() for _ in range(rank)] for _ in range(n)]
        A = _gram(B)
        if n and shape == 1:  # perturbed, mostly to indefinite
            s, t = rng.randrange(n), rng.randrange(n)
            A[s][t] += entry() or 1
            A[t][s] = A[s][t]
        if n >= 2 and shape == 2:  # a zero diagonal with a nonzero off-diagonal entry
            s, t = rng.sample(range(n), 2)
            A[s] = [0] * n
            for row in A:
                row[s] = 0
            A[s][t] = A[t][s] = entry() or 1
        if n and shape == 3:  # one diagonal entry replaced
            s = rng.randrange(n)
            A[s][s] = entry()
    if kind == "mixed":  # exact ints and floats next to the Fractions
        for a in range(n):
            for b in range(a + 1):
                v = Fraction(A[a][b])
                if v.denominator == 1 and rng.random() < 0.5:
                    A[a][b] = A[b][a] = int(v)
                elif Fraction(float(v)) == v and rng.random() < 0.5:
                    A[a][b] = A[b][a] = float(v)
    order = list(range(n))
    rng.shuffle(order)
    return [[A[a][b] for b in order] for a in order]


def _ldl_cases():
    rng = random.Random(20261018)
    return [_ldl_matrix(rng, i) for i in range(1100)]


def test_ldl_psd_matches_naive_reference():
    cases = _ldl_cases()
    reasons = set()
    ranks = set()
    for A in cases:
        got, want = ldl_psd(A), naive_ldl_psd(A)
        assert got == want, A
        assert all(type(x) is Fraction for x in [*got.D, *(x for row in got.L for x in row)])
        reasons.add(got.reason.rstrip("0123456789"))
        if got.is_psd:
            ranks.add((len(A), got.rank))
            assert ldl_reassemble(got) == [[A[r][c] for c in got.perm] for r in got.perm], A
    assert {"", "negative diagonal pivot at row ", "negative diagonal entry at row ",
            "zero diagonal with nonzero off-diagonal residual"} <= reasons
    assert {(n, r) for n in range(11) for r in range(n + 1)} <= ranks  # PSD of every rank
    entries = [x for A in cases for row in A for x in row]
    assert any(type(x) is float for x in entries) and any(type(x) is int for x in entries)
    assert any(isinstance(x, Fraction) and x.denominator > 10**19 for x in entries)
    assert any(isinstance(x, Fraction) and 10**9 < x.denominator <= 10**12 for x in entries)
    for bad, message in (([[1, 2]], "square"), ([[1], [2, 3]], "square"), ([[1, 2], [3]], "square"),
                         ([[1, 2], [3, 4]], "symmetric"), ([[0, Fraction(1, 3)], [0.5, 0]], "symmetric")):
        with pytest.raises(ValueError, match=f"^matrix must be {message}$"):
            naive_ldl_psd(bad)
        with pytest.raises(ValueError, match=f"^matrix must be {message}$"):
            ldl_psd(bad)


def test_ldl_psd_builds_L_only_when_read():
    # a PSD decision, the rank and the reason never build L's n^2 Fractions
    for A in ([[4, 2, 0], [2, 5, 1], [0, 1, 3]], [[1, 1], [1, 1]], [[1, 2], [2, 1]]):
        res, want = ldl_psd(A), naive_ldl_psd(A)
        assert (res.is_psd, res.rank, res.reason) == (want.is_psd, want.rank, want.reason)
        assert callable(res._L)
        assert res == want and not callable(res._L)


def test_ldl_psd_names_a_huge_pivot_by_its_row():
    # pivots of more than 4,300 digits cannot be printed as ints; the reason
    # names the pivot's row and sign, so it never formats them
    big = Fraction(10**4400, 3)
    assert ldl_psd([[Fraction(-10**4400)]]).reason == "negative diagonal pivot at row 0"
    res = ldl_psd([[big, big, 0], [big, big, 0], [0, 0, -big]])
    assert not res.is_psd and res.reason == "negative diagonal entry at row 2"
    res = ldl_psd([[big, 1], [1, -big]])
    assert not res.is_psd and res.reason == "negative diagonal pivot at row 1"
    assert res == naive_ldl_psd([[big, 1], [1, -big]])
