"""The benchmark's own exact helpers: known truths and input construction.

Nothing here calls into hypersos, so a verdict checked against these
functions is checked against an independent computation.  Polynomials are
plain dicts {exponent tuple: Fraction}; matrices are lists of Fraction rows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def det(M) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    work = [[Fraction(x) for x in row] for row in M]
    n = len(work)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            out = -out
        pv = work[c][c]
        out *= pv
        for r in range(c + 1, n):
            if work[r][c] != 0:
                f = work[r][c] / pv
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return out


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of {x : rows x = 0} over Q, one vector per free column."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in enumerate(pivots):
            v[c] = -work[row][free]
        basis.append(v)
    return basis


def is_psd(A) -> bool:
    """Sylvester's criterion: every principal minor is nonnegative."""
    n = len(A)
    return all(
        det([[A[i][j] for j in idx] for i in idx]) >= 0
        for k in range(1, n + 1)
        for idx in itertools.combinations(range(n), k)
    )


def is_pd(A) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(det([row[:k] for row in A[:k]]) > 0 for k in range(1, len(A) + 1))


# -- polynomials as term dicts -------------------------------------------------


def monomials(nvars: int, degree: int) -> list[tuple]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        m = [0] * nvars
        for i in combo:
            m[i] += 1
        out.append(tuple(m))
    return sorted(out, reverse=True)


def mono_value(m, point) -> Fraction:
    v = Fraction(1)
    for e, x in zip(m, point):
        if e:
            v *= Fraction(x) ** e
    return v


def value(terms: dict, point) -> Fraction:
    return sum((c * mono_value(m, point) for m, c in terms.items()), Fraction(0))


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def lorentz(n: int) -> dict:
    terms = {}
    for i in range(n):
        m = [0] * n
        m[i] = 2
        terms[tuple(m)] = Fraction(1 if i == 0 else -1)
    return terms


def product(n: int) -> dict:
    return {(1,) * n: Fraction(1)}


def elementary(n: int, d: int) -> dict:
    return {
        tuple(1 if i in s else 0 for i in range(n)): Fraction(1)
        for s in itertools.combinations(range(n), d)
    }


VAMOS_EXCLUDED = ({0, 1, 2, 3}, {0, 1, 4, 5}, {0, 1, 6, 7}, {2, 3, 4, 5}, {2, 3, 6, 7})


def vamos() -> dict:
    """Basis-generating polynomial of the Vamos matroid (65 quartic monomials)."""
    return {
        tuple(1 if i in s else 0 for i in range(8)): Fraction(1)
        for s in itertools.combinations(range(8), 4)
        if set(s) not in VAMOS_EXCLUDED
    }


def cubic_value(p) -> Fraction:
    x, y, z = (Fraction(t) for t in p)
    return (x - y) * (x + y) * (x + 2 * y) - x * z * z


def sym_from_upper(d: int, a) -> list[list[Fraction]]:
    """Symmetric matrix from its row-major upper triangle."""
    A = [[Fraction(0)] * d for _ in range(d)]
    k = 0
    for i in range(d):
        for j in range(i, d):
            A[i][j] = A[j][i] = Fraction(a[k])
            k += 1
    return A


def rank_one_det(vectors) -> dict:
    """det(sum_i x_i v_i v_i^T) by Cauchy-Binet: sum_S det(V_S)^2 x^S."""
    n, d = len(vectors), len(vectors[0])
    terms = {}
    for s in itertools.combinations(range(n), d):
        c = det([vectors[i] for i in s]) ** 2
        if c:
            terms[tuple(1 if i in s else 0 for i in range(n))] = c
    return terms


def format_terms(terms: dict, names) -> str:
    parts = []
    for m, c in sorted(terms.items(), reverse=True):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        parts.append("*".join([str(c)] + factors))
    return " + ".join(parts).replace("+ -", "- ")


def lorentz_member(a, closure: bool) -> bool:
    """a in the (closed) Lorentz cone a_1 >= |a'| (open: a_1 > |a'|)."""
    head = Fraction(a[0])
    tail = sum(Fraction(x) ** 2 for x in a[1:])
    if closure:
        return head >= 0 and head * head >= tail
    return head > 0 and head * head > tail


def sym_det(d: int) -> dict:
    """Leibniz expansion of det of the generic symmetric d x d matrix.

    Variables are the row-major upper triangle X11, X12, ..., Xdd.
    """
    index = {}
    for k, (i, j) in enumerate((i, j) for i in range(d) for j in range(i, d)):
        index[(i, j)] = index[(j, i)] = k
    nvars = d * (d + 1) // 2
    terms: dict = {}
    for perm in itertools.permutations(range(d)):
        sign = 1
        for a in range(d):
            for b in range(a + 1, d):
                if perm[a] > perm[b]:
                    sign = -sign
        m = [0] * nvars
        for i in range(d):
            m[index[(i, perm[i])]] += 1
        m = tuple(m)
        terms[m] = terms.get(m, Fraction(0)) + sign
    return {m: c for m, c in terms.items() if c}
