"""Exact rational linear algebra: affine solution families, LDL^T, determinants.

There is one elimination kernel for linear systems, solve_affine_family.
It is sparse, {column: value} rows in and {column: Fraction} nullspace
vectors out, and fraction-free: each row of [A | b] is scaled to Python ints
by the lcm of its denominators, rows are combined by cross-multiplication
and kept primitive (divided by the gcd of their entries), and Fractions are
built only for the solution.  solve_linear is a square, nonsingular call of
it.  Scalar determinants have one fraction-free Bareiss loop, _bareiss
(polycore keeps the one loop for determinants of polynomial matrices,
poly_determinant): mat_det runs it on the lcm-scaled ints and builds one
Fraction, and int_det_adjugate runs it as Gauss-Jordan elimination of
[N | I] for an int matrix N, which gives det N and adj N with exact
divisions only.  The
LDL^T factorization with symmetric pivoting is fraction-free too: the
symmetry check and symmetric Bareiss elimination run on the lcm-scaled
ints, and LDL^T's D is built as Fractions and its L only when read.
LDL^T is the positive-semidefiniteness oracle used by the certificate
checkers: a completed factorization with nonnegative pivots proves PSD, and
a negative pivot or a zero diagonal with a nonzero residual row disproves
it.  A refutation's reason names the offending row, never the pivot's
value, which can run to thousands of digits.  Scaling a matrix by a
positive constant keeps its PSD decision, its reason and the reduced row
echelon form of its kernel, so callers that hold one as scaled ints pass
the ints.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Optional

from .polycore import _common_denominator, _primitive, _rationals

Mat = list  # list[list[Fraction]]


def solve_affine_family(
    rows: list[dict[int, Fraction]], rhs: list[Fraction], nunknowns: int
) -> Optional[tuple[list[Fraction], list[dict[int, Fraction]]]]:
    """Solve A x = b exactly; return (particular, nullspace basis) or None.

    Each row of A is a dict {column: value}, absent columns zero.  None means
    the system is inconsistent.  The particular solution, a list, sets all
    free variables to zero; the nullspace basis has one vector per free
    variable f (reduced row echelon form), as a dict of its nonzero entries
    in column order, so f, where it is 1, is its last column.  Gauss-Jordan
    elimination takes the columns in order, picks the shortest row holding
    each as its pivot row, and runs on primitive integer rows, after dropping
    zero rows and rows that repeat another up to a nonzero factor; the
    reduced row echelon form is unique, so the result is the same as over
    Fraction.
    """
    # column nunknowns holds the right-hand side; zero rows, and rows whose
    # primitive ints repeat another's up to sign, leave the RREF unchanged
    unique: dict[tuple, None] = {}
    for row, b in zip(rows, rhs):
        entries = {c: x for c, x in [*row.items(), (nunknowns, b)] if x}
        if entries:
            ints = _primitive(_common_denominator(_rationals(entries.values()))[1])
            unique[tuple(zip(entries, ints if ints[0] > 0 else [-x for x in ints]))] = None
    aug = [dict(key) for key in unique]
    # column -> the rows that held an entry there; a row may have lost it since
    holding: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(aug):
        for c in row:
            holding[c].add(i)
    waiting = set(range(len(aug)))  # the rows that are not pivot rows yet
    pivots: dict[int, int] = {}  # pivot column -> its row
    for c in range(nunknowns):
        rows_c = [i for i in holding.get(c, ()) if c in aug[i]]
        candidates = [i for i in rows_c if i in waiting]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: len(aug[i]))
        waiting.remove(p)
        rows_c.remove(p)
        prow, pv = aug[p], aug[p][c]
        for i in rows_c:
            row, factor = aug[i], aug[i][c]
            new = {k: y for k, x in row.items() if (y := pv * x - factor * prow.get(k, 0))}
            for k in prow.keys() - row.keys():
                new[k] = -factor * prow[k]
                holding[k].add(i)
            g = math.gcd(*new.values())
            aug[i] = {k: x // g for k, x in new.items()} if g > 1 else new
        pivots[c] = p
    # a row left without a pivot holds at most the right-hand side: 0 = b
    if any(aug[i] for i in waiting):
        return None
    particular = [Fraction(0)] * nunknowns
    null: dict[int, dict[int, Fraction]] = {f: {} for f in range(nunknowns) if f not in pivots}
    # scatter each pivot row into the vectors of the free columns it holds
    for c, p in pivots.items():
        row = aug[p]
        pv = row.pop(c)
        particular[c] = Fraction(row.pop(nunknowns, 0), pv)
        for f, x in row.items():
            null[f][c] = Fraction(-x, pv)
    for f, v in null.items():
        v[f] = Fraction(1)
    return particular, list(null.values())


def solve_linear(A: Mat, b: list[Fraction]) -> list[Fraction]:
    """Exact solve of a square nonsingular system."""
    sol = solve_affine_family([dict(enumerate(row)) for row in A], b, len(A))
    if sol is None or sol[1]:
        raise ArithmeticError("singular system")
    return sol[0]


def mat_det(A: Mat) -> Fraction:
    """Exact determinant of a rational matrix, by fraction-free Bareiss elimination.

    A is scaled to ints by the lcm q of its denominators; _bareiss gives
    det(q A) = q^n det A.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    q, flat = _common_denominator(_rationals([x for row in A for x in row]))
    sign, pivot = _bareiss([flat[i * n:(i + 1) * n] for i in range(n)], n)
    return Fraction(sign * pivot, q**n)


def int_det_adjugate(N: list[list[int]]) -> tuple[int, Optional[list[list[int]]]]:
    """(det N, adj N) of a square int matrix, from one fraction-free Gauss-Jordan elimination of [N | I].

    adj N is None when det N = 0.  Elimination above the pivot as well as
    below it leaves [det N * I | adj N] up to the sign of the row swaps,
    with every division exact (each entry is a minor of [N | I]).
    """
    n = len(N)
    if any(len(row) != n for row in N):
        raise ValueError("matrix must be square")
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(N)]
    sign, pivot = _bareiss(rows, n, jordan=True)
    if not pivot:
        return 0, None
    # the left block is now pivot * I with pivot = sign * det N, and the right block sign * adj N
    return sign * pivot, [row[n:] if sign > 0 else [-x for x in row[n:]] for row in rows]


def _bareiss(M: list[list[int]], n: int, jordan: bool = False) -> tuple[int, int]:
    """(sign, pivot) with sign * pivot the det of the leading n x n block of the int rows M.

    Fraction-free elimination in place over the block's n columns; rows may
    be wider, and all their columns are eliminated.  A zero pivot is
    replaced by the first row below it with a nonzero entry in its column,
    which flips the sign; each step's division by the previous pivot is
    exact (Sylvester's identity), and the last pivot is the determinant up
    to that sign, or 0 for a singular block.  With jordan the rows above the
    pivot are eliminated too (Gauss-Jordan).  Columns left of the pivot's
    are not updated: nothing reads them again.
    """
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            return sign, 0
        if p != k:
            M[k], M[p] = M[p], M[k]
            sign = -sign
        pivot_row, pivot = M[k], M[k][k]
        width = len(pivot_row)
        for row in (M[:k] + M[k + 1:] if jordan else M[k + 1:]):
            factor = row[k]
            for j in range(k + 1, width):
                row[j] = (pivot * row[j] - factor * pivot_row[j]) // prev
        prev = pivot
    return sign, prev


class LdlResult:
    """Outcome of pivoted LDL^T on a symmetric rational matrix.

    When `is_psd`, the factorization satisfies, exactly,
        A[perm[r]][perm[c]] == (L D L^T)[r][c]
    with L unit lower triangular and D the nonnegative pivot list.  L may be
    given as a function that builds it: ldl_psd does so, because a PSD
    decision, a rank or a reason never reads L's n^2 Fractions.
    """

    def __init__(self, is_psd: bool, perm: list[int], L, D: list[Fraction], reason: str = ""):
        self.is_psd, self.perm, self._L, self.D, self.reason = is_psd, perm, L, D, reason

    @property
    def L(self) -> Mat:
        if callable(self._L):
            self._L = self._L()
        return self._L

    def _fields(self) -> tuple:
        return self.is_psd, self.perm, self.L, self.D, self.reason

    def __eq__(self, other) -> bool:
        if isinstance(other, LdlResult):
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return "LdlResult(is_psd={!r}, perm={!r}, L={!r}, D={!r}, reason={!r})".format(*self._fields())

    @property
    def is_pd(self) -> bool:
        return self.is_psd and all(d > 0 for d in self.D)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.D if d != 0)


def ldl_psd(A: Mat) -> LdlResult:
    """Pivoted LDL^T as an exact PSD decision.

    Pivots on the largest remaining diagonal entry.  A negative diagonal
    disproves PSD outright; a zero maximal diagonal forces the whole
    remaining block to vanish (a zero diagonal with a nonzero off-diagonal
    entry witnesses a negative 2x2 minor).  A is scaled to integers by the
    lcm q of its denominators, which also checks its symmetry, and symmetric
    Bareiss elimination runs on the scaled matrix: after
    pivots p_0..p_{k-1} the remaining block is M / (p_{k-1} q) with M
    integral, so comparing the ints of M picks the same pivot, L[i][k] is
    M[i][k] / p_k and D[k] is p_k / (p_{k-1} q).
    """
    n = len(A)
    q, flat = _common_denominator(_rationals([x for row in A for x in row]))
    M, start = [], 0
    for row in A:
        M.append(flat[start:start + len(row)])
        start += len(row)
    for i, row in enumerate(M):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j in range(i):
            if row[j] != M[j][i]:
                raise ValueError("matrix must be symmetric")
    perm = list(range(n))
    D: list[Fraction] = []

    def result(is_psd: bool, reason: str = "") -> LdlResult:
        zero, one, pivots = Fraction(0), Fraction(1), len(D)

        def build_L() -> Mat:
            # below pivot p_j = M[j][j], column j holds the numerators of L; row swaps moved them along
            return [[Fraction(M[i][j], M[j][j]) if j < min(i, pivots) else one if i == j else zero
                     for j in range(n)] for i in range(n)]

        return LdlResult(is_psd, perm, build_L, D + [zero] * (n - pivots), reason)

    prev = 1
    for k in range(n):
        idx = max(range(k, n), key=lambda i: M[i][i])
        top = M[idx][idx]
        if top < 0:
            return result(False, f"negative diagonal pivot at row {perm[idx]}")
        if top == 0:
            for i in range(k, n):
                if M[i][i] < 0:
                    return result(False, f"negative diagonal entry at row {perm[i]}")
                if any(M[i][k:]):
                    return result(False, "zero diagonal with nonzero off-diagonal residual")
            return result(True)
        if idx != k:
            M[k], M[idx] = M[idx], M[k]
            for row in M:
                row[k], row[idx] = row[idx], row[k]
            perm[k], perm[idx] = perm[idx], perm[k]
        D.append(Fraction(top, prev * q))
        pivot_row = M[k]
        for i in range(k + 1, n):
            row, lik = M[i], M[i][k]
            for j in range(k + 1, i + 1):
                # Sylvester's identity: the division by the previous pivot is exact
                row[j] = M[j][i] = (top * row[j] - lik * pivot_row[j]) // prev
        prev = top
    return result(True)
