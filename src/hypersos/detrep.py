"""Definite determinantal representations of multiaffine stable polynomials.

The builder follows the square-root route: the diagonal of the candidate
rank-one-modulo-f matrix A holds the partial derivatives of f, the
off-diagonal entries are exact square roots of the coordinate Wronskians
(their existence is the obstruction and the failure witness), signs are
fixed by divisibility of 2x2 minors.  When A is rank one modulo f, det A =
kappa * f^(d-1) with kappa a constant, so the linear pencil M = adj(A) /
f^(d-2) is kappa * f * A^-1 and det M = kappa^(d-1) * f.  M is never expanded
symbolically: kappa comes from det A(e), M is read at e and at e + s*e_k
(k = 1..n), each from one elimination of [A(p) | -I], and its
coefficient matrices are the difference quotients.  Nothing checks
beforehand that A is rank one modulo f: verify_detrep (det M = gamma * f
exactly, gamma != 0, M(e) > 0 by exact LDL^T) is the one proof that the
result is a representation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import soscert
from .exactla import ldl_psd, mat_det, solve_affine_family
from .hypercone import SampleConfig, delta_ij
from .polycore import (
    Polynomial,
    _IntForm,
    exact_divide,
    perfect_square_root,
    poly_adjugate,
    poly_determinant,
)
from .verdicts import Verdict, array_from_json, certified_no, certified_yes, frac_from_json, frac_json, unknown


class DetRepError(ValueError):
    """Internal inconsistency while building a representation (bad input)."""


@dataclass
class NoRep:
    """Obstruction witness: the coordinate Wronskian of `pair` is not a square."""

    pair: tuple[int, int]
    delta: Polynomial

    def __repr__(self) -> str:
        return f"NoRep(pair={self.pair})"


@dataclass
class DeterminantalRep:
    """Symmetric pencil M(x) = sum x_i M_i with det M(x) = gamma * f, M(e) > 0."""

    matrices: list  # n matrices, each d x d of Fraction
    e: list  # Fraction vector
    gamma: Fraction

    @property
    def size(self) -> int:
        return len(self.matrices[0])

    @property
    def nvars(self) -> int:
        return len(self.matrices)

    def pencil(self) -> list:
        """The d x d matrix of linear forms sum_i x_i M_i."""
        n, d = self.nvars, self.size
        out = []
        for r in range(d):
            row = []
            for c in range(d):
                terms = {}
                for i in range(n):
                    v = self.matrices[i][r][c]
                    if v:
                        mono = [0] * n
                        mono[i] = 1
                        terms[tuple(mono)] = v
                row.append(Polynomial(n, terms))
            out.append(row)
        return out

    def matrix_at(self, point: Sequence) -> list:
        pt = [Fraction(x) for x in point]
        d = self.size
        out = [[Fraction(0)] * d for _ in range(d)]
        for i, Mi in enumerate(self.matrices):
            if pt[i]:
                for r in range(d):
                    for c in range(d):
                        out[r][c] += pt[i] * Mi[r][c]
        return out

    def to_jsonable(self) -> dict:
        return {
            "d": self.size,
            "n": self.nvars,
            "e": [frac_json(x) for x in self.e],
            "gamma": frac_json(self.gamma),
            "matrices": [[[frac_json(x) for x in row] for row in M] for M in self.matrices],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeterminantalRep":
        data = json.loads(text)
        matrices = array_from_json(data["matrices"], 3)
        if not matrices or not all(matrices):
            raise ValueError("a representation needs at least one matrix, and no 0 x 0 one")
        return cls(matrices=matrices, e=array_from_json(data["e"]), gamma=frac_from_json(data["gamma"]))


@dataclass
class CheckResult:
    """Boolean with an explanation; truthy exactly when the check passed."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_multiaffine_stable(
    f: Polynomial,
    cfg: Optional[SampleConfig] = None,
    sos_budget: int = 1,
) -> Verdict:
    """Stability test for homogeneous multiaffine f via coordinate Wronskians.

    f is stable iff every Delta_ij f is nonnegative on R^n.  Only the pairs
    i < j are tested: for multiaffine f, Delta_ii f = (d_i f)^2 is a square.
    Sampling a negative value refutes exactly; the witness is the first
    negative (pair, point) in pair-major order, and every pair is sampled
    before any is certified.  Certifying every pair as a sum of squares
    (perfect squares short-circuit) proves stability; anything else is
    UNKNOWN, with the uncertified pairs recorded in the detail.
    """
    cfg = cfg or SampleConfig()
    if not f.is_multiaffine():
        raise ValueError("f must be multiaffine (degree at most 1 in each variable)")
    if not f.is_homogeneous():
        raise ValueError("f must be homogeneous")
    n = f.nvars
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    deltas = [(pair, d) for pair in pairs if not (d := delta_ij(f, *pair)).is_zero()]
    # every pair is evaluated at once per point; keep each pair's first negative point
    negative: dict[int, tuple] = {}
    form = _IntForm(n, [d for _, d in deltas])
    for p in cfg.sample(n):
        for k, val in enumerate(form.values_at(p)):
            if val < 0:
                negative.setdefault(k, (p, val))
    if negative:
        k = min(negative)
        (i, j), (p, val) = deltas[k][0], negative[k]
        return certified_no(
            witness={"pair": (i, j), "point": p, "value": val},
            detail=f"Delta_{i}{j} f is negative at the witness point",
        )
    uncertified: list[tuple[int, int]] = []
    for pair, d in deltas:
        if perfect_square_root(d) is None and not soscert.certify_sos(d, sos_budget).is_yes:
            uncertified.append(pair)
    if not uncertified:
        return certified_yes(detail="every coordinate Wronskian certified as a sum of squares")
    return unknown(
        witness={"uncertified_pairs": uncertified},
        detail=f"{len(uncertified)} coordinate Wronskian(s) not certified: {uncertified}",
    )


@dataclass
class InterlacerMatrix:
    """Candidate rank-one-modulo-f matrix of degree-(d-1) forms: the builder's core.

    The diagonal holds the partial derivatives of f along the affine
    variables, off-diagonal entries are exact square roots of the coordinate
    Wronskians with signs fixed so the leading 2x2 minors are divisible by f.
    The entries and f are compiled once, for values_at.
    """

    entries: list  # d x d symmetric, Polynomial
    f: Polynomial
    dvars: list
    _form: _IntForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._form = _IntForm(self.f.nvars, [*(e for row in self.entries for e in row), self.f])

    def values_at(self, point: Sequence[Fraction]) -> tuple[list, Fraction]:
        """(A(p), f(p)) at a rational point p, A(p) as a d x d list."""
        vals = self._form.values_at(point)
        d = len(self.entries)
        return [vals[r * d:(r + 1) * d] for r in range(d)], vals[-1]


def interlacer_matrix_multiaffine(
    f: Polynomial, dvars: Sequence[int]
) -> Union[InterlacerMatrix, NoRep]:
    """Assemble the rank-one-modulo-f matrix for the builder.

    Returns NoRep with the offending pair when some Delta_ij f is not a
    perfect square; raises DetRepError when no sign of an off-diagonal entry
    makes its leading 2x2 minor divisible by f (reducible or non-stable
    input).  Whether A is rank one modulo f is not tested here: the builder
    verifies the pencil it reads from A instead.
    """
    dvars = list(dvars)
    if f.is_zero():
        raise ValueError("f is the zero polynomial, which has no determinantal representation")
    if not f.is_homogeneous():
        raise ValueError("f must be homogeneous")
    d = f.total_degree()
    if len(dvars) != d or len(set(dvars)) != d:
        raise ValueError(f"dvars must list {d} distinct variable indices (degree of f)")
    for i in dvars:
        if f.degree_in(i) > 1:
            raise ValueError(f"f must be affine in variable {i}")
    product = [0] * f.nvars
    for i in dvars:
        product[i] = 1
    if f.coefficient(product) == 0:
        raise ValueError("coefficient of the dvars product monomial must be nonzero")

    # diagonal: partial derivatives; off-diagonal: square roots of Wronskians
    A: list[list[Optional[Polynomial]]] = [[None] * d for _ in range(d)]
    for a, i in enumerate(dvars):
        A[a][a] = f.partial(i)
    for a in range(d):
        for b in range(a + 1, d):
            delta = delta_ij(f, dvars[a], dvars[b])
            root = perfect_square_root(delta)
            if root is None:
                return NoRep(pair=(dvars[a], dvars[b]), delta=delta)
            A[a][b] = root
            A[b][a] = root

    # fix the sign of a_ij (2 <= i < j) so a_11*a_ij - a_1i*a_1j is divisible by f
    for a in range(1, d):
        for b in range(a + 1, d):
            minor = A[0][0] * A[a][b] - A[0][a] * A[0][b]
            if exact_divide(minor, f) is None:
                flipped = -A[a][b]
                minor2 = A[0][0] * flipped - A[0][a] * A[0][b]
                if exact_divide(minor2, f) is None:
                    raise DetRepError(
                        f"no sign of the ({dvars[a]},{dvars[b]}) entry makes the leading "
                        "2x2 minor divisible by f; f is likely reducible - factor it and "
                        "build a representation per factor"
                    )
                A[a][b] = flipped
                A[b][a] = flipped

    return InterlacerMatrix(entries=A, f=f, dvars=dvars)


def build_detrep_multiaffine(
    f: Polynomial, dvars: Sequence[int], e: Sequence
) -> Union[DeterminantalRep, NoRep]:
    """Construct a definite determinantal representation of f, or the obstruction.

    Requires f homogeneous of degree d, affine in the d variables `dvars`,
    with a nonzero coefficient on their product and f(e) != 0.  Returns NoRep
    with the offending pair when some Delta_ij f is not a perfect square.
    Otherwise the pencil is M = kappa * f * A^-1 for the rank-one-modulo-f
    matrix A, with kappa = det A(e) / f(e)^(d-1) and gamma = kappa^(d-1).  M
    is linear, so n + 1 exact values fix it: M(e) and M(e + s*e_k) for each
    k, each from one elimination of [A(p) | -I].  Raises DetRepError if
    f(e) = 0, if some A(p) is singular, if neither M(e) nor -M(e) is
    definite, or with verify_detrep's reason if it rejects the result; each
    indicates a reducible or non-stable input.
    """
    dvars = list(dvars)
    evec = [Fraction(x) for x in e]
    n = f.nvars
    if len(evec) != n:
        raise ValueError("e length must equal nvars")
    built = interlacer_matrix_multiaffine(f, dvars)
    if isinstance(built, NoRep):
        return built
    d = f.total_degree()

    # M = kappa * f * A^-1 is linear, so its values at e and at e + s*e_k fix
    # it; s is the first of 1..d+1 with f(e + s*e_k) != 0, which exists since
    # f(e + s*e_k) is a nonzero polynomial of degree <= d in s
    Ae, fe = built.values_at(evec)
    if fe == 0:
        raise DetRepError("f(e) = 0: no pencil is definite at e")
    kappa = mat_det(Ae) / fe ** (d - 1)
    base = _pencil_value(Ae, kappa * fe, evec)
    matrices = []
    for k in range(n):
        for s in range(1, d + 2):
            p = list(evec)
            p[k] += s
            Ap, fp = built.values_at(p)
            if fp:
                break
        Mp = _pencil_value(Ap, kappa * fp, p)
        matrices.append([[(x - y) / s for x, y in zip(rp, rb)] for rp, rb in zip(Mp, base)])

    # orient M(e) to be positive definite, then verify the result exactly
    rep = DeterminantalRep(matrices=matrices, e=evec, gamma=kappa ** (d - 1))
    Me = rep.matrix_at(evec)
    res = ldl_psd(Me)
    if not res.is_pd:
        if not ldl_psd([[-x for x in row] for row in Me]).is_pd:
            raise DetRepError(f"M(e) is not definite: {res.reason or 'rank-deficient'}")
        rep = _negate_rep(rep)
    check = verify_detrep(rep, f)
    if not check:
        raise DetRepError(check.reason)
    return rep


def _pencil_value(A: list, scale: Fraction, point: list) -> list:
    """scale * A^-1 at one point, from one solve of [A | -I] x = 0.

    The nullspace vector of free column d + c holds column c of A^-1 in its
    first d entries; a free column below d means A is singular.  A(p) is
    symmetric, so the columns of the result are also its rows.
    """
    d = len(A)
    rows = [{**dict(enumerate(row)), d + r: -1} for r, row in enumerate(A)]
    _, null = solve_affine_family(rows, [0] * d, 2 * d)
    # each vector's last column is its free column
    if any(next(reversed(v)) < d for v in null):
        shown = ", ".join(map(str, point))
        raise DetRepError(
            f"A is singular at ({shown}), where f is not zero; no pencil fits"
        )
    return [[scale * v.get(r, 0) for r in range(d)] for v in null]


def _negate_rep(rep: DeterminantalRep) -> DeterminantalRep:
    d = rep.size
    matrices = [[[-x for x in row] for row in M] for M in rep.matrices]
    gamma = rep.gamma if d % 2 == 0 else -rep.gamma
    return DeterminantalRep(matrices=matrices, e=rep.e, gamma=gamma)


def verify_detrep(rep: DeterminantalRep, f: Polynomial) -> CheckResult:
    """Exact verification: symmetric pencil, det(pencil) = gamma * f, gamma != 0, M(e) > 0."""
    if not rep.matrices or not rep.matrices[0]:
        return CheckResult(False, "the pencil has no matrices, or 0 x 0 ones")
    if rep.nvars != f.nvars or len(rep.e) != f.nvars:
        return CheckResult(False, "variable count mismatch")
    d = rep.size
    for i, Mi in enumerate(rep.matrices):
        if len(Mi) != d or any(len(row) != d for row in Mi):
            return CheckResult(False, f"coefficient matrix {i} is not {d} x {d}")
        if any(Mi[r][c] != Mi[c][r] for r in range(d) for c in range(r)):
            return CheckResult(False, f"coefficient matrix {i} is not symmetric")
    if rep.gamma == 0:
        return CheckResult(False, "gamma is zero")
    detM = poly_determinant(rep.pencil())
    if detM != f * rep.gamma:
        return CheckResult(False, "det of the pencil does not equal gamma * f")
    res = ldl_psd(rep.matrix_at(rep.e))
    if not res.is_pd:
        return CheckResult(False, f"M(e) is not positive definite: {res.reason or 'rank-deficient'}")
    return CheckResult(True, "det identity, gamma, and definiteness all verified")


def interlacer_from_detrep(rep: DeterminantalRep, E: Sequence[Sequence]) -> Polynomial:
    """trace(E * adj(M(x))) for PSD E: a degree d-1 interlacer of det M(x)."""
    d = rep.size
    Emat = [[Fraction(x) for x in row] for row in E]
    if len(Emat) != d or any(len(row) != d for row in Emat):
        raise ValueError(f"E must be {d}x{d}")
    res = ldl_psd(Emat)
    if not res.is_psd:
        raise ValueError(f"E must be positive semidefinite: {res.reason}")
    adj = poly_adjugate(rep.pencil())
    n = rep.nvars
    acc = Polynomial.zero(n)
    for r in range(d):
        for c in range(d):
            if Emat[r][c]:
                acc = acc + adj[c][r] * Emat[r][c]
    return acc


def bordered_determinant_identity(
    size: int,
    alpha: Sequence,
    beta: Sequence,
    gamma: Sequence,
    delta: Sequence,
) -> bool:
    """Check the Schur-complement determinant identities on a symbolic matrix.

    For the size x size matrix X of independent variables and column vectors
    a, b, c, d, verifies exactly that

      det[X b; a^T 0] * det[X d; c^T 0] - det[X d; a^T 0] * det[X b; c^T 0]
        = det(X) * det[X b d; a^T 0 0; c^T 0 0]

    together with the derivative identities
      D_{b a^T} det X = -det[X b; a^T 0]      (one border: one sign flip)
      D_{d c^T} D_{b a^T} det X = det[X b d; a^T 0 0; c^T 0 0]
    (a single zero-block border contributes a factor -1 via the Schur
    formula; two borders cancel).  Sizes above 4 are rejected (symbolic
    determinant growth).
    """
    if size > 4:
        raise ValueError("size > 4 rejected: symbolic determinants grow too fast")
    if size < 1:
        raise ValueError("size must be positive")
    a = [Fraction(x) for x in alpha]
    b = [Fraction(x) for x in beta]
    c = [Fraction(x) for x in gamma]
    dd = [Fraction(x) for x in delta]
    for v in (a, b, c, dd):
        if len(v) != size:
            raise ValueError("vectors must have length = size")

    nv = size * size
    X = [[Polynomial.variable(nv, r * size + col) for col in range(size)] for r in range(size)]

    def bordered1(col, rowv):
        rows = [X[r] + [Polynomial.const(nv, col[r])] for r in range(size)]
        rows.append([Polynomial.const(nv, rowv[cc]) for cc in range(size)] + [Polynomial.zero(nv)])
        return poly_determinant(rows)

    def bordered2():
        rows = [X[r] + [Polynomial.const(nv, b[r]), Polynomial.const(nv, dd[r])] for r in range(size)]
        rows.append([Polynomial.const(nv, a[cc]) for cc in range(size)] + [Polynomial.zero(nv)] * 2)
        rows.append([Polynomial.const(nv, c[cc]) for cc in range(size)] + [Polynomial.zero(nv)] * 2)
        return poly_determinant(rows)

    detX = poly_determinant(X)
    ba = bordered1(b, a)
    dc = bordered1(dd, c)
    da = bordered1(dd, a)
    bc = bordered1(b, c)
    big = bordered2()
    if ba * dc - da * bc != detX * big:
        return False

    # derivative identities: direction of the rank-one matrix u v^T on X_{ji}
    def rank_one_derivative(p: Polynomial, u: list, v: list) -> Polynomial:
        out = Polynomial.zero(nv)
        for jj in range(size):
            for ii in range(size):
                w = u[jj] * v[ii]
                if w:
                    out = out + p.partial(jj * size + ii) * w
        return out

    first = rank_one_derivative(detX, b, a)
    if first != -ba:
        return False
    if rank_one_derivative(first, dd, c) != big:
        return False
    return True
