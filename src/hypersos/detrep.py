"""Definite determinantal representations of multiaffine stable polynomials.

The builder follows the square-root route: the diagonal of the candidate
rank-one-modulo-f matrix A holds the partial derivatives of f, the
off-diagonal entries are square roots of the coordinate Wronskians, and
signs are fixed by divisibility of 2x2 minors.  A Wronskian that is not a
square over R is the obstruction and the failure witness.  One that is a
square over R but not over Q, lam * s^2 with lam not a rational square,
is taken into A under the congruence diag(sqrt(mu)), with mu chosen along a
spanning tree of the nonzero Wronskians (mu_b = lam_ab * mu_a on a tree
edge), which makes every tree entry rational; an entry that stays
irrational leaves the input undecided.  Each Wronskian is kept as an int
polynomial over the squared lcm of f (polycore's _coordinate_wronskians,
on its one coordinate Wronskian kernel), and lam and s come from
polycore's one square-root peel on it (_square_split); a Wronskian becomes
a Polynomial only as a NoRep witness or for certify_sos.  When A is rank
one modulo f, det A = kappa * f^(d-1) with kappa a constant, so the linear
pencil M = adj(A) / f^(d-2) is kappa * f * A^-1 and det M = kappa^(d-1) *
f.  M is never expanded symbolically: it is read at e and at e + s*e_k
(k = 1..n), and its coefficient matrices are the difference quotients.
The pencil is built in ints: the entries of A are compiled over one
common denominator, so A(p) = N / c for an int matrix N, and one
fraction-free Gauss-Jordan elimination of [N | I] gives det N and adj N.
So kappa comes from det N at e, M(p) is adj N times one rational, and each
coefficient entry is one Fraction.  The sign fix forms the 2x2 minors and divides them by f with polycore's int
kernels (_int_cross, _int_quotient).  Nothing checks beforehand that A is
rank one modulo f: verify_detrep (det M = gamma * f exactly, gamma != 0,
M(e) > 0 by exact LDL^T) is the one proof that the result is a
representation.  It expands det M with polycore's one fraction-free
Bareiss loop on the pencil packed as int linear forms
(_pencil_determinant), compares it with gamma * f in ints, and reads M(e)
from lcm-scaled ints (matrix_at).  This module packs no monomials itself:
the key layout of those kernels stays in polycore.  The stability test
certifies each Delta_ij f that is lam * s^2 and samples the others at once
from f and its partials, compiled in ints; of the pairs left, one per orbit
of f's coordinate permutations goes to certify_sos.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import soscert
from .exactla import int_det_adjugate, ldl_psd
from .hypercone import SampleConfig
from .polycore import (
    Polynomial,
    _common_denominator,
    _coordinate_wronskians,
    _int_cross,
    _int_quotient,
    _int_square_root,
    _IntForm,
    _Keys,
    _Wronskian,
    _pencil_determinant,
    _rationals,
    directional_derivative,
    poly_adjugate,
    poly_determinant,
)
from .verdicts import Verdict, array_from_json, certified_no, certified_yes, frac_from_json, frac_json, unknown


class DetRepError(ValueError):
    """Internal inconsistency while building a representation (bad input)."""


class IrrationalEntry(DetRepError):
    """Every Delta_ij f is a square over R, but an entry of A stays irrational: undecided."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(
            f"the ({pair[0]},{pair[1]}) entry of the interlacer matrix stays irrational under "
            "the congruence that makes a spanning tree of its nonzero entries rational; "
            "no representation was built"
        )
        self.pair = pair


@dataclass
class NoRep:
    """Obstruction witness: the coordinate Wronskian of `pair` is not a square over R."""

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
        units = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
        return [[Polynomial._trusted(n, {u: v if type(v) is Fraction else Fraction(v)
                                         for u, Mi in zip(units, self.matrices) if (v := Mi[r][c])})
                 for c in range(d)] for r in range(d)]

    def matrix_at(self, point: Sequence) -> list:
        """M(p) = sum_i p_i M_i at a rational point p of length nvars.

        The matrices are scaled to ints by the lcm D of all their
        denominators and p by the lcm q of its own, so each entry is one int
        sum and one Fraction over D * q.
        """
        q, P = _common_denominator(_rationals(point))
        if len(P) != self.nvars:
            raise ValueError(f"point length {len(P)} != nvars {self.nvars}")
        d = self.size
        D, flat = _common_denominator([x for Mi in self.matrices for row in Mi for x in row])
        den = D * q
        live = [(x, i * d * d) for i, x in enumerate(P) if x]
        return [[Fraction(sum(x * flat[start + r * d + c] for x, start in live), den) for c in range(d)]
                for r in range(d)]

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
    Each Delta_ij f is computed in ints (_coordinate_wronskians), and a pair is
    sampled unless lam * s^2 with lam > 0 certifies it.  A sampled negative
    value refutes exactly; the witness is the first negative (pair, point)
    in pair-major order, the same as if every pair were sampled, since a
    certified pair is never negative.  Certifying every remaining pair as a
    sum of squares proves stability; anything else is UNKNOWN, with the
    uncertified pairs recorded in the witness.  The remaining pairs are
    split into orbits of the coordinate permutations that fix f
    (_pair_orbits), whose Wronskians are permutations of one another, and
    only the first pair of an orbit goes to certify_sos: its certificate
    with the variables permuted proves every other pair, and an exact NO
    refutes them all.  An UNKNOWN sends each other pair to certify_sos on
    its own.  Only a pair that reaches certify_sos becomes a Polynomial.
    """
    cfg = cfg or SampleConfig()
    if not f.is_multiaffine():
        raise ValueError("f must be multiaffine (degree at most 1 in each variable)")
    if not f.is_homogeneous():
        raise ValueError("f must be homogeneous")
    n = f.nvars
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # lam * s^2 with lam > 0 is never negative, so the first negative among the
    # other pairs is the first of all pairs
    open_pairs = [(pair, w) for pair, w in zip(pairs, _coordinate_wronskians(f, pairs))
                  if _square_split(w.D, w.keys.guard) is None]
    negative = _first_negatives(f, [pair for pair, _ in open_pairs], cfg)
    if negative:
        k = min(negative)
        (i, j), (p, val) = open_pairs[k][0], negative[k]
        return certified_no(
            witness={"pair": (i, j), "point": p, "value": val},
            detail="the coordinate Wronskian of the witness pair is negative at the witness point",
        )

    def certify(k: int) -> Verdict:
        return soscert.certify_sos(open_pairs[k][1].polynomial(), sos_budget)

    uncertified = []
    for first, *rest in _pair_orbits(f, [pair for pair, _ in open_pairs]):
        v = certify(first)
        if v.is_no:  # an exact refutation moves with the permutation
            uncertified += [first, *rest]
        elif not v.is_yes:
            uncertified += [first, *(k for k in rest if not certify(k).is_yes)]
    uncertified = [open_pairs[k][0] for k in sorted(uncertified)]
    if not uncertified:
        return certified_yes(detail="every coordinate Wronskian certified as a sum of squares")
    return unknown(
        witness={"uncertified_pairs": uncertified},
        detail=f"{len(uncertified)} coordinate Wronskian(s) not certified; the witness lists their pairs",
    )


def _pair_orbits(f: Polynomial, pairs: list) -> list[list[int]]:
    """The orbits of pairs under the coordinate permutations that fix f, as sorted index lists.

    A permutation sigma with f(sigma.x) = f(x) gives Delta_{sigma i sigma j} f
    (sigma.x) = Delta_ij f(x), so one orbit's Wronskians are permutations of
    one another.  A union-find joins {i, j} and {g[i], g[j]} for every
    generator g of soscert._symmetry_generators, and the orbits come in the
    order of their first pairs.  With fewer than two pairs no symmetry is
    searched.
    """
    root = list(range(len(pairs)))

    def find(k: int) -> int:
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    index = {pair: k for k, pair in enumerate(pairs)}
    for g in soscert._symmetry_generators(f) if len(pairs) > 1 else []:
        for k, (i, j) in enumerate(pairs):
            root[find(k)] = find(index.get((min(g[i], g[j]), max(g[i], g[j])), k))
    orbits: dict[int, list[int]] = {}
    for k in range(len(pairs)):
        orbits.setdefault(find(k), []).append(k)
    return list(orbits.values())


def _first_negatives(f: Polynomial, pairs: list, cfg: SampleConfig) -> dict[int, tuple]:
    """The first sampled (point, value) where Delta_ij f < 0, keyed by the index of (i, j) in pairs.

    Delta_ij f = f_i * f_j - f * f_ij is read off one compiled form of f, its
    first partials and the second partials of the pairs, all over f's lcm q
    (for multiaffine f a partial keeps a subset of f's terms).  At p = P/Q
    the homogeneous pieces give Delta_ij(p) = (F_i F_j - F F_ij) / (q Q^(d-1))^2
    in ints, so only a negative value becomes a Fraction.
    """
    if not pairs:
        return {}
    n, d = f.nvars, f.total_degree()
    q, ints = _common_denominator(f.terms.values())
    terms = list(zip(f.terms, ints))
    used = sorted({i for pair in pairs for i in pair})

    def partial(*idx) -> tuple[int, list[int], list]:
        kept = [(m, c) for m, c in terms if all(m[i] for i in idx)]
        return q, [c for _, c in kept], [tuple(0 if i in idx else e for i, e in enumerate(m)) for m, _ in kept]

    form = _IntForm._from_ints(n, [partial(), *map(partial, used), *(partial(*pair) for pair in pairs)])
    slot = {i: k for k, i in enumerate(used, 1)}
    # the slots of f_i, f_j and f_ij in the form, per pair
    slots = [(slot[i], slot[j], k) for k, (i, j) in enumerate(pairs, 1 + len(used))]
    negative: dict[int, tuple] = {}
    for p in cfg.sample(n):
        qpow, vals = form.numerators_at(p)
        F = vals[0]
        for k, (a, b, ab) in enumerate(slots):
            num = vals[a] * vals[b] - F * vals[ab]
            if num < 0 and k not in negative:
                negative[k] = (p, Fraction(num, (q * qpow[d - 1]) ** 2))
    return negative


@dataclass
class InterlacerMatrix:
    """Candidate rank-one-modulo-f matrix of degree-(d-1) forms: the builder's core.

    The diagonal holds the partial derivatives of f along the affine
    variables, off-diagonal entries are exact square roots of the coordinate
    Wronskians with signs fixed so the leading 2x2 minors are divisible by f;
    when a Wronskian is lam * s^2 over Q, the whole matrix is taken under the
    congruence that makes it rational.  The entries, over the lcm of all
    their denominators, and f are compiled once, for numerators_at.
    """

    entries: list  # d x d symmetric, Polynomial
    f: Polynomial
    dvars: list
    _form: _IntForm = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = [e for row in self.entries for e in row]
        L = self._den = math.lcm(*(c.denominator for e in flat for c in e.terms.values()))
        scaled = [(L, [c.numerator * (L // c.denominator) for c in e.terms.values()], e.terms) for e in flat]
        scaled.append((*_common_denominator(self.f.terms.values()), self.f.terms))
        self._form = _IntForm._from_ints(self.f.nvars, scaled)

    def numerators_at(self, point: Sequence[Fraction]) -> tuple[list, int, Fraction]:
        """(N, c, f(p)) at a rational point p: A(p) = N / c for a d x d int matrix N."""
        qpow, nums = self._form.numerators_at(point)
        *entries, (fden, fdeg, _, _) = self._form.polys
        # entry k is nums[k] / (den * q^deg_k); when f is homogeneous every nonzero
        # entry has degree d - 1, but den * q^top is common to entries of any degree
        top = max((deg for _, deg, _, _ in entries), default=0)
        N = [v * qpow[top - deg] for v, (_, deg, _, _) in zip(nums, entries)]
        d = len(self.entries)
        return [N[r * d:(r + 1) * d] for r in range(d)], self._den * qpow[top], Fraction(nums[-1], fden * qpow[fdeg])


def interlacer_matrix_multiaffine(
    f: Polynomial, dvars: Sequence[int]
) -> Union[InterlacerMatrix, NoRep]:
    """Assemble the rank-one-modulo-f matrix for the builder.

    Returns NoRep with the offending pair when some Delta_ij f is not a
    square over R.  Raises IrrationalEntry when an entry stays irrational
    under the congruence that makes a spanning tree of the nonzero entries
    rational, and DetRepError when no sign of an off-diagonal entry makes
    its leading 2x2 minor divisible by f (reducible or non-stable input).
    Whether A is rank one modulo f is not tested here: the builder verifies
    the pencil it reads from A instead.
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

    # Delta_ab = lam_ab * s_ab^2, lam_ab = 1 when Delta_ab is a rational square
    split = {}
    dpairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for (a, b), w in zip(dpairs, _coordinate_wronskians(f, [(dvars[a], dvars[b]) for a, b in dpairs])):
        split[a, b] = _square_times_constant(w)
        if split[a, b] is None:
            return NoRep(pair=(dvars[a], dvars[b]), delta=w.polynomial())
    # diagonal: partial derivatives; off-diagonal: square roots of Wronskians,
    # sqrt(mu_a mu_b lam_ab) * s_ab under the congruence diag(sqrt(mu)).  mu
    # is 1 at the root of each tree of a spanning forest of the nonzero
    # Delta_ab and mu_b = lam_ab * mu_a along a tree edge, which makes every
    # tree entry rational; the breadth-first forest is the star at 0 when
    # every Delta_0a is nonzero
    mu: list[Optional[Fraction]] = [None] * d
    for root in range(d):
        if mu[root] is not None:
            continue
        mu[root] = Fraction(1)
        tree = [root]
        for a in tree:
            for b in range(d):
                if mu[b] is None:
                    lam, root_ab = split[min(a, b), max(a, b)]
                    if root_ab:
                        mu[b] = lam * mu[a]
                        tree.append(b)
    A: list[list[Optional[Polynomial]]] = [[None] * d for _ in range(d)]
    for a, i in enumerate(dvars):
        A[a][a] = f.partial(i) if mu[a] == 1 else f.partial(i) * mu[a]
    for (a, b), (lam, root) in split.items():
        scale = _rational_sqrt(mu[a] * mu[b] * lam) if root else 1
        if scale is None:
            raise IrrationalEntry((dvars[a], dvars[b]))
        A[a][b] = A[b][a] = root if scale == 1 else root * scale

    # fix the sign of a_ij (2 <= i < j) so a_11*a_ij - a_1i*a_1j is divisible by
    # f; over the lcm L of the entries' denominators, L^2 times each minor is an
    # int polynomial, and a positive scale leaves divisibility unchanged
    keys = _Keys.for_degree(f.nvars, 2 * d)
    _, divisor = keys.primitive(f)
    _, flat = keys.scaled([x for row in A for x in row])
    I = [flat[r * d:(r + 1) * d] for r in range(d)]
    for a in range(1, d):
        for b in range(a + 1, d):
            if _int_quotient(_int_cross(I[0][0], I[a][b], I[0][a], I[0][b]), divisor, keys.guard) is None:
                flipped = _int_cross(I[0][0], I[a][b], {k: -c for k, c in I[0][a].items()}, I[0][b])
                if _int_quotient(flipped, divisor, keys.guard) is None:
                    raise DetRepError(
                        f"no sign of the ({dvars[a]},{dvars[b]}) entry makes the leading "
                        "2x2 minor divisible by f; f is likely reducible - factor it and "
                        "build a representation per factor"
                    )
                A[a][b] = A[b][a] = -A[a][b]

    return InterlacerMatrix(entries=A, f=f, dvars=dvars)


def _square_split(D: dict, guard: int) -> Optional[tuple[int, dict]]:
    """(c, R) with c * D = R^2, or None when the int polynomial D is not a square over R.

    c is 1 when D is the square of an integer polynomial.  Otherwise a real
    square root of D would have a positive leading coefficient, and D /
    lc(D) has the same greedy square root over Q as over R; by Gauss's
    lemma it is rational exactly when lc(D) * D is the square of an integer
    polynomial, and then c = lc(D).
    """
    root = _int_square_root(D, guard)
    if root is not None:
        return 1, root
    lc = D[max(D)]
    if lc <= 1:  # lc = 1 repeats the peel that just failed
        return None
    root = _int_square_root({k: lc * v for k, v in D.items()}, guard)
    return None if root is None else (lc, root)


def _square_times_constant(w: _Wronskian) -> Optional[tuple[Fraction, Polynomial]]:
    """(lam, s) with Delta_ij f = lam * s^2 and lam > 0, or None when it is not a square over R.

    From _square_split's c * D = R^2: lam = 1 and s = R / den when c = 1;
    otherwise lam = lc(Delta) = c / den^2 and s = R / c, the root of
    Delta / lc(Delta).
    """
    split = _square_split(w.D, w.keys.guard)
    if split is None:
        return None
    c, R = split
    n = w.keys.nvars
    if c == 1:
        return Fraction(1), Polynomial._trusted(n, w.keys.terms(R, w.den))
    return Fraction(c, w.den * w.den), Polynomial._trusted(n, w.keys.terms(R, c))


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """The nonnegative rational square root of x >= 0, or None if it is irrational."""
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(n, d) if n * n == x.numerator and d * d == x.denominator else None


def build_detrep_multiaffine(
    f: Polynomial, dvars: Sequence[int], e: Sequence
) -> Union[DeterminantalRep, NoRep]:
    """Construct a definite determinantal representation of f, or the obstruction.

    Requires f homogeneous of degree d, affine in the d variables `dvars`,
    with a nonzero coefficient on their product and f(e) != 0.  Returns NoRep
    with the offending pair when some Delta_ij f is not a square over R, and
    raises IrrationalEntry when the interlacer matrix has no rational form.
    Otherwise the pencil is M = kappa * f * A^-1 for the rank-one-modulo-f
    matrix A, with kappa = det A(e) / f(e)^(d-1) and gamma = kappa^(d-1).  M
    is linear, so n + 1 exact values fix it: M(e) and M(e + s*e_k) for each
    k, each from one fraction-free Gauss-Jordan elimination of the int
    matrix N with A(p) = N / c (see _pencil).  Raises DetRepError if
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
    matrices, kappa = _pencil(built, evec)

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


def _pencil(built: InterlacerMatrix, evec: list) -> tuple[list, Fraction]:
    """(matrices, kappa): the coefficient matrices of M = kappa * f * A^-1, and kappa.

    M is linear, so its values at e and at e + s*e_k fix it; s is the first
    of 1..d+1 with f(e + s*e_k) != 0, which exists since f(e + s*e_k) is a
    nonzero polynomial of degree <= d in s.  At each point A(p) = N / c for
    an int matrix N, so M(p) = kappa * f(p) * c * adj N / det N is an int
    matrix times one rational, and kappa = det N_e / (c_e^d f(e)^(d-1)).
    """
    d = len(built.entries)
    N, c, fe = built.numerators_at(evec)
    if fe == 0:
        raise DetRepError("f(e) = 0: no pencil is definite at e")
    det, base = _det_adjugate(N, evec)
    kappa = Fraction(det, c**d) / fe ** (d - 1)
    u0, v0 = (kappa * fe * c / det).as_integer_ratio()
    matrices = []
    for k in range(len(evec)):
        for s in range(1, d + 2):
            p = list(evec)
            p[k] += s
            N, c, fp = built.numerators_at(p)
            if fp:
                break
        det, adj = _det_adjugate(N, p)
        # (M(p) - M(e)) / s = (u/v adj - u0/v0 base) / s: one int and one Fraction per entry
        u, v = (kappa * fp * c / det).as_integer_ratio()
        a, b, den = u * v0, u0 * v, v * v0 * s
        matrices.append([[Fraction(a * x - b * y, den) for x, y in zip(rp, rb)] for rp, rb in zip(adj, base)])
    return matrices, kappa


def _det_adjugate(N: list, point: list) -> tuple[int, list]:
    """(det N, adj N) for A(p) = N / c, or DetRepError when A(p) is singular."""
    det, adj = int_det_adjugate(N)
    if not det:
        shown = ", ".join(map(str, point))
        raise DetRepError(f"A is singular at ({shown}), where f is not zero; no pencil fits")
    return det, adj


def _negate_rep(rep: DeterminantalRep) -> DeterminantalRep:
    d = rep.size
    matrices = [[[-x for x in row] for row in M] for M in rep.matrices]
    gamma = rep.gamma if d % 2 == 0 else -rep.gamma
    return DeterminantalRep(matrices=matrices, e=rep.e, gamma=gamma)


def verify_detrep(rep: DeterminantalRep, f: Polynomial) -> CheckResult:
    """Exact verification: symmetric pencil, det(pencil) = gamma * f, gamma != 0, M(e) > 0.

    The determinant identity is checked by _det_is, by fraction-free
    Bareiss elimination of the packed pencil; M(e) > 0 by exact LDL^T.
    """
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
    if not _det_is(rep, f):
        return CheckResult(False, "det of the pencil does not equal gamma * f")
    res = ldl_psd(rep.matrix_at(rep.e))
    if not res.is_pd:
        return CheckResult(False, f"M(e) is not positive definite: {res.reason or 'rank-deficient'}")
    return CheckResult(True, "det identity, gamma, and definiteness all verified")


def _det_is(rep: DeterminantalRep, f: Polynomial) -> bool:
    """det(sum_i x_i M_i) == gamma * f, as a polynomial identity.

    The determinant is homogeneous of degree d or zero, so an f with a term
    of another degree fails at once.  Otherwise _pencil_determinant expands
    det(L * sum_i x_i M_i) by fraction-free Bareiss elimination on packed
    int keys, polynomial in d, and with f = F / den and gamma = g / h the
    identity is det * den * h == L^d * g * F, compared term by term in ints.
    """
    d = rep.size
    if any(sum(m) != d for m in f.terms):
        return False
    keys, L, det = _pencil_determinant(rep.matrices)
    den, (F,) = keys.scaled([f])
    g, h = Fraction(rep.gamma).as_integer_ratio()
    lhs, rhs = den * h, L**d * g
    return det.keys() == F.keys() and all(c * lhs == F[k] * rhs for k, c in det.items())


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

    # derivative identities: the rank-one direction u v^T puts u_j v_i on X_{ji}
    first = directional_derivative(detX, [x * y for x in b for y in a])
    if first != -ba:
        return False
    if directional_derivative(first, [x * y for x in dd for y in c]) != big:
        return False
    return True
