"""Sums-of-squares certification with exact rational Gram certificates.

The pipeline for a target form F of even degree:

  1. assemble the affine family of Gram matrices {G : v^T G v = F} exactly:
     over a basis of unit monomials, modulo-f families included, a table
     with one coefficient equation per monomial, each Gram pair in exactly
     one equation; over a general basis, particular solution + nullspace
     basis over Q by one sparse exact elimination, whose rows come straight
     from the lcm-scaled int terms of the basis;
  2. find a numerically PSD member by a log-barrier interior-point method
     that maximises the smallest eigenvalue over the family, with one Newton
     unknown per nullspace direction, or per equation when the nullspace is
     too large; this is the only floating-point step, and its tolerance
     SDP_TOLERANCE only picks the points worth rounding;
  3. round every entry to one common denominator Q (Peyrl-Parrilo), project
     exactly back onto the family, and decide PSD by exact pivoted LDL^T,
     for each Q of ROUNDING_DENOMINATORS in turn.  No projection solves a
     linear system: on the table it is one correction per equation, in
     Python ints over the lcm of its denominators, with the multiplier held
     fixed; on a general basis the free unknowns of step 1 keep their
     rounded values and the pivot unknowns are back-substituted.

A successful step 3 is a self-contained exact certificate: the Gram matrix
alone, which verify() checks against the target and by re-running LDL^T.
Exact real zeros of the target (scanned on a small integer grid) drive a
face reduction before step 1: every candidate square must vanish at each
zero, and along flat Hessian directions it must vanish to half the order of
the target's line restriction.  This frequently collapses boundary
instances to a unique Gram point decided outright.  That local geometry is
decided once per orbit of the zeros under the target's symmetries
(Gatermann-Parrilo): the coordinate permutations that map its terms onto
its terms, found as generators, never as a listed group.  The other zeros
of an orbit take their representative's flat lines and constraint rows,
moved by the permutation.  CERTIFIED_NO is issued
only from an exact decision: a negative value or a local obstruction at a
zero, a single non-PSD Gram point, or no Gram matrix at all over a complete
basis.  Denominator powers upgrade the relaxation: (sum x_i^2)^N * F is
tried for N = 0..budget.  A modulo-f variant searches for a polynomial
multiplier p with F - p*f a sum of squares, carrying p's coefficients as
extra exact unknowns of the same affine family, one column of the equation
table each.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactla import LdlResult, ldl_psd, solve_affine_family
from .polycore import (
    Mono,
    Polynomial,
    UniPoly,
    _IntForm,
    _common_denominator,
    _powers,
    _rationals,
    default_names,
    format_poly,
    grlex_key,
    parse_poly,
)
from .verdicts import Verdict, array_from_json, certified_no, certified_yes, frac_json, str_from_json, unknown


# The barrier's Newton system in the nullspace form takes (m+1)^2 + (m+1) n^2
# doubles for m nullspace directions over a basis of n: 408,012 for the
# face-reduced basis of the Vamos hyperbolicity Wronskian (n = 38, m = 241).
# A larger monomial-basis family takes the equation form, (K+1+extra)^2
# doubles for K equations, when that fits: 120 cubic monomials in 8
# variables give m = 5,544 but K = 1,716.  The denominator-power-1 Vamos
# family of Delta_12, face-reduced from 211 to 82 elements, keeps m = 1,819
# and has no equation table, so it gets no SDP.
BARRIER_MAX_DOUBLES = 2**22
# Newton steps per barrier solve; a boundary family needs about 100
BARRIER_MAX_STEPS = 400
# a float Gram point may have smallest eigenvalue down to -SDP_TOLERANCE * scale;
# the exact projection and LDL^T decide whatever it rounds to
SDP_TOLERANCE = 1e-9
# common denominators tried in turn when rounding the float Gram point
ROUNDING_DENOMINATORS = (100, 1600, 25600, 409600)


class GramInfeasibleError(ValueError):
    """No Gram matrix exists for the target over the given basis."""


def monomials_of_degree(nvars: int, degree: int) -> list[Mono]:
    """All exponent tuples of the given total degree, graded-lex descending."""
    out: list[Mono] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, pos + 1)

    if nvars == 0:
        return [()] if degree == 0 else []
    rec([], degree, 0)
    out.sort(key=grlex_key, reverse=True)
    return out


def box_reduced_support(F: Polynomial) -> list[Mono]:
    """Candidate Gram-basis monomials from per-coordinate support bounds.

    Any sum-of-squares decomposition of F only uses monomials m with 2m in
    the Newton polytope of F's support; the per-coordinate bounding box of
    the support contains that polytope, so filtering on the box keeps a
    superset of the admissible monomials (the filter is sound).
    """
    k, rem = divmod(F.total_degree(), 2)
    if rem:
        raise ValueError("odd degree")
    monos = monomials_of_degree(F.nvars, k)
    support = list(F.terms.keys())
    lo = [min(m[i] for m in support) for i in range(F.nvars)]
    hi = [max(m[i] for m in support) for i in range(F.nvars)]
    return [m for m in monos if all(lo[i] <= 2 * m[i] <= hi[i] for i in range(F.nvars))]


class GramSystem:
    """Affine family of Gram matrices for a target form over a fixed basis.

    Unknowns are the upper-triangle entries of the symmetric matrix, plus
    (for the modulo-f variant) the multiplier coefficients p_t.  Over a
    basis of distinct unit monomials every Gram pair enters exactly one
    coefficient-matching equation, with its weight w_k (1 on the diagonal,
    2 off it), and the multiplier enters through the terms of m_t * modulus:

        sum_{k in E} w_k G_k + sum_t c_t p_t = rhs    for each equation E.

    This structural form is kept as a table of equations and needs no
    elimination.  Only a basis of general polynomials (the face-reduced
    bases of constrain_basis_to_zeros), with no modulus, goes through exact
    Gauss-Jordan elimination, once, for a particular solution and the RREF
    nullspace basis; its projection back-substitutes through them.
    """

    def __init__(
        self,
        target: Polynomial,
        basis: list[Polynomial],
        modulus: Optional[Polynomial] = None,
        mult_monos: Optional[list[Mono]] = None,
    ):
        self.target = target
        self.basis = basis
        self.modulus = modulus
        self.mult_monos = mult_monos or []
        n = len(basis)
        self.size = n
        self.pairs: list[tuple[int, int]] = [(i, j) for i in range(n) for j in range(i, n)]
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        self.weights: list[int] = [1 if i == j else 2 for i, j in self.pairs]
        self.extra = len(self.mult_monos)
        self.nunknowns = len(self.pairs) + self.extra

        if self.mult_monos and modulus is None:
            raise ValueError("multiplier monomials need a modulus")
        monomial_basis = all(p.num_terms() == 1 and next(iter(p.terms.values())) == 1 for p in basis)
        # structural form: (pair unknowns, rhs, {multiplier t: coefficient})
        # per equation, each pair unknown k weighted by weights[k]
        self._eqs: Optional[list[tuple[list[int], Fraction, dict[int, Fraction]]]] = None
        self._null: Optional[list[dict[int, Fraction]]] = None
        if monomial_basis:
            self._assemble_structural()
        elif modulus is not None:
            raise ValueError("a modulus needs a basis of unit monomials")
        else:
            self._assemble_general()

    # -- assembly ------------------------------------------------------------

    def _assemble_structural(self):
        basis_monos = [next(iter(p.terms.keys())) for p in self.basis]
        eq_of_mono: dict[Mono, tuple[list[int], dict[int, Fraction]]] = {}
        for k, (i, j) in enumerate(self.pairs):
            m = tuple(a + b for a, b in zip(basis_monos[i], basis_monos[j]))
            eq_of_mono.setdefault(m, ([], {}))[0].append(k)
        for m in self.target.terms:
            if m not in eq_of_mono:
                raise GramInfeasibleError(
                    "target monomial admits no product split over the basis"
                )
        for t, mt in enumerate(self.mult_monos):
            for m, c in self.modulus.terms.items():
                m = tuple(a + b for a, b in zip(mt, m))
                if m not in eq_of_mono:
                    raise ValueError("multiplier term admits no product split over the basis")
                eq_of_mono[m][1][t] = c
        self._eqs = [
            (pair_idxs, self.target.terms.get(m, Fraction(0)), mult)
            for m, (pair_idxs, mult) in sorted(eq_of_mono.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
        ]
        vec = [Fraction(0)] * self.nunknowns
        for pair_idxs, rhs, _ in self._eqs:
            vec[pair_idxs[0]] = rhs / self.weights[pair_idxs[0]]
        self._particular = vec

    def _assemble_general(self):
        # each basis element times the lcm D of all their denominators has
        # int terms, so the equation of monomial m is D^2 times its match
        D = math.lcm(*(c.denominator for b in self.basis for c in b.terms.values()))
        terms = [[(m, int(c * D)) for m, c in b.terms.items()] for b in self.basis]
        rows: defaultdict[Mono, Counter] = defaultdict(Counter, {m: Counter() for m in self.target.terms})
        for k, ((i, j), w) in enumerate(zip(self.pairs, self.weights)):
            for mi, ci in terms[i]:
                for mj, cj in terms[j]:
                    rows[tuple(a + b for a, b in zip(mi, mj))][k] += w * ci * cj
        rhs = [self.target.terms.get(m, 0) * D * D for m in rows]
        sol = solve_affine_family(list(rows.values()), rhs, self.nunknowns)
        if sol is None:
            raise GramInfeasibleError("coefficient-matching equations are inconsistent")
        self._particular, self._null = sol

    # -- views ----------------------------------------------------------------

    @property
    def nullspace_dim(self) -> int:
        if self._eqs is not None:
            return sum(len(p) - 1 for p, _, _ in self._eqs) + self.extra
        return len(self._null)

    def particular_vector(self) -> list[Fraction]:
        return list(self._particular)

    def matrix_from_vector(self, vec: Sequence[Fraction]) -> list[list[Fraction]]:
        n = self.size
        G = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in zip(self.pairs, vec):
            G[i][j] = G[j][i] = v if type(v) is Fraction else Fraction(v)
        return G

    def vector_from_matrix(self, G: Sequence[Sequence], extra: Sequence = ()) -> list[Fraction]:
        vec = [Fraction(G[i][j]) for (i, j) in self.pairs]
        vec.extend(Fraction(x) for x in extra)
        return vec

    def particular_matrix(self) -> list[list[Fraction]]:
        return self.matrix_from_vector(self._particular)

    def nullspace_vectors(self) -> list[dict[int, Fraction]]:
        """A basis of the family's directions, each as {unknown: nonzero entry}.

        On the structural form: e_k - (w_k / w_lead) e_lead for each
        non-leading pair k of an equation, then e_t - sum_E (c_t / w_lead)
        e_lead for each multiplier unknown t, over the equations E it enters.
        """
        if self._null is not None:
            return self._null
        w, one, npairs = self.weights, Fraction(1), len(self.pairs)
        ratio = {(a, b): Fraction(-a, b) for a in (1, 2) for b in (1, 2)}
        pair_dirs = [{k: one, pair_idxs[0]: ratio[w[k], w[pair_idxs[0]]]}
                     for pair_idxs, _, _ in self._eqs for k in pair_idxs[1:]]
        mult_dirs = [{npairs + t: one} for t in range(self.extra)]
        for pair_idxs, _, mult in self._eqs:
            for t, c in mult.items():
                mult_dirs[t][pair_idxs[0]] = -c / w[pair_idxs[0]]
        return pair_dirs + mult_dirs

    def contains(self, G: Sequence[Sequence], extra: Sequence = ()) -> bool:
        """Exact membership of a symmetric matrix (+multiplier) in the family."""
        vec = self.vector_from_matrix(G, extra)
        return self.project_exact(vec) == vec

    # -- exact projection ------------------------------------------------------

    def project_exact(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """An exact member of the family near the unknown-vector; a member maps to itself.

        On the structural form the multiplier unknowns keep their values and
        their terms move to the right-hand side, rhs - sum c_t p_t.  Every
        Gram coefficient of an equation equals its unknown's weight w_k, so
        the weighted least-squares projection adds one correction
        nu = (rhs - sum w_k y_k) / sum w_k to each of the equation's Gram
        unknowns; it is computed in ints over the lcm q of the equation's
        denominators, and each entry becomes one Fraction.  On a general
        basis the free unknowns of the elimination keep their values and the
        pivots are back-substituted: x0 + sum_f y_f v_f, where the RREF
        nullspace vector v_f is 1 at its free unknown f, its last nonzero
        entry, and x0 is 0 there.  Neither form solves a linear system.
        """
        if self._eqs is not None:
            vals = _rationals(vec)
            y = [v.as_integer_ratio() for v in vals]
            w, held = self.weights, vals[len(self.pairs):]
            out: list = [None] * len(self.pairs) + [Fraction(p) for p in held]
            for pair_idxs, rhs, mult in self._eqs:
                if mult:
                    rhs = rhs - sum(c * held[t] for t, c in mult.items())
                r_num, r_den = rhs.as_integer_ratio()
                ratios = [y[k] for k in pair_idxs]
                q = math.lcm(r_den, *(d for _, d in ratios))
                num = r_num * (q // r_den) - sum(w[k] * n * (q // d) for k, (n, d) in zip(pair_idxs, ratios))
                # nu = num / Q and y_k = n * (Q // d) / Q, with Q = q * sum w_k
                Q = q * sum(w[k] for k in pair_idxs)
                for k, (n, d) in zip(pair_idxs, ratios):
                    out[k] = Fraction(n * (Q // d) + num, Q)
            return out
        y = _rationals(vec)
        out = list(self._particular)
        for v in self.nullspace_vectors():
            yf = y[max(v)]
            if yf:
                for i, c in v.items():
                    out[i] += yf * c
        return out

    def residual(self, vec: Sequence[Fraction]) -> Polynomial:
        """v^T G v + p*modulus - target, exactly (zero iff vec is in the family)."""
        G = self.matrix_from_vector(vec)
        acc = Polynomial.zero(self.target.nvars)
        for k, (i, j) in enumerate(self.pairs):
            if G[i][j]:
                acc = acc + self.basis[i] * self.basis[j] * (G[i][j] * self.weights[k])
        if self.modulus is not None:
            for t, m in enumerate(self.mult_monos):
                c = vec[len(self.pairs) + t]
                if c:
                    acc = acc + Polynomial.monomial(self.target.nvars, m, c) * self.modulus
        return acc - self.target


def assemble_gram_system(F: Polynomial, basis: Optional[list[Polynomial]] = None) -> GramSystem:
    """Exact particular solution + nullspace basis of the Gram equations for F.

    With the default full monomial basis the system is always consistent.
    """
    if F.is_zero():
        raise ValueError("zero polynomial has no Gram system")
    if not F.is_homogeneous():
        raise ValueError("target must be homogeneous")
    k, rem = divmod(F.total_degree(), 2)
    if rem:
        raise ValueError("target must have even degree")
    if basis is None:
        basis = _unit_monomials(F.nvars, monomials_of_degree(F.nvars, k))
    return GramSystem(F, list(basis))


def _auto_basis(F: Polynomial) -> list[Polynomial]:
    """The box-reduced monomial basis of F."""
    return _unit_monomials(F.nvars, box_reduced_support(F))


def _unit_monomials(nvars: int, monos: list[Mono]) -> list[Polynomial]:
    """The monomials x^m as Polynomials, for exponent tuples of length nvars, sharing one Fraction(1)."""
    one = Fraction(1)
    return [Polynomial._trusted(nvars, {m: one}) for m in monos]


def scan_small_points(F: Polynomial, coord: int = 1):
    """Exact zeros and a negativity witness of F on the grid {-coord..coord}^n.

    Only coordinates that occur in F are varied (the rest stay zero), and
    points are deduplicated projectively (first varying coordinate positive);
    F is homogeneous of even degree so this loses nothing.  Points are
    visited in itertools.product order by a depth-first walk that substitutes
    one coordinate per level into F's integer terms, so points sharing a
    prefix share that work; the walk stops at the first negative point.
    Returns (zeros, negative_witness_or_None), both as Fraction points.
    Skipped beyond 8 occurring variables.
    """
    occurring = [i for i in range(F.nvars) if F.degree_in(i) > 0]
    if not occurring or len(occurring) > 8:
        return [], None
    # the positive common denominator does not change a value's sign
    _, coeffs = _common_denominator(F.terms.values())
    terms = {tuple(m[i] for i in occurring): c for m, c in zip(F.terms, coeffs)}
    values = range(-coord, coord + 1)
    powers = {v: _powers(v, F.total_degree()) for v in values}
    last = occurring[-1]
    zeros = []
    point = [0] * F.nvars

    def walk(level: int, terms: dict, started: bool):
        """Visit the points below a prefix; terms are keyed by the remaining exponents."""
        i = occurring[level]
        for v in values:
            if v < 0 and not started:
                continue  # the first nonzero coordinate must be positive
            pw = powers[v]
            point[i] = v
            if i != last:
                sub: dict = {}
                for m, c in terms.items():
                    sub[m[1:]] = sub.get(m[1:], 0) + c * pw[m[0]]
                neg = walk(level + 1, sub, started or v != 0)
                if neg is not None:
                    return neg
            elif started or v:
                value = sum(c * pw[m[0]] for m, c in terms.items())
                if value == 0:
                    zeros.append([Fraction(x) for x in point])
                elif value < 0:
                    return [Fraction(x) for x in point]
        return None

    neg = walk(0, terms, False)
    return ([], neg) if neg is not None else (zeros, None)


def _symmetry_generators(F: Polynomial) -> list[tuple[int, ...]]:
    """Generators of the group of coordinate permutations that map F's terms onto F's terms.

    A permutation sigma moves a point or an exponent tuple x to sigma.x, with
    (sigma.x)[sigma[i]] = x[i]; it fixes F when every term c x^m of F has
    its image c x^(sigma.m) in F, and then F(sigma.x) = F(x).  The levels
    i = n-1, ..., 0 are searched in turn.  Every generator found so far
    fixes 0..i-1, and for each j > i outside the orbit of i under them, a
    backtracking search looks for one permutation that fixes 0..i-1 and
    sends i to j: it places coordinates in order, each onto a free
    coordinate with the same (exponent, coefficient) profile in F, and
    checks every term once its last coordinate is placed.  The generators
    of all levels generate the whole group (they contain a generating set of
    each stabilizer in its chain), and there are at most n(n-1)/2 of them;
    the group itself is never listed.
    """
    n = F.nvars
    terms = dict(zip(F.terms, _common_denominator(F.terms.values())[1]))  # ints compare fast
    profiles: dict[tuple, int] = {}
    profile = [profiles.setdefault(tuple(sorted((m[i], c) for m, c in terms.items() if m[i])), len(profiles))
               for i in range(n)]
    ending: list[list] = [[] for _ in range(n)]  # the terms whose last variable is k
    for m, c in terms.items():
        support = [i for i, e in enumerate(m) if e]
        if support:
            ending[support[-1]].append((support, m, c))
    sigma, used = list(range(n)), [False] * n

    def fits(k: int) -> bool:
        for support, m, c in ending[k]:
            image = [0] * n
            for i in support:
                image[sigma[i]] = m[i]
            if terms.get(tuple(image)) != c:
                return False
        return True

    def place(k: int) -> bool:
        if k == n:
            return True
        for j in range(n):
            if not used[j] and profile[j] == profile[k]:
                sigma[k], used[j] = j, True
                if fits(k) and place(k + 1):
                    return True
                used[j] = False
        return False

    gens: list[tuple[int, ...]] = []
    for i in reversed(range(n)):
        orbit = [i]
        for j in range(i + 1, n):
            if j in orbit or profile[j] != profile[i]:
                continue
            sigma[:], used[:] = range(n), [k < i or k == j for k in range(n)]
            sigma[i] = j
            if fits(i) and place(i + 1):
                gens.append(tuple(sigma))
                for x in orbit:  # grows while it is read
                    for g in gens:
                        if g[x] not in orbit:
                            orbit.append(g[x])
    return gens


def _move(sigma: Sequence[int], x: Sequence) -> list:
    """sigma.x, with (sigma.x)[sigma[i]] = x[i]."""
    out = [None] * len(x)
    for i, v in zip(sigma, x):
        out[i] = v
    return out


def _point_key(p) -> tuple[int, ...]:
    """(q, *P) for p = P/q with q the lcm of p's denominators: ints that identify p exactly."""
    q, P = _common_denominator(p)
    return (q, *P)


def _zero_orbits(F: Polynomial, zeros: list, keys: dict) -> dict[tuple, tuple[list, tuple[int, ...], int]]:
    """{key of p: (r, sigma, sign)} with p = sign * sigma.r, for each zero p after the first r of its orbit.

    keys maps id(p) to _point_key(p).  Only primitive integer zeros with a
    positive first nonzero coordinate, the grid scan's projective points,
    join orbits.  A breadth-first search from the first zero of each orbit,
    in list order, applies every generator of F's symmetries to each zero
    reached, negates the image when its first nonzero coordinate is negative
    (F must then be even), and records the composed permutation and sign of
    each new zero.  With no symmetry the result is empty.
    """
    index: dict[tuple, list] = {}
    for p in zeros:
        key = keys[id(p)]
        if key[0] == 1 and math.gcd(*key[1:]) == 1 and next(x for x in key[1:] if x) > 0:
            index.setdefault(key, p)
    gens = _symmetry_generators(F) if len(index) > 1 else []
    even = all(sum(m) % 2 == 0 for m in F.terms)
    moved: dict[tuple, tuple[list, tuple[int, ...], int]] = {}
    reached: set[tuple] = set()
    for key, r in index.items():
        if key in reached:
            continue
        reached.add(key)
        queue = [(key, tuple(range(F.nvars)), 1)]
        for reached_key, sigma, sign in queue:  # grows while it is read
            for g in gens:
                image, s = _move(g, reached_key[1:]), sign
                if next(x for x in image if x) < 0:
                    if not even:
                        continue
                    image, s = [-x for x in image], -s
                image = (1, *image)
                if image in index and image not in reached:
                    reached.add(image)
                    composed = tuple(g[k] for k in sigma)
                    moved[image] = (r, composed, s)
                    queue.append((image, composed, s))
    return moved


class _ZeroGeometry:
    """The local structure of F at its exact zeros, shared within one decision.

    F is compiled to integer form once, and the gradient and Hessian at a
    zero are read from its terms in one pass, without differentiating F.
    The flat directions at a zero (the Hessian's kernel) and F's restriction
    along each flat line are computed on first use and kept for the later
    stages.

    The given zeros are split into orbits of F's symmetries (_zero_orbits):
    coordinate permutations sigma, and the sign when F is even.  The first
    zero r of each orbit is its representative, and only representatives
    get derivatives, a Hessian kernel and restrictions of F.  Any other zero
    p = sign * sigma.r takes r's flat lines moved, v = sign * sigma.u, with
    r's restriction polynomials, since F(p + t v) = F(r + t u).  With no
    symmetry every zero is its own representative.  Points are keyed by the
    ints of _point_key, never by Fractions.
    """

    def __init__(self, F: Polynomial, zeros: Sequence = ()):
        self.nvars = F.nvars
        self._F = _IntForm(F.nvars, [F])
        self._supports = [[i for i, e in enumerate(m) if e] for m in F.terms]
        self._lines: dict[tuple, list[tuple[list[Fraction], UniPoly]]] = {}
        # each zero is keyed once; holding the list keeps its ids apart
        self._zeros = list(zeros)
        self._keys = {id(p): _point_key(p) for p in self._zeros}
        self._moved = _zero_orbits(F, self._zeros, self._keys)

    def key(self, p) -> tuple[int, ...]:
        """_point_key(p), read from the zeros' keys when p is one of them."""
        key = self._keys.get(id(p))
        return key if key is not None else _point_key(p)

    def moved(self, p) -> Optional[tuple[list, tuple[int, ...], int]]:
        """(r, sigma, sign) when p = sign * sigma.r for an earlier zero r of its orbit, else None."""
        return self._moved.get(self.key(p))

    def int_derivatives(self, p) -> tuple[list[int], list[list[int]], int, int]:
        """(g, H, q, den): F's gradient at p is g q / den, its Hessian H q^2 / den.

        den is positive, so g and the symmetric integer matrix H have the
        signs, the PSD decision and the kernel of the exact derivatives.
        With p = P/q for integers P, a term c x^m scaled by q^(d - |m|)
        contributes m_i P^(m - e_i) to the gradient's numerator over q^(d-1)
        and m_i (m_j - [i = j]) P^(m - e_i - e_j) to the Hessian's over
        q^(d-2), which keeps inhomogeneous F exact.  A term whose exponents
        on the coordinates where P is 0 sum to 3 or more has no nonzero
        derivative of order up to 2 at p, and is skipped.
        """
        n = self.nvars
        cden, d, monos, terms = self._F.polys[0]
        q, P = _common_denominator(p)
        qpow = _powers(q, d)
        powers = list(map(_powers, P, self._F.maxexp))
        grad = [0] * n
        H = [[0] * n for _ in range(n)]  # upper triangle
        for m, (c, k, _, _), support in zip(monos, terms, self._supports):
            # the coordinates of the support where P is 0, with multiplicity
            dead = [i for i in support if not P[i] for _ in range(m[i])]
            if len(dead) > 2:
                continue
            live = [i for i in support if P[i]]
            w = c * qpow[k] * math.prod(powers[i][m[i]] for i in live)
            if not dead:
                for a, i in enumerate(live):
                    g = w * m[i] // P[i]
                    grad[i] += g
                    for j in live[a:]:
                        H[i][j] += g * (m[j] - (i == j)) // P[j]
            elif len(dead) == 1:
                (i,) = dead
                grad[i] += w
                for j in live:
                    H[min(i, j)][max(i, j)] += w * m[j] // P[j]
            else:
                i, j = dead
                H[i][j] += 2 * w if i == j else w
        for i in range(n):
            for j in range(i + 1, n):
                H[j][i] = H[i][j]
        return grad, H, q, cden * qpow[d]

    def derivatives_at(self, p) -> tuple[list[Fraction], list[list[Fraction]]]:
        """The gradient and the symmetric Hessian of F at p, as Fractions."""
        grad, H, q, den = self.int_derivatives(p)
        return [Fraction(g * q, den) for g in grad], [[Fraction(h * q * q, den) for h in row] for row in H]

    def flat_lines(self, p, H=None) -> list[tuple[list[Fraction], UniPoly]]:
        """(u, t -> F(p + t u)) for each kernel basis vector u of the Hessian at p.

        H, when given, is the Hessian at p or a positive multiple of it.  At
        a zero p = sign * sigma.r the vectors u are r's kernel basis, moved.
        """
        key = self.key(p)
        lines = self._lines.get(key)
        if lines is not None:
            return lines
        moved = self._moved.get(key)
        if moved is not None:
            r, sigma, sign = moved
            lines = [(_move(sigma, u if sign > 0 else [-x for x in u]), line) for u, line in self.flat_lines(r)]
        else:
            n = self.nvars
            if H is None:
                H = self.int_derivatives(p)[1]
            sol = solve_affine_family([dict(enumerate(row)) for row in H], [Fraction(0)] * n, n)
            assert sol is not None
            kernel = [[v.get(k, Fraction(0)) for k in range(n)] for v in sol[1]]
            lines = [(u, self._F.restrictions(u, p)[0]) for u in kernel]
        self._lines[key] = lines
        return lines


def second_order_obstruction(F: Polynomial, zeros, *, _geometry: Optional[_ZeroGeometry] = None):
    """Exact non-SOS witness from the local structure at a zero, or None.

    If F is a sum of squares then at every real zero p the gradient vanishes,
    the Hessian is 2 * sum grad(h) grad(h)^T (hence PSD by exact LDL^T), and
    along every flat direction u the restriction F(p + t u) has even vanishing
    order with a positive leading coefficient.  Each failure is an exact
    refutation, and it survives multiplication by powers of the square sum.
    Only the representative of each orbit of zeros under F's symmetries is
    checked: at p = sign * sigma.r the gradient and the Hessian are r's,
    moved, and so are the flat lines, with the same restrictions.  The
    representative comes first in the list, so the first failing zero and
    its witness are those of the zero-by-zero check.
    """
    if not zeros:
        return None
    geometry = _geometry or _ZeroGeometry(F, zeros)
    for p in zeros:
        if geometry.moved(p) is not None:
            continue
        grad, H, _, _ = geometry.int_derivatives(p)
        if any(grad):
            grad = geometry.derivatives_at(p)[0]
            return {"point": p, "gradient": grad, "kind": "nonzero gradient at a zero"}
        res = ldl_psd(H)
        if not res.is_psd:
            # H is a positive multiple of the Hessian, so the reason's row is the Hessian's
            H = geometry.derivatives_at(p)[1]
            return {"point": p, "hessian": H, "kind": f"Hessian not PSD at a zero ({res.reason})"}
        for u, line in geometry.flat_lines(p, H):
            if line.is_zero():
                continue
            order = next(i for i, c in enumerate(line.coeffs) if c)
            lead = line.coeffs[order]
            if order % 2 == 1 or lead < 0:
                # F takes negative values arbitrarily close to p on this line
                return {
                    "point": p,
                    "direction": u,
                    "kind": f"odd or negative leading order {order} along a flat line",
                }
    return None


def _basis_columns(basis: list[Polynomial], index: dict, sigma: tuple[int, ...]) -> Optional[list[int]]:
    """cols with sigma.basis[cols[k]] == basis[k] for every k, or None when sigma does not permute the basis.

    index maps the support of each basis element to its position.  A row
    over the basis at r becomes the row at sigma.r read in the order cols.
    """
    cols: list = [None] * len(basis)
    for j, b in enumerate(basis):
        image = {tuple(_move(sigma, m)): c for m, c in b.terms.items()}
        k = index.get(frozenset(image))
        if k is None or basis[k].terms != image:
            return None
        cols[k] = j
    return None if None in cols else cols


def constrain_basis_to_zeros(
    basis: list[Polynomial],
    zeros,
    F: Optional[Polynomial] = None,
    *,
    _geometry: Optional[_ZeroGeometry] = None,
) -> list[Polynomial]:
    """Restrict a square basis to the subspace forced by the target's zeros.

    Sound for SOS search: if F = sum h_m^2 and F(p) = 0, every h_m vanishes
    at p.  When F is supplied, stronger line conditions are added: along any
    direction u where the Hessian of F at p is flat, F(p + t u) vanishes to
    order 2s, and sum h_m(p + t u)^2 = F(p + t u) forces each h_m to vanish
    to order s on that line (identically, when F does).  All of these are
    linear rows in the h coefficients, computed exactly from F once; they
    apply unchanged to F times any power of the square sum (a positive
    factor at p).  Every flat line adds its rows; rows in the span of earlier
    ones leave the reduced basis as it is.  At a zero p = sign * sigma.r of
    the orbit of r under F's symmetries, whose flat lines are r's moved, a
    line copies the rows of r's line when sigma permutes the basis (and the
    sign is 1, or the basis consists of forms of one degree, so the sign
    scales whole rows), with the columns permuted.  A basis of any size is
    reduced.  Returns the original basis when nothing binds.
    """
    if not zeros or not basis:
        return basis
    nvars = basis[0].nvars
    form = _IntForm(nvars, basis)
    geometry = None if F is None else _geometry or _ZeroGeometry(F, zeros)
    # the sign of a moved zero scales whole rows when the basis consists
    # of forms of one degree
    forms = len({b.total_degree() for b in basis}) == 1 and all(b.is_homogeneous() for b in basis)
    index = {frozenset(b.terms): k for k, b in enumerate(basis)}
    columns: dict[tuple, Optional[list[int]]] = {}  # sigma -> cols, see _basis_columns
    # (representative's key, line index, or -1 for the values) -> its rows
    cached: dict[tuple, list[list]] = {}
    rows: list[list] = []
    for p in zeros:
        key = moved = cols = None
        if geometry is not None:
            key, moved = geometry.key(p), geometry.moved(p)
            if moved is not None and (moved[2] > 0 or forms):
                r, sigma, _ = moved
                key = geometry.key(r)
                if sigma not in columns:
                    columns[sigma] = _basis_columns(basis, index, sigma)
                cols = columns[sigma]
        # the t^0 coefficients (the basis values at p), then t^1..t^(half-1) along each flat line
        needed = [(-1, None, 1)]
        for idx, (u, line) in enumerate(() if geometry is None else geometry.flat_lines(p)):
            if line.is_zero():
                half = form.degree + 1
            else:
                half = (next(i for i, c in enumerate(line.coeffs) if c) + 1) // 2
            if half > 1:
                needed.append((idx, u, half))
        for idx, u, half in needed:
            if cols is not None and (key, idx) in cached:
                rows.extend([row[j] for j in cols] for row in cached[key, idx])
                continue
            if u is None:
                new = [form.values_at(p)]
            else:
                blines = form.line_numerators(u, p)
                scale = math.lcm(*(den for den, _ in blines))
                new = [[c[s] * (scale // den) if s < len(c) else 0 for den, c in blines] for s in range(1, half)]
            if geometry is not None and moved is None:
                cached[key, idx] = new
            rows.extend(new)
    sol = solve_affine_family([dict(enumerate(row)) for row in rows], [Fraction(0)] * len(rows), len(basis))
    assert sol is not None  # homogeneous system is always consistent
    _, null = sol
    if len(null) == len(basis):
        return basis
    return [sum((basis[k] * c for k, c in v.items()), Polynomial.zero(nvars)) for v in null]


# -- numeric feasibility -------------------------------------------------------


def solve_sdp(sys: GramSystem):
    """Find a numerically PSD point in the affine Gram family.

    A log-barrier method searches (see _barrier_sdp).  Its Newton system has
    one unknown per nullspace direction when that fits BARRIER_MAX_DOUBLES,
    else one per equation when that fits; a family too large for both gets
    None at once.  Returns a finite float unknown-vector whose Gram matrix
    has smallest eigenvalue at least -SDP_TOLERANCE * scale, or None
    (numerically infeasible, too large, or the float method broke down).
    """
    import numpy as np  # only this float stage needs numpy; exact paths never load it

    n = sys.size
    x0 = np.array([float(v) for v in sys.particular_vector()])
    npairs = len(sys.pairs)
    rows = np.fromiter((i for i, _ in sys.pairs), dtype=np.int64, count=npairs)
    cols = np.fromiter((j for _, j in sys.pairs), dtype=np.int64, count=npairs)
    scale = max(1.0, float(np.max(np.abs(x0[:npairs]))) if npairs else 1.0)
    tol = SDP_TOLERANCE * scale

    m = sys.nullspace_dim + 1  # the Gram directions and t
    k = sys.nunknowns - sys.nullspace_dim + 1 + sys.extra  # the equations, t and the multiplier
    if m * m + m * n * n <= BARRIER_MAX_DOUBLES:
        form = _nullspace_form(sys, x0, rows, cols, scale)
    elif k * k <= BARRIER_MAX_DOUBLES:
        form = _equation_form(sys, rows, cols, scale)
    else:
        return None
    x = None if form is None else _barrier_sdp(form, n, scale, tol)
    if x is None or not np.all(np.isfinite(x)):
        return None
    G = np.zeros((n, n))
    G[rows, cols] = G[cols, rows] = x[:npairs]
    return x if np.linalg.eigvalsh(G)[0] >= -tol else None


def _barrier_sdp(form, n: int, scale: float, tol: float):
    """Maximise t subject to S = G - t I >= 0 over the family by a log-barrier method.

    form is (z, G, slack, newton, point): the parameters z of the start
    member G; slack(z) = S once t is appended to z; newton(z, S, L, W, mu)
    -> (step in z, step dS, squared Newton decrement) for -t/mu - log det S,
    given S = L L^T and W = S^-1; and point(z), the unknown-vector.  Each
    step goes 0.99 of the way to the boundary at most, and mu shrinks
    tenfold once the Newton decrement is below 1/4.  On a boundary face the
    central path tends to the face's relative interior, where rounding
    succeeds.  Stops at the interior margin 4e-3 * scale (no step at all
    when the start member has it), when the duality gap n mu drops below
    tol / 1000 or proves the family infeasible, or when a Newton system is
    singular.
    """
    import numpy as np

    z, G, slack, newton, point = form
    target = 0.4e-2 * scale
    lam_min = float(np.linalg.eigvalsh(G)[0])
    if lam_min >= target or not len(z):
        return point(z)
    z = np.append(z, lam_min - scale)
    mu = scale / n
    for _ in range(BARRIER_MAX_STEPS):
        S = slack(z)
        try:
            L = np.linalg.cholesky(S)
            Li = np.linalg.inv(L)
            W = Li.T @ Li
            step, dS, decrement2 = newton(z, S, L, W, mu)
            if not np.all(np.isfinite(step)):
                break
            # the largest alpha keeping S + alpha dS positive definite
            e = float(np.linalg.eigvalsh(Li @ dS @ Li.T)[0])
        except np.linalg.LinAlgError:
            break
        decrement = math.sqrt(max(0.0, decrement2))
        alpha = 1.0 if e >= 0 else min(1.0, -0.99 / e)
        z = z + alpha * step
        if z[-1] >= target:
            break
        if decrement < 0.25:
            if z[-1] + 2 * n * mu < -tol:
                return None  # the duality gap bounds every member's lambda_min below -tol
            if n * mu < 1e-3 * tol:
                break
            mu *= 0.1
    return point(z)


def _nullspace_form(sys: GramSystem, x0, rows, cols, scale: float):
    """The barrier in z = (lam, t) for the family G(lam) = G0 + sum lam_k B_k.

    With the t direction written as B = -I, the gradient is
    -tr(W B_a) - [a = t]/mu and the Hessian tr(W B_a W B_b).  Starts at the
    family member nearest scale * I.
    """
    import numpy as np

    n, npairs = sys.size, len(sys.pairs)
    directions = sys.nullspace_vectors()
    D = np.zeros((sys.nunknowns, len(directions)))
    for d, vec in enumerate(directions):
        for k, v in vec.items():
            D[k, d] = v
    m = D.shape[1]
    B = np.zeros((m + 1, n, n))
    B[:m, rows, cols] = B[:m, cols, rows] = D[:npairs].T
    B[m] = -np.eye(n)
    Bf = B.reshape(m + 1, -1)
    G0 = np.zeros((n, n))
    G0[rows, cols] = G0[cols, rows] = x0[:npairs]
    lam = np.linalg.lstsq(Bf[:m].T, (scale * np.eye(n) - G0).ravel(), rcond=None)[0] if m else np.zeros(0)

    def newton(z, S, L, W, mu):
        grad = -Bf @ W.ravel()
        grad[m] -= 1.0 / mu
        H = Bf @ (W @ B @ W).reshape(m + 1, -1).T
        # Jacobi scaling: near a face, H spans many orders of magnitude
        r = 1.0 / np.sqrt(np.diag(H))
        step = -r * np.linalg.solve(H * r[:, None] * r, grad * r)
        return step, (step @ Bf).reshape(n, n), -float(grad @ step)

    G = G0 + (lam @ Bf[:m]).reshape(n, n)
    return lam, G, lambda z: G0 + (z @ Bf).reshape(n, n), newton, lambda z: x0 + D @ z[:m]


def _equation_form(sys: GramSystem, rows, cols, scale: float):
    """The barrier in z = (x, t) for the unknowns x, one Newton unknown per equation.

    Equation k of the table sys._eqs reads tr(A_k G) + (R p)_k = b_k: A_k
    is the 0/1 pattern of its pairs, and R holds the multiplier columns.  The step
    dS = S - S Y S for Y = sum y_k A_k solves (Vandenberghe-Boyd 1996)

        [M, -a, -R; a^T, 0, 0; R^T, 0, 0] [y; dt; dp] = [A(S); 1/mu; 0]

    with M_kl = tr(A_k S A_l S) and a = A(I).  M carries the square of S's
    condition number, so near a boundary face this form runs out of accuracy
    at about 1e-8 * scale, long before the nullspace form.  Starts at the
    family member nearest scale * I.  None on a family without the table.
    """
    import numpy as np

    if sys._eqs is None:
        return None
    n, npairs, K, extra = sys.size, len(sys.pairs), len(sys._eqs), sys.extra
    eq, b, R = np.zeros(npairs, dtype=np.int64), np.zeros(K), np.zeros((K, extra))
    for l, (pair_idxs, rhs, mult) in enumerate(sys._eqs):
        eq[pair_idxs], b[l] = l, float(rhs)
        for t, c in mult.items():
            R[l, t] = float(c)
    coef = np.array(sys.weights, dtype=float)
    diag, flat = (rows == cols).astype(float), rows * n + cols
    # every pair as (i, j) and (j, i), grouped by equation: S A_l S is
    # S[:, I] diag(c / 2) S[J, :] over equation l's segment
    order = np.argsort(np.concatenate([eq, eq]), kind="stable")
    I, J = np.concatenate([rows, cols])[order], np.concatenate([cols, rows])[order]
    half = np.concatenate([coef, coef])[order] / 2
    bounds = np.append(0, np.cumsum(2 * np.bincount(eq, minlength=K)))

    def A(X):
        return np.bincount(eq, weights=coef * np.take(X, flat), minlength=K)

    a = A(np.eye(n))

    def gram(values):
        G = np.zeros((n, n))
        G[rows, cols] = G[cols, rows] = values
        return G

    def newton(z, S, L, W, mu):
        kkt = np.zeros((K + 1 + extra, K + 1 + extra))
        U, V = S[:, I] * half, S[J]
        for l in range(K):
            kkt[:K, l] = A(U[:, bounds[l]:bounds[l + 1]] @ V[bounds[l]:bounds[l + 1]])
        kkt[:K, K], kkt[K, :K] = -a, a
        kkt[:K, K + 1:], kkt[K + 1:, :K] = -R, R.T
        sol = np.linalg.solve(kkt, np.concatenate([A(S), [1.0 / mu], np.zeros(extra)]))
        # S - S Y S as L (I - L^T Y L) L^T: S Y S cancels S to the size of Y's rounding
        X = np.eye(n) - L.T @ gram(sol[eq]) @ L
        dS = L @ X @ L.T
        step = np.concatenate([np.take(dS, flat) + sol[K] * diag, sol[K + 1:], [sol[K]]])
        return step, dS, float(np.trace(X)) + sol[K] / mu

    d = b - scale * a
    N = np.bincount(eq, weights=coef, minlength=K)  # tr(A_k A_k), as the A_k have disjoint supports
    p = np.linalg.lstsq(R / np.sqrt(N)[:, None], d / np.sqrt(N), rcond=None)[0]
    x = np.concatenate([scale * diag + ((d - R @ p) / N)[eq], p])
    return x, gram(x[:npairs]), lambda z: gram(z[:npairs]) - z[-1] * np.eye(n), newton, lambda z: z[:npairs + extra]


# -- certificates ---------------------------------------------------------------


@dataclass
class SosCertificate:
    """Exact witness that v^T G v = (sum x_i^2)^N * target - multiplier*modulus.

    The PSD Gram matrix G is the whole witness of positivity; its LDL^T is
    recomputed from G, never stored.
    """

    basis: list[Polynomial]
    gram: list[list[Fraction]]
    denominator_power: int
    target: Polynomial
    multiplier: Optional[Polynomial] = None
    modulus: Optional[Polynomial] = None

    @property
    def ldl(self) -> LdlResult:
        """The pivoted LDL^T of the Gram matrix, computed on each read."""
        return ldl_psd(self.gram)

    def certified_form(self) -> Polynomial:
        """(sum x_i^2)^N * target, the form the Gram matrix certifies."""
        return self.target * _sum_of_var_squares(self.target.nvars) ** self.denominator_power

    def verify(self) -> bool:
        """Re-check the certificate from scratch, exactly.

        The Gram matrix must be m x m and symmetric for m basis elements
        (False, never an exception, when it is not), v^T G v must equal the
        certified form exactly, and ldl_psd must find G PSD.  A negative N,
        or one that lifts the target above twice the largest basis degree,
        is rejected before (sum x_i^2)^N is built.  So is a basis element,
        multiplier or modulus over another ring than the target, and a
        multiplier without a modulus or the other way round.
        """
        m = len(self.basis)
        gram = self.gram
        if len(gram) != m or any(len(row) != m for row in gram):
            return False
        extras = [p for p in (self.multiplier, self.modulus) if p is not None]
        if len(extras) == 1 or any(p.nvars != self.target.nvars for p in [*self.basis, *extras]):
            return False
        if any(gram[i][j] != gram[j][i] for i in range(m) for j in range(i)):
            return False
        N, top = self.denominator_power, max((b.total_degree() for b in self.basis), default=0)
        if N < 0 or self.target.total_degree() + 2 * N > 2 * top:
            return False
        acc = Polynomial.zero(self.target.nvars)
        for i, bi in enumerate(self.basis):
            for j, bj in enumerate(self.basis):
                c = gram[i][j]
                if c:
                    acc = acc + bi * bj * c
        expected = self.certified_form()
        if extras:
            expected = expected - self.multiplier * self.modulus
        return acc == expected and ldl_psd(gram).is_psd

    def to_jsonable(self, names: Optional[list[str]] = None) -> dict:
        names = names or default_names(self.target.nvars)

        return {
            "vars": list(names),
            "basis": [format_poly(b, names) for b in self.basis],
            "gram": [[frac_json(x) for x in row] for row in self.gram],
            "N": self.denominator_power,
            "target": format_poly(self.target, names),
            "multiplier": None if self.multiplier is None else format_poly(self.multiplier, names),
            "modulus": None if self.modulus is None else format_poly(self.modulus, names),
        }

    def to_json(self, names: Optional[list[str]] = None) -> str:
        return json.dumps(self.to_jsonable(names), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SosCertificate":
        data = json.loads(text)
        names = array_from_json(data["vars"], item=str_from_json)
        basis = [parse_poly(s, names) for s in array_from_json(data["basis"], item=str_from_json)]
        gram = array_from_json(data["gram"], 2)
        if type(data["N"]) is not int:
            raise ValueError(f"N must be a JSON integer, got {data['N']!r}")
        mult = data.get("multiplier")
        mod = data.get("modulus")
        return cls(
            basis=basis,
            gram=gram,
            denominator_power=data["N"],
            target=parse_poly(str_from_json(data["target"]), names),
            multiplier=None if mult is None else parse_poly(str_from_json(mult), names),
            modulus=None if mod is None else parse_poly(str_from_json(mod), names),
        )


def _certify_from_vector(
    sys: GramSystem,
    vec: list[Fraction],
    target: Polynomial,
    N: int,
) -> Optional[SosCertificate]:
    G = sys.matrix_from_vector(vec)
    if not ldl_psd(G).is_psd:
        return None
    multiplier = None
    if sys.modulus is not None:
        # the family solves v^T G v + p*f = F, i.e. F - p*f is the square sum
        multiplier = Polynomial(target.nvars, dict(zip(sys.mult_monos, vec[len(sys.pairs):])))
    return SosCertificate(
        basis=list(sys.basis),
        gram=G,
        denominator_power=N,
        target=target,
        multiplier=multiplier,
        modulus=sys.modulus,
    )


def _round_and_certify(
    sys: GramSystem,
    xfloat,
    target: Polynomial,
    N: int,
) -> Optional[SosCertificate]:
    for Q in ROUNDING_DENOMINATORS:
        rounded = [Fraction(round(float(v) * Q), Q) for v in xfloat]
        vec = sys.project_exact(rounded)
        cert = _certify_from_vector(sys, vec, target, N)
        if cert is not None:
            return cert
    return None


def _sum_of_var_squares(nvars: int) -> Polynomial:
    acc = Polynomial.zero(nvars)
    for i in range(nvars):
        v = Polynomial.variable(nvars, i)
        acc = acc + v * v
    return acc


def certify_sos(F: Polynomial, max_denominator_power: int = 0) -> Verdict:
    """Decide whether (sum x_i^2)^N * F is a sum of squares for some N <= budget.

    CERTIFIED_YES carries an exact SosCertificate.  CERTIFIED_NO is issued
    only on an exact refutation (unique Gram point that is not PSD, or no
    Gram matrix at all); it soundly implies F itself is not a sum of squares.
    """
    if max_denominator_power < 0:
        raise ValueError(f"max_denominator_power must be nonnegative, got {max_denominator_power}")
    if F.is_zero():
        cert = SosCertificate(basis=[], gram=[], denominator_power=0, target=F)
        return certified_yes(witness=cert, detail="zero polynomial is the empty sum of squares")
    if not F.is_homogeneous():
        raise ValueError("target must be homogeneous")
    if F.total_degree() % 2:
        raise ValueError("target must have even degree")

    zeros, neg = scan_small_points(F)
    if neg is not None:
        return certified_no(
            witness={"point": neg, "value": F.evaluate(neg)},
            detail="target is negative at an integer point, hence not a sum of squares",
        )
    geometry = _ZeroGeometry(F, zeros) if zeros else None
    obstruction = second_order_obstruction(F, zeros, _geometry=geometry)
    if obstruction is not None:
        return certified_no(
            witness=obstruction,
            detail=f"local obstruction at a real zero: {obstruction['kind']}; "
            "no denominator power can repair it",
        )

    s2 = _sum_of_var_squares(F.nvars) if max_denominator_power > 0 else None
    refuted: list[int] = []
    refute_witness = None
    refute_detail = ""
    for N in range(max_denominator_power + 1):
        FN = F * s2**N if N else F
        use_basis = constrain_basis_to_zeros(_auto_basis(FN), zeros, F, _geometry=geometry)
        if not use_basis:
            refuted.append(N)
            refute_witness = {"N": N, "zeros": zeros}
            refute_detail = "no candidate square vanishes at all exact zeros of the target"
            continue
        try:
            sys = GramSystem(FN, use_basis)
        except GramInfeasibleError as exc:
            refuted.append(N)
            refute_witness = {"N": N}
            refute_detail = f"no Gram matrix exists over the basis at denominator power {N}: {exc}"
            continue
        if sys.nullspace_dim == 0:
            vec = sys.particular_vector()
            cert = _certify_from_vector(sys, vec, F, N)
            if cert is not None:
                return certified_yes(witness=cert, detail=f"unique Gram matrix is PSD (N={N})")
            refuted.append(N)
            refute_witness = {"N": N, "gram": sys.particular_matrix()}
            refute_detail = f"unique Gram matrix at denominator power {N} is not PSD"
            continue
        xfloat = solve_sdp(sys)
        if xfloat is None:
            continue
        cert = _round_and_certify(sys, xfloat, F, N)
        if cert is not None:
            return certified_yes(witness=cert, detail=f"exact PSD Gram certificate (N={N})")
    # not SOS at power N implies not SOS at any smaller power (multiply by
    # the square sum), so an exact refutation at the top power settles all
    if refuted and refuted[-1] == max_denominator_power:
        return certified_no(
            witness=refute_witness,
            detail=f"{refute_detail}; exact refutation at power {refuted[-1]} "
            "covers every smaller denominator power",
        )
    if refuted:
        return unknown(
            witness=refute_witness,
            detail=f"exactly refuted up to denominator power {max(refuted)} "
            f"(in particular the target itself is not a sum of squares), "
            f"no certificate found through power {max_denominator_power}",
        )
    return unknown(detail=f"no SOS certificate found for denominator powers 0..{max_denominator_power}")


def certify_sos_mod_f(F: Polynomial, f: Polynomial) -> Verdict:
    """Search for a multiplier p with F - p*f a sum of squares.

    The multiplier's coefficients (homogeneous of degree deg F - deg f) join
    the Gram unknowns as exact linear variables, one column of the equation
    table each.  Every coefficient is a free direction of the family, so it
    is never a single point, and the answer is CERTIFIED_YES or UNKNOWN,
    never CERTIFIED_NO.
    """
    if f.is_zero():
        raise ValueError("modulus polynomial must be nonzero")
    if F.nvars != f.nvars:
        raise ValueError(f"F has {F.nvars} variables but f has {f.nvars}")
    if not F.is_homogeneous() or not f.is_homogeneous():
        raise ValueError("both polynomials must be homogeneous")
    d = f.total_degree()
    if F.is_zero():
        cert = SosCertificate(
            basis=[], gram=[], denominator_power=0, target=F,
            multiplier=Polynomial.zero(F.nvars), modulus=f,
        )
        return certified_yes(witness=cert, detail="zero polynomial: empty sum with zero multiplier")
    if F.total_degree() != 2 * d - 2:
        raise ValueError(f"deg F = {F.total_degree()} but 2*deg f - 2 = {2 * d - 2}")
    if d < 2:
        raise ValueError("modulus degree must be at least 2")
    basis = _unit_monomials(F.nvars, monomials_of_degree(F.nvars, d - 1))
    mult_monos = monomials_of_degree(F.nvars, d - 2)
    sys = GramSystem(F, basis, modulus=f, mult_monos=mult_monos)
    xfloat = solve_sdp(sys)
    if xfloat is not None:
        cert = _round_and_certify(sys, xfloat, F, 0)
        if cert is not None:
            return certified_yes(witness=cert, detail="exact PSD Gram certificate modulo f")
    return unknown(detail="no modulo-f SOS certificate found (family is not a single point)")


def sos_cone_membership(inst, a: Sequence, max_denominator_power: int = 2) -> Verdict:
    """Inner SOS relaxation of closed hyperbolicity-cone membership.

    CERTIFIED_YES (the membership Wronskian times a denominator power is a
    sum of squares) soundly places a in the closed cone.  The relaxation is
    one-sided: an SOS refutation never disproves membership, so it is
    reported as UNKNOWN with SOS_REFUTED in the detail.
    """
    from .hypercone import wronskian_delta

    delta = wronskian_delta(inst.f, inst.e, a)
    v = certify_sos(delta, max_denominator_power)
    if v.is_yes:
        return certified_yes(witness=v.witness, detail=f"membership Wronskian certified SOS ({v.detail})")
    if v.is_no:
        return unknown(
            witness=v.witness,
            detail=f"SOS_REFUTED: {v.detail}; the relaxation is one-sided so membership stays undecided",
        )
    return unknown(detail=f"relaxation inconclusive: {v.detail}")
