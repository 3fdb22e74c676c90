"""The integer kernels of the detrep path against their Fraction references.

- verify_detrep's determinant identity (poly_determinant of the pencil)
  against the signed sum over permutations of reference_det.py, on built
  representations, on rational congruences of them, and on seeded
  mutations of both (a mutated pencil never verifies);
- check_multiaffine_stable's sampling from the partials of f against
  evaluating every expanded Delta_ij f at every point;
- the builder on Wronskians that are squares over R but not over Q, with
  mu chosen along a spanning tree of the nonzero ones;
- the builder's integer pencil (one fraction-free adjugate per point)
  against a Fraction reference that solves [A(p) | -I] per point, the
  elimination against solve_linear and mat_det, matrix_at against a
  Fraction sum, and exact_divide against a Fraction long division, on
  seeded pairs and on the edge cases of its packed keys' guard bits;
- detrep-build's stdout and certificate on the detrep workload's inputs,
  pinned by sha256.
"""

import hashlib
import io
import itertools
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from reference_det import det_by_permutations

from hypersos import cli, detrep
from hypersos.corpus import gen_elementary_symmetric, gen_product
from hypersos.detrep import (
    DeterminantalRep,
    DetRepError,
    InterlacerMatrix,
    IrrationalEntry,
    NoRep,
    _det_is,
    _first_negatives,
    build_detrep_multiaffine,
    check_multiaffine_stable,
    interlacer_matrix_multiaffine,
    verify_detrep,
)
from hypersos.exactla import int_det_adjugate, mat_det, solve_affine_family, solve_linear
from hypersos.hypercone import SampleConfig, delta_ij
from hypersos.polycore import Polynomial, exact_divide, format_poly, grlex_key, parse_poly, poly_determinant

CFG = SampleConfig(trials=24, seed=5, coordinate_bound=4)


def reference_identity(rep, f):
    assert rep.size <= 6
    return det_by_permutations(rep.pencil()) == f * rep.gamma


def rank_one_det(vectors, weights):
    """det(sum_i w_i x_i v_i v_i^T) as a Polynomial in len(vectors) variables."""
    n, d = len(vectors), len(vectors[0])
    pencil = [[Polynomial(n, {tuple(int(k == i) for k in range(n)): weights[i] * v[r] * v[c]
                              for i, v in enumerate(vectors)}) for c in range(d)] for r in range(d)]
    return poly_determinant(pencil)


def rank_one_vectors(rng, n, d):
    """n vectors in Z^d, every d of them independent."""
    while True:
        vs = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]
        if all(poly_determinant([[Polynomial.const(1, vs[i][c]) for c in range(d)] for i in s])
               for s in itertools.combinations(range(n), d)):
            return vs


def built_reps():
    """(f, rep) for the shapes of the detrep workload: e_{d+1,d}, products, rank-one pencils."""
    rng = random.Random(7)
    inputs = [(gen_elementary_symmetric(d + 1, d), d) for d in (3, 4, 5)]
    inputs += [(gen_product(d), d) for d in (3, 4)]
    for n, d in ((6, 3), (6, 4), (5, 5)):
        inputs.append((rank_one_det(rank_one_vectors(rng, n, d), [1] * n), d))
    out = []
    for f, d in inputs:
        rep = build_detrep_multiaffine(f, list(range(d)), [1] * f.nvars)
        assert isinstance(rep, DeterminantalRep)
        out.append((f, rep))
    return out


def congruence(rep, rng):
    """P M_i P^T with P unit upper triangular over large distinct denominators: gamma is unchanged."""
    d = rep.size
    P = [[Fraction(int(r == c)) if c <= r else Fraction(rng.randint(-9, 9), 10**12 + 7 * (r * d + c))
          for c in range(d)] for r in range(d)]

    def conj(M):
        PM = [[sum(P[r][k] * M[k][c] for k in range(d)) for c in range(d)] for r in range(d)]
        return [[sum(PM[r][k] * P[c][k] for k in range(d)) for c in range(d)] for r in range(d)]

    return DeterminantalRep([conj(M) for M in rep.matrices], list(rep.e), rep.gamma)


def mutations(rep, rng):
    """Seeded single changes: one entry (kept symmetric), gamma, or a tiny large-denominator shift."""
    d, n = rep.size, rep.nvars
    for k in range(6):
        i, r, c = rng.randrange(n), rng.randrange(d), rng.randrange(d)
        delta = rng.choice([Fraction(1), Fraction(-2), Fraction(1, 10**15 + 37 * k), Fraction(-3, 2**61 - 1)])
        mats = [[list(row) for row in M] for M in rep.matrices]
        mats[i][r][c] += delta
        if r != c:
            mats[i][c][r] += delta
        yield DeterminantalRep(mats, list(rep.e), rep.gamma)
    for factor in (Fraction(-1), Fraction(2), 1 + Fraction(1, 10**18 + 9)):
        yield DeterminantalRep(rep.matrices, list(rep.e), rep.gamma * factor)


def test_det_identity_agrees_with_poly_determinant_on_built_and_mutated_pencils():
    rng = random.Random(2626)
    checked = 0
    for f, rep in built_reps():
        for base in (rep, congruence(rep, rng)):
            assert reference_identity(base, f) and _det_is(base, f)
            assert verify_detrep(base, f)
            for bad in mutations(base, rng):
                assert not reference_identity(bad, f)
                assert not _det_is(bad, f)
                assert not verify_detrep(bad, f)
                checked += 1
        # the right pencil against the wrong polynomial
        for g in (f * Fraction(3, 2), f + Polynomial.monomial(f.nvars, [rep.size] + [0] * (f.nvars - 1)),
                  f * Polynomial.variable(f.nvars, 0), Polynomial.zero(f.nvars)):
            assert _det_is(rep, g) == reference_identity(rep, g) is False
    assert checked >= 140


def test_det_identity_agrees_with_poly_determinant_on_random_pencils():
    # symmetric pencils with zero entries, zero matrices and singular ones,
    # against f = det / gamma, a perturbed f, and f = 0
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n, d = rng.randint(1, 4), rng.randint(1, 5)
        mats = []
        for _ in range(n):
            M = [[Fraction(0)] * d for _ in range(d)]
            if rng.random() < 0.85:
                for r in range(d):
                    for c in range(r, d):
                        if rng.random() < 0.6:
                            M[r][c] = M[c][r] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 10**9 + 7]))
            mats.append(M)
        gamma = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 4, 7]))
        rep = DeterminantalRep(mats, [1] * n, gamma)
        det = poly_determinant(rep.pencil())
        candidates = [det * (1 / gamma), Polynomial.zero(n)]
        if det:
            m = next(iter(det.terms))
            candidates.append(det * (1 / gamma) + Polynomial.monomial(n, m, Fraction(1, 10**12)))
        for f in candidates:
            expected = reference_identity(rep, f)
            assert _det_is(rep, f) == expected
            seen[expected] += 1
    assert min(seen.values()) >= 100, seen


def test_det_identity_is_polynomial_in_the_size():
    # a 24 x 24 pencil P diag(a_i x1 + b_i x2) P^T with P unit lower triangular:
    # det = prod (a_i x1 + b_i x2), gamma = 1.  Expanding over column subsets
    # would take about 2e8 products here; elimination takes well under a second
    rng = random.Random(24)
    d = 24
    diag = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(d)]
    P = [[Fraction(int(r == c)) if c >= r else Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))
          for c in range(d)] for r in range(d)]
    mats = [[[sum(P[r][k] * ab[i] * P[c][k] for k, ab in enumerate(diag)) for c in range(d)] for r in range(d)]
            for i in range(2)]
    f = Polynomial.const(2, 1)
    for a, b in diag:
        f = f * Polynomial(2, {(1, 0): a, (0, 1): b})
    rep = DeterminantalRep(mats, [1, 1], Fraction(1))
    start = time.perf_counter()
    assert verify_detrep(rep, f)
    bad = DeterminantalRep([[list(row) for row in M] for M in mats], [1, 1], Fraction(1))
    bad.matrices[1][d - 1][0] += Fraction(1, 10**12 + 39)
    bad.matrices[1][0][d - 1] += Fraction(1, 10**12 + 39)
    assert not verify_detrep(bad, f)
    assert time.perf_counter() - start < 20


def reference_first_negatives(f, cfg):
    """Per nonzero Delta_ij (pair-major), its first sampled negative (point, value), from the expanded Delta."""
    n = f.nvars
    nonzero = [(pair, dl) for pair in itertools.combinations(range(n), 2)
               if not (dl := delta_ij(f, *pair)).is_zero()]
    out = {}
    for p in cfg.vectors(n):
        for k, (_, dl) in enumerate(nonzero):
            v = dl.evaluate(p)
            if v < 0 and k not in out:
                out[k] = (p, v)
    return [pair for pair, _ in nonzero], out


def non_stable_inputs(rng, count):
    """Multiaffine forms with rational coefficients; some leave variables out, some are block products."""
    for k in range(count):
        n = rng.randint(3, 6)
        d = rng.randint(1, min(n, 4))
        if k % 3 == 2:
            # linear forms on disjoint blocks: every pair across the blocks has Delta = 0
            unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            left = Polynomial(n, {unit[j]: rng.randint(-3, 3) for j in range(2)})
            right = Polynomial(n, {unit[j]: Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for j in range(2, n)})
            yield left * right
            continue
        support = range(n - 1) if k % 3 == 1 else range(n)  # the last variable left out
        terms = {}
        for s in itertools.combinations(support, min(d, len(support))):
            if rng.random() < 0.8:
                coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6))
                terms[tuple(int(i in s) for i in range(n))] = coeff
        yield Polynomial(n, terms)


def test_sampling_from_partials_matches_expanded_wronskians():
    rng = random.Random(404)
    refuted = zero_pairs = 0
    for f in non_stable_inputs(rng, 90):
        if f.is_zero():
            continue
        pairs, expected = reference_first_negatives(f, CFG)
        assert _first_negatives(f, pairs, CFG) == expected
        zero_pairs += len(pairs) < f.nvars * (f.nvars - 1) // 2
        v = check_multiaffine_stable(f, CFG, sos_budget=0)
        if expected:
            k = min(expected)
            p, value = expected[k]
            assert v.is_no and v.witness == {"pair": pairs[k], "point": p, "value": value}
            refuted += 1
        else:
            assert not v.is_no
    assert refuted >= 30 and zero_pairs >= 30, (refuted, zero_pairs)


# -- Wronskians that are squares over R but not over Q ---------------------------


def test_square_over_the_reals_builds_a_verified_pencil():
    f = parse_poly("x*y + 2*x*z + y*z", ["x", "y", "z"])
    A = interlacer_matrix_multiaffine(f, [0, 1])
    assert not isinstance(A, NoRep)
    rep = build_detrep_multiaffine(f, [0, 1], [1, 1, 1])
    assert isinstance(rep, DeterminantalRep) and verify_detrep(rep, f)
    # the cubic det(sum x_i w_i v_i v_i^T): Delta_12 is a rational multiple of a square, not a square over Q
    vs = [(-2, -2, -3), (-2, -1, -2), (-2, 1, 1), (-1, 1, 2), (1, -2, 0)]
    g = rank_one_det(vs, (1, 2, 3, 5, 7))
    rep = build_detrep_multiaffine(g, [0, 1, 2], [1] * 5)
    assert isinstance(rep, DeterminantalRep) and verify_detrep(rep, g)


def test_norep_only_when_not_a_square_over_the_reals():
    names = ["x1", "x2", "x3"]
    # Delta_12 = -x3^2: a negative leading coefficient
    f = parse_poly("x1*x2 + x1*x3 - x2*x3", names)
    out = build_detrep_multiaffine(f, [0, 1], [1, 1, 1])
    assert isinstance(out, NoRep) and out.delta == parse_poly("-x3^2", names)
    # e_{4,2}: Delta_12 = x3^2 + x3*x4 + x4^2 has no real square root
    out = build_detrep_multiaffine(gen_elementary_symmetric(4, 2), [0, 1], [1] * 4)
    assert isinstance(out, NoRep) and out.pair == (0, 1)


def non_square_wronskian_constants(monkeypatch, factors):
    """Report Delta_ab = lam * s^2 with lam times the next factor, pair by pair.

    mu follows a spanning tree of the nonzero Wronskians, so an entry stays
    irrational only on a cycle whose lam product is not a square; the inputs
    here have none, so their constants are scaled to make one.
    """
    real, scale = detrep._square_times_constant, iter(factors)

    def scaled(p):
        lam, root = real(p)
        return lam * next(scale), root

    monkeypatch.setattr(detrep, "_square_times_constant", scaled)


def test_irrational_entry_is_undecided(monkeypatch):
    # e_{4,3} along x1, x2, x3 with lam = 2, 3, 5 on the pairs 12, 13, 23:
    # the tree gives mu = (1, 2, 3), and the (2, 3) entry stays sqrt(30) * s
    f = gen_elementary_symmetric(4, 3)
    with monkeypatch.context() as m:
        non_square_wronskian_constants(m, [2, 3, 5])
        with pytest.raises(IrrationalEntry) as exc:
            build_detrep_multiaffine(f, [0, 1, 2], [1] * 4)
    assert exc.value.pair == (1, 2)
    # a cycle whose lam product is a square leaves every entry rational
    with monkeypatch.context() as m:
        non_square_wronskian_constants(m, [2, 3, 6])
        assert isinstance(interlacer_matrix_multiaffine(f, [0, 1, 2]), InterlacerMatrix)
    # a zero Wronskian needs no scale: here Delta_13 = 6 x2^2 x4^2 and the others vanish
    g = parse_poly("6*x1*x2*x3 + 3*x1*x2*x4 + 2*x2*x3*x4", ["x1", "x2", "x3", "x4"])
    rep = build_detrep_multiaffine(g, [0, 1, 2], [1] * 4)
    assert isinstance(rep, DeterminantalRep) and verify_detrep(rep, g)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_cli_square_over_the_reals_exits_0_and_verifies(capsys, tmp_path):
    common = ["--poly", "x*y+2*x*z+y*z", "--vars", "x,y,z", "--no-timings"]
    path = tmp_path / "rep.json"
    code, _ = run_cli(capsys, "detrep-build", *common, "--dvars", "x,y", "--e", "1,1,1", "--cert-out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "detrep-verify", *common, "--rep", f"@{path}")
    assert code == 0 and json.loads(out)["ok"] is True
    given = ('{"matrices": [[["1","0"],["0","0"]], [["0","0"],["0","2"]], [["1","2"],["2","4"]]], '
             '"e": ["1","1","1"], "gamma": "2"}')
    code, out = run_cli(capsys, "detrep-verify", *common, "--rep", given)
    assert code == 0 and json.loads(out)["ok"] is True


def test_cli_irrational_entry_exits_2(capsys, monkeypatch):
    non_square_wronskian_constants(monkeypatch, [2, 3, 5])
    code, out = run_cli(capsys, "detrep-build", "--poly", "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4",
                        "--vars", "x1,x2,x3,x4", "--dvars", "x1,x2,x3", "--e", "1,1,1,1", "--no-timings")
    verdict = json.loads(out)["verdict"]
    assert code == 2 and verdict["status"] == "UNKNOWN" and verdict["witness"] == {"pair": ["x2", "x3"]}

# -- the integer pencil, its elimination, matrix_at and exact division ------------


def fraction_value(p, point):
    """p at a rational point, term by term in Fractions."""
    return sum((c * math.prod(x**k for x, k in zip(point, m)) for m, c in p.terms.items()), Fraction(0))


def reference_pencil(built, evec):
    """(matrices, kappa) from Fraction values of the entries, each A(p)^-1 from one solve of [A(p) | -I]."""
    f, d = built.f, len(built.entries)

    def values(p):
        return [[fraction_value(x, p) for x in row] for row in built.entries], fraction_value(f, p)

    def pencil_value(A, scale, point):
        rows = [{**dict(enumerate(row)), d + r: -1} for r, row in enumerate(A)]
        _, null = solve_affine_family(rows, [0] * d, 2 * d)
        if any(next(reversed(v)) < d for v in null):
            shown = ", ".join(map(str, point))
            raise DetRepError(f"A is singular at ({shown}), where f is not zero; no pencil fits")
        return [[scale * v.get(r, 0) for r in range(d)] for v in null]

    Ae, fe = values(evec)
    if fe == 0:
        raise DetRepError("f(e) = 0: no pencil is definite at e")
    kappa = mat_det(Ae) / fe ** (d - 1)
    base = pencil_value(Ae, kappa * fe, evec)
    matrices = []
    for k in range(len(evec)):
        for s in range(1, d + 2):
            p = list(evec)
            p[k] += s
            Ap, fp = values(p)
            if fp:
                break
        Mp = pencil_value(Ap, kappa * fp, p)
        matrices.append([[(x - y) / s for x, y in zip(rp, rb)] for rp, rb in zip(Mp, base)])
    return matrices, kappa


def bench_inputs():
    """(name, f, d) for the detrep workload's detrep-build inputs, rank-one vectors drawn as at its seed 7."""
    rng = random.Random(7)
    out = [(f"e{d + 1}{d}", gen_elementary_symmetric(d + 1, d), d) for d in (3, 4, 5)]
    out += [(f"product{d}", gen_product(d), d) for d in (3, 4, 5)]
    out += [(f"rank1.n{n}d{d}", rank_one_det(rank_one_vectors(rng, n, d), [1] * n), d)
            for n, d in ((6, 3), (6, 4), (7, 3), (6, 5))]
    out += [("e42", gen_elementary_symmetric(4, 2), 2), ("e53", gen_elementary_symmetric(5, 3), 3)]
    return out


def congruent(built, rng):
    """P A P^T for P unit upper triangular over large distinct denominators, as a forged interlacer matrix."""
    d, A = len(built.entries), built.entries
    P = [[Fraction(int(r == c)) if c <= r else Fraction(rng.randint(-9, 9), 10**15 + 11 * (r * d + c))
          for c in range(d)] for r in range(d)]
    zero = Polynomial.zero(built.f.nvars)
    PA = [[sum((A[k][c] * P[r][k] for k in range(d) if P[r][k]), zero) for c in range(d)] for r in range(d)]
    PAPt = [[sum((PA[r][k] * P[c][k] for k in range(d) if P[c][k]), zero) for c in range(d)] for r in range(d)]
    return InterlacerMatrix(entries=PAPt, f=built.f, dvars=built.dvars)


def pencil_cases():
    """(built, e): the bench inputs, seeded rank-one pencils with rational vectors, and congruences."""
    rng = random.Random(2929)
    for _, f, d in bench_inputs():
        built = interlacer_matrix_multiaffine(f, list(range(d)))
        if isinstance(built, InterlacerMatrix):
            yield built, [1] * f.nvars
            yield congruent(built, rng), [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(f.nvars)]
    for _ in range(24):
        n, d = rng.randint(3, 6), rng.randint(2, 4)
        n = max(n, d)
        while True:
            vs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d)] for _ in range(n)]
            if all(mat_det([vs[i] for i in sub]) for sub in itertools.combinations(range(n), d)):
                break
        f = rank_one_det(vs, [rng.choice([1, 4, Fraction(9, 4)]) for _ in range(n)])
        built = interlacer_matrix_multiaffine(f, list(range(d)))
        yield built, [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)]
    # forged matrices whose entries differ in degree, or are inhomogeneous
    names = ["x", "y", "z"]
    f = parse_poly("x*y + y*z + x*z", names)
    for texts in ((("x^2 + 1/3*y", "z + x"), ("z + x", "y + 2")), (("x", "0"), ("0", "y^3 - z/5"))):
        entries = [[parse_poly(t, names) for t in row] for row in texts]
        for e in ([1, 1, 1], [Fraction(1, 2), 3, Fraction(2, 7)]):
            yield InterlacerMatrix(entries=entries, f=f, dvars=[0, 1]), e


def outcome(pencil, built, e):
    try:
        return pencil(built, e)
    except DetRepError as exc:
        return str(exc)


def test_integer_pencil_matches_the_fraction_reference():
    checked = large = 0
    for built, e in pencil_cases():
        got = outcome(detrep._pencil, built, e)
        assert got == outcome(reference_pencil, built, e)
        checked += not isinstance(got, str)
        large += built._den > 10**30
    assert checked >= 44 and large >= 8, (checked, large)


def test_integer_pencil_raises_the_reference_errors():
    x = [Polynomial.variable(2, i) for i in range(2)]
    f = x[0] * x[1]
    cases = [
        # det A = 0 everywhere, so A(e) is singular
        (InterlacerMatrix(entries=[[x[0], x[0]], [x[0], x[0]]], f=f, dvars=[0, 1]), [1, 1]),
        # det A = x1^2 - 4 x2^2: regular at e = (1, 1), singular at e + e_1 = (2, 1), where f = 2
        (InterlacerMatrix(entries=[[x[0], x[1] * 2], [x[1] * 2, x[0]]], f=f, dvars=[0, 1]), [1, 1]),
        (InterlacerMatrix(entries=[[x[0], x[1] * 2], [x[1] * 2, x[0]]], f=f, dvars=[0, 1]), [Fraction(1, 2), 0]),
    ]
    messages = []
    for built, e in cases:
        with pytest.raises(DetRepError) as ref:
            reference_pencil(built, e)
        with pytest.raises(DetRepError) as got:
            detrep._pencil(built, e)
        assert str(got.value) == str(ref.value)
        messages.append(str(got.value))
    assert messages == [
        "A is singular at (1, 1), where f is not zero; no pencil fits",
        "A is singular at (2, 1), where f is not zero; no pencil fits",
        "f(e) = 0: no pencil is definite at e",
    ]


def test_det_adjugate_matches_solves_and_mat_det():
    rng = random.Random(29)
    singular = 0
    for _ in range(400):
        n = rng.randint(0, 7)
        N = [[rng.choice([0, 0, rng.randint(-3, 3), rng.randint(-10**12, 10**12)]) for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.2:  # a repeated row, up to a factor
            N[-1] = [3 * x for x in N[0]]
        det, adj = int_det_adjugate(N)
        assert det == mat_det(N)
        if not det:
            assert adj is None
            singular += 1
            continue
        for c in range(n):
            column = solve_linear(N, [Fraction(int(r == c)) for r in range(n)])
            assert [Fraction(adj[r][c], det) for r in range(n)] == column
    assert int_det_adjugate([]) == (1, [])
    assert singular >= 40, singular


def test_matrix_at_matches_a_fraction_sum_and_checks_the_length():
    rng = random.Random(31)
    for f, rep in built_reps():
        for base in (rep, congruence(rep, rng)):
            for _ in range(3):
                p = [rng.choice([0, 1, Fraction(rng.randint(-7, 7), rng.randint(1, 10**9))]) for _ in range(rep.nvars)]
                expected = [[sum((x * Mi[r][c] for x, Mi in zip(p, base.matrices)), Fraction(0))
                             for c in range(rep.size)] for r in range(rep.size)]
                assert base.matrix_at(p) == expected
    rep = DeterminantalRep([[[Fraction(1)]], [[Fraction(2)]]], [1, 1], Fraction(1))
    assert rep.matrix_at([1, Fraction(1, 2)]) == [[2]]
    for point in ([1, 2, 3], [1]):
        with pytest.raises(ValueError, match=f"point length {len(point)} != nvars 2"):
            rep.matrix_at(point)


def naive_divide(p, f):
    """p / f by long division over Fractions under graded lex, or None when f does not divide p."""
    lead_m, lead_c = f.leading_term()
    quo, rem = {}, dict(p.terms)
    while rem:
        m = max(rem, key=grlex_key)
        if any(x > y for x, y in zip(lead_m, m)):
            return None
        qm = tuple(y - x for x, y in zip(lead_m, m))
        qc = quo[qm] = rem[m] / lead_c
        for fm, fc in f.terms.items():
            k = tuple(a + b for a, b in zip(fm, qm))
            v = rem.get(k, 0) - qc * fc
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return Polynomial(p.nvars, quo)


def random_poly(rng, n, degree, terms, denominators):
    out = {}
    for _ in range(terms):
        m = [0] * n
        for _ in range(rng.randint(0, degree)):
            if n:
                m[rng.randrange(n)] += 1
        out[tuple(m)] = Fraction(rng.randint(-6, 6), rng.choice(denominators))
    return Polynomial(n, out)


def test_exact_divide_matches_fraction_long_division():
    rng = random.Random(2929)
    seen = {"divisible": 0, "not": 0, "zero": 0}
    for k in range(600):
        n = rng.randint(0, 4)
        dens = [1] if k % 3 == 0 else [1, 2, 3, 7, 10**9 + 7]
        b = random_poly(rng, n, 3, rng.randint(1, 4), dens)
        if b.is_zero():
            continue
        if k % 4 == 1:  # non-primitive, or rational, divisor
            b = b * rng.choice([6, Fraction(3, 4), Fraction(-10**12, 7)])
        a = random_poly(rng, n, 3, rng.randint(0, 4), dens)
        p = a * b
        if k % 2:
            p = p + random_poly(rng, n, 4, 1, dens)
        expected = naive_divide(p, b)
        assert exact_divide(p, b) == expected
        seen["zero" if p.is_zero() else "not" if expected is None else "divisible"] += 1
    assert min(seen.values()) >= 20, seen


def test_exact_divide_guard_bit_edge_cases():
    # the keys hold exponents below 2^(width-1) for width = deg.bit_length() + 1,
    # so an exponent of 2^k - 1 fills its field up to the guard bit
    names = ["x", "y", "z"]
    cases = [("x*y^3", "x^2*y^2"), ("x^3*y + x*y^3", "x^2*y^2"), ("x^2*y^2*z - x*y^3*z", "x*y^2 - y^3"),
             ("x", "x^2"), ("x + y", "x*y - z^2"), ("0", "x - y"), ("0", "7/3"),
             # lc(F) does not divide a leading coefficient, though every monomial divides
             ("3*x + 3*y", "2*x + 3*y"), ("3*x^2 + 6*x*y + 9*y^2", "2*x + 3*y"), ("x + 2*y", "2*x + 4*y"),
             ("x^2 - 1/3*y*z + 5", "3"), ("x^2 - 1/3*y*z + 5", "-2/10000000007")]
    for D in (1, 2, 3, 4, 7, 8, 15, 16):
        cases += [(f"x^{D} - y^{D}", "x - y"), (f"x^{D} + z^{D}", "x + z"), (f"x^{D}", f"x^{D}"),
                  (f"x^{D - 1}*y", f"x^{D}"), (f"y^{D}", "x"), (f"z^{D}", "y"), (f"x*y^{D}", f"x^2*y^{D - 1}"),
                  (f"x^{D}*y^{D}*z^{D}", f"x^{D}*z^{D}"), (f"(x^{D} - 1)*(y^{D} + z)", f"y^{D} + z")]
    seen = {"divisible": 0, "not": 0}
    for ptext, ftext in cases:
        p, f = parse_poly(ptext, names), parse_poly(ftext, names)
        expected = naive_divide(p, f)
        assert exact_divide(p, f) == expected, (ptext, ftext)
        seen["not" if expected is None else "divisible"] += 1
    assert exact_divide(parse_poly("x*y^3", names), parse_poly("x^2*y^2", names)) is None
    assert exact_divide(parse_poly("x^15 - y^15", names), parse_poly("x - y", names)).total_degree() == 14
    assert min(seen.values()) >= 25, seen


# detrep-build on the detrep workload's inputs: (exit code, sha256 of stdout, sha256 of --cert-out)
BUILD_SHA256 = {
    "e43": (0, "7139e22c7b153edaeda0169ddc9503330ecb55c5e9a4e6b4a169860e370d9536",
            "4ff1b4c0b53717deb42b180879a6dd3d25f530dc99359bcae61bce7c945c0b9f"),
    "e54": (0, "7b96a2e2ee4619d7dfa8f4b5dc0e10faacf5a6ca600c3475ece11f0eba026d8a",
            "3d002f8e6234267e17892d9641a4658bd3fc7f4e42123bb6df82e2c8e0f9e24a"),
    "e65": (0, "e9be1e53fad93b6e90e702a09777c2c0f0095abf64ebec1b3e3bf7df2940888e",
            "1e9d0cbd0d1058abf5d50f6914736d5550ce5eb0719ab8b2b17ba8fb76c22440"),
    "product3": (0, "638740a7860a14ea78cf744566465cb551968d14448a1215b59340e0851ace80",
                 "bc9839065c943ffe9c6a863c4c56f4da433e6212ca4899c1a10163aed0ebb8a2"),
    "product4": (0, "1d1fab976551fa7bf92e08b0a84e9be276fceb2462af38edfe56b462d464413e",
                 "2a94c1f5237bb9b954319511d0302f6a5fdf38e2dbceb4eb13b8719873fb8ab1"),
    "product5": (0, "0485a21c0d3e24f2bf976061f10d78be248ec526c31cd5a973f9c17f275db437",
                 "ef8009ae395db75e7bcda12404b94c98e1e908f3d24e80b0b73bcc03795f8007"),
    "rank1.n6d3": (0, "0bd9b471adfbbbafba8ea5d4b5c21e2d9cb48d315c64752e3d4216ccab7a612b",
                   "2bd4793ab97aaea6d3cf0b6778484c3a4419e261c002189a6b4136dad6ecfb29"),
    "rank1.n6d4": (0, "e97975e8e353ceac05e2e21da379fd34b573da40fdeb476cb3273d8262570a71",
                   "5766bf5c45e6ad28766e7c405137601d74703db0f12c4f386e1e4290b0730493"),
    "rank1.n7d3": (0, "3fc3f108e983dd5f60edd6188aab451212159733d743d64211272692a9619bad",
                   "bbb6970e984ee95b75ae8ddb7659654d3cbe44862d1fa00eaf5cc34e777b1299"),
    "rank1.n6d5": (0, "78451c12e59db942ee8119248da89f32ff8385782d3f9a3d28abe9676eb2d6c8",
                   "42bd69d78f5def77d11cb65aad57491a9bc45d587e91506d61af2195aafc9f98"),
    "e42": (1, "3dd5ac3ade14c9e436af86ae792d1864a6d3cb3fddcc8495dc17d550b2539314", None),
    "e53": (1, "0c82fa96f68469392a4ef047f35cab7cb1a151de4f9db7d4d4bd0176cc66d938", None),
}


def test_build_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --cert-out keeps the path in stdout fixed
    got = {}
    for name, f, d in bench_inputs():
        names = [f"x{i + 1}" for i in range(f.nvars)]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["detrep-build", "--poly", format_poly(f, names), "--vars", ",".join(names),
                             "--dvars", ",".join(names[:d]), "--e", ",".join(["1"] * f.nvars),
                             "--no-timings", "--cert-out", "rep.json"])
        cert = tmp_path / "rep.json"
        digest = hashlib.sha256(cert.read_bytes()).hexdigest() if cert.exists() else None
        cert.unlink(missing_ok=True)
        got[name] = (code, hashlib.sha256(out.getvalue().encode()).hexdigest(), digest)
    assert got == BUILD_SHA256
