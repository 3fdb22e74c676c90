"""The integer kernels of the detrep path against their Fraction references.

- verify_detrep's determinant identity against poly_determinant(rep.pencil())
  == gamma * f, on built representations, on rational congruences of them,
  and on seeded mutations of both (a mutated pencil never verifies);
- check_multiaffine_stable's sampling from the partials of f against
  evaluating every expanded Delta_ij f at every point;
- the builder on Wronskians that are squares over R but not over Q, with
  mu chosen along a spanning tree of the nonzero ones.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from hypersos import cli, detrep
from hypersos.corpus import gen_elementary_symmetric, gen_product
from hypersos.detrep import (
    DeterminantalRep,
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
from hypersos.hypercone import SampleConfig, delta_ij
from hypersos.polycore import Polynomial, parse_poly, poly_determinant

CFG = SampleConfig(trials=24, seed=5, coordinate_bound=4)


def reference_identity(rep, f):
    return poly_determinant(rep.pencil()) == f * rep.gamma


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