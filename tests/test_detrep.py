"""Stability tests, the representation builder, and determinant identities."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from hypersos import cli, detrep
from hypersos.corpus import gen_elementary_symmetric, gen_product
from hypersos.detrep import (
    DeterminantalRep,
    DetRepError,
    InterlacerMatrix,
    NoRep,
    bordered_determinant_identity,
    build_detrep_multiaffine,
    check_multiaffine_stable,
    interlacer_from_detrep,
    interlacer_matrix_multiaffine,
    verify_detrep,
)
from hypersos.exactla import mat_det, solve_linear
from hypersos.hypercone import (
    HyperbolicityInstance,
    SampleConfig,
    check_hyperbolic,
    delta_ij,
    interlaces,
)
from hypersos.polycore import (
    Polynomial,
    directional_derivative,
    parse_poly,
    perfect_square_root,
    poly_adjugate,
    poly_determinant,
)

CFG = SampleConfig(trials=16, seed=21)


def ones(n):
    return [Fraction(1)] * n


# -- stability -------------------------------------------------------------------


def test_stable_e2_three_vars():
    v = check_multiaffine_stable(gen_elementary_symmetric(3, 2), CFG, sos_budget=0)
    assert v.is_yes


def test_stable_rejects_non_multiaffine():
    with pytest.raises(ValueError):
        check_multiaffine_stable(parse_poly("x1^2", ["x1", "x2"]), CFG)


def test_stable_product_all_wronskians_vanish():
    assert check_multiaffine_stable(gen_product(4), CFG, sos_budget=0).is_yes


def test_unstable_multiaffine_refuted():
    f = parse_poly("x1*x2 - x3*x4", ["x1", "x2", "x3", "x4"])
    v = check_multiaffine_stable(f, CFG, sos_budget=0)
    assert v.is_no
    assert "pair" in v.witness


def test_unstable_witness_is_first_negative_pair_then_point():
    # the witness is the first negative (pair, point) in pair-major order,
    # exactly as a per-pair, per-point loop finds it
    import itertools
    import random

    rng = random.Random(2017)
    checked = 0
    for n, d in ((4, 2), (5, 2), (5, 3)):
        for _ in range(4):
            terms = {}
            for s in itertools.combinations(range(n), d):
                c = rng.choice((-2, -1, 1, 1, 2, 3))
                terms[tuple(int(i in s) for i in range(n))] = c
            f = Polynomial(n, terms)
            expected = None
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                delta = delta_ij(f, i, j)
                neg = [(p, v) for p in CFG.vectors(n) if (v := delta.evaluate(p)) < 0]
                if neg:
                    expected = {"pair": (i, j), "point": neg[0][0], "value": neg[0][1]}
                    break
            if expected is None:
                continue
            v = check_multiaffine_stable(f, CFG, sos_budget=0)
            assert v.is_no and v.witness == expected
            checked += 1
    assert checked >= 6


# -- the builder -----------------------------------------------------------------


def test_build_e2_three_vars():
    f = gen_elementary_symmetric(3, 2)
    rep = build_detrep_multiaffine(f, [0, 1], ones(3))
    assert isinstance(rep, DeterminantalRep)
    assert rep.gamma != 0
    assert verify_detrep(rep, f)


def test_build_e3_four_vars():
    f = gen_elementary_symmetric(4, 3)
    rep = build_detrep_multiaffine(f, [0, 1, 2], ones(4))
    assert isinstance(rep, DeterminantalRep)
    assert verify_detrep(rep, f)


def test_build_with_mu_along_a_spanning_tree(tmp_path, capsys):
    # x1 * (2 x2 x3 + 6 x2 x4 + x3 x4): Delta_12 = Delta_13 = 0 and
    # Delta_23 = 6 x1^2 x4^2, so the first row fixes no mu; the tree edge 23
    # gives mu = (1, 1, 6), and every entry of the interlacer matrix is rational
    common = ["--poly", "2*x1*x2*x3 + 6*x1*x2*x4 + x1*x3*x4", "--vars", "x1,x2,x3,x4", "--no-timings"]
    path = tmp_path / "rep.json"
    assert cli.main(["detrep-build", *common, "--dvars", "x1,x2,x3", "--e", "1,1,1,1", "--cert-out", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["status"] == "CERTIFIED_YES"
    assert cli.main(["detrep-verify", *common, "--rep", f"@{path}"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_build_products():
    for d in (2, 3, 4):
        f = gen_product(d)
        rep = build_detrep_multiaffine(f, list(range(d)), ones(d))
        assert isinstance(rep, DeterminantalRep)
        assert rep.gamma == 1
        # the pencil is diagonal with entries x_i
        for i in range(d):
            for r in range(d):
                for c in range(d):
                    expected = Fraction(1) if r == c == i else Fraction(0)
                    assert rep.matrices[i][r][c] == expected
        assert verify_detrep(rep, f)


def rank_one_determinant(rng, n, d):
    """det(sum x_i v_i v_i^T) by Cauchy-Binet, for n integer vectors in Z^d in
    general position (every d of them independent, so f is irreducible)."""
    while True:
        vs = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]
        dets = {s: mat_det([[Fraction(x) for x in vs[i]] for i in s])
                for s in itertools.combinations(range(n), d)}
        if all(dets.values()):
            return Polynomial(n, {tuple(int(i in s) for i in range(n)): c * c for s, c in dets.items()})


def reference_inputs():
    rng = random.Random(13)
    for d in (2, 3, 4, 5):
        yield gen_product(d), d, ones(d)
        yield gen_elementary_symmetric(d + 1, d), d, ones(d + 1)
    for n, d in ((6, 3), (6, 4), (7, 3), (6, 5)):
        yield rank_one_determinant(rng, n, d), d, ones(n)
    # det(diag(x1, x2, x3) - x4 J) at e = (3, 3, 3, 0): f(e + e_4) = 27 * (1 - 1) = 0,
    # so the point for x4 is e + 2 e_4
    f = parse_poly("x1*x2*x3 - x4*(x1*x2 + x1*x3 + x2*x3)", ["x1", "x2", "x3", "x4"])
    e = [Fraction(3)] * 3 + [Fraction(0)]
    assert f.evaluate(e) != 0 and f.evaluate(e[:3] + [Fraction(1)]) == 0
    yield f, 3, e


def test_pencil_from_points_is_the_adjugate_quotient():
    # the builder reads M at n + 1 points; the symbolic route adj(A) = f^(d-2) M
    # is the reference, up to the negation that makes M(e) positive definite
    for f, d, e in reference_inputs():
        A = interlacer_matrix_multiaffine(f, list(range(d))).entries
        rep = build_detrep_multiaffine(f, list(range(d)), e)
        assert isinstance(rep, DeterminantalRep)
        assert verify_detrep(rep, f)
        adj = poly_adjugate(A)
        sign = 1 if adj[0][0].evaluate(e) > 0 else -1
        power = f ** (d - 2) * sign
        pencil = rep.pencil()
        for r in range(d):
            for c in range(d):
                assert adj[r][c] == power * pencil[r][c]


def test_pencil_value_matches_a_solve_per_column():
    # the rank-one inputs of the seed-7 detrep benchmark (its rng draws the
    # same vectors in the same order) and e_{d+1,d}, at e = 1 and e + s*e_k
    rng = random.Random(7)
    inputs = [(gen_elementary_symmetric(d + 1, d), d) for d in (3, 4, 5)]
    inputs += [(rank_one_determinant(rng, n, d), d) for n, d in ((6, 3), (6, 4), (7, 3), (6, 5))]
    checked = 0
    for f, d in inputs:
        built = interlacer_matrix_multiaffine(f, list(range(d)))
        for k in range(-1, f.nvars):
            for s in range(1, d + 2):
                p = ones(f.nvars)
                if k >= 0:
                    p[k] += s
                N, den, fp = built.numerators_at(p)
                if fp:
                    break
            A = [[Fraction(x, den) for x in row] for row in N]
            scale = Fraction(7, 3) * fp
            columns = [[scale if r == c else Fraction(0) for r in range(d)] for c in range(d)]
            # scale * A^-1 = scale * den * adj N / det N, read column by column
            det, adj = detrep._det_adjugate(N, p)
            value = [[scale * den * Fraction(adj[r][c], det) for r in range(d)] for c in range(d)]
            assert value == [solve_linear(A, col) for col in columns]
            checked += 1
    assert checked == sum(f.nvars + 1 for f, _ in inputs)


def test_build_rejects_e_on_the_hypersurface():
    f = gen_elementary_symmetric(3, 2)
    with pytest.raises(DetRepError, match=r"f\(e\) = 0"):
        build_detrep_multiaffine(f, [0, 1], [1, 0, 0])


def test_build_singular_interlacer_matrix_is_a_detrep_error(monkeypatch):
    # A(p) can be singular where f(p) != 0 only when A is not rank one modulo
    # f (otherwise det A is a nonzero constant times f^(d-1)); such an A must
    # give DetRepError, not ArithmeticError
    f = gen_product(2)
    x1 = Polynomial.variable(2, 0)
    forged = InterlacerMatrix(entries=[[x1, x1], [x1, x1]], f=f, dvars=[0, 1])
    monkeypatch.setattr(detrep, "interlacer_matrix_multiaffine", lambda f, dvars: forged)
    with pytest.raises(DetRepError, match="singular"):
        build_detrep_multiaffine(f, [0, 1], ones(2))


def test_build_e2_four_vars_returns_obstruction():
    f = gen_elementary_symmetric(4, 2)
    out = build_detrep_multiaffine(f, [0, 1], ones(4))
    assert isinstance(out, NoRep)
    assert out.pair == (0, 1)
    assert out.delta == delta_ij(f, 0, 1)
    assert perfect_square_root(out.delta) is None


def test_build_where_det_a_vanishes_off_e():
    # det A = kappa * f^(d-1) vanishes wherever f does, e.g. on 3x = y for
    # (3x - y) * z; the builder reads A only at e and at points where f != 0
    names = ["x", "y", "z"]
    for c in (2, 3):
        f = parse_poly(f"{c}*x*z - y*z", names)
        rep = build_detrep_multiaffine(f, [0, 2], [2, 1, 3])
        assert isinstance(rep, DeterminantalRep) and verify_detrep(rep, f)
        # the pencil diag(c x - y, c z) with gamma = c
        assert rep.matrices == [[[c, 0], [0, 0]], [[-1, 0], [0, 0]], [[0, 0], [0, c]]]
        assert rep.gamma == c


def test_build_rejects_a_that_is_not_rank_one_modulo_f():
    # Delta_ij f is a square for every pair of x2..x5 and the signs can be
    # fixed, but A is not rank one modulo f: the builder must not return it
    f = parse_poly(
        "x1*x2*x3*x4 + x1*x2*x3*x5 + x1*x2*x4*x5 - x2*x3*x4*x5", ["x1", "x2", "x3", "x4", "x5"]
    )
    A = interlacer_matrix_multiaffine(f, [1, 2, 3, 4])
    assert isinstance(A, InterlacerMatrix)
    with pytest.raises(DetRepError):
        build_detrep_multiaffine(f, [1, 2, 3, 4], [2, 3, 2, 1, 3])


def multiaffine_fuzz_inputs(rng, count):
    """Products of linear forms on disjoint variable blocks, and random
    multiaffine supports with small integer coefficients of both signs."""
    for k in range(count):
        if k % 2:
            n = rng.randint(2, 5)
            d = rng.randint(2, min(n, 4))
            terms = {}
            for s in itertools.combinations(range(n), d):
                if rng.random() < 0.7:
                    terms[tuple(int(i in s) for i in range(n))] = rng.choice((-3, -2, -1, 1, 2, 3))
            yield Polynomial(n, terms), sorted(rng.sample(range(n), d))
        else:
            sizes = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
            n = sum(sizes)
            f = Polynomial.const(n, 1)
            dvars = []
            start = 0
            for size in sizes:
                block = range(start, start + size)
                coeffs = {tuple(int(i == j) for i in range(n)): rng.choice((-2, -1, 1, 2, 3)) for j in block}
                f = f * Polynomial(n, coeffs)
                dvars.append(rng.choice(block))
                start += size
            yield f, dvars


def test_build_returns_only_verified_representations():
    rng = random.Random(1414)
    seen = {"rep": 0, "norep": 0, "error": 0}
    for f, dvars in multiaffine_fuzz_inputs(rng, 300):
        e = [rng.randint(-2, 4) for _ in range(f.nvars)]
        try:
            out = build_detrep_multiaffine(f, dvars, e)
        except (DetRepError, ValueError):
            seen["error"] += 1
            continue
        if isinstance(out, NoRep):
            assert perfect_square_root(delta_ij(f, *out.pair)) is None
            seen["norep"] += 1
        else:
            assert isinstance(out, DeterminantalRep) and verify_detrep(out, f)
            seen["rep"] += 1
    assert min(seen.values()) >= 20, seen


def test_build_rejects_bad_inputs():
    f = gen_elementary_symmetric(3, 2)
    with pytest.raises(ValueError):
        build_detrep_multiaffine(f, [0, 1, 2], ones(3))  # wrong dvars count
    with pytest.raises(ValueError):
        build_detrep_multiaffine(parse_poly("x^2 + y^2", ["x", "y"]), [0, 1], ones(2))
    with pytest.raises(ValueError):
        build_detrep_multiaffine(f, [0, 2], ones(3) + [Fraction(1)])  # e length
    for call in (lambda f: interlacer_matrix_multiaffine(f, []),
                 lambda f: build_detrep_multiaffine(f, [], [1, 1, 1])):
        with pytest.raises(ValueError, match="zero polynomial"):
            call(Polynomial.zero(3))


def test_build_linear_polynomial(monkeypatch):
    f = parse_poly("2*x + 3*y", ["x", "y"])
    rep = build_detrep_multiaffine(f, [0], ones(2))
    assert isinstance(rep, DeterminantalRep)
    assert verify_detrep(rep, f)
    # degree one takes the same kappa * f * A^-1 route: A = [[c]] for the
    # coefficient c of the dvars variable, and M = gamma * f with gamma = +-1;
    # verify_detrep is the builder's proof at this degree too
    proofs = []
    monkeypatch.setattr(detrep, "verify_detrep", lambda rep, f: proofs.append(rep) or verify_detrep(rep, f))
    rng = random.Random(1515)
    built = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        f = Polynomial(n, {tuple(int(i == j) for i in range(n)): rng.randint(-3, 3) for j in range(n)})
        if f.is_zero():
            continue
        k = rng.choice([j for j in range(n) if f.degree_in(j) == 1])
        e = [rng.randint(-2, 3) for _ in range(n)]
        if f.evaluate(e) == 0:
            with pytest.raises(DetRepError, match="f\\(e\\) = 0"):
                build_detrep_multiaffine(f, [k], e)
            continue
        rep = build_detrep_multiaffine(f, [k], e)
        assert isinstance(rep, DeterminantalRep) and verify_detrep(rep, f)
        assert rep.size == 1 and rep.gamma in (1, -1)
        assert rep.pencil()[0][0] == f * rep.gamma
        built += 1
    assert built >= 20 and len(proofs) == built


def set_to_zero(f, i):
    """f with variable i set to zero: every term containing it dropped."""
    return Polynomial(f.nvars, {m: c for m, c in f.terms.items() if m[i] == 0})


def test_builder_closure_under_derivative_and_restriction():
    # if f has a representation, so do df/dx_k and f restricted to x_k = 0
    f = gen_elementary_symmetric(4, 3)
    g = f.partial(3)  # e_2 in the first three variables, lifted
    rep_g = build_detrep_multiaffine(g, [0, 1], ones(4))
    assert isinstance(rep_g, DeterminantalRep) and verify_detrep(rep_g, g)
    h = set_to_zero(f, 3)  # e_3 of the first three variables
    rep_h = build_detrep_multiaffine(h, [0, 1, 2], ones(4))
    assert isinstance(rep_h, DeterminantalRep) and verify_detrep(rep_h, h)


def test_verify_detrep_examples():
    n = 3
    f = gen_product(n)
    diag = DeterminantalRep(
        matrices=[
            [[Fraction(1 if r == c == i else 0) for c in range(n)] for r in range(n)]
            for i in range(n)
        ],
        e=ones(n),
        gamma=Fraction(1),
    )
    assert verify_detrep(diag, f)
    other = parse_poly("x1*x2 + x1*x3", ["x1", "x2", "x3"])
    res = verify_detrep(diag, other)
    assert not res
    assert "det" in res.reason


def test_verify_detrep_rejects_non_symmetric_pencil():
    # det [[x, -y], [y, x]] = x^2 + y^2 and M(e) = I, but x^2 + y^2 is not hyperbolic
    f = parse_poly("x^2 + y^2", ["x", "y"])
    rep = DeterminantalRep(
        matrices=[
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
            [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]],
        ],
        e=[Fraction(1), Fraction(0)],
        gamma=Fraction(1),
    )
    assert poly_determinant(rep.pencil()) == f
    assert check_hyperbolic(HyperbolicityInstance(f, rep.e), CFG).is_no
    res = verify_detrep(rep, f)
    assert not res
    assert "symmetric" in res.reason
    assert not verify_detrep(DeterminantalRep.from_json(rep.to_json()), f)


def test_verify_detrep_rejects_misshapen_matrices():
    f = gen_product(2)
    ragged = DeterminantalRep(
        matrices=[[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], [[Fraction(0)]]],
        e=ones(2),
        gamma=Fraction(1),
    )
    assert not verify_detrep(ragged, f)
    short_e = DeterminantalRep(matrices=ragged.matrices[:1] * 2, e=ones(1), gamma=Fraction(1))
    assert not verify_detrep(short_e, f)
    # a pencil with no matrices, or 0 x 0 ones, is rejected without raising,
    # and cannot be read from JSON
    for matrices, g in (([], Polynomial.const(0, 1)), ([[]], Polynomial.const(1, 1))):
        res = verify_detrep(DeterminantalRep(matrices=matrices, e=ones(g.nvars), gamma=Fraction(1)), g)
        assert not res and "no matrices" in res.reason
        with pytest.raises(ValueError):
            DeterminantalRep.from_json(json.dumps({"matrices": matrices, "e": [1] * g.nvars, "gamma": 1}))


def test_detrep_from_json_reads_arrays_only():
    good = {"matrices": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]], "e": ["1", "1"], "gamma": "1"}
    assert verify_detrep(DeterminantalRep.from_json(json.dumps(good)), gen_product(2))
    # each string would otherwise be read as the list of its digits
    for field, bad in (("e", "11"), ("matrices", [["10", "00"], ["00", "01"]]), ("matrices", "1")):
        with pytest.raises(ValueError, match="JSON array"):
            DeterminantalRep.from_json(json.dumps(dict(good, **{field: bad})))


def test_detrep_json_round_trip():
    f = gen_elementary_symmetric(3, 2)
    rep = build_detrep_multiaffine(f, [0, 1], ones(3))
    again = DeterminantalRep.from_json(rep.to_json())
    assert again.matrices == rep.matrices
    assert again.gamma == rep.gamma
    assert verify_detrep(again, f)
    data = json.loads(rep.to_json())
    assert set(data) == {"d", "n", "e", "gamma", "matrices"}
    assert data["d"] == 2 and data["n"] == 3
    assert "/" in data["gamma"]


# -- interlacers from representations ----------------------------------------------


def test_interlacer_from_diag_rep():
    n = 3
    f = gen_product(n)
    diag = DeterminantalRep(
        matrices=[
            [[Fraction(1 if r == c == i else 0) for c in range(n)] for r in range(n)]
            for i in range(n)
        ],
        e=ones(n),
        gamma=Fraction(1),
    )
    E11 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert interlacer_from_detrep(diag, E11) == f.partial(0)
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert interlacer_from_detrep(diag, I3) == directional_derivative(f, ones(n))


def test_interlacer_from_e2_rep_interlaces():
    f = gen_elementary_symmetric(3, 2)
    rep = build_detrep_multiaffine(f, [0, 1], ones(3))
    I2 = [[1, 0], [0, 1]]
    g = interlacer_from_detrep(rep, I2)
    assert g.total_degree() == 1
    inst = HyperbolicityInstance(f, ones(3))
    v = interlaces(inst, g, CFG, sos_budget=1)
    assert not v.is_no


def test_interlacer_rejects_indefinite_weight():
    f = gen_elementary_symmetric(3, 2)
    rep = build_detrep_multiaffine(f, [0, 1], ones(3))
    with pytest.raises(ValueError):
        interlacer_from_detrep(rep, [[0, 1], [1, 0]])


# -- rank-one round trip ---------------------------------------------------------


def test_rank_one_pencil_wronskians_are_the_predicted_squares():
    # pencil with rank-one blocks on the affine variables: Delta_ij equals
    # (v_i^T adj(M) v_j)^2 exactly
    rng = random.Random(71)
    for _ in range(5):
        d = 3
        vs = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        rows = []
        for r in range(d):
            row = []
            for c in range(d):
                terms = {}
                for i in range(d):
                    coeff = vs[i][r] * vs[i][c]
                    if coeff:
                        mono = tuple(1 if k == i else 0 for k in range(d))
                        terms[mono] = terms.get(mono, Fraction(0)) + coeff
                row.append(Polynomial(d, terms))
            rows.append(row)
        f = poly_determinant(rows)
        if f.is_zero():
            continue
        adj = poly_adjugate(rows)
        for i in range(d):
            for j in range(i + 1, d):
                q = Polynomial.zero(d)
                for r in range(d):
                    for c in range(d):
                        cf = vs[i][r] * vs[j][c]
                        if cf:
                            q = q + adj[r][c] * cf
                assert delta_ij(f, i, j) == q * q


def test_square_factor_property():
    # for f = g*h affine in x1, x2: Delta_12 f is a square iff both factors'
    # Delta_12 are squares (one of which always vanishes)
    names = ["x1", "x2", "x3", "x4"]
    g_sq = parse_poly("x1*x2 + x1*x3 + x2*x3", ["x1", "x2", "x3", "x4"])
    h_free = parse_poly("x3 + 2*x4", names)
    f = g_sq * h_free
    d_f = delta_ij(f, 0, 1)
    d_g = delta_ij(g_sq, 0, 1)
    assert d_f == h_free * h_free * d_g
    assert perfect_square_root(d_g) is not None
    assert perfect_square_root(d_f) is not None

    g_nonsq = gen_elementary_symmetric(4, 2)
    f2 = g_nonsq * h_free
    d2 = delta_ij(f2, 0, 1)
    assert d2 == h_free * h_free * delta_ij(g_nonsq, 0, 1)
    assert perfect_square_root(delta_ij(g_nonsq, 0, 1)) is None
    assert perfect_square_root(d2) is None


# -- bordered determinant identities -------------------------------------------------


def test_bordered_identity_unit_vectors_size2():
    assert bordered_determinant_identity(2, [1, 0], [1, 0], [0, 1], [0, 1])


def test_bordered_identity_random_size3():
    rng = random.Random(73)
    for _ in range(5):
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
        assert bordered_determinant_identity(3, *vecs)


def test_bordered_identity_derivative_is_signed_minor():
    # the rank-one directional derivative of det X along e_j e_i^T equals the
    # signed complementary minor
    size = 3
    nv = size * size
    X = [[Polynomial.variable(nv, r * size + c) for c in range(size)] for r in range(size)]
    detX = poly_determinant(X)
    for i in range(size):
        for j in range(size):
            deriv = detX.partial(j * size + i)
            minor_rows = [
                [X[r][c] for c in range(size) if c != i] for r in range(size) if r != j
            ]
            minor = poly_determinant(minor_rows)
            expected = minor if (i + j) % 2 == 0 else -minor
            assert deriv == expected


def test_bordered_identity_size_guard():
    with pytest.raises(ValueError):
        bordered_determinant_identity(5, [0] * 5, [0] * 5, [0] * 5, [0] * 5)
