"""Gram assembly, the numeric-to-exact pipeline, and certificate soundness."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hypersos.corpus import gen_cubic_example, gen_elementary_symmetric, gen_lorentz, gen_product, gen_vamos
from hypersos.exactla import ldl_psd, mat_det, solve_affine_family
from hypersos.hypercone import HyperbolicityInstance, delta_ij, wronskian_delta
from hypersos.polycore import (
    Polynomial,
    _IntForm,
    parse_poly,
    poly_adjugate,
    poly_determinant,
    restrict_to_line,
)
from hypersos.soscert import (
    GramSystem,
    SosCertificate,
    _ZeroGeometry,
    _auto_basis,
    _symmetry_generators,
    assemble_gram_system,
    box_reduced_support,
    certify_sos,
    certify_sos_mod_f,
    constrain_basis_to_zeros,
    monomials_of_degree,
    scan_small_points,
    second_order_obstruction,
    solve_sdp,
    sos_cone_membership,
)

XYZ = ["x", "y", "z"]


def P(text, names=XYZ):
    return parse_poly(text, names)


def test_monomials_of_degree_count_and_order():
    for n, d in [(2, 3), (3, 2), (4, 3)]:
        monos = monomials_of_degree(n, d)
        assert len(monos) == math.comb(n + d - 1, n - 1)
        assert all(sum(m) == d for m in monos)
        assert monos == sorted(monos, reverse=True)  # graded lex descending


def test_assemble_full_basis_size():
    # half-degree basis of the full ring: N = C(n + k - 1, n - 1)
    d = wronskian_delta(gen_lorentz(3), [1, 0, 0], [2, 1, 0])
    sys = assemble_gram_system(d)
    assert len(sys.basis) == 3
    f = P("x^4 + y^4 + z^4")
    sys2 = assemble_gram_system(f)
    assert len(sys2.basis) == math.comb(3 + 2 - 1, 2)


def test_assemble_rejects_bad_targets():
    with pytest.raises(ValueError):
        assemble_gram_system(P("x^3"))
    with pytest.raises(ValueError):
        assemble_gram_system(P("x^2 + y"))
    with pytest.raises(ValueError):
        assemble_gram_system(Polynomial.zero(3))


def test_family_is_exact_on_random_members():
    # every member of the affine family reproduces the target, exactly
    f = P("x^2*y^2 + x^4 + z^4 + 2*x*y*z^2")
    sys = assemble_gram_system(f)
    nulls = sys.nullspace_vectors()
    assert sys.nullspace_dim == len(nulls) > 0
    rng = random.Random(67)
    for _ in range(100):
        vec = sys.particular_vector()
        for nv in nulls:
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if lam:
                vec = [v + lam * nv.get(k, 0) for k, v in enumerate(vec)]
        assert sys.residual(vec).is_zero()
        pt = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        G = sys.matrix_from_vector(vec)
        vals = [b.evaluate(pt) for b in sys.basis]
        quad = sum(vals[i] * G[i][j] * vals[j] for i in range(len(vals)) for j in range(len(vals)))
        assert quad == f.evaluate(pt)


def test_lorentz_gram_family_contains_textbook_matrix():
    n = 3
    f = gen_lorentz(n)
    a = [Fraction(2), Fraction(1), Fraction(0)]
    half = wronskian_delta(f, [1, 0, 0], a) * Fraction(1, 2)
    sys = assemble_gram_system(half, basis=[Polynomial.variable(n, i) for i in range(n)])
    G = [
        [a[0], -a[1], -a[2]],
        [-a[1], a[0], Fraction(0)],
        [-a[2], Fraction(0), a[0]],
    ]
    assert sys.contains(G)
    broken = [row[:] for row in G]
    broken[0][0] += 1
    assert not sys.contains(broken)


def test_certify_sos_yes_cases():
    v = certify_sos(P("(x + 2*y)^2 * (x - z)^2"), 0)
    assert v.is_yes
    assert v.witness.verify()
    v2 = certify_sos(P("(x^2 + y^2)^2", ["x", "y"]), 0)
    assert v2.is_yes and v2.witness.verify()


def test_certify_sos_rejects_negative_budget():
    for target in (P("x^2 + y^2"), Polynomial.zero(3)):
        with pytest.raises(ValueError):
            certify_sos(target, max_denominator_power=-1)


def test_import_does_not_load_numpy():
    # importing hypersos, and the exact evaluation, line and cone paths run
    # on Vamos, leave numpy unloaded: only the SDP's float stage imports it
    import hypersos

    src = os.path.dirname(os.path.dirname(os.path.abspath(hypersos.__file__)))
    code = "import sys, hypersos; print('numpy' in sys.modules)"
    exact = """
import sys
from hypersos.corpus import gen_vamos
from hypersos.hypercone import HyperbolicityInstance, SampleConfig, check_hyperbolic, cone_membership
from hypersos.polycore import restrict_to_line
f = gen_vamos()
e, a = [1] * 8, [1, -2, 3, 0, 1, 1, -1, 2]
assert f.evaluate(e) > 0 and restrict_to_line(f, e, a).degree() == 4
inst = HyperbolicityInstance(f, e)
assert cone_membership(inst, [2] * 8).is_yes and cone_membership(inst, a, closure=True).is_no
assert check_hyperbolic(inst, SampleConfig(trials=8, seed=1)).is_yes
print('numpy' in sys.modules)
"""
    for program in (code, exact):
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def test_certify_sos_refutes_indefinite_and_infeasible():
    v = certify_sos(P("x^2 - y^2", ["x", "y"]), 0)
    assert v.is_no  # negative value at an integer point
    # xy(x+y)^2: box-reduced basis is {xy} and the coefficient match fails
    v2 = certify_sos(P("x^3*y + 2*x^2*y^2 + x*y^3", ["x", "y"]), 0)
    assert v2.is_no


def test_certify_sos_motzkin_decided_at_both_levels():
    # the standard nonnegative-but-not-SOS form: refuted exactly at N=0, and
    # certified exactly at N=1 where the zero/line face reduction leaves a
    # unique PSD Gram matrix
    motzkin = P("x^4*y^2 + x^2*y^4 - 3*x^2*y^2*z^2 + z^6")
    v = certify_sos(motzkin, 0)
    assert v.is_no
    v1 = certify_sos(motzkin, 1)
    assert v1.is_yes
    cert = v1.witness
    assert cert.denominator_power == 1
    assert cert.verify()


def test_square_sum_is_built_only_from_budget_one(monkeypatch):
    import hypersos.soscert as soscert

    built = []
    square_sum = soscert._sum_of_var_squares

    def counting(nvars):
        built.append(nvars)
        return square_sum(nvars)

    monkeypatch.setattr(soscert, "_sum_of_var_squares", counting)
    motzkin = P("x^4*y^2 + x^2*y^4 - 3*x^2*y^2*z^2 + z^6")
    assert certify_sos(motzkin, 0).is_no
    assert certify_sos(P("x^2 + 2*x*y + 3*y^2 + z^2"), 0).is_yes
    assert built == []
    for budget in (1, 2):
        v = certify_sos(motzkin, budget)
        assert built == [3]
        assert v.is_yes and v.witness.denominator_power == 1 and v.witness.verify()
        built.clear()


def test_certificate_json_round_trip():
    d = wronskian_delta(gen_lorentz(4), [1, 0, 0, 0], [3, 1, 1, 1])
    v = certify_sos(d, 0)
    assert v.is_yes
    cert = v.witness
    again = SosCertificate.from_json(cert.to_json())
    assert again.gram == cert.gram
    assert again.basis == cert.basis
    assert again.denominator_power == cert.denominator_power
    assert again.verify()
    # wire schema: exact rationals as "p/q" strings under the stable keys
    data = json.loads(cert.to_json())
    assert {"basis", "gram", "N", "multiplier"} <= set(data)
    assert "ldl" not in data  # the Gram matrix is the whole PSD witness
    assert all("/" in entry for row in data["gram"] for entry in row)


def test_hierarchy_monotone_constructively():
    # multiplying each square by every variable lifts a certificate one level
    d = wronskian_delta(gen_lorentz(3), [1, 0, 0], [2, 1, 0])
    v = certify_sos(d, 0)
    cert = v.witness
    n = d.nvars
    s2 = P("x^2 + y^2 + z^2")
    lifted_basis = [Polynomial.variable(n, i) * b for i in range(n) for b in cert.basis]
    m = len(cert.basis)
    lifted = Polynomial.zero(n)
    for i in range(n):
        for r in range(m):
            for c in range(m):
                if cert.gram[r][c]:
                    lifted = lifted + lifted_basis[i * m + r] * lifted_basis[i * m + c] * cert.gram[r][c]
    assert lifted == s2 * d
    v1 = certify_sos(d, 1)
    assert v1.is_yes and v1.witness.denominator_power <= 1


def test_rank_one_pencil_delta_expansion():
    # determinant of a PSD rank-one pencil: the Wronskian expands into the
    # explicit squares lambda_i^T adj(M) mu_j
    vs = [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
    ]
    n = d = 3
    rows = []
    for r in range(d):
        row = []
        for c in range(d):
            terms = {}
            for i in range(n):
                coeff = vs[i][r] * vs[i][c]
                if coeff:
                    mono = tuple(1 if k == i else 0 for k in range(n))
                    terms[mono] = terms.get(mono, Fraction(0)) + coeff
            row.append(Polynomial(n, terms))
        rows.append(row)
    f = poly_determinant(rows)
    adj = poly_adjugate(rows)
    e = [Fraction(1)] * 3
    a = [Fraction(4), Fraction(1), Fraction(0)]
    lams = vs
    mus = [[2 * t for t in vs[0]], vs[1]]

    def quad(u, w):
        acc = Polynomial.zero(n)
        for r in range(d):
            for c in range(d):
                cf = u[r] * w[c]
                if cf:
                    acc = acc + adj[r][c] * cf
        return acc

    total = Polynomial.zero(n)
    for lam in lams:
        for mu in mus:
            q = quad(lam, mu)
            total = total + q * q
    assert total == wronskian_delta(f, e, a)


def test_certify_sos_mod_f_lorentz():
    f = gen_lorentz(3)
    e = [Fraction(1), Fraction(0), Fraction(0)]
    a = [Fraction(2), Fraction(1), Fraction(0)]
    from hypersos.polycore import directional_derivative

    F = directional_derivative(f, e) * directional_derivative(f, a)
    v = certify_sos_mod_f(F, f)
    assert v.is_yes
    cert = v.witness
    assert cert.verify()
    assert cert.multiplier is not None
    # the verified identity is v^T G v = F - p*f exactly


def test_certify_sos_mod_f_rejects_degenerate_degrees():
    with pytest.raises(ValueError):
        certify_sos_mod_f(parse_poly("1", ["x"]), parse_poly("x", ["x"]))
    with pytest.raises(ValueError):
        certify_sos_mod_f(P("x^4"), P("x^2 - y^2"))  # deg F != 2 deg f - 2


def test_two_relaxations_compared_on_lorentz():
    # the direct-Wronskian relaxation and the modulo-f relaxation are both
    # inner approximations of the closed cone; they may differ in power but
    # can never certify a point the exact test rejects
    from hypersos.polycore import directional_derivative

    f = gen_lorentz(3)
    e = [Fraction(1), Fraction(0), Fraction(0)]
    inst = HyperbolicityInstance(f, e)
    points = [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(3), Fraction(2), Fraction(2)],
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    from hypersos.hypercone import cone_membership

    for a in points:
        exact = cone_membership(inst, a, closure=True)
        direct = certify_sos(wronskian_delta(f, e, a), 0)
        F = directional_derivative(f, e) * directional_derivative(f, a)
        mod = certify_sos_mod_f(F, f)
        if direct.is_yes:
            assert exact.is_yes
        if mod.is_yes:
            assert exact.is_yes
        if exact.is_yes:
            # the quadratic case is exact for both relaxations
            assert direct.is_yes and mod.is_yes


def test_sos_cone_membership_one_sided():
    inst = HyperbolicityInstance(gen_lorentz(3), [1, 0, 0])
    yes = sos_cone_membership(inst, [2, 1, 0], 0)
    assert yes.is_yes
    outside = sos_cone_membership(inst, [1, 2, 0], 0)
    assert outside.is_unknown
    assert "SOS_REFUTED" in outside.detail


def test_assemble_single_variable_square():
    f = parse_poly("x^2", ["x"])
    sys = assemble_gram_system(f)
    assert sys.particular_matrix() == [[Fraction(1)]]
    assert sys.nullspace_dim == 0


def test_assemble_lorentz_delta_at_e_is_unique():
    # Delta_{e,e} of the quadratic cone form is 2*(sum of squares of all
    # variables); quadratic forms have a unique Gram matrix, and the
    # brute-force count N(N+1)/2 - dim(quadratics) agrees
    n = 3
    d = wronskian_delta(gen_lorentz(n), [1, 0, 0], [1, 0, 0])
    sys = assemble_gram_system(d)
    N = len(sys.basis)
    assert N == n
    quadratic_dim = math.comb(n + 1, 2)
    assert sys.nullspace_dim == N * (N + 1) // 2 - quadratic_dim == 0
    expected = [[Fraction(2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    assert sys.particular_matrix() == expected


def test_solve_sdp_numerically_infeasible_on_unique_indefinite_family():
    from hypersos.corpus import vamos_reproduction

    rep = vamos_reproduction()
    sys = GramSystem(rep.W, rep.cubic_basis)
    assert sys.nullspace_dim == 0
    assert solve_sdp(sys) is None


def test_certify_sos_vamos_refuted_exactly():
    # certify_sos refutes the restricted Vamos Wronskian: the line
    # conditions at its six zeros make the coefficient matching outright
    # infeasible over the face-reduced cubics (even before the unique-Gram
    # argument)
    from hypersos.corpus import vamos_reproduction

    rep = vamos_reproduction()
    v = certify_sos(rep.W, 0)
    assert v.is_no and v.detail.startswith("no Gram matrix exists over the basis")
    # the classical unique-Gram argument is preserved verbatim in the report
    assert mat_det(rep.gram) == Fraction(-1, 4)
    res = ldl_psd(rep.gram)
    assert not res.is_psd


def test_sos_cone_membership_restricted_vamos_boundary():
    # the boundary direction w of the restricted Vamos polynomial lies in
    # the closed cone (restrictions of stable polynomials are stable); the
    # face-reduced relaxation finds an exact certificate, agreeing with the
    # exact Sturm membership
    from hypersos.corpus import gen_vamos
    from hypersos.hypercone import cone_membership
    from hypersos.polycore import drop_trailing_variables, identify_variables

    h = gen_vamos()
    h_r = drop_trailing_variables(identify_variables(h, [2, 2, 1, 1, 0, 0, 3, 3], 4), 4)
    inst = HyperbolicityInstance(h_r, [1, 1, 1, 1])
    v = sos_cone_membership(inst, [0, 0, 0, 1], 0)
    assert v.is_yes
    assert v.witness.verify()
    assert cone_membership(inst, [0, 0, 0, 1], closure=True).is_yes


def test_solve_sdp_deterministic():
    d = wronskian_delta(gen_product(3), [1, 1, 1], [3, 4, 6])
    sys = assemble_gram_system(d)
    x1 = solve_sdp(sys)
    x2 = solve_sdp(GramSystem(d, list(sys.basis)))
    assert x1 is not None and x2 is not None
    assert list(x1) == list(x2)


def test_scan_small_points_and_constraints():
    motzkin = P("x^4*y^2 + x^2*y^4 - 3*x^2*y^2*z^2 + z^6")
    zeros, neg = scan_small_points(motzkin)
    assert neg is None
    as_tuples = {tuple(int(c) for c in z) for z in zeros}
    assert (1, 1, 1) in as_tuples and (1, 0, 0) in as_tuples
    basis = [Polynomial.monomial(3, m) for m in monomials_of_degree(3, 3)]
    constrained = constrain_basis_to_zeros(basis, zeros)
    assert 0 < len(constrained) < len(basis)
    for b in constrained:
        for z in zeros:
            assert b.evaluate(z) == 0


def test_box_reduction_is_sound_superset():
    f = P("x^2*y^2 + (x*y + z^2)^2")
    monos = box_reduced_support(f)
    # every monomial that can appear in a square of f's decompositions has
    # its double inside the support box; the quadratics x*y and z^2 must stay
    assert (1, 1, 0) in monos and (0, 0, 2) in monos
    # and a monomial whose double leaves the box is filtered out
    assert (2, 0, 0) not in monos


def test_ldl_psd_decision_and_reassembly():
    A = [[Fraction(4), Fraction(2)], [Fraction(2), Fraction(2)]]
    res = ldl_psd(A)
    assert res.is_psd and res.is_pd
    L, D = res.L, res.D
    LDLt = [[sum(L[r][k] * D[k] * L[c][k] for k in range(2)) for c in range(2)] for r in range(2)]
    assert LDLt == [[A[r][c] for c in res.perm] for r in res.perm]
    bad = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert not ldl_psd(bad).is_psd
    neg = [[Fraction(-1)]]
    assert not ldl_psd(neg).is_psd
    rank_def = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    res2 = ldl_psd(rank_def)
    assert res2.is_psd and not res2.is_pd and res2.rank == 1
    assert mat_det(A) == 4


# -- hardened certificate checking ---------------------------------------------------


def forged_indefinite_certificate():
    """x^2 - y^2 with the indefinite Gram matrix diag(1, -1): the identity holds, PSD fails."""
    return SosCertificate(
        basis=[P("x", ["x", "y"]), P("y", ["x", "y"])],
        gram=[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]],
        denominator_power=0,
        target=P("x^2 - y^2", ["x", "y"]),
    )


def test_verify_rejects_forged_permutation():
    forged = forged_indefinite_certificate()
    assert forged.verify() is False
    assert SosCertificate.from_json(forged.to_json()).verify() is False
    # a file in the older format still carries a stored LDL^T; its claim of a
    # PSD factorization, here with a perm that repeats row 0, is not read
    data = json.loads(forged.to_json())
    data["ldl"] = {"perm": [0, 0], "L": [["1/1", "0/1"], ["1/1", "0/1"]], "D": ["1/1", "0/1"]}
    assert SosCertificate.from_json(json.dumps(data)).verify() is False


def genuine_certificate():
    v = certify_sos(P("(x + 2*y)^2 * (x - z)^2 + x^2*y^2"), 0)
    assert v.is_yes and v.witness.verify()
    assert len(v.witness.basis) >= 2
    return v.witness


def with_gram(cert, gram, target=None):
    return SosCertificate(
        basis=list(cert.basis), gram=gram,
        denominator_power=cert.denominator_power, target=cert.target if target is None else target,
    )


def test_verify_rejects_malformed_fields_without_raising():
    cert = genuine_certificate()
    gram = cert.gram
    ragged = [list(row) for row in gram]
    ragged[-1] = ragged[-1][:-1]
    skew = [list(row) for row in gram]
    skew[0][1] += 1
    for bad in (gram[:-1], [row[:-1] for row in gram], ragged, skew):
        assert with_gram(cert, bad).verify() is False
    # -G matches -target exactly, and only the PSD check rejects it
    negated = with_gram(cert, [[-x for x in row] for row in gram], -cert.target)
    assert negated.verify() is False and negated.ldl.reason
    assert with_gram(cert, [list(row) for row in gram]).verify()
    # a negative N, or one too large for the basis degree, is rejected
    # before (sum x_i^2)^N is built
    for N in (-1, 10**9):
        data = json.loads(cert.to_json())
        data["N"] = N
        assert SosCertificate.from_json(json.dumps(data)).verify() is False
    # JSON values without an exact rational meaning are rejected on reading
    for field, bad in (("N", 1.0), ("N", True), ("N", "0"), ("gram", 0.5), ("gram", True), ("gram", None)):
        data = json.loads(cert.to_json())
        if field == "N":
            data["N"] = bad
        else:
            data["gram"][0][0] = bad
        with pytest.raises(ValueError):
            SosCertificate.from_json(json.dumps(data))
    # the factorization is read from the Gram matrix, never stored beside it
    with pytest.raises(AttributeError):
        cert.ldl = ldl_psd(gram)
    assert cert.ldl == ldl_psd(gram)


def test_certificate_from_json_reads_arrays_only():
    # each string would otherwise be read as the list of its characters, and
    # this certificate of x^2 would verify
    split = {"vars": "x", "basis": "x", "gram": ["1"], "N": 0, "target": "x^2"}
    whole = {"vars": ["x"], "basis": ["x"], "gram": [["1"]], "N": 0, "target": "x^2"}
    assert SosCertificate.from_json(json.dumps(whole)).verify()
    for field in ("vars", "basis", "gram"):
        with pytest.raises(ValueError, match="JSON array"):
            SosCertificate.from_json(json.dumps(dict(whole, **{field: split[field]})))
    for field, bad in (("vars", [1]), ("basis", [["x"]]), ("target", ["x^2"])):
        with pytest.raises(ValueError, match="JSON string"):
            SosCertificate.from_json(json.dumps(dict(whole, **{field: bad})))


def test_certify_sos_never_differentiates_however_many_zeros(monkeypatch):
    names = ["a", "b", "c", "d", "e"]
    F = parse_poly("(a - b)^2*(c - d)^2 + (a - e)^2*(b - c)^2", names)
    n = F.nvars
    zeros, _ = scan_small_points(F)
    assert len(zeros) > n * (n + 3) // 2
    calls = []
    original = Polynomial.partial

    def counting(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(Polynomial, "partial", counting)
    v = certify_sos(F, 0)
    assert v.is_yes and v.witness.verify()
    # the gradient and the Hessian at each zero are read from F's own terms
    assert calls == []


def test_zero_geometry_derivatives_match_naive_partials():
    rng = random.Random(1306)
    for nvars in (3, 4, 5):
        for _ in range(3):
            # inhomogeneous, rational coefficients, exponents up to 3
            terms = {}
            for _ in range(rng.randint(6, 14)):
                m = tuple(rng.randint(0, 3) for _ in range(nvars))
                terms[m] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
            F = Polynomial(nvars, terms)
            geometry = _ZeroGeometry(F)
            partials = [F.partial(i) for i in range(nvars)]
            for vanishing in range(nvars + 1):
                # rational points with exactly `vanishing` zero coordinates
                dead = set(rng.sample(range(nvars), vanishing))
                p = [Fraction(0) if i in dead else Fraction(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 5))
                     for i in range(nvars)]
                grad, H = geometry.derivatives_at(p)
                assert grad == [d.evaluate(p) for d in partials]
                assert H == [[d.partial(j).evaluate(p) for j in range(nvars)] for d in partials]
                assert all(type(x) is Fraction for x in grad + [h for row in H for h in row])


def test_certify_sos_makes_no_per_point_calls(monkeypatch):
    # the zero geometry, the scan and the basis constraints evaluate and
    # restrict compiled batches, never one polynomial at one point or line
    import hypersos.polycore as polycore
    import hypersos.soscert as soscert

    names = ["a", "b", "c", "d", "e"]
    F = parse_poly("(a - b)^2*(c - d)^2 + (a - e)^2*(b - c)^2", names)
    calls = []
    evaluate, restrict = Polynomial.evaluate, polycore.restrict_to_line

    def counting_evaluate(self, point):
        calls.append("evaluate")
        return evaluate(self, point)

    def counting_restrict(f, e, a):
        calls.append("restrict_to_line")
        return restrict(f, e, a)

    monkeypatch.setattr(Polynomial, "evaluate", counting_evaluate)
    monkeypatch.setattr(polycore, "restrict_to_line", counting_restrict)
    monkeypatch.setattr(soscert, "restrict_to_line", counting_restrict, raising=False)
    assert certify_sos(F, 0).is_yes
    assert calls == []


def naive_scan(F, coord=1):
    """scan_small_points as a plain loop over Fraction points and naive values."""
    import itertools

    occurring = [i for i in range(F.nvars) if F.degree_in(i) > 0]
    zeros = []
    for tup in itertools.product(range(-coord, coord + 1), repeat=len(occurring)):
        if next((x for x in tup if x), 0) <= 0:
            continue
        ints = [0] * F.nvars
        for i, x in zip(occurring, tup):
            ints[i] = x
        point = [Fraction(x) for x in ints]
        value = sum(c * math.prod(x**k for x, k in zip(ints, m)) for m, c in F.terms.items())
        if value == 0:
            zeros.append(point)
        elif value < 0:
            return [], point
    return zeros, None


def test_scan_small_points_matches_naive_loop():
    rng = random.Random(2016)
    forms = []
    for nvars in (2, 3, 4, 5):
        x = [Polynomial.variable(nvars, i) for i in range(nvars)]
        for _ in range(3):
            # a sum of squares of sparse integer linear forms: grid zeros, no negative value
            acc = Polynomial.zero(nvars)
            for _ in range(rng.randint(1, 3)):
                lin = sum((x[i] * rng.randint(-1, 1) for i in range(nvars - 1)), Polynomial.zero(nvars))
                acc = acc + lin * lin * Fraction(rng.randint(1, 3), rng.randint(1, 4))
            forms.append(acc)
            # the same form minus a small multiple of a square: negative somewhere
            forms.append(acc - x[rng.randrange(nvars - 1)] ** 2 * Fraction(1, rng.randint(1, 3)))
    forms.append(P("x^4*y^2 + x^2*y^4 - 3*x^2*y^2*z^2 + z^6"))
    # negative at three grid points, the first of them late in product order
    late = parse_poly("10*(x^2+y^2+z^2+w^2)^2 - (x+y+z+w)^4 - (x-y+z+w)^4", list("xyzw"))
    assert naive_scan(late)[1] == [1, -1, 1, 1]
    forms.append(late)
    assert any(naive_scan(F)[1] is not None for F in forms)
    assert any(len(naive_scan(F)[0]) > 1 for F in forms)
    # Vamos Wronskians: 8 variables of which 6 occur, so coord 1 only
    vamos = gen_vamos()
    cases = [(F, coord) for F in forms for coord in (1, 2)]
    cases += [(delta_ij(vamos, 0, 1), 1), (delta_ij(vamos, 6, 7), 1)]
    for F, coord in cases:
        zeros, neg = scan_small_points(F, coord)
        assert (zeros, neg) == naive_scan(F, coord)
        assert all(type(c) is Fraction for p in zeros + [neg or []] for c in p)


def test_auto_basis_is_always_box_reduced():
    # the box drops only z^2 of the six quadrics, less than a quarter of them
    F = P("x^4 + y^4 + x^2*z^2 + y^2*z^2")
    basis = _auto_basis(F)
    assert len(basis) == 5 and P("z^2") not in basis
    v = certify_sos(F, 0)
    assert v.is_yes
    assert len(v.witness.basis) == 5
    assert v.witness.verify()


def test_vamos_delta78_not_sos_without_restriction():
    # the paper's non-SOS Wronskian has 49 grid zeros; all of them and all
    # their flat lines constrain the basis, and no Gram matrix is left
    v = certify_sos(delta_ij(gen_vamos(), 6, 7), 0)
    assert v.is_no


# -- flat lines, each with its rows ---------------------------------------------------


def naive_flat_lines(F, p):
    """_ZeroGeometry.flat_lines without orbits: restrict F along every kernel vector."""
    n = F.nvars
    H = _ZeroGeometry(F).derivatives_at(p)[1]
    _, kernel = solve_affine_family([dict(enumerate(row)) for row in H], [Fraction(0)] * n, n)
    kernel = [[v.get(k, Fraction(0)) for k in range(n)] for v in kernel]
    return [(u, restrict_to_line(F, u, p)) for u in kernel]


def naive_constrain(basis, flat, plane_of=None):
    """constrain_basis_to_zeros with the rows of every flat line, one polynomial at a time.

    flat lists (p, naive_flat_lines(F, p)) for each zero p.  With plane_of,
    an identically zero line adds rows only for the first line of its plane,
    whatever the basis.
    """
    rows = [[b.evaluate(p) for b in basis] for p, _ in flat]
    top = max(b.total_degree() for b in basis)
    seen = set()
    for p, lines in flat:
        for u, line in lines:
            if line.is_zero():
                if plane_of is not None:
                    if plane_of(p, u) in seen:
                        continue
                    seen.add(plane_of(p, u))
                half = top + 1
            else:
                half = (next(i for i, c in enumerate(line.coeffs) if c) + 1) // 2
            restricted = [restrict_to_line(b, u, p).coeffs for b in basis]
            for s in range(1, half):
                rows.append([c[s] if s < len(c) else 0 for c in restricted])
    _, null = solve_affine_family([dict(enumerate(row)) for row in rows], [Fraction(0)] * len(rows), len(basis))
    null = [[v.get(k, Fraction(0)) for k in range(len(basis))] for v in null]
    if len(null) == len(basis):
        return basis
    return [sum((b * c for b, c in zip(basis, v) if c), Polynomial.zero(basis[0].nvars)) for v in null]


def test_flat_lines_and_constraints_match_the_per_line_reference():
    vamos = gen_vamos()
    x = [Polynomial.variable(8, k) for k in range(8)]
    # (pair, identically zero flat lines)
    for (i, j), nzero in [((0, 1), 233), ((0, 2), 322), ((6, 7), 244)]:
        F = delta_ij(vamos, i, j)
        zeros, _ = scan_small_points(F)
        flat = [(p, naive_flat_lines(F, p)) for p in zeros]
        geometry = _ZeroGeometry(F)
        lines = [(p, *line) for p in zeros for line in geometry.flat_lines(p)]
        assert [(u, line) for _, u, line in lines] == [line for _, ls in flat for line in ls]
        assert sum(1 for _, _, line in lines if line.is_zero()) == nzero
        basis = _auto_basis(F)
        expected = naive_constrain(basis, flat)
        assert 0 < len(expected) < len(basis)
        # the zero-by-zero basis, though each zero outside its orbit's first
        # takes that zero's lines and rows, moved by a symmetry of F
        assert constrain_basis_to_zeros(basis, zeros, F) == expected
        # an inhomogeneous basis keeps the rows of every line
        shifted = [b + x[k % 8] for k, b in enumerate(basis)]
        assert constrain_basis_to_zeros(shifted, zeros, F) == naive_constrain(shifted, flat)


def test_basis_of_mixed_degrees_keeps_the_rows_of_every_line():
    # F vanishes on the plane z = 0, which holds the flat lines (1, t, 0) and
    # (t, 1, 0); h = x^2*y - x*y vanishes on the first line and at both zeros
    # but not on the second line, so one line's rows do not stand for its plane
    F = P("z^2*(x^2 + y^2 + z^2)")
    zeros = [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]]
    flat = [(p, naive_flat_lines(F, p)) for p in zeros]

    def plane_of(p, u):
        return tuple(k for k in range(3) if p[k] or u[k])

    assert [plane_of(p, u) for p, ls in flat for u, line in ls if line.is_zero()] == [
        (0,), (0, 1), (0, 1), (1,)
    ]
    for basis in ([P("x^2*y"), P("x*y")], [P("x^2*y - x*y"), P("x*y")]):
        by_plane = naive_constrain(basis, flat, plane_of)
        assert len(by_plane) == 1 and by_plane[0].evaluate([2, 5, 0]) != 0
        assert constrain_basis_to_zeros(basis, zeros, F) == naive_constrain(basis, flat) == []


def test_inhomogeneous_target_restricts_every_line():
    # F vanishes along the line through its zero e_w in the direction e_w, but
    # not along the one through e_y in the direction e_y, though each line
    # runs through the origin: without homogeneity one line says nothing of
    # another in its plane
    names = ["x", "y", "z", "w"]
    F = parse_poly("x^2 + z^2 + y^2*(y - 1)^4 + y^2*w^2", names)
    zeros = [[Fraction(int(k == i)) for k in range(4)] for i in (3, 1)]
    geometry = _ZeroGeometry(F)
    lines = [geometry.flat_lines(p) for p in zeros]
    assert lines == [naive_flat_lines(F, p) for p in zeros]
    assert lines[0][0][1].is_zero() and lines[1][0][1] == restrict_to_line(F, zeros[1], zeros[1])
    assert not lines[1][0][1].is_zero()


def test_certify_sos_restricts_each_zero_plane_once(monkeypatch):
    calls = []
    original = _IntForm.line_numerators

    def counting(self, e, a):
        calls.append(1)
        return original(self, e, a)

    monkeypatch.setattr(_IntForm, "line_numerators", counting)
    # 172 calls: the 322 flat lines at the 60 grid zeros take rows once per
    # orbit of zeros under the symmetries of Delta_13, and the other zeros
    # copy them; 652 calls line by line
    v = certify_sos(delta_ij(gen_vamos(), 0, 2), 0)
    assert not v.is_no
    assert len(calls) < 400


def test_vamos_sweep_at_budget_zero():
    # all 28 coordinate Wronskians of the Vamos polynomial at denominator
    # power 0: 4 refuted, and 24 certified, the boundary pairs Delta_13,
    # Delta_14, Delta_23 and Delta_24 among them (Delta_13 over a
    # face-reduced basis of 13); each certificate checks again after a JSON
    # round trip
    vamos = gen_vamos()
    no = {(0, 1), (2, 3), (4, 5), (6, 7)}
    for i in range(8):
        for j in range(i + 1, 8):
            v = certify_sos(delta_ij(vamos, i, j), 0)
            if (i, j) in no:
                assert v.is_no, (i, j)
            else:
                assert v.is_yes and v.witness.verify(), (i, j)
                assert SosCertificate.from_json(v.witness.to_json()).verify(), (i, j)
                assert (i, j) != (0, 2) or len(v.witness.basis) == 13


def test_vamos_wronskians_over_38_elements_are_certified():
    # face reduction applies at every basis size.  The hyperbolicity
    # Wronskian W = (D_e h)^2 - h D_e^2 h at e = 1, and Delta_{1,a} at
    # a = 1 - e_8 and a = 1 - (325/176) e_8, reduce their 56-element bases to
    # 38 and are certified there; each certificate checks again after a JSON
    # round trip
    h = gen_vamos()
    ones = [1] * 8
    for last in (1, 0, 1 - Fraction(325, 176)):
        F = wronskian_delta(h, ones, ones[:7] + [last])
        assert len(_auto_basis(F)) == 56
        v = certify_sos(F, 0)
        assert v.is_yes and len(v.witness.basis) == 38, last
        assert v.witness.verify()
        assert SosCertificate.from_json(v.witness.to_json()).verify(), last


def test_vamos_face_reduction_at_denominator_power_one():
    # the budget-one families of Delta_12, Delta_56 and Delta_78: the grid
    # zeros of Delta and their flat lines cut the 211-monomial basis of
    # Delta * (sum x_i^2) to 82, 79 and 79 elements
    vamos = gen_vamos()
    x = [Polynomial.variable(8, k) for k in range(8)]
    square_sum = sum((v * v for v in x), Polynomial.zero(8))
    for (i, j), size in [((0, 1), 82), ((4, 5), 79), ((6, 7), 79)]:
        F = delta_ij(vamos, i, j)
        zeros, _ = scan_small_points(F)
        basis = _auto_basis(F * square_sum)
        assert len(basis) == 211
        assert len(constrain_basis_to_zeros(basis, zeros, F)) == size, (i, j)


# -- symmetry: one decision per orbit of zeros ---------------------------------------


def fixes(F, sigma):
    """Whether the coordinate permutation sigma maps every term of F onto a term of F."""
    for m, c in F.terms.items():
        image = [0] * F.nvars
        for i, e in enumerate(m):
            image[sigma[i]] = e
        if F.terms.get(tuple(image)) != c:
            return False
    return True


def generated_group(gens, n):
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        sigma = frontier.pop()
        for g in gens:
            composed = tuple(g[k] for k in sigma)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


def test_symmetry_generators_generate_the_brute_force_group():
    rng = random.Random(2104)
    random_form = Polynomial(4, {m: rng.randint(-9, 9) or 1 for m in monomials_of_degree(4, 4)})
    cases = [
        (gen_lorentz(4), 6),  # the permutations of x2, x3, x4
        (gen_elementary_symmetric(5, 2), 120),
        (gen_cubic_example(), 1),
        (random_form, 1),
        (delta_ij(gen_vamos(), 0, 2), 32),
    ]
    for F, order in cases:
        gens = _symmetry_generators(F)
        n = F.nvars
        assert len(gens) <= n * (n - 1) // 2
        assert all(fixes(F, g) for g in gens)
        brute = {s for s in itertools.permutations(range(n)) if fixes(F, s)}
        assert generated_group(gens, n) == brute and len(brute) == order
    assert _symmetry_generators(random_form) == []


def _permuted(sigma, x):
    """sigma.x, with (sigma.x)[sigma[i]] = x[i]."""
    out = [None] * len(x)
    for i, v in zip(sigma, x):
        out[i] = v
    return out


def test_zero_orbits_start_at_their_first_zero_and_move_its_lines():
    # Delta_12, Delta_13 and Delta_78 of the Vamos polynomial: 48, 60 and 49
    # grid zeros in 14, 15 and 15 orbits of their 32 symmetries
    vamos = gen_vamos()
    for (i, j), norbits in [((0, 1), 14), ((0, 2), 15), ((6, 7), 15)]:
        F = delta_ij(vamos, i, j)
        zeros, _ = scan_small_points(F)
        geometry = _ZeroGeometry(F, zeros)
        alone = _ZeroGeometry(F)  # every zero its own representative
        assert sum(geometry.moved(p) is None for p in zeros) == norbits
        assert any(geometry.moved(p) is not None and geometry.moved(p)[2] < 0 for p in zeros)
        for k, p in enumerate(zeros):
            moved = geometry.moved(p)
            if moved is None:
                assert geometry.flat_lines(p) == alone.flat_lines(p)
                continue
            r, sigma, sign = moved
            assert geometry.moved(r) is None and zeros.index(r) < k
            assert fixes(F, sigma) and p == [sign * x for x in _permuted(sigma, r)]
            lines = geometry.flat_lines(p)
            assert len(lines) == len(alone.flat_lines(p))  # the kernel's dimension
            H = alone.derivatives_at(p)[1]
            for (v, line), (u, _) in zip(lines, geometry.flat_lines(r)):
                assert v == [sign * x for x in _permuted(sigma, u)]
                assert all(sum(h * x for h, x in zip(row, v)) == 0 for row in H)
                assert line == restrict_to_line(F, v, p)


def record_derivative_points(monkeypatch):
    """The list of points at which _ZeroGeometry.int_derivatives is called from now on."""
    calls = []
    original = _ZeroGeometry.int_derivatives

    def recording(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(_ZeroGeometry, "int_derivatives", recording)
    return calls


def test_obstruction_checks_one_zero_per_orbit(monkeypatch):
    # both targets are fixed by every permutation of x, y, z, and their
    # grid zeros form two orbits.  In the first, the orbit of (0, 0, 1)
    # passes and the gradient at (0, 1, 1) is (2, 0, 0); the moved zero
    # (0, 1, 0) before it is skipped.  In the second, the Hessian at
    # (0, 1, -1) is not PSD
    first = P("x^4*y^2 + x^4*z^2 + y^4*x^2 + y^4*z^2 + z^4*x^2 + z^4*y^2 - 2*x^3*y^3 - 2*x^3*z^3"
              " - 2*y^3*z^3 + x^3*y^2*z + x^3*z^2*y + y^3*x^2*z + y^3*z^2*x + z^3*x^2*y + z^3*y^2*x"
              " + x^2*y^2*z^2")
    second = P("x^4*y^2 + x^4*z^2 + y^4*x^2 + y^4*z^2 + z^4*x^2 + z^4*y^2 - x^4*y*z - y^4*x*z"
               " - z^4*x*y + 2*x^3*y^3 + 2*x^3*z^3 + 2*y^3*z^3")
    calls = record_derivative_points(monkeypatch)
    for F, failing, kind in [(first, [0, 1, 1], "nonzero gradient"), (second, [0, 1, -1], "Hessian not PSD")]:
        zeros, neg = scan_small_points(F)
        assert neg is None and len(zeros) == 6
        reference = next(w for w in (second_order_obstruction(F, [p]) for p in zeros) if w is not None)
        assert reference["point"] == failing and reference["kind"].startswith(kind)
        del calls[:]
        assert second_order_obstruction(F, zeros) == reference
        # the two representatives, and the failing one's exact derivatives for the witness
        assert calls == [zeros[0], failing, failing]


def test_certify_sos_decides_each_zero_orbit_once(monkeypatch):
    calls = record_derivative_points(monkeypatch)
    vamos = gen_vamos()
    for (i, j), norbits, yes in [((0, 1), 14, False), ((0, 2), 15, True), ((6, 7), 15, False)]:
        del calls[:]
        v = certify_sos(delta_ij(vamos, i, j), 0)
        assert v.is_yes == yes and v.is_no != yes
        assert len(calls) == norbits


def test_full_symmetry_takes_few_generators():
    # W = (D_e f)^2 - f D_e^2 f of e_{8,4} at e = 1 is fixed by all 40,320
    # permutations; the search never lists them
    n = 8
    W = wronskian_delta(gen_elementary_symmetric(n, 4), [1] * n, [1] * n)
    gens = _symmetry_generators(W)
    assert 0 < len(gens) <= n * (n - 1) // 2
    assert all(fixes(W, g) for g in gens)
    orbit = {0}
    for _ in range(n):
        orbit |= {g[k] for g in gens for k in orbit}
    assert orbit == set(range(n))
    v = certify_sos(W, 0)
    assert v.is_yes and v.witness.verify()


# -- the float SDP step -------------------------------------------------------------


def test_barrier_reaches_a_boundary_face_without_face_reduction():
    # every Gram matrix of F over the full basis is singular (F vanishes at
    # (1, 1, 1) and (1, 1, -1)), so the family has no interior point; the
    # barrier method runs into the relative interior of the face: two
    # eigenvalues at zero, a gap to the other four, and a point that rounds
    # to a certificate
    import numpy as np

    from hypersos.soscert import _round_and_certify

    F = P("(x^2 - y^2)^2 + (x*y - z^2)^2")
    sys = assemble_gram_system(F)
    assert len(sys.basis) == 6 and sys.nullspace_dim == 6
    x = solve_sdp(sys)
    assert x is not None
    G = np.zeros((6, 6))
    for k, (i, j) in enumerate(sys.pairs):
        G[i, j] = G[j, i] = x[k]
    eigenvalues = np.linalg.eigvalsh(G)
    assert np.all(np.abs(eigenvalues[:2]) < 1e-12) and eigenvalues[2] > 0.1
    cert = _round_and_certify(sys, x, F, 0)
    assert cert is not None and cert.verify()


def random_cubic_squares(nvars, count, seed):
    """The sum of count squares of cubic forms with random coefficients in -3..3."""
    rng = random.Random(seed)
    monos = monomials_of_degree(nvars, 3)
    F = Polynomial.zero(nvars)
    for _ in range(count):
        q = Polynomial(nvars, {m: rng.randint(-3, 3) for m in monos})
        F = F + q * q
    return F


def spy_on_equation_steps(monkeypatch, every_family=False):
    """Count the equation-form Newton steps.

    The nullspace form must not run; with every_family, each family that
    would take it takes the equation form instead.
    """
    from hypersos import soscert

    steps = []
    equation_form = soscert._equation_form

    def counting_form(sys, rows, cols, scale):
        z, G, slack, newton, point = equation_form(sys, rows, cols, scale)
        return z, G, slack, lambda *a: steps.append(1) or newton(*a), point

    def nullspace_form(sys, x0, rows, cols, scale):
        assert every_family, "nullspace form on a family too large for it"
        return counting_form(sys, rows, cols, scale)

    monkeypatch.setattr(soscert, "_equation_form", counting_form)
    monkeypatch.setattr(soscert, "_nullspace_form", nullspace_form)
    return steps


def test_solve_sdp_returns_none_when_the_newton_system_is_singular(monkeypatch):
    import numpy as np

    # a nullspace-form family, and one whose 1,134 directions only fit the equation form
    F = P("(x^2 - y^2)^2 + (x*y - z^2)^2")
    G = random_cubic_squares(6, 12, 1)
    systems = [assemble_gram_system(F), GramSystem(G, _auto_basis(G))]
    assert [s.nullspace_dim for s in systems] == [6, 1134]
    assert solve_sdp(systems[1]) is not None

    def singular(H, g):
        raise np.linalg.LinAlgError("Singular matrix")

    def not_finite(H, g):
        return np.full(len(g), np.nan)

    for solve in (singular, not_finite):
        monkeypatch.setattr(np.linalg, "solve", solve)
        for sys in systems:
            assert solve_sdp(sys) is None


def test_budget_one_vamos_family_gets_no_sdp(monkeypatch):
    # (sum x_i^2) * Delta_13 over its 211 monomials fits neither Newton
    # system in BARRIER_MAX_DOUBLES: 18,187 nullspace directions, 4,179
    # equations.  solve_sdp gives up before any Newton step
    from hypersos import soscert

    d = delta_ij(gen_vamos(), 0, 2)
    F = d * soscert._sum_of_var_squares(d.nvars)
    sys = GramSystem(F, _auto_basis(F))
    assert (sys.size, sys.nullspace_dim, sys.nunknowns - sys.nullspace_dim) == (211, 18187, 4179)

    def no_solve(*args):
        raise AssertionError("SDP work on a family too large for it")

    for name in ("_barrier_sdp", "_nullspace_form", "_equation_form"):
        monkeypatch.setattr(soscert, name, no_solve)
    assert solve_sdp(sys) is None


def test_equation_form_certifies_random_cubic_squares(monkeypatch):
    # n = 56 monomials give 1,134 nullspace directions, too many for the
    # nullspace form, but only 462 equations
    F = random_cubic_squares(6, 12, 1)
    sys = GramSystem(F, _auto_basis(F))
    assert (sys.size, sys.nullspace_dim, len(sys._eqs)) == (56, 1134, 462)
    steps = spy_on_equation_steps(monkeypatch)
    v = certify_sos(F, 0)
    assert v.is_yes and v.witness.verify()
    assert steps


def test_equation_form_decides_what_the_nullspace_form_does(monkeypatch):
    # small families through both forms, the modulo-f ones with their
    # multiplier column: the same verdicts, and every YES verifies
    from hypersos.polycore import directional_derivative

    f = gen_lorentz(3)
    e = [Fraction(1), Fraction(0), Fraction(0)]
    mod_f = [directional_derivative(f, e) * directional_derivative(f, [Fraction(c) for c in a])
             for a in ([3, 2, 2], [5, -3, 3], [-2, 1, 0])]
    families = [random_cubic_squares(3, 4, 2), P("x^4 + x^2*y^2 + y^4 + z^4 - x*y*z^2")]

    def verdicts():
        return [certify_sos(F, 0) for F in families] + [certify_sos_mod_f(G, f) for G in mod_f]

    before = verdicts()
    assert [v.is_yes for v in before] == [True, True, True, True, False]
    steps = spy_on_equation_steps(monkeypatch, every_family=True)
    after = verdicts()
    assert [v.status for v in after] == [v.status for v in before]
    assert all(v.witness.verify() for v in after if v.is_yes)
    assert steps
    # the float point itself, multiplier included, stays on the family
    basis = [Polynomial.monomial(3, m) for m in monomials_of_degree(3, 1)]
    sys = GramSystem(mod_f[0], basis, modulus=f, mult_monos=monomials_of_degree(3, 0))
    steps.clear()
    x = solve_sdp(sys)
    residual = sys.residual([Fraction(v) for v in x])
    assert steps and max(map(abs, residual.terms.values()), default=0) < 1e-9


def test_certify_sos_mod_f_lorentz_points_inside_the_cone():
    # F - p*f is a sum of squares for every a in the open Lorentz cone; for a
    # in the opposite cone there is no certificate, and a YES would be unsound
    from hypersos.polycore import directional_derivative

    f = gen_lorentz(3)
    e = [Fraction(1), Fraction(0), Fraction(0)]
    inside = [[2, 1, 0], [3, 2, 2], [5, -3, 3], [4, 0, -3], [7, 4, -5]]
    outside = [[-2, 1, 0], [-5, 3, 3]]
    for a in inside + outside:
        F = directional_derivative(f, e) * directional_derivative(f, [Fraction(c) for c in a])
        v = certify_sos_mod_f(F, f)
        if a in inside:
            assert v.is_yes and v.witness.verify(), a
        else:
            assert not v.is_yes, a


# -- rounding, projection and the Hessian check in ints -------------------------


def naive_structural_projection(sys, vec):
    """GramSystem.project_exact on a structural family, in plain Fraction arithmetic.

    The multiplier unknowns keep their values; each equation corrects its
    Gram unknowns against rhs - sum c_t p_t.
    """
    y = [Fraction(v) for v in vec]
    out = list(y)
    held = y[len(sys.pairs):]
    for pair_idxs, rhs, mult in sys._eqs:
        rhs = rhs - sum(c * held[t] for t, c in mult.items())
        num = rhs - sum(sys.weights[k] * y[k] for k in pair_idxs)
        nu = num / sum(sys.weights[k] for k in pair_idxs)
        for k in pair_idxs:
            out[k] = y[k] + nu
    return out


def test_structural_projection_matches_the_fraction_reference():
    rng = random.Random(1516)
    for trial in range(40):
        nvars, degree = rng.choice([(2, 2), (2, 4), (3, 2), (3, 4), (4, 2)])
        terms = {m: Fraction(rng.randint(-60, 60), rng.randint(1, 997))
                 for m in monomials_of_degree(nvars, degree) if rng.random() < 0.7}
        F = Polynomial(nvars, terms) or Polynomial.monomial(nvars, (degree,) + (0,) * (nvars - 1))
        sys = assemble_gram_system(F)
        assert sys._eqs is not None
        vec = random_unknowns(rng, sys.nunknowns)
        got = sys.project_exact(vec)
        assert all(type(x) is Fraction for x in got)
        assert got == naive_structural_projection(sys, vec)
        assert sys.residual(got).is_zero()
        assert sys.project_exact(got) == got


def test_general_projection_keeps_the_free_unknowns():
    # over general polynomials the family comes from exact elimination; the
    # projection keeps the RREF free unknowns and back-substitutes the pivots.
    # Delta_13 of the Vamos polynomial takes this path over its face-reduced
    # basis of 13 cubics, and its certificate comes out of it
    d13 = delta_ij(gen_vamos(), 0, 2)
    zeros, _ = scan_small_points(d13)
    families = [
        GramSystem(P("x^2 + y^2 + z^2"), [P("x + y"), P("y + z"), P("x + z"), P("x - y")]),
        GramSystem(d13, constrain_basis_to_zeros(_auto_basis(d13), zeros, d13)),
    ]
    rng = random.Random(1919)
    for sys in families:
        assert sys._eqs is None and sys.nullspace_dim > 0
        free = [max(v) for v in sys.nullspace_vectors()]
        for _ in range(4):
            vec = [Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 997)) for _ in range(sys.nunknowns)]
            got = sys.project_exact(vec)
            assert sys.residual(got).is_zero()
            assert sys.project_exact(got) == got
            assert [got[f] for f in free] == [vec[f] for f in free]
            G = sys.matrix_from_vector(got)
            assert sys.contains(G)
            G[0][0] += Fraction(1, 3)
            assert not sys.contains(G)
    v = certify_sos(d13, 0)
    assert v.is_yes and v.witness.verify() and len(v.witness.basis) == families[1].size == 13


def test_general_gram_rows_are_the_coefficients_of_the_basis_products(monkeypatch):
    # over a general basis the equations are built from the lcm-scaled int
    # terms of the basis; divided by the square of that lcm D, they are the
    # coefficient rows of the Fraction products b_i * b_j * w, one per
    # monomial, with the target's coefficients on the right.  Delta_13's
    # face-reduced basis holds sums of monomials with coefficients 1; the
    # second basis spans the same space with denominators
    from hypersos import soscert

    d13 = delta_ij(gen_vamos(), 0, 2)
    zeros, _ = scan_small_points(d13)
    reduced = constrain_basis_to_zeros(_auto_basis(d13), zeros, d13)
    assert any(b.num_terms() > 1 for b in reduced)
    mixed = [(b + reduced[k + 1] * Fraction(1, k + 2) if k + 1 < len(reduced) else b) * Fraction(k + 2, 2 * k + 3)
             for k, b in enumerate(reduced)]
    calls = []

    def recording(rows, rhs, n):
        calls.append((rows, rhs))
        return solve_affine_family(rows, rhs, n)

    monkeypatch.setattr(soscert, "solve_affine_family", recording)
    for basis in (reduced, mixed):
        sys = GramSystem(d13, basis)
        assert sys._eqs is None
        rows, rhs = calls.pop()
        D = math.lcm(*(c.denominator for b in basis for c in b.terms.values()))
        got = sorted((tuple(sorted((k, Fraction(x, D * D)) for k, x in row.items() if x)), Fraction(b) / (D * D))
                     for row, b in zip(rows, rhs))
        products = [basis[i] * basis[j] * w for (i, j), w in zip(sys.pairs, sys.weights)]
        monos = set(d13.terms).union(*(p.terms for p in products))
        want = sorted((tuple((k, p.terms[m]) for k, p in enumerate(products) if m in p.terms), d13.coefficient(m))
                      for m in monos)
        assert [r for r in got if r != ((), 0)] == want
        base = sys.particular_vector()
        assert sys.nullspace_dim > 0 and sys.residual(base).is_zero()
        for v in sys.nullspace_vectors():
            assert sys.residual([x + v.get(k, 0) for k, x in enumerate(base)]).is_zero()
    assert D > 1


def random_unknowns(rng, count):
    """count ints, floats and Fractions with large denominators, mixed."""
    vec = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            vec.append(rng.randint(-9, 9))
        elif kind == 1:
            vec.append(rng.uniform(-3, 3))
        else:
            vec.append(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**5)))
    return vec


def modulo_f_cases():
    """(F, f) for Lorentz(3) and e_{4,3}, with F = D_e f * D_a f."""
    from hypersos.polycore import directional_derivative

    cases = []
    for f, e, a in ((gen_lorentz(3), [1, 0, 0], [2, 1, 0]),
                    (gen_elementary_symmetric(4, 3), [1, 1, 1, 1], [3, 1, 2, 5])):
        e, a = [Fraction(c) for c in e], [Fraction(c) for c in a]
        cases.append((directional_derivative(f, e) * directional_derivative(f, a), f))
    return cases


def modulo_f_system(F, f):
    """The Gram family that certify_sos_mod_f searches."""
    d = f.total_degree()
    basis = [Polynomial.monomial(f.nvars, m) for m in monomials_of_degree(f.nvars, d - 1)]
    return GramSystem(F, basis, modulus=f, mult_monos=monomials_of_degree(f.nvars, d - 2))


def test_modulo_f_projection_holds_the_multiplier():
    rng = random.Random(1818)
    for F, f in modulo_f_cases():
        sys = modulo_f_system(F, f)
        npairs = len(sys.pairs)
        assert sys._eqs is not None and sys.extra == f.nvars ** (f.total_degree() - 2)
        for _ in range(20):
            vec = random_unknowns(rng, sys.nunknowns)
            got = sys.project_exact(vec)
            assert all(type(x) is Fraction for x in got)
            assert got == naive_structural_projection(sys, vec)
            assert got[npairs:] == [Fraction(v) for v in vec[npairs:]]
            assert sys.residual(got).is_zero()
            assert sys.project_exact(got) == got


def test_modulo_f_directions_span_the_family():
    for F, f in modulo_f_cases():
        sys = modulo_f_system(F, f)
        directions = sys.nullspace_vectors()
        assert len(directions) == sys.nullspace_dim
        base = sys.particular_vector()
        assert sys.residual(base).is_zero()
        for d in directions:
            assert sys.residual([v + d.get(k, 0) for k, v in enumerate(base)]) == sys.residual(base)
        dense = [[d.get(k, Fraction(0)) for k in range(sys.nunknowns)] for d in directions]
        # the directions are independent ...
        _, kernel = solve_affine_family([dict(enumerate(row)) for row in dense], [Fraction(0)] * len(dense),
                                        sys.nunknowns)
        assert len(kernel) == sys.nunknowns - len(directions)
        # ... and as many as exact elimination finds on the dense coefficient rows
        polys = [sys.basis[i] * sys.basis[j] * w for (i, j), w in zip(sys.pairs, sys.weights)]
        polys += [Polynomial.monomial(f.nvars, m) * f for m in sys.mult_monos]
        monos = sorted({m for p in polys for m in p.terms} | set(F.terms))
        rows = [[p.terms.get(m, Fraction(0)) for p in polys] for m in monos]
        _, null = solve_affine_family([dict(enumerate(row)) for row in rows], [F.terms.get(m, Fraction(0)) for m in monos],
                                      sys.nunknowns)
        assert len(null) == sys.nullspace_dim


def test_certify_sos_mod_f_makes_no_exact_elimination(monkeypatch):
    from hypersos import soscert

    def eliminate(*args):
        raise AssertionError("exact elimination in a modulo-f family")

    monkeypatch.setattr(soscert, "solve_affine_family", eliminate)
    assert not hasattr(soscert, "solve_linear")
    for F, f in modulo_f_cases():
        v = certify_sos_mod_f(F, f)
        assert v.is_yes and v.witness.verify()
    F, f = modulo_f_cases()[0]
    assert certify_sos_mod_f(-F, f).is_unknown


def test_modulo_f_inputs_are_checked():
    F, f = modulo_f_cases()[0]
    with pytest.raises(ValueError, match="variables"):
        certify_sos_mod_f(Polynomial.zero(2), f)
    with pytest.raises(ValueError, match="variables"):
        certify_sos_mod_f(P("x^2 + y^2", ["x", "y"]), f)
    basis = [Polynomial.variable(3, i) for i in range(3)]
    with pytest.raises(ValueError, match="unit monomials"):
        GramSystem(F, [b * 2 for b in basis], modulus=f, mult_monos=[(0, 0, 0)])
    with pytest.raises(ValueError, match="multiplier term"):
        GramSystem(P("x^2 + y^2"), basis[:2], modulus=f, mult_monos=[(0, 0, 0)])
    with pytest.raises(ValueError, match="need a modulus"):
        GramSystem(F, basis, mult_monos=[(0, 0, 0)])


def test_verify_rejects_other_rings_and_a_lone_multiplier():
    import dataclasses

    def widen(p):
        return Polynomial(p.nvars + 1, {m + (0,): c for m, c in p.terms.items()})

    F, f = modulo_f_cases()[0]
    cert = certify_sos_mod_f(F, f).witness
    assert cert.verify()
    plain = genuine_certificate()
    bad = [
        dataclasses.replace(cert, modulus=None),
        dataclasses.replace(cert, multiplier=None),
        dataclasses.replace(plain, multiplier=Polynomial.zero(3)),
        dataclasses.replace(cert, multiplier=widen(cert.multiplier)),
        dataclasses.replace(cert, modulus=widen(f)),
        dataclasses.replace(cert, basis=[widen(cert.basis[0])] + cert.basis[1:]),
        SosCertificate(basis=[], gram=[], denominator_power=0, target=Polynomial.zero(2),
                       multiplier=Polynomial.zero(3), modulus=f),
    ]
    for c in bad:
        assert c.verify() is False


def test_certify_sos_with_an_empty_basis_is_refuted():
    F = P("x^2*y^2 + z^4")
    zeros, _ = scan_small_points(F)
    assert zeros and constrain_basis_to_zeros([], zeros, F) == []


def test_hessian_refutation_reads_its_reason_from_the_exact_hessian():
    # F and its gradient vanish at p; the Hessian there is diag(4/45, -2/21, 0).
    # The refutation factors the integer Hessian, a positive multiple of the
    # exact one, so it names the same row, and it reports the exact Hessian
    names = ["x", "y", "z"]
    F = parse_poly("2/5*x^2*z^2 - 3/7*y^2*z^2 + x^4 + y^4", names)
    p = [Fraction(0), Fraction(0), Fraction(1, 3)]
    assert F.evaluate(p) == 0
    out = second_order_obstruction(F, [p])
    geometry = _ZeroGeometry(F)
    grad, H = geometry.derivatives_at(p)
    assert not any(grad)
    assert H == [[Fraction(4, 45), 0, 0], [0, Fraction(-2, 21), 0], [0, 0, 0]]
    reason = ldl_psd(H).reason
    assert reason == "negative diagonal entry at row 1"
    assert ldl_psd(geometry.int_derivatives(p)[1]).reason == reason
    assert out == {"point": p, "hessian": H, "kind": f"Hessian not PSD at a zero ({reason})"}
    assert all(type(h) is Fraction for row in out["hessian"] for h in row)
