"""Hyperbolicity, cone membership, Wronskians, and interlacer verdicts."""

import itertools
import random
from fractions import Fraction

import pytest

from hypersos.corpus import gen_elementary_symmetric, gen_lorentz, gen_product, gen_vamos
from hypersos.hypercone import (
    HyperbolicityInstance,
    SampleConfig,
    SquareFreeSampleError,
    assert_square_free_sampled,
    check_hyperbolic,
    cone_membership,
    delta_ij,
    int_cone_membership_by_derivative,
    interlaces,
    wronskian_delta,
)
from hypersos.polycore import (
    Polynomial,
    directional_derivative,
    parse_poly,
    restrict_to_line,
    wronskian,
)
from hypersos.realroots import is_real_rooted, roots_interlace
from hypersos.verdicts import Status

XYZ = ["x", "y", "z"]
CFG = SampleConfig(trials=24, seed=9)


def P(text, names=XYZ):
    return parse_poly(text, names)


def rand_homog(rng, nvars, degree, terms=4):
    from hypersos.soscert import monomials_of_degree

    monos = monomials_of_degree(nvars, degree)
    out = {}
    for _ in range(terms):
        m = monos[rng.randrange(len(monos))]
        c = Fraction(rng.randint(-4, 4))
        if c:
            out[m] = out.get(m, Fraction(0)) + c
    return Polynomial(nvars, out)


# -- instance construction ----------------------------------------------------


def test_instance_normalizes_sign():
    f = P("-(x^2 - y^2 - z^2)")
    inst = HyperbolicityInstance(f, [1, 0, 0])
    assert inst.f.evaluate([1, 0, 0]) > 0


def test_instance_rejects_bad_input():
    with pytest.raises(ValueError):
        HyperbolicityInstance(P("x^2 + y"), [1, 0, 0])  # inhomogeneous
    with pytest.raises(ValueError):
        HyperbolicityInstance(P("x^2 - y^2 - z^2"), [1, 1, 0])  # f(e) = 0


# -- hyperbolicity ---------------------------------------------------------------


def test_check_hyperbolic_lorentz():
    inst = HyperbolicityInstance(gen_lorentz(3), [1, 0, 0])
    v = check_hyperbolic(inst, SampleConfig(trials=100, seed=3))
    assert v.is_yes
    assert "sampled=true" in v.detail


def test_check_hyperbolic_refutes_definite_quadratic():
    inst = HyperbolicityInstance(parse_poly("x^2 + y^2", ["x", "y"]), [1, 0])
    v = check_hyperbolic(inst, SampleConfig(trials=10, seed=1))
    assert v.is_no
    assert v.witness["a"] is not None


def naive_first_bad_line(inst, cfg):
    for a in cfg.vectors(inst.f.nvars):
        if not is_real_rooted(restrict_to_line(inst.f, inst.e, a)):
            return {"a": a}
    return None


def test_check_hyperbolic_witness_is_first_failing_line():
    cfg = SampleConfig(trials=24, seed=9)
    for text, first in (("x^3 - 4*x*y^2 + y*z^2", 5), ("x^2 + y^2 + z^2", 0), ("x^2 - y^2 - z^2", None)):
        inst = HyperbolicityInstance(P(text), [1, 0, 0])
        want = naive_first_bad_line(inst, cfg)
        v = check_hyperbolic(inst, cfg)
        assert v.witness == want
        assert v.is_no == (want is not None)
        if first is not None:  # the witness is not simply the first sampled vector
            assert want["a"] == cfg.vectors(3)[first]


def test_check_hyperbolic_vamos():
    inst = HyperbolicityInstance(gen_vamos(), [1] * 8)
    v = check_hyperbolic(inst, SampleConfig(trials=30, seed=5))
    assert v.is_yes


def test_sampled_lines_read_the_taylor_pieces(monkeypatch):
    # check_hyperbolic and interlaces compile the pieces of f (and g) once per
    # call and expand no line by line_numerators (the Wronskian's SOS stage
    # keeps its own flat-line restrictions); cone_membership draws one line
    # per call and keeps restrict_to_line
    from hypersos import hypercone, soscert
    from hypersos.polycore import _IntForm

    counts = {"line_numerators": 0, "taylor_pieces": 0, "restrict_to_line": 0}
    in_sos = [False]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += not in_sos[0]
            return fn(*args, **kwargs)
        return wrapper

    certify = soscert.certify_sos

    def certify_uncounted(*args, **kwargs):
        in_sos[0] = True
        try:
            return certify(*args, **kwargs)
        finally:
            in_sos[0] = False

    for name in ("line_numerators", "taylor_pieces"):
        monkeypatch.setattr(_IntForm, name, counting(name, getattr(_IntForm, name)))
    restrict = counting("restrict_to_line", hypercone.restrict_to_line)
    monkeypatch.setattr(hypercone, "restrict_to_line", restrict)
    monkeypatch.setattr(soscert, "certify_sos", certify_uncounted)

    def calls(run):
        counts.update(dict.fromkeys(counts, 0))
        status = run().status
        return status, dict(counts)

    vamos = HyperbolicityInstance(gen_vamos(), [1] * 8)
    want = {"line_numerators": 0, "taylor_pieces": 1, "restrict_to_line": 0}
    assert calls(lambda: check_hyperbolic(vamos, SampleConfig(trials=64))) == (Status.CERTIFIED_YES, want)
    f = gen_elementary_symmetric(5, 3)
    e53 = HyperbolicityInstance(f, [1] * 5)
    cfg = SampleConfig(trials=16)
    for a, status in (([1] * 5, Status.CERTIFIED_YES), ([1, -1, 0, 0, 0], Status.CERTIFIED_NO)):
        g = directional_derivative(f, a)
        assert calls(lambda: interlaces(e53, g, cfg, 0)) == (status, want)
    one_line = {"line_numerators": 1, "taylor_pieces": 0, "restrict_to_line": 1}
    for closure in (False, True):
        member = calls(lambda: cone_membership(vamos, [2, 1, 1, 1, 1, 1, 1, 1], closure))
        assert member == (Status.CERTIFIED_YES, one_line)


def test_sample_draws_the_vectors_lazily():
    # sample() yields vectors() one at a time, so a huge trial count costs
    # nothing until it is drawn; a bad nvars is rejected at call time
    cfg = SampleConfig(trials=40, seed=3, coordinate_bound=2)
    assert list(cfg.sample(3)) == cfg.vectors(3)
    assert list(cfg.sample(3, 7)) == cfg.vectors(3, 7) == cfg.vectors(3)[:7]
    huge = SampleConfig(trials=10**12, seed=3, coordinate_bound=2)
    stream = huge.sample(3)
    assert [next(stream) for _ in range(40)] == cfg.vectors(3)
    for bad in (huge.sample, huge.vectors):
        with pytest.raises(ValueError):
            bad(0)


# -- cone membership ---------------------------------------------------------------


def test_cone_membership_product_orthant():
    n = 4
    inst = HyperbolicityInstance(gen_product(n), [1] * n)
    assert cone_membership(inst, [1] * n).is_yes
    assert cone_membership(inst, [1, -1, 2, 3]).is_no
    # boundary: open cone says no, closure says yes
    assert cone_membership(inst, [1, 1, 1, 0]).is_no
    assert cone_membership(inst, [1, 1, 1, 0], closure=True).is_yes


def test_cone_membership_lorentz():
    inst = HyperbolicityInstance(gen_lorentz(3), [1, 0, 0])
    assert cone_membership(inst, [2, 1, 0]).is_yes
    assert cone_membership(inst, [1, 2, 0]).is_no
    assert cone_membership(inst, [1, 1, 0]).is_no
    assert cone_membership(inst, [1, 1, 0], closure=True).is_yes


# -- Wronskians -----------------------------------------------------------------------


def test_lorentz_wronskian_symbolic():
    # Delta_{e,a} f for the Lorentz form, with the a_j as ring variables
    for n in (3, 4):
        nv = 2 * n
        f = Polynomial(nv, {tuple(2 if i == j else 0 for i in range(nv)): Fraction(1 if j == 0 else -1) for j in range(n)})
        de = f.partial(0)
        da = Polynomial.zero(nv)
        for i in range(n):
            a_i = Polynomial.variable(nv, n + i)
            da = da + a_i * f.partial(i)
        deda = da.partial(0)
        delta = de * da - f * deda

        expected = Polynomial.zero(nv)
        a1 = Polynomial.variable(nv, n)
        x1 = Polynomial.variable(nv, 0)
        expected = expected + 2 * a1 * x1 * x1
        for j in range(1, n):
            aj = Polynomial.variable(nv, n + j)
            xj = Polynomial.variable(nv, j)
            expected = expected - 4 * aj * x1 * xj + 2 * a1 * xj * xj
        assert delta == expected


def test_wronskian_delta_properties():
    rng = random.Random(43)
    for _ in range(20):
        f = rand_homog(rng, 3, 3)
        if f.is_zero():
            continue
        e = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        a = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        # symmetry and bilinearity
        assert wronskian_delta(f, e, a) == wronskian_delta(f, a, e)
        ab = [x + y for x, y in zip(a, b)]
        assert wronskian_delta(f, e, ab) == wronskian_delta(f, e, a) + wronskian_delta(f, e, b)
        d = wronskian_delta(f, e, a)
        if not d.is_zero():
            assert d.is_homogeneous()
            assert d.total_degree() == 2 * f.total_degree() - 2


def test_delta_ij_examples():
    assert delta_ij(Polynomial.monomial(2, (1, 1)), 0, 1).is_zero()
    e2 = gen_elementary_symmetric(3, 2)
    assert delta_ij(e2, 0, 1) == Polynomial.monomial(3, (0, 0, 2))
    e3 = gen_elementary_symmetric(4, 3)
    assert delta_ij(e3, 0, 1) == Polynomial.monomial(4, (0, 0, 2, 2))


def naive_delta_ij(f, i, j):
    fi = f.partial(i)
    return fi * f.partial(j) - f * fi.partial(j)


def naive_directional(f, a):
    """D_a f as a sum of Fraction partials, one Polynomial addition per coordinate."""
    out = Polynomial.zero(f.nvars)
    for i, ai in enumerate(a):
        if ai:
            out = out + f.partial(i) * Fraction(ai)
    return out


def naive_wronskian_delta(f, e, a):
    de = naive_directional(f, e)
    return de * naive_directional(f, a) - f * naive_directional(de, a)


def naive_wronskian(f, g, e):
    return naive_directional(f, e) * g - f * naive_directional(g, e)


def rand_rational(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def rand_rational_form(rng, nvars, degree, terms):
    """Up to `terms` terms of the given degree with rational coefficients of denominator up to 10^6."""
    out = {}
    for _ in range(terms):
        cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        mono = tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))
        out[mono] = rand_rational(rng)
    return Polynomial(nvars, out)


def test_wronskian_kernel_matches_the_fraction_formulas():
    # every (nvars, degree, direction kind) combination is met 11 or 12 times;
    # e and a are rational with some zero entries, or the zero vector, or equal
    rng = random.Random(28)
    kinds = ("rational", "zero", "equal")
    for k in range(1050):
        n, d, kind = 1 + k % 6, 1 + (k // 6) % 5, kinds[(k // 30) % 3]
        f = rand_rational_form(rng, n, d, rng.randint(1, 6))
        e = [rand_rational(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
        a = {"rational": [rand_rational(rng) if rng.random() < 0.8 else 0 for _ in range(n)],
             "zero": [0] * n, "equal": list(e)}[kind]
        if kind == "zero" and k % 2:
            e, a = a, e
        assert wronskian_delta(f, e, a) == naive_wronskian_delta(f, e, a)
        assert directional_derivative(f, a) == naive_directional(f, a)
        # the interlacer Wronskian takes any g, not only D_a f
        g = rand_rational_form(rng, n, max(d - 1, 0), rng.randint(0, 6))
        assert wronskian(f, g, e) == naive_wronskian(f, g, e)
        assert wronskian(f, f, e).is_zero()


def test_wronskians_never_differentiate_a_polynomial(monkeypatch):
    def refuse(self, i):
        raise AssertionError("Polynomial.partial called")

    monkeypatch.setattr(Polynomial, "partial", refuse)
    f = gen_lorentz(3)
    # 2x * (3x + 2y/7) - 3 * (x^2 - y^2 - z^2)
    assert wronskian_delta(f, [1, 0, 0], [Fraction(3, 2), Fraction(-1, 7), 0]) == P("3*x^2 + 4/7*x*y + 3*y^2 + 3*z^2")
    inst = HyperbolicityInstance(f, [1, 0, 0])
    assert interlaces(inst, directional_derivative(f, [2, 1, 0]), CFG, sos_budget=0).is_yes
    assert int_cone_membership_by_derivative(inst, [2, 1, 0], CFG, 0).is_yes


def test_wronskian_errors_keep_their_messages():
    f = gen_lorentz(3)
    for e, a, length in (([1, 0], [2, 1, 0], 2), ([1, 0, 0], [2, 1], 2), ([1, 0, 0, 0], [2, 1], 4)):
        with pytest.raises(ValueError, match=f"^direction length {length} != nvars 3$"):
            wronskian_delta(f, e, a)
    with pytest.raises(ValueError, match="^direction length 2 != nvars 3$"):
        directional_derivative(f, [1, 0])
    with pytest.raises(ValueError, match="^direction length 4 != nvars 3$"):
        wronskian(f, f, [1, 0, 0, 0])
    with pytest.raises(ValueError, match="^f must be homogeneous of degree >= 1$"):
        wronskian_delta(P("x^2 - y^2 - z"), [1, 0, 0], [2, 1])
    with pytest.raises(ValueError, match="^f must be homogeneous of degree >= 1$"):
        wronskian_delta(Polynomial.const(3, 7), [1, 0, 0], [2, 1, 0])


def test_delta_ij_matches_the_derivative_reference():
    # exponents up to 3 and rational coefficients, so pieces of every shape
    # meet; every ordered (i, j), i = j and i > j included
    rng = random.Random(2023)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            mono = tuple(rng.randint(0, 3) for _ in range(n))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        f = Polynomial(n, terms)
        for i in range(n):
            for j in range(n):
                assert delta_ij(f, i, j) == naive_delta_ij(f, i, j)
                checked += 1
    assert checked > 800
    # the packed kernel sizes its keys for twice the degree of f: degrees 2, 4,
    # 7, 8 and 9 give 4, 8, 14, 16 and 18, on both sides of a power of two;
    # some variables never occur and denominators go up to 10^9 + 7
    shapes = set()
    for k in range(90):
        n, degree = rng.randint(1, 5), (2, 4, 7, 8, 9)[k % 5]
        absent = rng.randrange(n + 1)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = [0] * n
            for _ in range(rng.randint(0, degree)):
                v = rng.randrange(n)
                if v != absent:
                    mono[v] += 1
            terms[tuple(mono)] = Fraction(rng.randint(-10**6, 10**6), rng.choice([1, 7, 10**9 + 7]))
        f = Polynomial(n, terms)
        for i in range(n):
            for j in range(n):
                d = delta_ij(f, i, j)
                assert d == naive_delta_ij(f, i, j)
                shapes.add((d.is_zero(), max((max(m) for m in d.terms), default=0) >= 8))
    assert shapes == {(True, False), (False, False), (False, True)}
    # x^(d-1) y * x^(d-1) z puts all of 2d - 2 on x
    x, y, z = (Polynomial.variable(3, k) for k in range(3))
    cases = [x**8 * y**8 + x, x**7 * y - y**7, (x + y) ** 8]
    cases += [x ** (d - 1) * (y + z * Fraction(3, 7)) + y * z ** (d - 1) for d in (3, 5, 8, 9)]
    for f in cases:
        for i, j in itertools.product(range(3), repeat=2):
            assert delta_ij(f, i, j) == naive_delta_ij(f, i, j)
    for n in (1, 3):
        for i in range(n):
            for j in range(n):
                assert delta_ij(Polynomial.zero(n), i, j).is_zero()
    with pytest.raises(ValueError):
        delta_ij(Polynomial.zero(2), 0, 2)


def test_delta_ij_matches_the_reference_on_every_vamos_pair():
    vamos = gen_vamos()
    for i in range(8):
        for j in range(i + 1, 8):
            assert delta_ij(vamos, i, j) == naive_delta_ij(vamos, i, j)


def test_delta_power_rule():
    rng = random.Random(47)
    for _ in range(20):
        f = rand_homog(rng, 3, 2)
        if f.is_zero():
            continue
        e = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        a = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        base = wronskian_delta(f, e, a)
        for r in (2, 3):
            fr = f**r
            if fr.total_degree() < 1:
                continue
            lhs = wronskian_delta(fr, e, a)
            rhs = r * (f ** (2 * (r - 1))) * base
            assert lhs == rhs


def test_delta_product_rule():
    # Delta_ij(g*h) = g^2 Delta_ij(h) + h^2 Delta_ij(g) for g, h affine in x_i, x_j
    rng = random.Random(53)
    for _ in range(20):
        def rand_affine12(rng):
            out = {}
            for _ in range(4):
                mono = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 2))
                c = Fraction(rng.randint(-3, 3))
                if c:
                    out[mono] = out.get(mono, Fraction(0)) + c
            return Polynomial(4, out)

        g, h = rand_affine12(rng), rand_affine12(rng)
        f = g * h
        if f.degree_in(0) > 1 or f.degree_in(1) > 1:
            continue
        lhs = delta_ij(f, 0, 1)
        rhs = g * g * delta_ij(h, 0, 1) + h * h * delta_ij(g, 0, 1)
        assert lhs == rhs


# -- square-freeness sampling -----------------------------------------------------


def test_square_free_sampling_accepts_lorentz():
    assert_square_free_sampled(gen_lorentz(3), [Fraction(1), Fraction(0), Fraction(0)], CFG)


def test_square_free_sampling_rejects_squares():
    f = P("(x - y)^2 * (x + y)")
    with pytest.raises(SquareFreeSampleError):
        assert_square_free_sampled(f, [Fraction(2), Fraction(1), Fraction(0)], CFG)


# -- interlacing verdicts -----------------------------------------------------------


def test_interlaces_lorentz_derivative():
    f = gen_lorentz(3)
    inst = HyperbolicityInstance(f, [1, 0, 0])
    v = interlaces(inst, directional_derivative(f, [1, 0, 0]), CFG, sos_budget=1)
    assert v.is_yes


def test_interlaces_rejects_vanishing_at_e():
    # product with a quadratic factor sharing a root pattern: h(e) = 0 forces NO
    f = P("(x^2 + y^2 - z^2)*(x - 2*z)")
    inst = HyperbolicityInstance(f, [0, 0, 1])
    h = P("y*(x - 2*z)")
    v = interlaces(inst, h, CFG, sos_budget=1)
    assert v.is_no


def test_interlaces_quadratic_factor_does_interlace():
    f = P("(x^2 + y^2 - z^2)*(x - 2*z)")
    inst = HyperbolicityInstance(f, [0, 0, 1])
    g = P("-(x^2 + y^2 - z^2)")  # positive at e
    v = interlaces(inst, g, CFG, sos_budget=1)
    assert v.is_yes


def test_interlaces_refuted_on_a_line():
    f = parse_poly("x^2 - y^2", ["x", "y"])
    inst = HyperbolicityInstance(f, [1, 0])
    g = parse_poly("x + 3*y", ["x", "y"])
    v = interlaces(inst, g, SampleConfig(trials=16, seed=2), sos_budget=0)
    assert v.is_no
    assert v.witness is not None


def naive_interlacing_refutation(inst, g, cfg):
    """Stages 1 and 2 of `interlaces`, with one restriction and evaluation per call."""
    f, e = inst.f, inst.e
    for a in cfg.vectors(f.nvars):
        v = roots_interlace(restrict_to_line(f, e, a), restrict_to_line(g, e, a), strict=False)
        if v.is_no:
            return {"a": a, "line_verdict": v.detail}
    wg = naive_wronskian(f, g, e)
    for p in cfg.vectors(f.nvars):
        val = wg.evaluate(p)
        if val < 0:
            return {"point": p, "value": val}
    return None


def test_interlaces_witness_matches_naive_refutation():
    cfg = SampleConfig(trials=24, seed=9)
    cases = (
        ("(x - y)*(x + y)*(x - z)", "x^2 - y*z", 3),
        ("x^2 - y^2 - z^2", "x + 3*y", 0),
        ("x^2 - y^2 - z^2", "x + y/2 + z/2", None),
    )
    for ftext, gtext, first in cases:
        inst = HyperbolicityInstance(P(ftext), [1, 0, 0])
        g = P(gtext)
        want = naive_interlacing_refutation(inst, g, cfg)
        v = interlaces(inst, g, cfg, sos_budget=0)
        assert v.is_no == (want is not None)
        if want is not None:
            assert v.witness == want
        if first is not None:
            assert want["a"] == cfg.vectors(3)[first]


def test_interlaces_degree_mismatch():
    inst = HyperbolicityInstance(gen_lorentz(3), [1, 0, 0])
    with pytest.raises(ValueError):
        interlaces(inst, P("x^2"), CFG)


def test_interlaces_strict_mode_reports_sampling():
    f = gen_lorentz(3)
    inst = HyperbolicityInstance(f, [1, 0, 0])
    v = interlaces(inst, directional_derivative(f, [1, 0, 0]), CFG, sos_budget=1, strict=True)
    assert v.is_yes
    assert "strictness sampled" in v.detail


def test_interlaces_strict_builds_no_extra_sturm_chains(monkeypatch):
    # a strict YES on a line implies the non-strict YES, so strict mode must
    # not run the non-strict test on that line as well
    from hypersos import realroots

    built = [0]
    init = realroots.SturmSequence.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(realroots.SturmSequence, "__init__", counting_init)
    f = gen_lorentz(4)
    inst = HyperbolicityInstance(f, [1, 0, 0, 0])
    g = directional_derivative(f, [1, 0, 0, 0])
    cfg = SampleConfig(trials=24, seed=9)
    verdicts = {}
    for strict in (False, True):
        built[0] = 0
        v = interlaces(inst, g, cfg, strict=strict)
        verdicts[strict] = (v.status, built[0], v.detail)
    assert verdicts[False][:2] == verdicts[True][:2] == (Status.CERTIFIED_YES, 72)
    assert verdicts[True][2] == verdicts[False][2] + "; strictness sampled only (24/24 lines strict)"


def test_sign_agreement_of_two_interlacers():
    # two certified interlacers have a product that is nonnegative on the
    # zero set of f: check exactly at roots of sampled line restrictions
    f = gen_lorentz(3)
    e = [Fraction(1), Fraction(0), Fraction(0)]
    g = directional_derivative(f, e)
    h = directional_derivative(f, [Fraction(2), Fraction(1), Fraction(0)])
    gh = g * h
    rng = random.Random(59)
    for _ in range(20):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        fline = restrict_to_line(f, e, a)
        ghline = restrict_to_line(gh, e, a)
        c0, c1, c2 = fline.coeffs
        assert c1 * c1 >= 4 * c0 * c2  # real roots t1, t2
        # at the roots gh equals alpha*t + beta, its remainder mod fline;
        # both values are >= 0 iff their sum and product are (Vieta)
        beta, alpha = (ghline.divmod(fline)[1].coeffs + (0, 0))[:2]
        t_sum, t_prod = -c1 / c2, c0 / c2
        assert alpha * t_sum + 2 * beta >= 0
        assert alpha * alpha * t_prod + alpha * beta * t_sum + beta * beta >= 0


def test_membership_consistency_derivative_vs_exact():
    checked = 0
    for f, e in [
        (gen_lorentz(3), [1, 0, 0]),
        (gen_product(3), [1, 1, 1]),
        (gen_elementary_symmetric(3, 2), [1, 1, 1]),
    ]:
        inst = HyperbolicityInstance(f, e)
        rng = random.Random(61)
        for _ in range(6):
            a = [Fraction(rng.randint(-2, 4)) for _ in range(3)]
            if not any(a):
                continue
            exact = cone_membership(inst, a, closure=True)
            via_der = int_cone_membership_by_derivative(inst, a, CFG, sos_budget=1)
            if via_der.is_yes:
                assert not exact.is_no
            if via_der.is_no:
                assert not exact.is_yes
            checked += 1
    assert checked >= 12


def test_int_cone_membership_examples():
    inst = HyperbolicityInstance(gen_lorentz(3), [1, 0, 0])
    assert int_cone_membership_by_derivative(inst, [2, 1, 0], CFG, 1).is_yes
    assert int_cone_membership_by_derivative(inst, [1, 2, 0], CFG, 1).is_no
    # boundary of the positive orthant, closed-cone semantics
    instp = HyperbolicityInstance(gen_product(3), [1, 1, 1])
    assert int_cone_membership_by_derivative(instp, [1, 0, 0], CFG, 1).is_yes
    # the cubic at its own hyperbolicity direction
    instc = HyperbolicityInstance(P("(x - y)*(x + y)*(x + 2*y) - x*z^2"), [1, 0, 0])
    assert int_cone_membership_by_derivative(instc, [1, 0, 0], CFG, 1).is_yes


def test_sample_config_rejects_plans_that_cannot_sample():
    for kwargs in ({"trials": 0}, {"trials": -2}, {"coordinate_bound": 0}, {"coordinate_bound": -1}):
        with pytest.raises(ValueError):
            SampleConfig(**kwargs)
    with pytest.raises(ValueError):
        SampleConfig().vectors(0)
    # the smallest plan still draws nonzero vectors inside its box
    vecs = SampleConfig(trials=5, coordinate_bound=1).vectors(2)
    assert len(vecs) == 5
    assert all(any(v) and all(abs(x) <= 1 for x in v) for v in vecs)
