"""Seeded inputs, operations and correctness checks of the four workloads.

`build(name, seed)` returns the workload's fixed list of operations.  Each
operation calls into hypersos through module attributes (never through names
imported into this file), so the tracer's rebinding sees every call.  An
operation's result is turned into a fingerprint (status plus deterministic
counts) on every pass and checked once against the known truth.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import exact
from hypersos import cli, corpus, hypercone, polycore, soscert
from hypersos.verdicts import Status, Verdict


@dataclass
class Op:
    """One closed-loop operation: `run` is timed, `check` runs once, untimed.

    `check(result)` returns a list of problems (empty when the result is
    correct); `fingerprint(result)` returns the status and counts compared
    byte for byte across passes and runs.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], dict]
    reference: Optional[str] = None  # recorded verdict that is not a truth


@dataclass
class Workload:
    ops: list
    files: list = field(default_factory=list)  # scratch files the ops write


# -- verdict fingerprints and checks -------------------------------------------


def verdict_fingerprint(v: Verdict) -> dict:
    out = {"status": v.status.value, "detail": v.detail[:96]}
    w = v.witness
    if isinstance(w, soscert.SosCertificate):
        out["basis"] = len(w.basis)
        out["N"] = w.denominator_power
        out["gram_rank"] = w.ldl.rank
    return out


def check_verdict(v: Verdict, target=None, expect: Optional[str] = None) -> list:
    """Certificate re-checks plus the known truth (`expect`: 'yes', 'no', None).

    expect='yes' means the true answer is yes, so CERTIFIED_NO is wrong;
    expect='no' makes CERTIFIED_YES wrong.  UNKNOWN never contradicts.
    """
    problems = []
    if not isinstance(v, Verdict):
        return [f"not a verdict: {type(v).__name__}"]
    if expect == "yes" and v.is_no:
        problems.append("CERTIFIED_NO contradicts the known truth")
    if expect == "no" and v.is_yes:
        problems.append("CERTIFIED_YES contradicts the known truth")
    cert = v.witness
    if v.is_yes and isinstance(cert, soscert.SosCertificate):
        if not cert.verify():
            problems.append("SOS certificate fails verify()")
        elif not soscert.SosCertificate.from_json(cert.to_json()).verify():
            problems.append("SOS certificate fails verify() after a JSON round trip")
        if target is not None and cert.target != target:
            problems.append("SOS certificate certifies another target")
    return problems


def verdict_op(op_id, run, target=None, expect=None, reference=None) -> Op:
    return Op(
        id=op_id,
        run=run,
        check=lambda v: check_verdict(v, target, expect),
        fingerprint=verdict_fingerprint,
        reference=reference,
    )


# -- vamos ---------------------------------------------------------------------


def vamos_pair(h, i: int, j: int, points) -> Verdict:
    """The per-pair body of check_multiaffine_stable at SOS budget 0."""
    d = hypercone.delta_ij(h, i, j)
    for p in points:
        if d.evaluate(p) < 0:
            return Verdict(Status.CERTIFIED_NO, {"point": p}, "negative at a sampled point")
    if polycore.perfect_square_root(d) is not None:
        return Verdict(Status.CERTIFIED_YES, None, "perfect square")
    return soscert.certify_sos(d, 0)


def check_reproduction(report) -> list:
    problems = []
    if not report.conclusion.is_no:
        problems.append("Vamos reproduction is not CERTIFIED_NO")
    if report.gram_det != Fraction(-1, 4) or exact.det(report.gram) != report.gram_det:
        problems.append("Vamos Gram determinant is not -1/4")
    return problems


def build_vamos(seed: int) -> Workload:
    rng = random.Random(seed)
    h = polycore.Polynomial(8, exact.vamos())
    points = [[Fraction(rng.randint(-10, 10)) for _ in range(8)] for _ in range(64)]
    ops = []
    # Delta_12 is refuted by an inconsistent Gram system, Delta_13 is a sum of
    # squares left UNKNOWN at budget 0, Delta_78 is the paper's non-SOS pair
    pairs = (((0, 1), None, Status.CERTIFIED_NO.value), ((0, 2), "yes", None), ((6, 7), "no", None))
    for (i, j), expect, ref in pairs:
        ops.append(verdict_op(
            f"vamos.delta_{i + 1}{j + 1}",
            lambda i=i, j=j: vamos_pair(h, i, j, points),
            expect=expect,
            reference=ref,
        ))
    ops.append(Op(
        id="vamos.reproduction",
        run=lambda: corpus.vamos_reproduction(),  # looked up per call, so tracing sees it
        check=check_reproduction,
        fingerprint=lambda r: {"status": r.conclusion.status.value, "gram_det": str(r.gram_det)},
    ))
    return Workload(ops)


# -- sos -----------------------------------------------------------------------


def random_form(rng, nvars: int, degree: int, space=None) -> dict:
    """Random integer form of the given degree, optionally in a subspace."""
    monos = exact.monomials(nvars, degree)
    if space is None:
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in monos]
    else:
        coeffs = [Fraction(0)] * len(monos)
        for vec in space:
            c = rng.randint(-2, 2)
            coeffs = [x + c * y for x, y in zip(coeffs, vec)]
    return {m: c for m, c in zip(monos, coeffs) if c}


def random_sos(rng, nvars: int, half: int, zeros: int) -> dict:
    """Sum of squares of random forms vanishing at `zeros` grid points.

    With zeros=0 it sums as many squares as there are monomials (an interior
    point of the SOS cone); otherwise the squares span the forms vanishing at
    the points, a face on the boundary of the cone.
    """
    monos = exact.monomials(nvars, half)
    space = None
    if zeros:
        grid = [
            p for p in itertools.product((-1, 0, 1), repeat=nvars)
            if any(p) and next(x for x in p if x) > 0
        ]
        pts = rng.sample(grid, zeros)
        space = exact.nullspace([[exact.mono_value(m, p) for m in monos] for p in pts], len(monos))
    count = len(monos) if space is None else len(space)
    total: dict = {}
    while not total:
        for _ in range(count):
            q = random_form(rng, nvars, half, space)
            total = exact.add(total, exact.mul(q, q))
    return total


def near_boundary_sos(rng, nvars: int, half: int, squares: int) -> dict:
    """A few random squares plus (1/64) * (sum of squared monomials).

    Strictly inside the SOS cone but close to its boundary: no grid zeros for
    face reduction, so the SDP iterations and the rounding ladder do the work.
    """
    total: dict = {}
    for _ in range(squares):
        q = random_form(rng, nvars, half)
        total = exact.add(total, exact.mul(q, q))
    for m in exact.monomials(nvars, half):
        total = exact.add(total, {tuple(2 * e for e in m): Fraction(1, 64)})
    return total


def cone_family(name: str):
    """(polynomial, direction e, closed-form membership or None)."""
    if name.startswith("lorentz"):
        n = int(name[7:])
        return polycore.Polynomial(n, exact.lorentz(n)), [1] + [0] * (n - 1), exact.lorentz_member
    if name.startswith("product"):
        n = int(name[7:])
        return polycore.Polynomial(n, exact.product(n)), [1] * n, orthant_member
    if name.startswith("e"):
        n, d = int(name[1]), int(name[2])
        return polycore.Polynomial(n, exact.elementary(n, d)), [1] * n, None
    if name.startswith("symdet"):
        d = int(name[6:])
        f = polycore.Polynomial(d * (d + 1) // 2, exact.sym_det(d))
        e = [1 if i == j else 0 for i in range(d) for j in range(i, d)]
        return f, e, lambda a, closure, d=d: psd_member(d, a, closure)
    if name == "vamos":
        return polycore.Polynomial(8, exact.vamos()), [1] * 8, None
    if name == "cubic":
        cubic = polycore.parse_poly("x^3 + 2*x^2*y - x*y^2 - 2*y^3 - x*z^2", ["x", "y", "z"])
        return cubic, [1, 0, 0], None
    raise ValueError(name)


def orthant_member(a, closure: bool) -> bool:
    return all(x >= 0 for x in a) if closure else all(x > 0 for x in a)


def psd_member(d: int, a, closure: bool) -> bool:
    A = exact.sym_from_upper(d, a)
    return exact.is_psd(A) if closure else exact.is_pd(A)


def orthant_truth(a, closure: bool) -> Optional[bool]:
    """Membership facts for positive-coefficient stable f with e = (1, ..., 1).

    The nonnegative orthant lies in the closed cone (the positive one in the
    open cone); a nonzero point of the nonpositive orthant is outside.
    """
    if all(x > 0 for x in a) or (closure and all(x >= 0 for x in a)):
        return True
    if all(x <= 0 for x in a) and any(a):
        return False
    return None


def cone_point(rng, name: str, e, inside: Optional[bool], far: bool) -> list:
    """A seeded point, pushed inside (e + noise) or outside (-e + noise).

    An outside Lorentz point is in the opposite cone when `far`, else just
    outside the boundary; the two cost very differently to refute, so the
    caller sets which, not the seed.
    """
    n = len(e)
    noise = [Fraction(rng.randint(-3, 3), 4) for _ in range(n)]
    if inside is None:
        scale = rng.randint(-2, 6)
        return [scale * x + 4 * y for x, y in zip(e, noise)]
    sign = 1 if inside else -1
    if name.startswith("lorentz"):
        # integer points strictly inside, or outside the closed cone
        tail = [rng.randint(-3, 3) for _ in range(n - 1)]
        norm2 = sum(t * t for t in tail)
        head = math.isqrt(norm2) + rng.randint(1, 3)
        if not inside:
            head = -head if norm2 == 0 or far else math.isqrt(norm2 - 1)
        return [Fraction(head)] + [Fraction(t) for t in tail]
    return [sign * x + y / 4 for x, y in zip(e, noise)]


# (nvars, half degree, boundary zero count of each form; 0 = interior).
# Boundary forms stay at sizes whose cost hardly depends on the seed: from 5
# variables on, one boundary form can cost ten times another.
RANDOM_SOS_SHAPES = (
    (3, 2, (0, 0, 0, 1, 2, 3)),
    (4, 2, (0, 0, 0, 1, 2, 3)),
    (5, 2, (0, 0, 0, 0)),
    (6, 2, (0,)),
    (3, 3, (0, 0, 0, 1, 2, 3)),
    (4, 3, (0, 0, 0, 0)),
)
# (nvars, half degree, squares): shapes that reliably end CERTIFIED_YES
NEAR_BOUNDARY_SHAPES = ((3, 2, 2), (4, 3, 5))
NEAR_BOUNDARY_FORMS = 3  # per shape
# (family, points inside the cone, points outside)
SOS_CONE_POINTS = (
    ("lorentz3", 6, 4),
    ("lorentz4", 6, 4),
    ("lorentz5", 6, 4),
    ("product3", 6, 4),
    ("e43", 6, 4),
    ("symdet3", 1, 1),
    ("cubic", 6, 4),
)


def build_sos(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for nvars, half, zero_counts in RANDOM_SOS_SHAPES:
        for k, zeros in enumerate(zero_counts):
            F = polycore.Polynomial(nvars, random_sos(rng, nvars, half, zeros))
            kind = f"boundary{zeros}" if zeros else "interior"
            ops.append(verdict_op(
                f"sos.random.n{nvars}d{2 * half}.{kind}.{k}",
                lambda F=F: soscert.certify_sos(F, 0),
                target=F,
                expect="yes",
            ))
    for nvars, half, squares in NEAR_BOUNDARY_SHAPES:
        for k in range(NEAR_BOUNDARY_FORMS):
            F = polycore.Polynomial(nvars, near_boundary_sos(rng, nvars, half, squares))
            ops.append(verdict_op(
                f"sos.random.n{nvars}d{2 * half}.near.{k}",
                lambda F=F: soscert.certify_sos(F, 0),
                target=F,
                expect="yes",
            ))
    # SOS inner relaxation of cone membership: a YES puts a in the closed cone.
    # The sym-det(3) point inside the cone costs a third of a pass, and from
    # 0.3 to 0.7 s depending on the point, so its points are fixed.
    fixed = random.Random(0)
    for name, inside, outside in SOS_CONE_POINTS:
        f, e, truth = cone_family(name)
        inst = hypercone.HyperbolicityInstance(f, e)
        for k in range(inside + outside):
            a = cone_point(fixed if name == "symdet3" else rng, name, e, k < inside, k % 2 == 0)
            member = truth(a, True) if truth else None
            if member is None and name.startswith("e"):
                member = orthant_truth(a, True)
            ops.append(verdict_op(
                f"sos.cone.{name}.{k}",
                lambda inst=inst, a=a: soscert.sos_cone_membership(inst, a, 0),
                expect="no" if member is False else None,
            ))
    # the nonnegative non-SOS sextic: refuted at power 0, certified from power 1
    motzkin = polycore.parse_poly("x^4*y^2 + x^2*y^4 - 3*x^2*y^2*z^2 + z^6", ["x", "y", "z"])
    for budget in (0, 1, 2):
        ops.append(verdict_op(
            f"sos.motzkin.budget{budget}",
            lambda b=budget: soscert.certify_sos(motzkin, b),
            target=motzkin,
            expect="no" if budget == 0 else "yes",
        ))
    # F - p*f a sum of squares for the Lorentz form
    f3, e3, _ = cone_family("lorentz3")
    for k in range(8):
        a = cone_point(rng, "lorentz3", e3, k < 4, k % 2 == 0)
        F = polycore.directional_derivative(f3, e3) * polycore.directional_derivative(f3, a)
        ops.append(verdict_op(
            f"sos.mod_f.lorentz3.{k}",
            lambda F=F: soscert.certify_sos_mod_f(F, f3),
            expect=None if exact.lorentz_member(a, True) else "no",
        ))
    return Workload(ops)


# -- lines ---------------------------------------------------------------------

LINE_FAMILIES = ("e63", "e84", "symdet3", "symdet4", "vamos", "cubic", "lorentz5")
CONE_POINTS = 24  # per family, each tested for open and closed membership
INTERLACE_TRIALS = 16


def build_lines(seed: int) -> Workload:
    """Hyperbolicity and interlacing inputs are fixed; the cone points are seeded.

    The fixed operations are the slowest ones, so the latency tail compares
    the same operations on every seed.
    """
    rng = random.Random(seed)
    fixed = random.Random(0)
    ops = []
    cfg = hypercone.SampleConfig(trials=64)
    for name in LINE_FAMILIES:
        f, e, _ = cone_family(name)
        inst = hypercone.HyperbolicityInstance(f, e)
        ops.append(verdict_op(
            f"lines.hyperbolic.{name}",
            lambda inst=inst: hypercone.check_hyperbolic(inst, cfg),
            expect="yes",
        ))
    for name in LINE_FAMILIES + ("product4",):
        f, e, truth = cone_family(name)
        inst = hypercone.HyperbolicityInstance(f, e)
        for k in range(CONE_POINTS):
            a = cone_point(rng, name, e, None if k % 3 == 0 else k % 3 == 1, k % 2 == 0)
            for closure in (False, True):
                member = truth(a, closure) if truth else None
                if member is None and name[0] in "ev":
                    member = orthant_truth(a, closure)
                kind = "closed" if closure else "open"
                ops.append(verdict_op(
                    f"lines.cone.{name}.{kind}.{k}",
                    lambda inst=inst, a=a, c=closure: hypercone.cone_membership(inst, a, closure=c),
                    expect=None if member is None else ("yes" if member else "no"),
                ))
    icfg = hypercone.SampleConfig(trials=INTERLACE_TRIALS)
    for name in ("lorentz4", "e43", "e53", "cubic"):
        f, e, truth = cone_family(name)
        inst = hypercone.HyperbolicityInstance(f, e)
        for k in range(4):
            a = cone_point(fixed, name, e, k < 2, k % 2 == 0)
            if truth is not None:
                member = truth(a, True)
            elif name.startswith("e"):
                member = orthant_truth(a, True)
            else:
                member = hypercone.cone_membership(inst, a, closure=True).is_yes
            g = polycore.directional_derivative(f, a)
            ops.append(verdict_op(
                f"lines.interlaces.{name}.{k}",
                lambda inst=inst, g=g: hypercone.interlaces(inst, g, icfg, 0),
                expect="yes" if member else "no",
            ))
    return Workload(ops)


# -- detrep (through the command line) -----------------------------------------


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    data: Optional[dict]


def run_cli(argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = out.getvalue()
    try:
        data = json.loads(text) if text.strip() else None
    except ValueError:
        data = None
    return CliResult(code, text, err.getvalue(), data)


def cli_fingerprint(r: CliResult) -> dict:
    status = None
    if r.data is not None:
        v = r.data.get("verdict") or r.data.get("conclusion") or {}
        status = v.get("status") if isinstance(v, dict) else None
        if "ok" in r.data:
            status = "ok" if r.data["ok"] else "not-ok"
    return {
        "exit": r.code,
        "status": status,
        "stdout_sha256": hashlib.sha256(r.out.encode()).hexdigest()[:16],
    }


def cli_problems(r: CliResult) -> list:
    problems = []
    if r.code == 3:
        problems.append(f"usage/input error exit 3: {r.err.strip()[:200]}")
    if "Traceback" in r.out or "Traceback" in r.err:
        problems.append("traceback printed")
    if r.data is None:
        problems.append("stdout is not one JSON object")
    return problems


def require(ok: bool, problem: str) -> list:
    return [] if ok else [problem]


def cli_op(op_id, argv, check) -> Op:
    return Op(
        id=op_id,
        run=lambda: run_cli(argv),
        check=lambda r: cli_problems(r) or check(r),
        fingerprint=cli_fingerprint,
    )


def rank_one_vectors(rng, n: int, d: int) -> list:
    """n integer vectors in Z^d, every d of them independent.

    Their matroid is uniform, hence connected, so det(sum x_i v_i v_i^T) is
    irreducible and the multiaffine builder applies.
    """
    while True:
        vs = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(n)]
        if all(exact.det([vs[i] for i in s]) != 0 for s in itertools.combinations(range(n), d)):
            return vs


def build_detrep(seed: int, scratch_dir: str) -> Workload:
    rng = random.Random(seed)
    inputs = []  # (id, terms, nvars, degree, has_rep)
    for d in (3, 4, 5):
        inputs.append((f"e{d + 1}{d}", exact.elementary(d + 1, d), d + 1, d, True))
    for d in (3, 4, 5):
        inputs.append((f"product{d}", exact.product(d), d, d, True))
    for n, d in ((6, 3), (6, 4), (7, 3), (6, 5)):
        terms = exact.rank_one_det(rank_one_vectors(rng, n, d))
        inputs.append((f"rank1.n{n}d{d}", terms, n, d, True))
    inputs.append(("e42", exact.elementary(4, 2), 4, 2, False))
    inputs.append(("e53", exact.elementary(5, 3), 5, 3, False))

    ops, files = [], []
    for name, terms, n, d, has_rep in inputs:
        names = [f"x{i + 1}" for i in range(n)]
        poly = exact.format_terms(terms, names)
        common = ["--poly", poly, "--vars", ",".join(names), "--no-timings"]
        rep_path = os.path.join(scratch_dir, f"{name}.rep.json")
        files.append(rep_path)
        build = ["detrep-build", *common, "--dvars", ",".join(names[:d]),
                 "--e", ",".join(["1"] * n), "--cert-out", rep_path]

        def check_build(r, has_rep=has_rep, n=n, d=d):
            if r.code == 0 and not has_rep:
                return ["built a representation for an input that has none"]
            if r.code == 1 and has_rep:
                return ["no representation for an input that has one"]
            if r.code == 0:
                return check_rep_file(r.data["representation"], n, d)
            if r.code == 1 and "pair" in r.data["verdict"].get("witness", {}):
                return []
            return [f"unexpected exit {r.code} or a NO without its witness pair"]

        ops.append(cli_op(f"detrep.build.{name}", build, check_build))
        if has_rep:
            verify = ["detrep-verify", *common, "--rep", "@" + rep_path]
            ops.append(cli_op(
                f"detrep.verify.{name}", verify,
                lambda r: require(r.code == 0 and r.data.get("ok") is True,
                                  "detrep-verify rejects the built representation"),
            ))
        # 16 sampled points keep the stability check on construction, not evaluation
        stable = ["stable-check", *common, "--seed", str(seed), "--trials", "16"]
        ops.append(cli_op(
            f"detrep.stable.{name}", stable,
            lambda r: require(r.code != 1, "stable input reported CERTIFIED_NO"),
        ))
    ops.append(cli_op(
        "detrep.vamos_repro", ["vamos-repro", "--no-timings"],
        lambda r: require(r.code == 1 and r.data.get("gram_det") == "-1/4",
                          "vamos-repro is not a -1/4 refutation"),
    ))
    # gen's output must agree with the family's definition at these points
    points = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(10)]
              for _ in range(3)]
    for family, args, truth in gen_inputs(rng):
        ops.append(cli_op(
            f"detrep.gen.{family}", ["gen", family, *args, "--no-timings"],
            lambda r, truth=truth: check_gen(r, truth, points),
        ))
    return Workload(ops, files)


def check_rep_file(rep: dict, n: int, d: int) -> list:
    """The pencil must be symmetric, sized d x d, with n matrices."""
    mats = rep.get("matrices", [])
    if len(mats) != n or any(len(M) != d for M in mats):
        return ["representation has the wrong shape"]
    if any(M[r][c] != M[c][r] for M in mats for r in range(d) for c in range(d)):
        return ["representation pencil is not symmetric"]
    return []


def gen_inputs(rng) -> list:
    """(family, extra argv, value function at a point) for the gen command."""
    n = rng.randint(3, 6)
    k = rng.randint(2, n - 1)
    d = rng.randint(2, 3)
    return [
        ("product", ["--n", str(n)], lambda p: exact.value(exact.product(n), p)),
        ("lorentz", ["--n", str(n)], lambda p: exact.value(exact.lorentz(n), p)),
        ("elementary-symmetric", ["--n", str(n), "--d", str(k)],
         lambda p: exact.value(exact.elementary(n, k), p)),
        ("sym-det", ["--d", str(d)], lambda p: exact.det(exact.sym_from_upper(d, p))),
        ("cubic-example", [], exact.cubic_value),
        ("vamos", [], lambda p: exact.value(exact.vamos(), p)),
    ]


def check_gen(r: CliResult, truth, points) -> list:
    if r.code != 0:
        return [f"gen exit {r.code}"]
    names = r.data["vars"]
    f = polycore.parse_poly(r.data["poly"], names)
    for p in points:
        p = p[: len(names)]
        if f.evaluate(p) != truth(p):
            return ["generated polynomial disagrees with its definition"]
    return []


# -- dispatch ------------------------------------------------------------------


def build(name: str, seed: int, scratch_dir: str) -> Workload:
    if name == "vamos":
        return build_vamos(seed)
    if name == "sos":
        return build_sos(seed)
    if name == "lines":
        return build_lines(seed)
    if name == "detrep":
        return build_detrep(seed, scratch_dir)
    raise ValueError(f"unknown workload {name!r}")

