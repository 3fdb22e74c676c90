"""Hyperbolicity tests, cone membership, mixed Wronskians, and interlacer verdicts.

Per-line and per-point computations here are exact; only the hyperbolicity
test itself is Monte Carlo (a failed line is a disproof, a clean run is
labelled `sampled` evidence).  Interlacing verdicts run three stages:
refute on sampled lines, refute on sampled points of the Wronskian, then
certify the Wronskian as a sum of squares.

The sampled lines all pass through one direction e, and the coefficient of
t^j in f(te + a) is (D_e^j f / j!)(a).  So the hyperbolicity, square-free
and interlacing tests compile these Taylor pieces of f (and g) once per
call, in integers (_IntForm.taylor_pieces), and read each line off one
evaluation of the pieces at a.  A cone membership test draws a single line
and restricts f to it directly.

The mixed Wronskian Delta_{e,a} f of the SOS cone test, the interlacer
Wronskian D_e f * g - f * D_e g, and D_a f itself come from one int kernel
of polycore (_int_derivative and _wronskian_terms): every input is scaled
to ints by its lcm, each directional derivative is one pass over the int
terms, and only the result's terms become Fractions.  The coordinate
Wronskians Delta_ij f (delta_ij) come from polycore's one coordinate
Wronskian kernel on packed monomial keys (_coordinate_wronskians), which
splits f into pieces by its exponents of x_i and x_j and needs no
derivatives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Sequence

from . import soscert
from .polycore import (
    Polynomial,
    _IntForm,
    _LinePieces,
    _coordinate_wronskians,
    _int_derivative,
    _int_direction,
    _int_terms,
    _rationals,
    _wronskian_terms,
    directional_derivative,
    restrict_to_line,
    uni_gcd,
    wronskian,
)
from .realroots import is_real_rooted, roots_interlace, sturm_root_count
from .verdicts import Verdict, certified_no, certified_yes, unknown


@dataclass
class SampleConfig:
    """Deterministic sampling plan: integer coordinates in [-bound, bound]."""

    trials: int = 64
    seed: int = 42
    coordinate_bound: int = 10

    def __post_init__(self):
        # no trials would certify without looking; a zero bound only draws
        # the zero vector, which vectors() rejects forever
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.coordinate_bound < 1:
            raise ValueError(f"coordinate_bound must be at least 1, got {self.coordinate_bound}")

    def sample(self, nvars: int, count: Optional[int] = None) -> Iterator[list[Fraction]]:
        """The first count (default trials) nonzero vectors of the seeded stream, drawn one at a time."""
        if nvars < 1:
            raise ValueError(f"sampling needs at least one coordinate, got nvars={nvars}")
        return islice(self._stream(nvars), self.trials if count is None else count)

    def vectors(self, nvars: int, count: Optional[int] = None) -> list[list[Fraction]]:
        """sample() as a list."""
        return list(self.sample(nvars, count))

    def _stream(self, nvars: int) -> Iterator[list[Fraction]]:
        rng = random.Random(self.seed)
        while True:
            v = [Fraction(rng.randint(-self.coordinate_bound, self.coordinate_bound)) for _ in range(nvars)]
            if any(v):
                yield v


class HyperbolicityInstance:
    """A homogeneous polynomial with a distinguished direction, f(e) > 0.

    The sign of f is flipped on construction when f(e) < 0; f(e) = 0 or an
    inhomogeneous f is rejected.
    """

    def __init__(self, f: Polynomial, e: Sequence):
        evec = [Fraction(x) for x in e]
        if len(evec) != f.nvars:
            raise ValueError("direction length must equal nvars")
        if not f.is_homogeneous():
            raise ValueError("f must be homogeneous")
        if f.is_zero():
            raise ValueError("f must be nonzero")
        fe = f.evaluate(evec)
        if fe == 0:
            raise ValueError("f(e) must be nonzero")
        self.f = f if fe > 0 else -f
        self.e = evec
        self.degree = f.total_degree()

    def __repr__(self) -> str:
        return f"HyperbolicityInstance(degree={self.degree}, nvars={self.f.nvars})"


def check_hyperbolic(inst: HyperbolicityInstance, cfg: SampleConfig) -> Verdict:
    """Sampled hyperbolicity test: real-rootedness of f(te+a) on random lines.

    A single non-real-rooted restriction disproves hyperbolicity and is
    returned as a witness.  Passing every trial is Monte Carlo evidence only;
    the verdict is CERTIFIED_YES with `sampled=true` recorded in detail.
    """
    f, e = inst.f, inst.e
    pieces = _IntForm(f.nvars, [f]).taylor_pieces(e)
    for a in cfg.sample(f.nvars):
        (line,) = pieces.restrictions(a)
        if not is_real_rooted(line):
            return certified_no(witness={"a": a}, detail="restriction to the witness line is not real-rooted")
    return certified_yes(detail=f"sampled=true trials={cfg.trials} seed={cfg.seed}")


def cone_membership(inst: HyperbolicityInstance, a: Sequence, closure: bool = False) -> Verdict:
    """Exact membership of a in the hyperbolicity cone of (f, e).

    Membership in the open cone means f(te-a) has no roots with t <= 0;
    for the closed cone only roots with t < 0 disqualify.  Root counting is
    by Sturm sequences, so the verdict on the given line is exact.
    """
    avec = [Fraction(x) for x in a]
    if len(avec) != inst.f.nvars:
        raise ValueError("point length must equal nvars")
    line = restrict_to_line(inst.f, inst.e, [-x for x in avec])
    bad = sturm_root_count(line, None, Fraction(0))
    # t = 0 is a root when the constant coefficient vanishes; the leading
    # coefficient is f(e) != 0, so the coefficient list is never empty
    if closure and line.coeffs[0] == 0:
        bad -= 1
    if bad > 0:
        return certified_no(
            witness={"a": avec},
            detail=f"f(te-a) has {bad} root(s) in the forbidden region",
        )
    return certified_yes(detail="no roots of f(te-a) at t <= 0" if not closure else "no roots of f(te-a) at t < 0")


def wronskian_delta(f: Polynomial, e: Sequence, a: Sequence) -> Polynomial:
    """The mixed Wronskian D_e f * D_a f - f * D_e D_a f.

    Homogeneous of degree 2d-2, symmetric in e and a, and bilinear; its
    nonnegativity characterizes membership of a in the closed cone.  It is
    the Wronskian of f and g = D_a f in the direction e, built by the int
    kernel of polycore: f, e and a are scaled to ints by their lcms, g and
    the two D_e are each one pass over int terms, both products accumulate
    in one dict of ints, and each term of the result is one Fraction.  No
    Polynomial is built in between.  delta_ij has a kernel of its own: for
    coordinate directions the pieces of f need no derivatives at all.
    """
    if not f.is_homogeneous() or f.total_degree() < 1:
        raise ValueError("f must be homogeneous of degree >= 1")
    qe, E = _int_direction(e, f.nvars)
    qa, A = _int_direction(a, f.nvars)
    den, F = _int_terms(f.terms)
    return Polynomial._trusted(f.nvars, _wronskian_terms(F, _int_derivative(F, A), E, den * den * qe * qa))


def delta_ij(f: Polynomial, i: int, j: int) -> Polynomial:
    """Wronskian in two coordinate directions: f_i * f_j - f * f_ij.

    The one-pair case of polycore's _coordinate_wronskians: f = F / D with
    F an int polynomial on packed keys, the one coordinate Wronskian kernel
    (_int_delta_ij) multiplies the pieces of F split by their exponents of
    x_i and x_j, with no derivatives, and each term of the result becomes
    one Fraction over D^2.
    """
    n = f.nvars
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("variable index out of range")
    return next(_coordinate_wronskians(f, [(i, j)])).polynomial()


class SquareFreeSampleError(ValueError):
    """Raised when every sampled line of f carries a repeated root.

    Restrictions of a polynomial with a repeated factor have repeated roots
    on every line through e (given f(e) != 0), so this is overwhelming
    evidence of a repeated factor.  Factor it out and retry: the interlacers
    of f1^2*f2 are exactly f1 times the interlacers of f1*f2.
    """


def assert_square_free_sampled(f: Polynomial, e: Sequence, cfg: SampleConfig) -> None:
    """Exact square-freeness proof from one generic line, or raise.

    If f had a repeated factor, gcd(f(te+a), d/dt f(te+a)) would be
    nonconstant for every a (the factor's restriction divides both).  So a
    single line with constant gcd proves f square-free; only when every
    sampled line fails is the instance rejected.
    """
    _assert_first_square_free(_IntForm(f.nvars, [f]).taylor_pieces(_rationals(e)), cfg)


def _assert_first_square_free(pieces: _LinePieces, cfg: SampleConfig) -> None:
    """assert_square_free_sampled for the first polynomial of compiled Taylor pieces."""
    for a in cfg.sample(pieces.form.nvars):
        line = pieces.restrictions(a)[0]
        if line.degree() < 1:
            continue
        g = uni_gcd(line, line.derivative())
        if g.degree() == 0:
            return
    raise SquareFreeSampleError(
        f"all {cfg.trials} sampled line restrictions of f have repeated roots; "
        "f very likely has a repeated factor"
    )


def interlaces(
    inst: HyperbolicityInstance,
    g: Polynomial,
    cfg: SampleConfig,
    sos_budget: int = 2,
    strict: bool = False,
) -> Verdict:
    """Does g interlace f with respect to e (and satisfy g(e) > 0)?

    Stage 1 refutes on sampled lines te+a via exact root interlacing.
    Stage 2 refutes by exact evaluation of W = D_e f * g - f * D_e g at
    sampled points.  Stage 3 certifies by writing (sum x_i^2)^N * W as a sum
    of squares for some N <= sos_budget; nonnegativity of W on R^n is
    equivalent to interlacing for square-free f.  Strictness holds generically
    (on a dense open set of lines), so with strict=True the per-line strict
    checks are reported in the YES detail as sampled evidence only; a
    non-strict sampled line never refutes.
    """
    f, e, d = inst.f, inst.e, inst.degree
    if g.is_zero():
        return certified_no(witness={"g(e)": Fraction(0)}, detail="g = 0 cannot interlace")
    if not g.is_homogeneous() or g.total_degree() != d - 1:
        raise ValueError(f"g must be homogeneous of degree {d - 1}")
    fg = _IntForm(f.nvars, [f, g])
    pieces = fg.taylor_pieces(e)
    _assert_first_square_free(pieces, cfg)
    ge = fg.values_at(e)[1]
    if ge <= 0:
        return certified_no(witness={"g(e)": ge}, detail="interlacers must be positive at e")

    strict_failures = 0
    for a in cfg.sample(f.nvars):
        fline, gline = pieces.restrictions(a)
        # strict interlacing implies interlacing: one call settles a strict line
        if strict and roots_interlace(fline, gline, strict=True).is_yes:
            continue
        v = roots_interlace(fline, gline, strict=False)
        if v.is_no:
            return certified_no(
                witness={"a": a, "line_verdict": v.detail},
                detail="roots fail to interlace on the witness line",
            )
        if strict:
            strict_failures += 1

    wg = wronskian(f, g, e)
    wform = _IntForm(f.nvars, [wg])
    for p in cfg.sample(f.nvars):
        (val,) = wform.values_at(p)
        if val < 0:
            return certified_no(
                witness={"point": p, "value": val},
                detail="Wronskian of (f, g) in direction e is negative at the witness point",
            )

    cert = soscert.certify_sos(wg, sos_budget)
    if cert.is_yes:
        detail = "SOS certificate for the interlacing Wronskian"
        if strict:
            detail += (
                f"; strictness sampled only ({cfg.trials - strict_failures}/{cfg.trials} lines strict)"
            )
        return certified_yes(witness=cert.witness, detail=detail)
    return unknown(
        detail="sampling found no counterexample and no SOS certificate was found "
        f"within denominator budget {sos_budget}"
    )


def int_cone_membership_by_derivative(
    inst: HyperbolicityInstance,
    a: Sequence,
    cfg: SampleConfig,
    sos_budget: int = 2,
) -> Verdict:
    """Closed-cone membership of a, decided through D_a f interlacing f."""
    avec = [Fraction(x) for x in a]
    da = directional_derivative(inst.f, avec)
    if da.is_zero():
        return certified_no(witness={"D_a f": "0"}, detail="D_a f vanishes identically")
    return interlaces(inst, da, cfg, sos_budget)
