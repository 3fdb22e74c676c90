"""Exact multivariate and univariate polynomial arithmetic over the rationals.

A multivariate polynomial is a map from exponent tuples to nonzero Fraction
coefficients; the zero polynomial stores no terms.  All operations are exact
(no floating point anywhere in this module), which is what makes the
divisibility and perfect-square decisions downstream trustworthy.
Evaluation, line restriction, polynomial multiplication, directional
derivatives, Wronskians, exact division and the square root run
fraction-free: they scale the point, the direction and the coefficients to
integers by the lcm of their denominators, work in Python int, and build
Fractions only for the results.  Exact division and determinants share
one packed int key per monomial (_Keys): the total degree in the top field,
then one guarded field per variable, so that comparing keys as ints is the
graded lex order, a product of monomials is a sum of keys, and a
divisibility test is one subtraction and one mask.  On these keys
_int_quotient is the one long division (exact_divide, the determinantal
builder's 2x2-minor sign fix, every Bareiss step) and _int_determinant the
one fraction-free Bareiss loop over polynomials (poly_determinant, and so
poly_adjugate and verify_detrep).  exact_divide divides by the primitive
part of the divisor, so by Gauss's lemma every step of a division that
succeeds is an exact int division.  Evaluation and line restriction share
one compiled integer form, _IntForm, and one kernel: a whole list of
polynomials is evaluated at an integer point, each term as a product read
from one power table by its itemgetter.  A line is evaluated at one such
point (Kronecker substitution) and its restrictions read off as digits.
Callers that reuse polynomials compile them once, Polynomial.evaluate
keeps the form it compiles on its first call, and restrict_to_line
compiles a one-element list per call.  Many lines through one direction e
are cheaper still: taylor_pieces compiles the pieces D_e^j f / j! once,
and each line is then one evaluation of the pieces.  The public
constructor validates its input; the module's own arithmetic, the parser
included, builds results that are clean by construction and wraps them
with Polynomial._trusted instead of checking them again.

Monomials are ordered graded lexicographically: compare total degree first,
then the exponent tuples with the first variable most significant.  This is
the order used for canonical formatting, for single-divisor long division
(where it is the int order of the packed keys), and for the greedy
square-root extraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, compress, islice
from operator import add, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

Mono = tuple[int, ...]


def grlex_key(mono: Mono) -> tuple[int, Mono]:
    """Sort key realizing the graded lexicographic order (ascending)."""
    return (sum(mono), mono)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True if the monomial with exponents a divides the one with exponents b."""
    return all(x <= y for x, y in zip(a, b))


class Polynomial:
    """Immutable sparse polynomial over Q in a fixed number of variables."""

    # _form is the compiled _IntForm of evaluate, set on its first call
    __slots__ = ("nvars", "terms", "_form")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono} for nvars={nvars}")
                clean[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Polynomial":
        """Wrap a term dict that is already clean, taking ownership of it.

        The caller guarantees what __init__ would check: tuple keys of length
        nvars with nonnegative entries and nonzero Fraction values.  The dict
        must not be mutated afterwards.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exps): Fraction(coeff)})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def is_multiaffine(self) -> bool:
        return all(e <= 1 for m in self.terms for e in m)

    def leading_term(self) -> tuple[Mono, Fraction]:
        """Largest term under graded lex; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=grlex_key)
        return m, self.terms[m]

    def sorted_terms(self) -> Iterator[tuple[Mono, Fraction]]:
        """Terms in graded-lex descending order (the canonical order)."""
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            yield m, self.terms[m]

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_same_ring(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        self._check_same_ring(other)
        return Polynomial._trusted(self.nvars, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        self._check_same_ring(other)
        negated = ((m, -c) for m, c in other.terms.items())
        return Polynomial._trusted(self.nvars, _accumulate(dict(self.terms), negated))

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.const(self.nvars, other) - self

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if not c:
                return Polynomial._trusted(self.nvars, {})
            return Polynomial._trusted(self.nvars, {m: cc * c for m, cc in self.terms.items()})
        self._check_same_ring(other)
        return Polynomial._trusted(self.nvars, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        return Polynomial._trusted(self.nvars, _power(self.terms, k, (0,) * self.nvars))

    # -- calculus and substitution -------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        try:
            form = self._form
        except AttributeError:
            form = _IntForm(self.nvars, [self])
            object.__setattr__(self, "_form", form)
        return form.values_at(_rationals(point))[0]

    def partial(self, i: int) -> "Polynomial":
        """Exact partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            mm = list(m)
            mm[i] = e - 1
            out[tuple(mm)] = c * e
        return Polynomial._trusted(self.nvars, out)

    def __repr__(self) -> str:
        return f"Polynomial(nvars={self.nvars}, {len(self.terms)} terms)"


# -- module-level operations (the public API mirrors these) -------------------


def evaluate(f: Polynomial, point: Sequence) -> Fraction:
    return f.evaluate(point)


def partial_derivative(f: Polynomial, i: int) -> Polynomial:
    return f.partial(i)


def directional_derivative(f: Polynomial, a: Sequence) -> Polynomial:
    """Sum of a_i * df/dx_i; exact and linear in the direction a.

    Computed in ints: with f = F / den and a = A / q scaled by their lcms,
    D_a f = D_A F / (den * q), one Fraction per term.
    """
    q, A = _int_direction(a, f.nvars)
    den, F = _int_terms(f.terms)
    den *= q
    return Polynomial._trusted(f.nvars, {m: Fraction(v, den) for m, v in _int_derivative(F, A).items()})


def wronskian(f: Polynomial, g: Polynomial, e: Sequence) -> Polynomial:
    """The Wronskian D_e f * g - f * D_e g of f and g in the direction e, computed in ints."""
    f._check_same_ring(g)
    q, E = _int_direction(e, f.nvars)
    df, F = _int_terms(f.terms)
    dg, G = _int_terms(g.terms)
    return Polynomial._trusted(f.nvars, _wronskian_terms(F, G, E, df * dg * q))


def identify_variables(f: Polynomial, mapping: Sequence[int], new_nvars: int) -> Polynomial:
    """Substitute old variable i by new variable mapping[i] (exponents add up)."""
    if len(mapping) != f.nvars:
        raise ValueError("mapping length must equal nvars")
    if any(not 0 <= j < new_nvars for j in mapping):
        raise ValueError("mapping target out of range")
    out: dict[Mono, Fraction] = {}
    for m, c in f.terms.items():
        mm = [0] * new_nvars
        for i, e in enumerate(m):
            mm[mapping[i]] += e
        key = tuple(mm)
        out[key] = out.get(key, Fraction(0)) + c
    return Polynomial(new_nvars, out)


def drop_trailing_variables(f: Polynomial, new_nvars: int) -> Polynomial:
    """Shrink the ring when the trailing variables do not occur in f."""
    for i in range(new_nvars, f.nvars):
        if f.degree_in(i) > 0:
            raise ValueError(f"variable {i} occurs in f")
    return Polynomial._trusted(new_nvars, {m[:new_nvars]: c for m, c in f.terms.items()})


# -- term-dict kernels (callers wrap the results with Polynomial._trusted) -------


def _accumulate(out: dict, items: Iterable[tuple[Mono, Fraction]]) -> dict:
    """Add each (monomial, coefficient) pair into the term dict out, in place.

    Monomials whose coefficients cancel are deleted, so a clean out stays clean.
    """
    for m, c in items:
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s += c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    """Term dict of the product of two term dicts, computed fraction-free.

    Each operand is scaled to integer coefficients by the lcm of its
    denominators; products accumulate in Python int and each result term
    becomes one Fraction over the product of the two lcms.
    """
    da, A = _int_terms(a)
    db, B = _int_terms(b)
    den = da * db
    bterms = list(B.items())
    acc: dict[Mono, int] = {}
    get = acc.get
    for ma, ca in A.items():
        for mb, cb in bterms:
            m = tuple(map(add, ma, mb))
            acc[m] = get(m, 0) + ca * cb
    return {m: Fraction(v, den) for m, v in acc.items() if v}


def _int_terms(terms: dict) -> tuple[int, dict]:
    """(den, {monomial: int}): a term dict scaled to ints by the lcm den of its denominators."""
    den, ints = _common_denominator(terms.values())
    return den, dict(zip(terms, ints))


def _int_direction(a: Sequence, nvars: int) -> tuple[int, list[int]]:
    """(q, A): a direction of length nvars scaled to ints by the lcm q of its denominators."""
    avec = _rationals(a)
    if len(avec) != nvars:
        raise ValueError(f"direction length {len(avec)} != nvars {nvars}")
    return _common_denominator(avec)


def _int_derivative(F: dict, E: Sequence[int]) -> dict:
    """D_E F for an int term dict F and an int direction E, in one pass over F's terms.

    A term c x^m gives c m_i E_i x^(m - e_i) for each i with m_i E_i != 0;
    coefficients that cancel are dropped, so the result is clean.
    """
    live = [(i, x) for i, x in enumerate(E) if x]
    acc: dict[Mono, int] = {}
    get = acc.get
    for m, c in F.items():
        for i, x in live:
            k = m[i]
            if k:
                mm = (*m[:i], k - 1, *m[i + 1:])
                acc[mm] = get(mm, 0) + c * k * x
    return {m: v for m, v in acc.items() if v}


def _wronskian_terms(F: dict, G: dict, E: Sequence[int], den: int) -> dict:
    """Term dict of (D_E F * G - F * D_E G) / den for int term dicts F, G and an int direction E.

    Both products accumulate in one dict of Python ints, and each term of
    the result becomes one Fraction over den.
    """
    acc: dict[Mono, int] = {}
    get = acc.get
    for a, b, sign in ((_int_derivative(F, E), G, 1), (F, _int_derivative(G, E), -1)):
        bterms = [(mb, sign * cb) for mb, cb in b.items()]
        for ma, ca in a.items():
            for mb, cb in bterms:
                m = tuple(map(add, ma, mb))
                acc[m] = get(m, 0) + ca * cb
    return {m: Fraction(v, den) for m, v in acc.items() if v}


def _product(a: dict, b: dict) -> dict:
    """Term dict of a * b: a one-term operand shifts the other's exponents."""
    if len(a) > 1 and len(b) > 1:
        return _mul_terms(a, b)
    if len(b) > 1:
        a, b = b, a
    if not b:
        return {}
    ((mb, cb),) = b.items()
    return {tuple(map(add, m, mb)): c * cb for m, c in a.items()}


def _power(base: dict, k: int, one: Mono) -> dict:
    """Term dict of base^k, with base^0 = 1 even for base = 0."""
    if len(base) == 1:
        ((m, c),) = base.items()
        return {tuple(e * k for e in m): c**k}
    result = {one: Fraction(1)}
    while k:
        if k & 1:
            result = _product(result, base)
        k >>= 1
        if k:
            base = _product(base, base)
    return result


# -- univariate polynomials ----------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Q; index = power of t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls([])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            c = Fraction(other)
            return UniPoly([cc * c for cc in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lc = self.coeffs[-1]
        return UniPoly([c / lc for c in self.coeffs])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact euclidean division over Q."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree()
        lc = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return UniPoly(q), UniPoly(rem)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q: a primitive remainder sequence over Z, made monic at the end."""
    x, y = _primitive_coeffs(a), _primitive_coeffs(b)
    while y:
        x, y = y, _primitive(_pseudo_remainder(x, y))
    return UniPoly(x).monic()


def _primitive_coeffs(p: UniPoly) -> list[int]:
    """The coefficients of p times a positive rational that makes them coprime integers."""
    return _primitive(_common_denominator(p.coeffs)[1])


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * (a mod b) on integer coefficient lists; a when deg a < deg b."""
    lc, n = b[-1], len(b) - 1
    r = list(a)
    for _ in range(len(a) - n):
        c = r.pop()
        r = [x * lc for x in r]
        for i, y in enumerate(b[:n], len(r) - n):
            r[i] -= c * y
    while r and not r[-1]:
        r.pop()
    return r


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun decomposition: list of (monic square-free factor, multiplicity).

    The product of factor^multiplicity equals p up to a constant; factors are
    pairwise coprime and only factors with at least one term are returned.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree() == 0:
        return []
    g = uni_gcd(p, p.derivative())
    if g.degree() == 0:
        return [(p.monic(), 1)]
    out: list[tuple[UniPoly, int]] = []
    w, _ = p.divmod(g)
    y, _ = p.derivative().divmod(g)
    z = y - w.derivative()
    i = 1
    while True:
        if w.degree() == 0:
            break
        h = uni_gcd(w, z)
        if h.degree() > 0:
            out.append((h.monic(), i))
        w, _ = w.divmod(h)
        y, _ = z.divmod(h)
        z = y - w.derivative()
        i += 1
    return out


def restrict_to_line(f: Polynomial, e: Sequence, a: Sequence) -> UniPoly:
    """The univariate polynomial t -> f(t*e + a), computed exactly."""
    return _IntForm(f.nvars, [f]).restrictions(_rationals(e), _rationals(a))[0]


# -- the compiled integer form: batch evaluation and line restriction -------------


class _IntForm:
    """A list of polynomials compiled once to integer form, for batch kernels.

    Each polynomial keeps its cden, a common denominator of its coefficients
    (their lcm when compiled from a Polynomial), its degree d (0 for zero),
    its monomials and one compiled term per monomial: (c, d - |m|, the
    support of m as a bitmask, an itemgetter of the powers x_i^(m_i) that m
    uses), with c the integer coefficient.  degree and maxexp are the
    largest degree and exponents in the list, and norms[d] is the largest
    sum of the |c| of a polynomial of degree d.  A kernel scales its point
    to integers by the lcm q of its denominators and builds one flat power
    table for the whole list, with every variable's powers
    x_i^0..x_i^maxexp_i, so a term is c * q^(d - |m|) * prod(getter(table))
    and inhomogeneous polynomials stay exact; a term with a variable that is
    zero at the point is skipped by its mask.  A line is one evaluation too,
    by Kronecker substitution (see line_numerators).
    """

    __slots__ = ("nvars", "polys", "degree", "maxexp", "norms")

    def __init__(self, nvars: int, polys: Iterable[Polynomial]):
        scaled = []
        for f in polys:
            if f.nvars != nvars:
                raise ValueError(f"variable count mismatch: {f.nvars} vs {nvars}")
            scaled.append((*_common_denominator(f.terms.values()), f.terms))
        self._compile(nvars, scaled)

    def _compile(self, nvars: int, scaled: Iterable[tuple[int, list[int], Iterable[Mono]]]) -> None:
        """Fill the form from (cden, int coefficients, monomials) per polynomial."""
        scaled = [(cden, coeffs, list(monos)) for cden, coeffs, monos in scaled]
        self.nvars = nvars
        self.maxexp = [0] * nvars
        for _, _, monos in scaled:
            self.maxexp = [max(col) for col in zip(self.maxexp, *monos)]
        # x_i^k sits at offset[i] + k of the power table, after a leading 1
        # that pads a getter of fewer than two indices, so that it returns a tuple
        offset = list(accumulate([k + 1 for k in self.maxexp], initial=1))
        bits = [1 << i for i in range(nvars)]
        self.polys: list = []
        norms: dict[int, int] = {}
        for cden, coeffs, monos in scaled:
            degs = [sum(m) for m in monos]
            d = max(degs, default=0)
            idxs = [[*compress(map(add, offset, m), m)] for m in monos]
            getters = [itemgetter(*idx) if len(idx) > 1 else itemgetter(*idx, 0, 0) for idx in idxs]
            masks = [sum(compress(bits, m)) for m in monos]
            self.polys.append((cden, d, monos, list(zip(coeffs, [d - k for k in degs], masks, getters))))
            norms[d] = max(norms.get(d, 0), sum(map(abs, coeffs)))
        self.degree = max(norms, default=0)
        self.norms = [norms.get(d, 0) for d in range(self.degree + 1)]

    @classmethod
    def _from_ints(cls, nvars: int, scaled: Iterable[tuple[int, list[int], Iterable[Mono]]]) -> "_IntForm":
        """A form compiled from (cden, int coefficients, monomials) per polynomial."""
        form = cls.__new__(cls)
        form._compile(nvars, scaled)
        return form

    def values_at(self, point: Sequence) -> list[Fraction]:
        """The value of every polynomial at one point, in list order."""
        qpow, nums = self.numerators_at(point)
        return [Fraction(v, cden * qpow[d]) for v, (cden, d, _, _) in zip(nums, self.polys)]

    def numerators_at(self, point: Sequence) -> tuple[list[int], list[int]]:
        """(qpow, nums): the value of the k-th polynomial is nums[k] / (cden * qpow[d]) for its cden and d.

        qpow[j] is q^j for the lcm q of the point's denominators.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} != nvars {self.nvars}")
        q, xs = _common_denominator(point)
        qpow = _powers(q, self.degree)
        return qpow, self._numerators(xs, qpow)

    def _numerators(self, xs: list[int], qpow: list[int]) -> list[int]:
        """sum c * qpow[d - |m|] * x^m over the terms of every polynomial, at the integer point xs."""
        table = [1]
        for x, k in zip(xs, self.maxexp):
            table += _powers(x, k)
        dead = sum(1 << i for i, x in enumerate(xs) if not x)
        nums = []
        for _, _, _, terms in self.polys:
            total = 0
            for c, k, mask, getter in terms:
                if not mask & dead:
                    total += c * qpow[k] * math.prod(getter(table))
            nums.append(total)
        return nums

    def restrictions(self, e: Sequence, a: Sequence) -> list[UniPoly]:
        """t -> f(t*e + a) for every polynomial f, in list order."""
        return [UniPoly([Fraction(v, den) for v in acc]) for den, acc in self.line_numerators(e, a)]

    def taylor_pieces(self, e: Sequence) -> "_LinePieces":
        """The pieces D_e^j f / j! (j = 0..deg f) of every f, for many lines through e.

        With e = E/q scaled to ints, f(t*e + x) = sum_m c_m prod_i (E_i t/q + x_i)^m_i.
        Expanding each factor binomially, over the coordinates where E_i != 0
        only, gives the coefficient of t^j as int terms over cden * q^j; by
        Taylor's theorem it is (D_e^j f / j!)(x).  So one values_at(a) over the
        pieces gives every restriction t -> f(t*e + a) exactly.
        """
        n = self.nvars
        if len(e) != n:
            raise ValueError("direction length must equal nvars")
        q, E = _common_denominator(e)
        # (i, k) -> [comb(k, s) * E_i^s for s = 0..k]
        rows: dict[tuple[int, int], list[int]] = {}
        scaled, widths = [], []
        for cden, d, monos, terms in self.polys:
            pieces: list[dict[Mono, int]] = [{} for _ in range(d + 1)]
            for m, (c, *_) in zip(monos, terms):
                # (exponents left on x, power of t, coefficient) of each expanded product
                parts = [(m, 0, c)]
                for i, k in enumerate(m):
                    if not k or not E[i]:
                        continue
                    row = rows.get((i, k))
                    if row is None:
                        row = rows[(i, k)] = [math.comb(k, s) * E[i] ** s for s in range(k + 1)]
                    parts = [(x[:i] + (k - s,) + x[i + 1 :], j + s, v * r)
                             for x, j, v in parts for s, r in enumerate(row)]
                for x, j, v in parts:
                    piece = pieces[j]
                    piece[x] = piece.get(x, 0) + v
            for j, piece in enumerate(pieces):
                kept = {x: v for x, v in piece.items() if v}
                scaled.append((cden * q**j, list(kept.values()), list(kept)))
            widths.append(d + 1)
        return _LinePieces(_IntForm._from_ints(n, scaled), widths)

    def line_numerators(self, e: Sequence, a: Sequence) -> list[tuple[int, list[int]]]:
        """(den, [c_0, ..., c_d]) with f(t*e + a) = sum c_j t^j / den for every f.

        With e = E/q and a = A/q scaled to ints, N(t) = sum_m c_m q^(d-|m|)
        prod_i (E_i t + A_i)^m_i has integer coefficients c_j and den is
        cden * q^d.  The |c_j| sum to at most norms[d] * M^d for M the largest
        of q and the |E_i| + |A_i|, so when 2^(B-1) exceeds every such bound,
        N(2^B), the numerator at the integer point E * 2^B + A, holds the c_j
        as its signed base-2^B digits.
        """
        n = self.nvars
        if len(e) != n or len(a) != n:
            raise ValueError("direction/offset length must equal nvars")
        q, ints = _common_denominator([*e, *a])
        E, A = ints[:n], ints[n:]
        M = max([q, *(abs(x) + abs(y) for x, y in zip(E, A))])
        B = max(norm * M**d for d, norm in enumerate(self.norms)).bit_length() + 1
        qpow = _powers(q, self.degree)
        nums = self._numerators([(x << B) + y for x, y in zip(E, A)], qpow)
        return [(cden * qpow[d], _signed_digits(v, B, d + 1)) for v, (cden, d, _, _) in zip(nums, self.polys)]


class _LinePieces(NamedTuple):
    """The Taylor pieces of a compiled form along one direction e: widths[k] of them for its k-th polynomial."""

    form: _IntForm
    widths: list[int]

    def restrictions(self, a: Sequence) -> list[UniPoly]:
        """t -> f(t*e + a) for every polynomial f, in list order."""
        values = iter(self.form.values_at(a))
        return [UniPoly(islice(values, w)) for w in self.widths]


def _rationals(xs: Iterable) -> list:
    """xs with every entry that is not an int or a Fraction converted to a Fraction."""
    return [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in xs]


def _common_denominator(xs: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(q, [x*q for x in xs]) with q the lcm of the denominators of xs."""
    ratios = [x.as_integer_ratio() for x in xs]
    q = math.lcm(*(d for _, d in ratios))
    return q, [n * (q // d) for n, d in ratios]


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _powers(q: int, d: int) -> list[int]:
    """[1, q, q^2, ..., q^d]."""
    out = [1]
    for _ in range(d):
        out.append(out[-1] * q)
    return out


def _signed_digits(v: int, B: int, count: int) -> list[int]:
    """The digits c_0..c_(count-1), each with |c_j| < 2^(B-1), of v = sum c_j 2^(jB)."""
    if not v:
        return [0] * count
    half, mask = 1 << (B - 1), (1 << B) - 1
    out = []
    for _ in range(count):
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> B
    return out


# -- packed monomial keys: exact division and determinants ----------------------


class _Keys(NamedTuple):
    """Monomials packed into ints, for the exact division and determinant kernels.

    A key holds the total degree in its top field, then one field of width
    bits per variable, first variable most significant.  The top bit of each
    variable's field is a guard bit that no key sets, so a field holds
    exponents below 2^(width-1); for_degree sizes the fields for every
    monomial of one computation.  Then comparing keys as ints is the graded
    lex order, the product of two monomials is the sum of their keys, and
    lead divides m exactly when m - lead has no guard bit set: the lowest
    exponent of m below that of lead borrows and sets its field's guard bit.
    That covers m < lead too, which always has such an exponent (the degree
    is the sum of the exponents), since & reads a negative int in two's
    complement.
    """

    nvars: int
    width: int
    guard: int

    @classmethod
    def for_degree(cls, nvars: int, degree: int) -> "_Keys":
        """Keys for the monomials of total degree at most degree."""
        width = degree.bit_length() + 1
        return cls(nvars, width, sum(1 << (width * i + width - 1) for i in range(nvars)))

    def scaled(self, polys: Sequence[Polynomial]) -> tuple[int, list[dict]]:
        """(L, [{key: int}]): each polynomial times the lcm L of all their denominators."""
        w = self.width
        den, ints = _common_denominator([c for p in polys for c in p.terms.values()])
        coeffs = iter(ints)
        out = []
        for p in polys:
            packed = {}
            for m in p.terms:
                key = sum(m)
                for e in m:
                    key = key << w | e
                packed[key] = next(coeffs)
            out.append(packed)
        return den, out

    def primitive(self, f: Polynomial) -> tuple[Fraction, dict]:
        """(s, F) with f = s * F for a primitive int polynomial F, so that _int_quotient's None is a proof."""
        den, (F,) = self.scaled([f])
        g = math.gcd(*F.values())
        return Fraction(g, den), {k: c // g for k, c in F.items()}

    def terms(self, packed: dict, den: int, num: int = 1) -> dict:
        """The term dict of packed * num / den: one Fraction per term."""
        w = self.width
        mask, shifts = (1 << w) - 1, range(w * (self.nvars - 1), -1, -w)
        return {tuple([k >> s & mask for s in shifts]): Fraction(c * num, den) for k, c in packed.items()}


def _int_cross(a: dict, b: dict, c: dict, e: dict) -> dict:
    """a * b - c * e for int polynomials keyed by _Keys, cancelled coefficients dropped."""
    acc: dict[int, int] = {}
    get = acc.get
    for x, v in a.items():
        for y, w in b.items():
            acc[x + y] = get(x + y, 0) + v * w
    for x, v in c.items():
        for y, w in e.items():
            acc[x + y] = get(x + y, 0) - v * w
    return {m: w for m, w in acc.items() if w}


def _int_quotient(P: dict, F: dict, guard: int) -> Optional[dict]:
    """P / F for int polynomials keyed by _Keys, or None when a step of the long division fails.

    Long division from the grlex-largest term down: each step cancels the
    leading term of the remainder with one quotient term, and no remainder
    term has a larger degree than P, so keys sized for P hold them all.  A
    step fails when the leading monomial of F does not divide that of the
    remainder, or lc(F) does not divide its coefficient.  For a primitive F
    that proves F does not divide P: by Gauss's lemma the quotient would
    have integer coefficients, so every remainder would be F times an
    integer polynomial.  Where F is known to divide P (a Bareiss step), F
    need not be primitive.
    """
    lead = max(F)
    lc = F[lead]
    rest = [(k - lead, v) for k, v in F.items() if k != lead]
    rem, quo = dict(P), {}
    while rem:
        key = max(rem)
        q = key - lead
        if q & guard:
            return None
        c, inexact = divmod(rem.pop(key), lc)
        if inexact:
            return None
        quo[q] = c
        # rem -= c * x^q * (F - its leading term)
        for k, v in rest:
            k += key
            v = rem.get(k, 0) - c * v
            if v:
                rem[k] = v
            else:
                del rem[k]
    return quo


def _int_determinant(M: list, guard: int) -> dict:
    """det M for a square matrix of int polynomials keyed by _Keys, by fraction-free Bareiss elimination.

    Step k replaces each entry below and right of the pivot by the 2x2
    minor with the pivot, divided by the previous pivot.  By Sylvester's
    identity the result is a (k+2)-minor of M, so every division is exact
    and the cost is polynomial in the size n.  The keys must hold twice the
    degree of a determinant of M.  The rows of M are overwritten.
    """
    n = len(M)
    sign, prev = 1, None
    for k in range(n - 1):
        if not M[k][k]:
            r = next((r for r in range(k + 1, n) if M[r][k]), None)
            if r is None:  # column k is zero below row k - 1
                return {}
            M[k], M[r] = M[r], M[k]
            sign = -sign
        pivot, top = M[k][k], M[k]
        for row in M[k + 1:]:
            left = row[k]
            for j in range(k + 1, n):
                minor = _int_cross(pivot, row[j], left, top[j])
                row[j] = minor if prev is None else _int_quotient(minor, prev, guard)
        prev = pivot
    det = M[n - 1][n - 1]
    return det if sign == 1 else {k: -c for k, c in det.items()}


# -- polynomial matrices (plain nested lists, row major) --------------------------


def _check_square(M: Sequence[Sequence[Polynomial]]) -> int:
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and nonempty")
    return n


def poly_determinant(M: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square matrix of polynomials in one ring.

    With the entries scaled to ints by the lcm L of all their denominators,
    det M = det(L M) / L^n, and det(L M) comes from _int_determinant on keys
    sized for 2n times the largest entry degree: one Fraction per term.
    """
    n = _check_square(M)
    nvars = M[0][0].nvars
    entries = [p for row in M for p in row]
    for p in entries:
        if p.nvars != nvars:
            raise ValueError(f"variable count mismatch: {p.nvars} vs {nvars}")
    keys = _Keys.for_degree(nvars, 2 * n * max(0, *(p.total_degree() for p in entries)))
    L, ints = keys.scaled(entries)
    det = _int_determinant([ints[r * n:(r + 1) * n] for r in range(n)], keys.guard)
    return Polynomial._trusted(nvars, keys.terms(det, L**n))


def poly_adjugate(M: Sequence[Sequence[Polynomial]]) -> list:
    """Adjugate matrix: transpose of signed maximal minors.

    Satisfies M * adj(M) = det(M) * I exactly; for a 1x1 matrix the empty
    minor convention gives [[1]].
    """
    n = _check_square(M)
    nvars = M[0][0].nvars
    if n == 1:
        return [[Polynomial.const(nvars, 1)]]
    adj = [[Polynomial.zero(nvars) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            d = poly_determinant(minor)
            adj[i][j] = d if (i + j) % 2 == 0 else -d
    return adj


# -- divisibility and square roots ---------------------------------------------


def exact_divide(p: Polynomial, f: Polynomial) -> Optional[Polynomial]:
    """Quotient q with p = q*f, or None when f does not divide p.

    One long division (_int_quotient) on packed keys, in Python int: with
    p = P / dp and f = s * F for a primitive int polynomial F, the quotient
    is (P / F) / (dp * s).
    """
    if f.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    p._check_same_ring(f)
    keys = _Keys.for_degree(p.nvars, max(p.total_degree(), f.total_degree()))
    s, F = keys.primitive(f)
    dp, (P,) = keys.scaled([p])
    quo = _int_quotient(P, F, keys.guard)
    if quo is None:
        return None
    return Polynomial._trusted(p.nvars, keys.terms(quo, dp * s.numerator, s.denominator))


def perfect_square_root(p: Polynomial) -> Optional[Polynomial]:
    """Polynomial r with r*r = p and positive leading coefficient, or None.

    Greedy term peeling under graded lex: the leading term of p must be the
    square of the root's leading term, and each following root term is
    (leading term of p - r^2) / (2 * leading term of r).  Any inexact step,
    or a step that fails to strictly decrease the order, disproves squareness.
    The peeling runs in Python int on D^2 * p, with D the lcm of the
    denominators of p: by Gauss's lemma a rational square root of that
    integer polynomial has integer coefficients, so every division must be
    exact.  The root of D^2 * p is D * r.
    """
    if p.is_zero():
        return Polynomial.zero(p.nvars)
    den, ints = _common_denominator(p.terms.values())
    # D^2 * p - r^2, keyed by the grlex key (degree, monomial) of each term
    rem = {(sum(m), m): den * c for m, c in zip(p.terms, ints)}
    lt_key = max(rem)
    if any(e % 2 for e in lt_key[1]):
        return None
    lt_c = rem.pop(lt_key)
    c0 = math.isqrt(lt_c) if lt_c > 0 else 0
    if c0 * c0 != lt_c:
        return None
    lead_deg, lead_m = last_key = lt_key[0] // 2, tuple(e // 2 for e in lt_key[1])
    r = {last_key: c0}
    while rem:
        key = max(rem)
        if not mono_divides(lead_m, key[1]):
            return None
        tkey = (key[0] - lead_deg, tuple(x - y for x, y in zip(key[1], lead_m)))
        if tkey >= last_key:
            return None
        last_key = tkey
        tc, inexact = divmod(rem[key], 2 * c0)
        if inexact:
            return None
        # rem for r + tc*x^tm is rem - 2*tc*x^tm*r - tc^2*x^(2tm); tm is new to r
        tdeg, tm = tkey
        minus_2tc = -2 * tc
        _accumulate(rem, [((rdeg + tdeg, mono_mul(rm, tm)), minus_2tc * rc)
                          for (rdeg, rm), rc in r.items()])
        _accumulate(rem, [((2 * tdeg, mono_mul(tm, tm)), -tc * tc)])
        r[tkey] = tc
    return Polynomial._trusted(p.nvars, {m: Fraction(c, den) for (_, m), c in r.items()})


# -- parsing and formatting ----------------------------------------------------


class PolyParseError(ValueError):
    """Syntax or name error while parsing polynomial text; carries a position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            toks.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive descent over term dicts {exponent tuple: int or Fraction}.

    Every intermediate value is a clean term dict (no zero coefficients), so
    names and literals skip the validating constructor, and parse wraps the
    result once with Polynomial._trusted.  Products and powers use the
    kernels of Polynomial itself (_product, _power): a product with a
    one-term operand shifts the other operand's exponents, and only a
    product of two sums goes through _mul_terms.  Errors carry the position
    of the offending token.
    """

    def __init__(self, text: str, variables: Sequence[str]):
        self.toks = _tokenize(text)
        self.k = 0
        self.names = {name: i for i, name in enumerate(variables)}
        self.nvars = len(variables)
        self.one: Mono = (0,) * self.nvars

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", pos)

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected token {val!r}", pos)
        return Polynomial._trusted(self.nvars, {m: Fraction(c) if type(c) is int else c for m, c in p.items()})

    def expr(self) -> dict:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                _accumulate(p, q.items() if val == "+" else ((m, -c) for m, c in q.items()))
            else:
                return p

    def term(self) -> dict:
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = _product(p, self.factor())
            elif kind == "op" and val == "/":
                self.next()
                q = self.factor()
                if any(m != self.one for m in q):
                    raise PolyParseError("divisor must be a nonzero constant", pos)
                if not q:
                    raise PolyParseError("division by zero", pos)
                inv = 1 / Fraction(q[self.one])
                p = {m: c * inv for m, c in p.items()}
            else:
                return p

    def factor(self) -> dict:
        base = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            return _power(base, int(val), self.one)
        return base

    def base(self) -> dict:
        kind, val, pos = self.next()
        if kind == "num":
            c = int(val)
            return {self.one: c} if c else {}
        if kind == "name":
            if val not in self.names:
                raise PolyParseError(f"unknown variable {val!r}", pos)
            i = self.names[val]
            return {self.one[:i] + (1,) + self.one[i + 1:]: 1}
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        if kind == "op" and val == "-":
            return {m: -c for m, c in self.factor().items()}
        if kind == "op" and val == "+":
            return self.factor()
        raise PolyParseError(f"unexpected token {val!r}", pos)


def parse_poly(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse polynomial text over named variables.

    Grammar: + - * ^ and parentheses; rational literals p/q; implicit
    multiplication is a syntax error; whitespace is insignificant.
    """
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return _Parser(text, variables).parse()


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(f: Polynomial, variables: Sequence[str]) -> str:
    """Canonical text: graded-lex descending, signs folded into coefficients."""
    if len(variables) != f.nvars:
        raise ValueError("variable name count must equal nvars")
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for m, c in f.sorted_terms():
        factors = []
        for name, e in zip(variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([_format_coeff(mag)] + factors)
        else:
            body = _format_coeff(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def default_names(nvars: int) -> list[str]:
    """x,y,z for up to three variables; x1..xn otherwise."""
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return [f"x{i+1}" for i in range(nvars)]
