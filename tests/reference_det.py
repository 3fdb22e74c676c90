"""An independent determinant for the tests: the signed sum over permutations.

det M = sum over the permutations s of sign(s) * prod_i M[i][s(i)], with no
division.  The sum is grouped by the set S of columns that the first |S|
rows take, so each partial product is formed once: a 6 x 6 matrix costs 192
products of polynomials instead of 720 * 5.  Products and sums are plain
Fraction loops over term dicts, so the reference shares no kernel with the
fraction-free Bareiss elimination of poly_determinant that it checks.
"""

from fractions import Fraction

from hypersos.polycore import Polynomial


def det_by_permutations(M):
    n = len(M)
    nvars = M[0][0].nvars
    # partial[S]: the signed sum over the bijections from rows 0..|S|-1 onto the columns S
    partial = {0: {(0,) * nvars: Fraction(1)}}
    for i in range(n):
        extended = {}
        for S, p in partial.items():
            for j in range(n):
                entry = M[i][j].terms
                if S >> j & 1 or not entry:
                    continue
                # row i takes column j after the columns S: one inversion per larger column in S
                sign = -1 if bin(S >> j).count("1") % 2 else 1
                acc = extended.setdefault(S | 1 << j, {})
                for ma, ca in p.items():
                    for mb, cb in entry.items():
                        m = tuple(x + y for x, y in zip(ma, mb))
                        acc[m] = acc.get(m, 0) + sign * ca * cb
        partial = {S: {m: c for m, c in p.items() if c} for S, p in extended.items()}
    return Polynomial(nvars, partial.get((1 << n) - 1, {}))
