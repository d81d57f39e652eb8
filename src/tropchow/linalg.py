"""Exact integer and rational linear algebra for small dense systems.

Matrices are plain lists of lists with int or fractions.Fraction entries.
Elimination is fraction-free: each row is scaled to integers by the lcm of
its denominators, then eliminated in Python ints (arbitrary precision),
Gauss-Jordan with every new row divided by its content, or Bareiss for
det. Fractions are built only for the outputs of rref, solve, nullspace
and det; rank and primitive_kernel build none. Every inverse of a basis
(dual bases of cone rays, unimodular inverses, the start cone of the
double description) is read off one kernel, scaled_inverse: a single
elimination of [a | I], whose rows are those of the inverse scaled to
integers. All of this is cubic-time elimination, which is plenty for the
matrix sizes that fan and weight computations produce.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

IntMatrix = list[list[int]]
IntVector = tuple[int, ...]


def vector_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive_vector(v) -> IntVector:
    """Rescale an integer vector to its primitive representative.

    Raises ValueError on the zero vector, which has no primitive rescaling.
    """
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a, v):
    return tuple(sum(ai[j] * v[j] for j in range(len(v))) for ai in a)


def smith_normal_form(a: IntMatrix):
    """Compute the Smith normal form of an integer matrix.

    Returns:
        (d, u, v) with d = u * a * v, u and v unimodular, d diagonal with
        nonnegative entries satisfying d[i] | d[i+1].
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        for j in range(n):
            d[dst][j] += c * d[src][j]
        for j in range(m):
            u[dst][j] += c * u[src][j]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < m and t < n:
        # find a nonzero pivot in the remaining block
        pi = pj = -1
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # clear column t by row operations, euclidean style
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] == 0:
                    continue
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                if d[t][j] == 0:
                    continue
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    swap_cols(t, j)
                    dirty = True
            if not dirty:
                break
        t += 1

    rank = t
    for i in range(rank):
        if d[i][i] < 0:
            for j in range(n):
                d[i][j] = -d[i][j]
            # keep d = u a v consistent: negate row of u
            for j in range(m):
                u[i][j] = -u[i][j]
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            x, y = d[i][i], d[i + 1][i + 1]
            if y % x != 0:
                changed = True
                add_col(i + 1, i, 1)
                # re-diagonalize the 2x2 block; each swap shrinks |pivot|
                while d[i + 1][i] != 0 or d[i][i + 1] != 0:
                    while d[i + 1][i] != 0:
                        q = d[i + 1][i] // d[i][i]
                        add_row(i, i + 1, -q)
                        if d[i + 1][i] != 0:
                            swap_rows(i, i + 1)
                    while d[i][i + 1] != 0:
                        q = d[i][i + 1] // d[i][i]
                        add_col(i, i + 1, -q)
                        if d[i][i + 1] != 0:
                            swap_cols(i, i + 1)
                for k in (i, i + 1):
                    if d[k][k] < 0:
                        for j in range(n):
                            d[k][j] = -d[k][j]
                        for j in range(m):
                            u[k][j] = -u[k][j]
    return d, u, v


def elementary_divisors(a: IntMatrix) -> list[int]:
    d, _, _ = smith_normal_form(a)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(d[i][i])
    return out


def lattice_index(a: IntMatrix) -> int:
    """Index of the column span of a inside its saturation.

    The product of the elementary divisors; 1 exactly when the columns
    generate a saturated sublattice (a direct summand).
    """
    out = 1
    for e in elementary_divisors(a):
        out *= e
    return out


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    return integral_rows(scaled_inverse(a))


def scaled_inverse(a):
    """The rows of the inverse of a square rational matrix as integer
    pairs (u_i, p_i), p_i != 0, with u_i . a = p_i e_i: one elimination
    reduces [a | I] to [diag(p) | U]. Raises ValueError when a is singular.
    """
    n = len(a)
    rows, pivots = _integer_echelon(
        [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple((tuple(row[n:]), row[i]) for i, row in enumerate(rows))


def integral_rows(pairs):
    """The rows u_i / p_i of scaled pairs (as from scaled_inverse) as
    integer lists; raises ValueError when one is not integral."""
    if any(x % p for u, p in pairs for x in u):
        raise ValueError("matrix is not unimodular")
    return [[x // p for x in u] for u, p in pairs]


def saturation_data(b: IntMatrix):
    """Split the ambient lattice along the column span of b.

    Args:
        b: n x d integer matrix whose columns span a rank-d sublattice.

    Returns:
        (proj, sect, sat) where sat is an n x d matrix whose columns are a
        basis of the saturation of the span, proj is the (n-d) x n matrix of
        the quotient map Z^n -> Z^(n-d), and sect is an n x (n-d) integer
        section of proj (proj * sect = identity).
    """
    n = len(b)
    d_cols = len(b[0]) if b else 0
    dd, u, _ = smith_normal_form(b)
    rank = 0
    for i in range(min(n, d_cols)):
        if dd[i][i] != 0:
            rank += 1
    uinv = invert_unimodular(u)
    sat = [[uinv[i][j] for j in range(rank)] for i in range(n)]
    proj = [u[i][:] for i in range(rank, n)]
    sect = [[uinv[i][j] for j in range(rank, n)] for i in range(n)]
    return proj, sect, sat


# ---------------------------------------------------------------------------
# rational elimination, fraction-free

def _integer_rows(a):
    """Each row of a rational matrix scaled by the lcm of its denominators;
    a row of ints is copied as it is."""
    out = []
    for row in a:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        den = lcm(*[x.denominator for x in row])
        out.append([x.numerator for x in row] if den == 1 else
                   [x.numerator * (den // x.denominator) for x in row])
    return out


def _integer_echelon(a):
    """Reduced row echelon form of a rational matrix, kept in integers.

    Returns (rows, pivots): integer rows spanning the same row space. Row i
    starts at column pivots[i] and is zero in every other pivot column; the
    rows after the last pivot row are zero. Dividing row i by
    rows[i][pivots[i]] gives the reduced row echelon form.
    """
    rows = _integer_rows(a)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                new = [pv * x - f * y for x, y in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rref(a):
    """Reduced row echelon form over Fraction. Returns (rows, pivot columns)."""
    rows, pivots = _integer_echelon(a)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    out += [[Fraction(0)] * len(row) for row in rows[len(pivots):]]
    return out, pivots


def rank(a) -> int:
    return len(_integer_echelon(a)[1])


def solve(a, b):
    """One solution of a x = b over the rationals, or None if inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows, pivots = _integer_echelon([list(a[i]) + [b[i]] for i in range(m)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[n], row[c])
    return tuple(x)


def nullspace(a):
    """Basis of the rational kernel of a."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    rows, pivots = _integer_echelon(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


def primitive_kernel(a) -> list[IntVector]:
    """Kernel basis of a rational matrix as primitive integer vectors.

    Vector k is the positive primitive multiple of nullspace(a)[k], read
    off the integer echelon rows without building a Fraction. The vectors
    span the kernel over the rationals but need not span its lattice.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    rows, pivots = _integer_echelon(a)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        live = [(row, pc) for row, pc in zip(rows, pivots) if row[fc]]
        den = lcm(*[row[pc] for row, pc in live])
        v = [0] * n
        v[fc] = den
        for row, pc in live:
            v[pc] = -row[fc] * (den // row[pc])
        basis.append(primitive_vector(v))
    return basis


def det(a) -> Fraction:
    """Determinant by Bareiss elimination on the denominator-cleared rows."""
    n = len(a)
    rows = _integer_rows(a)
    scale = prod(lcm(*[x.denominator for x in row]) for row in a)
    sign, prev = 1, 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        prow = rows[c]
        pv = prow[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], prow)]
        prev = pv
    return Fraction(sign * prev, scale)
