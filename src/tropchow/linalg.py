"""Exact integer and rational linear algebra for small dense systems.

Matrices are plain lists of lists with int or fractions.Fraction entries.
Elimination is fraction-free: each row is scaled to integers by the lcm of
its denominators, then eliminated in Python ints (arbitrary precision),
Gauss-Jordan with every new row divided by its content, or Bareiss for
det. Fractions are built only for the outputs of rref, solve and
nullspace, and for a det that is not integral (an integral one is an
int, the rule polynomial coefficients follow); rank and primitive_kernel
build none. Every inverse of a basis
(dual bases of cone rays, the start cone of the double description) is
read off one kernel, scaled_inverse: a single
elimination of [a | I], whose rows are those of the inverse scaled to
integers. Every lattice question (saturations and quotient maps, the
Smith form, lattice indices) is read off one integer kernel,
_unimodular_echelon: the Hermite normal form by 2x2 extended-gcd row
moves, with the unimodular transform and its inverse alongside. All of
this is cubic-time elimination, which is plenty for the matrix sizes that
fan and weight computations produce.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

IntMatrix = list[list[int]]
IntVector = tuple[int, ...]


def primitive_vector(v) -> IntVector:
    """Rescale an integer vector to its primitive representative.

    Raises ValueError on the zero vector, which has no primitive rescaling.
    """
    g = gcd(*v)
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


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0, and t = 0 when a
    divides b, so a row that already divides its column is kept."""
    if a and b % a == 0:
        return abs(a), (1 if a > 0 else -1), 0
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (r0, s0, t0) if r0 > 0 else (-r0, -s0, -t0)


def _move(mats, i, j, a11, a12, a21, a22):
    """Rows (i, j) of each matrix <- (a11*row_i + a12*row_j,
    a21*row_i + a22*row_j)."""
    for rows in mats:
        x, y = rows[i], rows[j]
        rows[i] = [a11 * p + a12 * q for p, q in zip(x, y)]
        rows[j] = [a21 * p + a22 * q for p, q in zip(x, y)]


def _unimodular_echelon(b: IntMatrix):
    """Reduced row echelon form of an integer matrix over the integers
    (the Hermite normal form), by 2x2 extended-gcd row moves.

    Returns:
        (h, u, w, r) with u unimodular, u * b = h and w = u^-1. The first
        r rows of h are nonzero, each pivot is positive and the entries
        above it are reduced modulo it; the rows after r are zero.
    """
    m = len(b)
    n = len(b[0]) if m else 0
    h = [list(row) for row in b]
    u = identity_matrix(m)
    wt = identity_matrix(m)  # rows of wt are the columns of w

    # each move on the rows of h and u comes with the inverse transpose
    # move on the rows of wt, so that w * u = I throughout
    r = 0
    for c in range(n):
        for i in range(r + 1, m):
            if h[i][c]:
                x, y = h[r][c], h[i][c]
                g, s, t = _xgcd(x, y)
                _move((h, u), r, i, s, t, -y // g, x // g)
                _move((wt,), r, i, x // g, y // g, -t, s)
        if r == m or not h[r][c]:
            continue
        if h[r][c] < 0:
            for rows in (h, u, wt):
                rows[r] = [-x for x in rows[r]]
        for k in range(r):
            q = h[k][c] // h[r][c]
            if q:
                _move((h, u), k, r, 1, -q, 0, 1)
                _move((wt,), k, r, 1, 0, q, 1)
        r += 1
    return h, u, _transpose(wt), r


def smith_normal_form(a: IntMatrix):
    """Compute the Smith normal form of an integer matrix.

    Row and column echelons alternate until d is diagonal; then each pair
    of diagonal entries (x, y) becomes (gcd, lcm) by one 2x2 move.

    Returns:
        (d, u, v) with d = u * a * v, u and v unimodular, d diagonal with
        nonnegative entries satisfying d[i] | d[i+1].
    """
    d, u, _, r = _unimodular_echelon(a)
    vt = identity_matrix(len(a[0]) if a else 0)  # v transposed
    while any(x for i, row in enumerate(d) for j, x in enumerate(row)
              if i != j):
        dt, v_step, _, _ = _unimodular_echelon(_transpose(d))
        d, u_step, _, r = _unimodular_echelon(_transpose(dt))
        u, vt = mat_mul(u_step, u), mat_mul(v_step, vt)
    for i in range(r):
        for j in range(i + 1, r):
            x, y = d[i][i], d[j][j]
            if y % x:
                g, s, t = _xgcd(x, y)
                d[i][i], d[j][j] = g, x // g * y
                _move((u,), i, j, s, t, -y // g, x // g)
                _move((vt,), i, j, 1, 1, -t * y // g, s * x // g)
    return d, u, _transpose(vt)


def lattice_index(a: IntMatrix) -> int:
    """Index of the column span of a inside its saturation.

    The product of the nonzero Smith invariants; 1 exactly when the
    columns generate a saturated sublattice (a direct summand).
    """
    return prod(x for row in smith_normal_form(a)[0] for x in row if x)


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


def saturation_data(b: IntMatrix):
    """Split the ambient lattice along the column span of b.

    Args:
        b: n x d integer matrix whose columns span a rank-d sublattice.

    Returns:
        (proj, sect, sat) where sat is an n x d matrix whose columns are a
        basis of the saturation of the span, proj is the (n-d) x n matrix of
        the quotient map Z^n -> Z^(n-d), and sect is an n x (n-d) integer
        section of proj (proj * sect = identity). proj is the Hermite basis
        of the functionals that vanish on the span, so it depends only on
        the span.
    """
    _, u, w, r = _unimodular_echelon(b)
    proj, _, w2, _ = _unimodular_echelon(u[r:])
    sat = [row[:r] for row in w]
    sect = mat_mul([row[r:] for row in w], w2)
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


def det(a) -> int | Fraction:
    """Determinant by Bareiss elimination on the denominator-cleared rows:
    an int when it is integral, else a Fraction."""
    n = len(a)
    rows = _integer_rows(a)
    scale = prod(lcm(*[x.denominator for x in row]) for row in a)
    sign, prev = 1, 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        prow = rows[c]
        pv = prow[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], prow)]
        prev = pv
    q, r = divmod(sign * prev, scale)
    return Fraction(sign * prev, scale) if r else q
