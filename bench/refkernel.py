"""Reference kernel: the yardstick every instance time is divided by.

A fixed, stdlib-only routine of the same kind of work tropchow does,
exact ``Fraction`` Gauss-Jordan elimination of a fixed 7x7 integer
matrix (about 1 ms on a 2-core x86 machine). It never imports tropchow, so
no change to the package moves it; dividing by it cancels most of the
machine's speed and of the slow drift that neighbouring load causes.
"""
from fractions import Fraction

N = 7
MATRIX = tuple(tuple((i + 2) ** j % 17 - 8 + 5 * (i == j) for j in range(N))
               for i in range(N))
DETERMINANT = -9121058


def ref_kernel() -> Fraction:
    """Determinant of MATRIX by exact elimination."""
    rows = [[Fraction(x) for x in row] for row in MATRIX]
    det = Fraction(1)
    for c in range(N):
        p = next(r for r in range(c, N) if rows[r][c])
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(N):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det
