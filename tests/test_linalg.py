import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_exact, invert_unimodular
from tropchow import linalg


def _check_snf(a):
    d, u, v = linalg.smith_normal_form(a)
    assert d == linalg.mat_mul(linalg.mat_mul(u, a), v)
    m, n = len(a), len(a[0]) if a else 0
    assert abs(linalg.det(u)) == 1
    assert abs(linalg.det(v)) == 1
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i] != 0:
            assert diag[i] > 0
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    return diag


def test_snf_hand_examples():
    assert _check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert _check_snf([[1, 1], [1, -1]]) == [1, 2]
    assert _check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert _check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_snf_random():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        _check_snf(a)


def test_lattice_index():
    assert linalg.lattice_index([[1, 1], [1, -1]]) == 2
    assert linalg.lattice_index([[1, 0], [0, 1]]) == 1
    assert linalg.lattice_index([[1], [2]]) == 1
    assert linalg.lattice_index([[2], [4]]) == 2


def test_primitive_vector():
    assert linalg.primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert linalg.primitive_vector((0, 5)) == (0, 1)
    try:
        linalg.primitive_vector((0, 0))
        assert False
    except ValueError:
        pass


def test_invert_unimodular():
    a = [[1, 2], [1, 3]]
    ainv = invert_unimodular(a)
    assert linalg.mat_mul(a, ainv) == linalg.identity_matrix(2)


def test_saturation_data():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 5)
        d = rng.randrange(0, n + 1)
        while True:
            b = [[rng.randrange(-5, 6) for _ in range(d)] for _ in range(n)]
            if d == 0 or linalg.rank(b) == d:
                break
        proj, sect, sat = linalg.saturation_data(b)
        assert len(proj) == n - d
        # proj kills the span of b
        for j in range(d):
            col = tuple(b[i][j] for i in range(n))
            assert all(x == 0 for x in linalg.mat_vec(proj, col))
        # section splits proj
        if n - d:
            ps = linalg.mat_mul(proj, sect)
            assert ps == linalg.identity_matrix(n - d)
        # saturation is saturated and contains the span
        if d:
            assert linalg.lattice_index(sat) == 1
            for j in range(d):
                col = [b[i][j] for i in range(n)]
                sol = linalg.solve(sat, col)
                assert sol is not None
                assert all(x.denominator == 1 for x in sol)


def _determinantal_index(b):
    """gcd of the r x r minors of b, r its rank (1 at rank 0): the product
    of the elementary divisors, read off no elimination of b."""
    r = linalg.rank(b)
    g = 0
    for rows in itertools.combinations(range(len(b)), r):
        for cols in itertools.combinations(range(len(b[0])), r):
            minor = linalg.det([[b[i][j] for j in cols] for i in rows])
            g = math.gcd(g, minor.numerator)
            if g == 1:
                return 1
    return g or 1


def _assert_reduced_echelon(h, r):
    pivots = []
    for i, row in enumerate(h):
        nonzero = [j for j, x in enumerate(row) if x]
        assert bool(nonzero) == (i < r)
        if nonzero:
            pivots.append(nonzero[0])
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert all(0 <= h[k][c] < h[i][c] for k in range(i))


def _random_unimodular(rng, n):
    g = linalg.identity_matrix(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(-2, 3)
        for row in g:  # column j += c * column i
            row[j] += c * row[i]
    for j in range(n):
        if rng.random() < 0.5:
            for row in g:
                row[j] = -row[j]
    return g


def test_unimodular_echelon_sweep():
    # 3000 matrices up to 5 x 6 with entries in [-4, 4]: the echelon is the
    # reduced row echelon form over Z, the lattice index is the gcd of the
    # maximal nonzero minors, and proj depends only on the span
    rng = random.Random(23)
    for _ in range(3000):
        m, n = rng.randrange(1, 6), rng.randrange(1, 7)
        b = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # a dependent last row
            b[-1] = [2 * x - y for x, y in zip(b[0], b[m // 2])]
        h, u, w, r = linalg._unimodular_echelon(b)
        assert linalg.mat_mul(u, b) == h
        assert linalg.mat_mul(u, w) == linalg.identity_matrix(m)
        assert r == linalg.rank(b)
        _assert_reduced_echelon(h, r)
        assert linalg.lattice_index(b) == _determinantal_index(b)
        g = _random_unimodular(rng, n)
        assert (linalg.saturation_data(b)[0]
                == linalg.saturation_data(linalg.mat_mul(b, g))[0])


def test_xgcd_keeps_a_row_that_divides_its_column():
    assert linalg._xgcd(3, -6) == (3, 1, 0)
    assert linalg._xgcd(-3, 6) == (3, -1, 0)
    assert linalg._xgcd(0, -5) == (5, 0, -1)
    for a in range(-6, 7):
        for b in range(-6, 7):
            g, s, t = linalg._xgcd(a, b)
            assert g == math.gcd(a, b) and s * a + t * b == g


def test_rational_solvers():
    a = [[1, 2], [3, 4]]
    x = linalg.solve(a, [5, 6])
    assert x == (Fraction(-4), Fraction(9, 2))
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None
    ns = linalg.nullspace([[1, 1, 1], [0, 1, 2]])
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] + v[2] == 0 and v[1] + 2 * v[2] == 0
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.rank([[1, 2], [2, 4]]) == 1


def test_scaled_inverse_sweep():
    rng = random.Random(22)
    outcomes = set()
    for n in range(6):
        for trial in range(60):
            a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            if n and trial % 4 == 0:  # a dependent row
                a[-1] = [x + 2 * y for x, y in zip(a[0], a[n // 2])]
            if linalg.rank(a) < n:
                outcomes.add("singular")
                with pytest.raises(ValueError, match="singular"):
                    linalg.scaled_inverse(a)
                continue
            outcomes.add(n)
            pairs = linalg.scaled_inverse(a)
            assert len(pairs) == n
            for i, (u, p) in enumerate(pairs):
                assert type(p) is int and p != 0
                assert all(type(x) is int for x in u)
                # u_i . a = p_i e_i
                assert [sum(u[k] * a[k][j] for k in range(n))
                        for j in range(n)] == [p * (i == j) for j in range(n)]
    assert outcomes == {"singular", 0, 1, 2, 3, 4, 5}


def test_invert_unimodular_on_unimodular_products():
    rng = random.Random(23)
    for n in range(6):
        for _ in range(20):
            a = linalg.identity_matrix(n)
            for _ in range(3 * n if n > 1 else 0):  # det stays 1
                i, j = rng.sample(range(n), 2)
                c = rng.randrange(-3, 4)
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            inv = invert_unimodular(a)
            assert all(type(x) is int for row in inv for x in row)
            assert linalg.mat_mul(a, inv) == linalg.identity_matrix(n)
            assert linalg.mat_mul(inv, a) == linalg.identity_matrix(n)


def test_invert_unimodular_refusals():
    with pytest.raises(ValueError, match="singular"):
        invert_unimodular([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="not unimodular"):
        invert_unimodular([[2, 0], [0, 1]])


# ---------------------------------------------------------------------------
# the former Fraction Gauss-Jordan elimination, kept as a reference

def _ref_rref(a):
    rows = [[Fraction(x) for x in row] for row in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def _ref_det(a):
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    out = Fraction(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            out = -out
        out *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def _ref_nullspace(a):
    n = len(a[0]) if a else 0
    if n == 0:
        return []
    r, pivots = _ref_rref(a)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(tuple(v))
    return basis


def _ref_solve(a, b):
    n = len(a[0]) if a else 0
    r, pivots = _ref_rref([list(row) + [y] for row, y in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = r[i][n]
    return tuple(x)


# small entries make rank drops likely, large ones test big integers
INTS = st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6))
MIXED = st.one_of(INTS, st.fractions(-10**6, 10**6, max_denominator=10**3))


@st.composite
def _matrices(draw, entries, rows=st.integers(0, 5), cols=st.integers(0, 5)):
    m, n = draw(rows), draw(cols)
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    # zero some rows and columns
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)):
        a[i] = [0] * n
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        for row in a:
            row[j] = 0
    return a


def _square(entries):
    return st.integers(0, 5).flatmap(
        lambda k: _matrices(entries, st.just(k), st.just(k)))


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


ORACLE = settings(derandomize=True, deadline=None, max_examples=150)


@ORACLE
@given(st.one_of(_matrices(INTS), _matrices(MIXED)))
def test_rref_rank_nullspace_match_fraction_reference(a):
    rows, pivots = linalg.rref(a)
    assert (rows, pivots) == _ref_rref(a)
    assert _all_fractions(rows)
    assert linalg.rank(a) == len(pivots)
    basis = linalg.nullspace(a)
    assert basis == _ref_nullspace(a)
    assert _all_fractions(basis)


@ORACLE
@given(st.one_of(_matrices(INTS), _matrices(MIXED)).flatmap(
    lambda a: st.tuples(st.just(a), st.lists(MIXED, min_size=len(a),
                                              max_size=len(a)))))
def test_solve_matches_fraction_reference(ab):
    a, b = ab
    x = linalg.solve(a, b)
    assert x == _ref_solve(a, b)
    if x is not None:
        assert all(type(t) is Fraction for t in x)


@ORACLE
@given(st.one_of(_square(INTS), _square(MIXED)))
def test_det_matches_fraction_reference(a):
    d = linalg.det(a)
    assert_exact([d])  # int when integral, else Fraction
    assert d == _ref_det(a)


def test_oracle_edge_shapes():
    for a in ([], [[]], [[], []], [[0]], [[7]], [[Fraction(-3, 4)]],
              [[0, 0, 0]], [[0], [0]], [[1, 2, 3]], [[1], [2], [3]]):
        assert linalg.rref(a) == _ref_rref(a)
        assert linalg.rank(a) == len(_ref_rref(a)[1])
        assert linalg.nullspace(a) == _ref_nullspace(a)
        assert linalg.solve(a, [1] * len(a)) == _ref_solve(a, [1] * len(a))
    for a in ([], [[0]], [[7]], [[Fraction(-3, 4)]], [[10**6, 1], [1, 10**6]]):
        assert linalg.det(a) == _ref_det(a)


@settings(derandomize=True, deadline=None)
@given(st.one_of(_matrices(INTS), _matrices(MIXED)))
def test_rank_builds_no_fraction(a):
    def refuse(*args, **kwargs):
        raise AssertionError("rank built a Fraction")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "Fraction", refuse)
        r = linalg.rank(a)
        rows, pivots = linalg._integer_echelon(a)
    assert r == len(pivots)
    # the elimination itself stays in ints
    assert all(type(x) is int for row in rows for x in row)


@ORACLE
@given(st.one_of(_matrices(INTS), _matrices(MIXED)))
def test_primitive_kernel_is_positive_multiple_of_nullspace(a):
    kernel = linalg.primitive_kernel(a)
    basis = linalg.nullspace(a)
    assert len(kernel) == len(basis)
    for v, q in zip(kernel, basis):
        assert all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        i = next(i for i, x in enumerate(q) if x)
        scale = v[i] / q[i]
        assert scale > 0
        assert list(v) == [scale * x for x in q]


@settings(derandomize=True, deadline=None)
@given(st.one_of(_matrices(INTS), _matrices(MIXED)))
def test_primitive_kernel_builds_no_fraction(a):
    expected = linalg.primitive_kernel(a)
    def refuse(*args, **kwargs):
        raise AssertionError("primitive_kernel built a Fraction")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "Fraction", refuse)
        assert linalg.primitive_kernel(a) == expected


# rows of plain ints take a copy, other rows the lcm of their denominators:
# mix both kinds in one matrix, with bools and integral Fractions among them
ROW_KINDS = st.sampled_from((
    INTS, MIXED, st.booleans(), st.integers(-3, 3).map(Fraction),
    st.one_of(st.booleans(), INTS, MIXED)))


@st.composite
def _mixed_row_matrices(draw, square=False):
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))
    return [[draw(entries) for _ in range(n)]
            for entries in [draw(ROW_KINDS) for _ in range(m)]]


@ORACLE
@given(_mixed_row_matrices())
def test_mixed_row_kinds_match_fraction_reference(a):
    before = [list(row) for row in a]
    rows, pivots = linalg.rref(a)
    assert (rows, pivots) == _ref_rref(a)
    assert linalg.rank(a) == len(pivots)
    assert linalg.nullspace(a) == _ref_nullspace(a)
    b = [Fraction(i, 2) for i in range(len(a))]
    assert linalg.solve(a, b) == _ref_solve(a, b)
    echelon, _ = linalg._integer_echelon(a)
    assert all(type(x) is int for row in echelon for x in row)
    assert a == before  # the copied int rows are not written through


@ORACLE
@given(_mixed_row_matrices(square=True))
def test_det_of_mixed_row_kinds_matches_fraction_reference(a):
    d = linalg.det(a)
    assert_exact([d])  # int when integral, else Fraction
    assert d == _ref_det(a)


def test_integer_rows_copies_int_rows_and_clears_the_rest():
    a = [(1, -2, 3), [True, Fraction(1, 2), 0], [Fraction(4, 2), False]]
    rows = linalg._integer_rows(a)
    assert rows == [[1, -2, 3], [2, 1, 0], [2, 0]]
    assert all(type(x) is int for row in rows for x in row)
    assert type(rows[0]) is list and rows[0] is not a[0]
