import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import power, variable
from tropchow.polynomials import Polynomial


def _random_poly(rng, nvars, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        terms[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return Polynomial(nvars, terms)


def test_basic_arithmetic():
    x = variable(2, 0)
    y = variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.evaluate((3, 2)) == 5
    assert (p - p).is_zero()
    assert p.degree() == 2
    assert Polynomial.zero(2).degree() == -1


def test_eval_is_ring_hom():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 4)
        p = _random_poly(rng, n)
        q = _random_poly(rng, n)
        pt = tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(n))
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_compose_linear():
    # p(x, y) = x^2 + y, substitute x = u + v, y = 2u
    p = power(variable(2, 0), 2) + variable(2, 1)
    q = p.compose_linear([[1, 1], [2, 0]])
    u = variable(2, 0)
    v = variable(2, 1)
    assert q == (u + v) * (u + v) + u.scale(2)

    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        p = _random_poly(rng, n)
        mat = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(n)]
        pt = tuple(rng.randrange(-3, 4) for _ in range(m))
        image_pt = tuple(sum(mat[i][j] * pt[j] for j in range(m)) for i in range(n))
        assert p.compose_linear(mat).evaluate(pt) == p.evaluate(image_pt)


def test_homogeneous_parts():
    p = Polynomial(2, {(0, 0): 1, (1, 0): 2, (1, 1): 3})
    assert p.homogeneous_component(1) == Polynomial(2, {(1, 0): 2})
    assert p.truncate(1) == Polynomial(2, {(0, 0): 1, (1, 0): 2})
    total = Polynomial.zero(2)
    for k in range(p.degree() + 1):
        total = total + p.homogeneous_component(k)
    assert total == p


# ---------------------------------------------------------------------------
# oracle: integral coefficients are stored as int, others as Fraction; an
# all-Fraction reference on plain dicts must give the same polynomials

def _ref(terms):
    out = {}
    for e, c in terms.items():
        out[e] = out.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c != 0}


def _ref_add(a, b):
    return _ref({**a, **{e: a.get(e, Fraction(0)) + c for e, c in b.items()}})


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref(out)


def _ref_scale(a, c):
    return _ref({e: Fraction(c) * v for e, v in a.items()})


def _ref_evaluate(a, point):
    total = Fraction(0)
    for e, c in a.items():
        val = Fraction(c)
        for x, k in zip(point, e):
            val *= Fraction(x) ** k
        total += val
    return total


def _ref_compose(a, matrix, new_n):
    out = {}
    for e, c in a.items():
        term = {(0,) * new_n: Fraction(c)}
        for i, k in enumerate(e):
            row = {tuple(int(j == t) for t in range(new_n)): Fraction(x)
                   for j, x in enumerate(matrix[i])}
            for _ in range(k):
                term = _ref_mul(term, _ref(row))
        out = _ref_add(out, term)
    return out


COEFFS = st.one_of(st.integers(-5, 5),
                   st.fractions(-5, 5, max_denominator=4),
                   st.integers(-5, 5).map(lambda k: Fraction(2 * k, 2)))


@st.composite
def _polys(draw, nvars):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return draw(st.dictionaries(exps, COEFFS, max_size=5))


def _check(p, ref):
    assert p.terms == ref
    for c in p.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction)


POLY_ORACLE = settings(derandomize=True, deadline=None, max_examples=100)


@POLY_ORACLE
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), _polys(n), _polys(n), COEFFS,
    st.lists(COEFFS, min_size=n, max_size=n), st.integers(0, 4))))
def test_mixed_coefficients_match_fraction_reference(data):
    n, a, b, c, point, d = data
    p, q = Polynomial(n, a), Polynomial(n, b)
    ra, rb = _ref(a), _ref(b)
    _check(p, ra)
    _check(p + q, _ref_add(ra, rb))
    _check(p - q, _ref_add(ra, _ref_scale(rb, -1)))
    _check(p * q, _ref_mul(ra, rb))
    _check(p.scale(c), _ref_scale(ra, c))
    _check(p.truncate(d), {e: v for e, v in ra.items() if sum(e) <= d})
    value = p.evaluate(point)
    assert type(value) is Fraction and value == _ref_evaluate(ra, point)
    assert p.value(point) == value


@POLY_ORACLE
@given(st.integers(1, 3).flatmap(lambda n: st.integers(0, 3).flatmap(
    lambda m: st.tuples(st.just(m), _polys(n), st.lists(
        st.lists(COEFFS, min_size=m, max_size=m), min_size=n, max_size=n)))))
def test_compose_linear_matches_fraction_reference(data):
    m, a, matrix = data
    p = Polynomial(len(matrix), a)
    q = p.compose_linear(matrix)
    if m:
        _check(q, _ref_compose(_ref(a), matrix, m))
    else:
        assert q.nvars == 0


@POLY_ORACLE
@given(st.integers(1, 3).flatmap(_polys))
def test_int_and_fraction_coefficients_are_equal(a):
    n = len(next(iter(a))) if a else 2
    as_int = {e: c.numerator if c.denominator == 1 else c
              for e, c in _ref(a).items()}
    as_frac = {e: Fraction(c) for e, c in a.items()}
    p, q = Polynomial(n, as_int), Polynomial(n, as_frac)
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)


def test_evaluate_returns_fraction():
    x = variable(2, 0)
    for p, pt in ((Polynomial.zero(2), (1, 2)), (Polynomial.constant(2, 4), (0, 0)),
                  (x.scale(3), (2, 5)), (x.scale(Fraction(1, 2)), (Fraction(2, 3), 1))):
        v = p.evaluate(pt)
        assert type(v) is Fraction
        assert v == _ref_evaluate(_ref(p.terms), pt)
    assert type(Polynomial.constant(0, 7).evaluate(())) is Fraction


def _assert_canonical(p):
    """No zero coefficient, every integral one an int, and the same terms
    as the polynomial the public constructor builds from them."""
    for c in p.terms.values():
        assert c != 0
        assert type(c) is (int if c.denominator == 1 else Fraction)
    rebuilt = Polynomial(p.nvars, p.terms)
    assert rebuilt == p
    assert [(e, type(c)) for e, c in rebuilt.terms.items()] == [
        (e, type(c)) for e, c in p.terms.items()]


@POLY_ORACLE
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), _polys(n), _polys(n), st.integers(0, 4))))
def test_results_store_canonical_coefficients(data):
    n, a, b, d = data
    p, q = Polynomial(n, a), Polynomial(n, b)
    results = [p + q, p - q, p * q, -p, p.truncate(d),
               p.homogeneous_component(d)]
    # results of results: sums and products that cancel or turn integral
    results += [r - q for r in results] + [r * r for r in results]
    for r in results:
        _assert_canonical(r)
    assert p - p == Polynomial.zero(n) and (p - q) + q == p
