"""Multivariate polynomials with exact rational coefficients.

The package's number rule: an exact rational value is an int when it is
integral and a Fraction otherwise (_exact), so that integer inputs stay
in int arithmetic. Both compare, hash and print alike, so equality and
repr do not see the difference. Polynomial coefficients follow it, and
so do the values of weights (weights.MinkowskiWeight) and the
coefficients of cycles (transforms.ToricCycle).

A polynomial in n variables is stored as a mapping from exponent tuples to
nonzero coefficients. Everything needed downstream is here: arithmetic,
evaluation, linear substitution, and homogeneous truncation.
"""
from __future__ import annotations

from fractions import Fraction


def _exact(c):
    """A rational value as int when it is integral, else as Fraction."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Immutable polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for expt, coef in (terms or {}).items():
            c = _exact(coef)
            if c:
                if len(expt) != nvars:
                    raise ValueError("exponent arity mismatch")
                clean[tuple(expt)] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Polynomial":
        """Polynomial on exponent tuples of length nvars and int or
        Fraction coefficients, as arithmetic on polynomials yields them:
        zero coefficients are dropped and integral ones become int."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = {e: c.numerator if c.__class__ is Fraction
                     and c.denominator == 1 else c
                     for e, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def linear(cls, coeffs) -> "Polynomial":
        """Linear form sum(coeffs[i] * x_i)."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = c
        return cls(n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Polynomial._of(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars,
                              {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) - c
        return Polynomial._of(self.nvars, terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial._of(self.nvars, terms)

    def scale(self, c) -> "Polynomial":
        return Polynomial(self.nvars, {e: c * v for e, v in self.terms.items()})

    def value(self, point):
        """Value at a point of int or Fraction entries, in the same types:
        an int at an integer point with integer coefficients."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = 0
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                if k:
                    c *= x ** k
            total += c
        return total

    def evaluate(self, point) -> Fraction:
        """Value at a point, always as a Fraction."""
        return Fraction(self.value(point))

    def compose_linear(self, matrix) -> "Polynomial":
        """Substitute x_i = sum_j matrix[i][j] * y_j.

        The matrix has one row per current variable; the result lives in
        len(matrix[0]) variables (or 0 variables for an empty matrix).
        """
        if len(matrix) != self.nvars:
            raise ValueError("matrix must have one row per variable")
        new_n = len(matrix[0]) if matrix else 0
        images = [Polynomial.linear(row) for row in matrix]
        out = Polynomial.zero(new_n)
        for e, c in self.terms.items():
            term = Polynomial.constant(new_n, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * images[i]
            out = out + term
        return out

    def homogeneous_component(self, k: int) -> "Polynomial":
        return Polynomial._of(
            self.nvars, {e: c for e, c in self.terms.items() if sum(e) == k})

    def truncate(self, max_degree: int) -> "Polynomial":
        return Polynomial._of(self.nvars, {
            e: c for e, c in self.terms.items() if sum(e) <= max_degree})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)
