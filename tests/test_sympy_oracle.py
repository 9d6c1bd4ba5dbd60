"""Rank and det of the one elimination routine, char_poly, and the rational
roots of the eigenvalue search, against sympy, an independent oracle.

Runs only where sympy is installed; the program itself does not depend on it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midconv.linalg import Matrix, char_poly, field_roots, rank

from conftest import F7, Q

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

_entries = st.integers(-4, 4)


@st.composite
def _int_matrices(draw, max_dim=5):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    square = draw(st.booleans())
    if square:
        n = m
    # low-rank rows are likely: some rows copy or add earlier ones
    rows = []
    for _ in range(m):
        if rows and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
        else:
            rows.append([draw(_entries) for _ in range(n)])
    return rows


@settings(deadline=None)
@given(rows=_int_matrices(), dens=st.lists(st.integers(1, 5), min_size=5, max_size=5))
def test_rank_and_det_over_q_match_sympy(rows, dens):
    fracs = [[Fraction(x, dens[j % 5]) for j, x in enumerate(r)] for r in rows]
    M = Matrix.from_rows(Q, fracs)
    S = sympy.Matrix([[sympy.Rational(f.numerator, f.denominator) for f in r] for r in fracs])
    assert rank(M) == S.rank()
    if M.is_square():
        d = S.det()
        assert M.det() == Q.from_fraction(Fraction(int(d.p), int(d.q)))


@settings(deadline=None)
@given(rows=_int_matrices())
def test_rank_and_det_over_f7_match_sympy(rows):
    K = sympy.GF(7)
    M = Matrix.from_rows(F7, rows)
    D = DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), len(rows[0])), K)
    assert rank(M) == D.rank()
    if M.is_square():
        assert M.det() == F7.from_int(int(D.det()) % 7)


@st.composite
def _square_fraction_rows(draw, max_dim=5):
    """Square rows of Fractions (0 x 0 included), some with a zero row or column."""
    n = draw(st.integers(0, max_dim))
    rows = [[Fraction(draw(_entries), draw(st.integers(1, 5))) for _ in range(n)]
            for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = Fraction(0)
    return rows


@settings(deadline=None)
@given(rows=_square_fraction_rows())
def test_char_poly_over_q_matches_sympy(rows):
    n = len(rows)
    D = DomainMatrix([[QQ(f.numerator, f.denominator) for f in r] for r in rows], (n, n), QQ)
    expected = [Fraction(int(c.numerator), int(c.denominator)) for c in D.charpoly()]
    assert char_poly(Matrix.from_rows(Q, rows)) == [Q.from_fraction(c) for c in expected[::-1]]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction(c):
    return Fraction(int(c.p), int(c.q))


@settings(deadline=None)
@given(c=st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool),
       factors=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6), st.integers(1, 3)),
                        max_size=3),
       h=st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda h: h[-1]))
def test_rational_roots_over_q_match_sympy(c, factors, h):
    # f = c * prod (q x - p)^m * h, with h of degree <= 3
    f = [c * x for x in h]
    for p, q, m in factors:
        for _ in range(m):
            f = _poly_mul(f, [Fraction(-p), Fraction(q)])
    roots, rem = field_roots([Q.from_fraction(x) for x in f], Q)
    x = sympy.Symbol("x")
    F = sympy.Poly([sympy.Rational(a.numerator, a.denominator) for a in reversed(f)], x,
                   domain=QQ)
    expected = {}
    for factor, m in F.factor_list()[1]:
        if factor.degree() == 1:
            a1, a0 = factor.all_coeffs()
            expected[-_fraction(a0) / _fraction(a1)] = m
    assert roots == [(Q.from_fraction(r), m) for r, m in sorted(expected.items())]
    divisor = sympy.Poly(1, x, domain=QQ)
    for r, m in expected.items():
        divisor *= sympy.Poly([1, -sympy.Rational(r.numerator, r.denominator)], x,
                              domain=QQ) ** m
    quotient, remainder = sympy.div(F, divisor)
    assert remainder.is_zero
    assert rem == [Q.from_fraction(_fraction(a)) for a in reversed(quotient.all_coeffs())]
