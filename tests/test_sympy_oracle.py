"""Rank and det of the one elimination routine against sympy, an independent oracle.

Runs only where sympy is installed; the program itself does not depend on it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midconv.linalg import Matrix, rank

from conftest import F7, Q

sympy = pytest.importorskip("sympy")
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


@settings(max_examples=60, deadline=None)
@given(rows=_int_matrices(), dens=st.lists(st.integers(1, 5), min_size=5, max_size=5))
def test_rank_and_det_over_q_match_sympy(rows, dens):
    fracs = [[Fraction(x, dens[j % 5]) for j, x in enumerate(r)] for r in rows]
    M = Matrix.from_rows(Q, fracs)
    S = sympy.Matrix([[sympy.Rational(f.numerator, f.denominator) for f in r] for r in fracs])
    assert rank(M) == S.rank()
    if M.is_square():
        d = S.det()
        assert M.det() == Q.from_fraction(Fraction(int(d.p), int(d.q)))


@settings(max_examples=60, deadline=None)
@given(rows=_int_matrices())
def test_rank_and_det_over_f7_match_sympy(rows):
    K = sympy.GF(7)
    M = Matrix.from_rows(F7, rows)
    D = DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), len(rows[0])), K)
    assert rank(M) == D.rank()
    if M.is_square():
        assert M.det() == F7.from_int(int(D.det()) % 7)
