"""Embedded reference tuples and count tables.

Fixtures are compiled in (not read from disk) so the acceptance suite never
depends on the working directory; they are byte-stable across releases.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .linalg import Matrix
from .scalars import FieldDescriptor
from .tuples import MonodromyTuple

_Q = FieldDescriptor.rational()


def quadratic_tuple() -> MonodromyTuple:
    """The rank-one tuple (-1, -1, 1) on {-1, 1} (double cover of the line)."""
    return MonodromyTuple.make(
        _Q, [Matrix.from_rows(_Q, [[-1]]), Matrix.from_rows(_Q, [[-1]]),
             Matrix.from_rows(_Q, [[1]])],
        [Fraction(-1), Fraction(1)])


def kummer_minus_one() -> MonodromyTuple:
    """The quadratic Kummer tuple (-1, -1) at 0."""
    return MonodromyTuple.make(
        _Q, [Matrix.from_rows(_Q, [[-1]]), Matrix.from_rows(_Q, [[-1]])],
        [Fraction(0)])


def l_star_l() -> MonodromyTuple:
    """The printed rank-two symplectic tuple on {-2, 0, 2}."""
    rows = [
        [[-3, -8], [2, 5]],
        [[1, -4], [0, 1]],
        [[1, 0], [2, 1]],
        [[-3, -4], [4, 5]],
    ]
    return MonodromyTuple.make(_Q, [Matrix.from_rows(_Q, r) for r in rows],
                               [Fraction(-2), Fraction(0), Fraction(2)])


def m_tuple() -> MonodromyTuple:
    """The printed rank-three orthogonal tuple (M_1, ..., M_4) on {-2, 0, 2}."""
    rows = [
        [[-1, -4, 4], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [-2, -1, 2], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [4, 4, -1]],
        [[-1, -4, 4], [2, 7, -6], [4, 12, -9]],
    ]
    return MonodromyTuple.make(_Q, [Matrix.from_rows(_Q, r) for r in rows],
                               [Fraction(-2), Fraction(0), Fraction(2)])


# affine point counts N(q) of the fibre at z = 1, and the induced traces
N_TABLE = {5: 27, 7: 45, 11: 107, 13: 173, 17: 323, 19: 325, 23: 515, 29: 891}
T_TABLE = {5: -3, 7: 3, 11: -3, 13: -9, 17: 17, 19: -17, 23: 9, 29: 21}
T2_TABLE = {5: -21, 7: 51, 11: 75, 13: 315, 17: 867, 19: -357, 23: -333, 29: 1659}

# alpha_p = (u + sqrt(d))/p with the sign of the third eigenvalue
ALPHA_TABLE = {
    5: (1, -24), 7: (5, -24), 11: (-7, -72), 13: (-11, -48),
    17: (17, 0), 19: (1, -360), 23: (-7, -480), 29: (25, -216),
}

TUPLE_FIXTURES = {
    "L": quadratic_tuple,
    "Kummer-1": kummer_minus_one,
    "LstarL": l_star_l,
    "V": m_tuple,
}

TABLE_FIXTURES = {
    "nq-table": N_TABLE,
    "tp-table": T_TABLE,
    "tp2-table": T2_TABLE,
}


def fixture_names() -> list[str]:
    return sorted(TUPLE_FIXTURES) + sorted(TABLE_FIXTURES)


def get_tuple_fixture(name: str) -> MonodromyTuple:
    if name not in TUPLE_FIXTURES:
        raise InputError(f"unknown tuple fixture {name!r}")
    return TUPLE_FIXTURES[name]()
