"""Pinned outputs of the solver for linear equations in an unknown matrix.

The invariant Gram matrices and the conjugators below were recorded from
the implementation in which `linalg` and `modgroup` each built their own
equations.  They depend on the numbering of the unknowns (row-major for a
conjugator X, one unknown per a <= b for a symmetric G) and on the scan
order of `find_invertible`, including the scaling of the answer, so a
change to either shows here.
"""

import hashlib
import random

import pytest

from midconv.fixtures import m_tuple
from midconv.linalg import Matrix, commutant_basis, find_invertible
from midconv.modgroup import invariant_symmetric_form, reduce_mod
from midconv.scalars import FieldDescriptor

from conftest import F7, Q, random_invertible

F2 = FieldDescriptor.finite(2)
F4 = FieldDescriptor.finite(2, 2)
Z4 = FieldDescriptor.cyclotomic(4)


def _text(M):
    return None if M is None else str(M).replace("\n", "; ")


def _gens(name):
    if name.startswith("V mod "):
        return list(reduce_mod(m_tuple(), int(name.split()[-1])).entries)
    t = F4.gen()
    return {
        "diag(1,-1,1)": [Matrix.from_rows(Q, [[1, 0, 0], [0, -1, 0], [0, 0, 1]])],
        "I3": [Matrix.identity(Q, 3)],
        "antidiagonal": [Matrix.from_rows(Q, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])],
        "F2 swap": [Matrix.from_rows(F2, [[0, 1], [1, 0]])],
        "F2 3-cycle": [Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])],
        "F4 diag(t, t^2)": [Matrix.from_rows(F4, [[t, 0], [0, t * t]])],
        "F4 unipotent": [Matrix.from_rows(F4, [[1, t], [0, 1]])],
    }[name]


@pytest.mark.parametrize("name, gram", [
    ("diag(1,-1,1)", "1, 0, 1; 0, 1, 0; 1, 0, 0"),
    ("I3", "1, 1, 1; 1, 1, 0; 1, 0, 0"),
    ("antidiagonal", "0, 0, 1; 0, 1, 0; 1, 0, 0"),
    ("F2 swap", "0, 1; 1, 0"),
    ("F2 3-cycle", "1, 0, 0; 0, 1, 0; 0, 0, 1"),
    ("F4 diag(t, t^2)", "0, 1; 1, 0"),
    ("F4 unipotent", "0, 1; 1, 0"),
    ("V mod 3", "1, 2, 0; 2, 0, 1; 0, 1, 1"),
    ("V mod 5", "1, 4, 0; 4, 4, 1; 0, 1, 1"),
    ("V mod 7", "1, 6, 0; 6, 5, 1; 0, 1, 1"),
    ("V mod 11", "1, 10, 0; 10, 7, 1; 0, 1, 1"),
])
def test_invariant_gram_is_pinned(name, gram):
    gens = _gens(name)
    G = invariant_symmetric_form(gens)
    assert _text(G) == gram
    assert all(g @ G @ g.transpose() == G for g in gens)


@pytest.mark.parametrize("field, digest", [
    (Q, "f33950a7a1e9ccbee4e5cdee94c15e232351c8a59cc88a7c0d2787926eeaad36"),
    (F7, "46c0b069902c17ca94d56a657ef466e906f85540337bfefec3852caaacac8877"),
    (Z4, "506f24c3680421f114691e11ffe33eacf3d19785103978dc34748ceb4c5d3a4e"),
])
def test_conjugators_are_pinned(field, digest):
    # one and two generators, three seeded pairs each; one generator leaves a
    # three-dimensional solution space, so the scan order matters there
    rng = random.Random(20261018)
    texts = []
    for ngen in (1, 2):
        for _ in range(3):
            As = [random_invertible(field, 3, rng) for _ in range(ngen)]
            S0 = random_invertible(field, 3, rng)
            Bs = [S0.inverse() @ A @ S0 for A in As]
            S = find_invertible(commutant_basis(As, Bs))
            assert all(S.inverse() @ A @ S == B for A, B in zip(As, Bs))
            texts.append(str(S))
    assert hashlib.sha256("\n\n".join(texts).encode()).hexdigest() == digest


def test_conjugator_found_by_a_prefix_sum_is_pinned():
    A = [Matrix.from_rows(Q, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
    B = [Matrix.from_rows(Q, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])]
    assert _text(find_invertible(commutant_basis(A, B))) == "1, 1, 1; 1, 0, 0; 1, 1, 0"
