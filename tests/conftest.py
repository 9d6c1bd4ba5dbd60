import math
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from midconv.linalg import Matrix
from midconv.poly import is_prime
from midconv.scalars import FieldDescriptor
from midconv.tuples import MonodromyTuple

SEED = 20260810

# `pytest --hypothesis-profile=ci`: the same examples on every run, ten times
# the default number of them, and no per-example deadline
settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None)

# the product of the primes up to 9767, 4,198 digits: below the parser's 4,300
PRIMORIAL_9767 = math.prod(p for p in range(2, 9768) if is_prime(p))

Q = FieldDescriptor.rational()
F7 = FieldDescriptor.finite(7)


def random_scalar(field, rng, span=4):
    if field.kind == "rational":
        return field.from_fraction(Fraction(rng.randint(-span, span),
                                            rng.randint(1, span)))
    if field.kind == "cyclotomic":
        s = field.zero()
        for e in range(field.degree):
            s = s + field.from_fraction(Fraction(rng.randint(-span, span))) * field.zeta(e)
        return s
    s = field.zero()
    gen = field.gen() if field.k == 2 else field.one()
    for e in range(field.k):
        s = s + field.from_int(rng.randint(0, field.p - 1)) * gen ** e
    return s


def random_invertible(field, dim, rng, span=3):
    while True:
        M = Matrix.from_rows(field, [[rng.randint(-span, span) if field.kind == "rational"
                                      else random_scalar(field, rng) for _ in range(dim)]
                                     for _ in range(dim)])
        if M.is_invertible():
            return M


def random_tuple(field, dim, r, rng, with_points=False):
    finite = [random_invertible(field, dim, rng) for _ in range(r)]
    points = None
    if with_points:
        points = rng.sample(range(-3 * r, 3 * r + 1), r)
    return MonodromyTuple.from_finite_entries(field, finite, points)


@pytest.fixture
def rng():
    return random.Random(SEED)
