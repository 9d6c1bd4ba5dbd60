import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import settings

from midconv.linalg import Matrix, char_poly, commutant_basis, kernel_basis, rank
from midconv.poly import is_prime
from midconv.scalars import FieldDescriptor, _cyc_normalize, _cyc_tables
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


# the kinds of entry_of_kind: every path of the fixed-space read-offs
ENTRY_KINDS = ("random", "eigenvalue 1", "scalar", "identity")


def entry_of_kind(field, d, rng, kind):
    """A d x d invertible matrix: random, with eigenvalue 1, c*1 for a random c != 0, or 1.

    "eigenvalue 1" conjugates, by a random P, an upper-triangular U with
    U_00 = 1, a random nonzero diagonal and random 0/1 entries above it.
    """
    def unit():
        c = random_scalar(field, rng)
        return c if c else unit()

    if kind == "random":
        return random_invertible(field, d, rng)
    if kind == "identity":
        return Matrix.identity(field, d)
    if kind == "scalar":
        return Matrix.identity(field, d).scale(unit())
    diag = [field.one()] + [unit() for _ in range(d - 1)]
    U = Matrix.from_rows(field, [[diag[i] if i == j else rng.randint(0, 1) * (j > i)
                                  for j in range(d)] for i in range(d)])
    P = random_invertible(field, d, rng)
    return P.inverse() @ U @ P


def full_invariants_dim(matrices):
    """d - rank of the M - 1 side by side, with no read-off from kept forms."""
    d = matrices[0].nrows
    return d - rank(Matrix(matrices[0].field, tuple(
        sum((M.minus_identity().payload[k] for M in matrices), ()) for k in range(d))))


def full_coinvariants_dim(matrices):
    """d - rank of all d rows of each M - 1 stacked, with no read-off from kept forms."""
    return matrices[0].nrows - rank(Matrix(matrices[0].field, tuple(
        row for M in matrices for row in M.minus_identity().payload)))


def conjugate_product_inverse(field, a):
    """a^-1 = prod_{k != 1} sigma_k(a) / N(a) over Q(zeta_n), Q being Q(zeta_1): the
    Galois-conjugate product that inv runs for a payload that is neither rational nor a
    unit +-zeta^e."""
    n, ops = field.n or 1, field.ops
    phi, _, powers = _cyc_tables(n)
    nums, den = a
    conj = ops.one
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            vec = [0] * phi
            for j, c in enumerate(nums):
                for i, e in enumerate(powers[j * k % n]):
                    vec[i] += c * e
            conj = ops.mul(conj, _cyc_normalize(tuple(vec), den))
    (norm, *_), norm_den = ops.mul(a, conj)
    c_nums, c_den = conj
    return _cyc_normalize(tuple(x * norm_den for x in c_nums), c_den * norm)


@pytest.fixture
def rng():
    return random.Random(SEED)


def pytest_collection_modifyitems(items):
    # Where libcst is installed, hypothesis imports it to print the patch of a
    # failing example, and libcst's import warns; under -W error that warning
    # ended the run in INTERNALERROR and hid the falsifying example.  A mark
    # outranks the command line's -W, an ini filter does not.
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(
            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:"
            "libcst.metadata.type_inference_provider"))


def _has_fixed_vector(matrices):
    """Whether some v != 0 has v M = v for every M, the v found checked by products."""
    field, d = matrices[0].field, matrices[0].nrows
    joined = Matrix(field, tuple(sum((M.minus_identity().payload[k] for M in matrices), ())
                                 for k in range(d)))
    for row in kernel_basis(joined).payload:
        v = Matrix(field, (row,))
        return all(v @ M == v for M in matrices)
    return False


def check_witness(verdict, *inputs):
    """Re-verify what a Verdict rests on from the inputs alone; its method names the procedure.

    equivalence(A, B): a conjugator S with S^-1 A_i S = B_i, or the invariant
    that the reason names.  is_convolution_sheaf(T): at (condition, i, tau),
    the tuple with T_i replaced by tau T_i has a fixed vector (*) or a fixed
    functional (**).  invariant_symmetric_form(gens): G symmetric and
    invertible with g G g^T = G.  irreducibility_criterion(T, lams): the
    margin (p-2) n - sum dim ker(A_i - 1), positive exactly when ok is True.
    """
    ok, witness, method = verdict.ok, verdict.witness, verdict.method
    if method == "scan of Hom(A, B)":
        A, B = inputs
        if ok is None:
            assert witness is None
            return
        assert ok is True and witness.is_invertible()
        S_inv = witness.inverse()
        assert all(S_inv @ M @ witness == N for M, N in zip(A.entries, B.entries))
    elif method == "invariants":
        A, B = inputs
        assert ok is False
        entry = re.fullmatch(r"characteristic polynomials of entry (\d+) differ", witness)
        dims = re.fullmatch(r"dim Hom\(A, B\), dim End\(A\), dim End\(B\) = (.*)", witness)
        if witness == "field, dim or r differ":
            assert (A.field, A.dim, A.r) != (B.field, B.dim, B.r)
        elif witness == "points differ":
            assert None not in (A.points, B.points) and A.points != B.points
        elif entry:
            k = int(entry[1]) - 1
            assert char_poly(A.entries[k]) != char_poly(B.entries[k])
        else:
            a, b = (list(X.finite_entries() or X.entries) for X in (A, B))
            found = [len(commutant_basis(x, y)) for x, y in ((a, b), (a, a), (b, b))]
            assert dims and dims[1] == ", ".join(map(str, found)) and len(set(found)) > 1
    elif method == "invariants and coinvariants of the twisted tuples":
        (T,) = inputs
        if ok:
            assert witness is None
            return
        condition, i, tau = witness
        twisted = list(T.finite_entries())
        twisted[i - 1] = twisted[i - 1].scale(tau)
        if condition == "**":
            twisted = [M.transpose() for M in twisted]
        assert ok is False and _has_fixed_vector(twisted)
    elif method == "scan of the solutions of g G g^T = G":
        (gens,) = inputs
        if ok is None:
            assert witness is None
            return
        G = witness
        assert ok is True and G == G.transpose() and G.is_invertible()
        assert all(g @ G @ g.transpose() == G for g in gens)
    elif method == "(p-2) n - sum dim ker(A_i - 1) > 0":
        T = inputs[0]
        margin = (T.r - 2) * T.dim - sum(len(kernel_basis(A.minus_identity()))
                                         for A in T.finite_entries())
        assert witness == margin and ok is (True if margin > 0 else None)
    else:
        raise AssertionError(f"no witness check for the method {method!r}")
