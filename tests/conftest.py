import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import settings

from midconv.errors import PreconditionError
from midconv.linalg import (Matrix, _check_fields, _echelon, char_poly, commutant_basis,
                            kernel_basis, rank)
from midconv.poly import is_prime
from midconv.scalars import FieldDescriptor, _cyc_normalize, _cyc_tables
from midconv.tuples import BraidWord, MonodromyTuple, _act_gen

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


def pure_braid(i, j, r):
    """The pure braid beta_{i,j} = (beta_i^2)^(beta_{i+1}^-1 ... beta_{j-1}^-1), where
    x^w = w^-1 x w."""
    conj = BraidWord(r, tuple((k, -1) for k in range(i + 1, j)))
    return conj.inverse() * BraidWord(r, ((i, 1), (i, 1))) * conj


def delta_word(i, j, p, strands):
    """The braid word of the loop delta_{i,j} in full: beta_{i,p+1}, conjugated by
    beta_{p+1} ... beta_{p+j-1} for j >= 2."""
    w = pure_braid(i, p + 1, strands)
    conj = BraidWord(strands, tuple((k, 1) for k in range(p + 1, p + j)))
    return conj.inverse() * w * conj


def loop_prefix(i, j, p):
    """The letters of g, where delta_word(i, j, p, r) is g beta_i^2 g^-1: the prefix
    beta_{p+j-1}^-1 ... beta_{p+1}^-1 beta_p ... beta_{i+1} on which the loop read-out's
    closed form rests."""
    return (tuple((k, -1) for k in range(p + j - 1, p, -1))
            + tuple((k, 1) for k in range(p, i, -1)))


def _walk_words(entries, rows, words):
    """After each letter sequence of `words`, yield the states of its walk: the braid
    walk of phi_transport, letter by letter, which no code in src shares.

    `rows` are payload rows of V^{r+1}, cut into one slot block per entry.
    A state is (entries, slot blocks), both tuples; the yielded list holds
    the start state and the state after each letter of the word, and is cut
    back to the shared prefix when the next word is read.  Each word resumes
    after the longest prefix it shares with the one before.  The entries
    move by _act_gen, so b^-1 a b is a itself when a or b is c*1.
    """
    d = entries[0].nrows
    states = [(tuple(entries),
               tuple(tuple(v[k * d:(k + 1) * d] for v in rows) for k in range(len(entries))))]
    done = ()
    for letters in words:
        shared = next((k for k, (x, y) in enumerate(zip(done, letters)) if x != y),
                      min(len(done), len(letters)))
        del states[shared + 1:]
        before, blocks = states[-1]
        entries, blocks = list(before), list(blocks)
        for i, e in letters[shared:]:
            _act_gen(entries, None, i, e < 0)
            after = tuple(entries)
            _carry_letter(blocks, i, e, before, after)
            states.append((after, tuple(blocks)))
            before = after
        done = letters
        yield states


def _carry_letter(blocks, i, e, before, after) -> None:
    """Carry the slot blocks of some rows across beta_i^e, in place.

    `before` and `after` are the entries on either side of the letter.
    With (a, b) = (T_i, T_{i+1}) before it, beta_i sends the blocks (X, Y)
    of slots i, i+1 to (Y, X b + Y - Y b^-1 a b), b^-1 a b read off `after`,
    with no inverse, and beta_i^-1 sends them to ((Y + X (b - 1)) a^-1, X),
    a^-1 built once per Matrix.  A row is one multiply-accumulate: the new
    row starts as the row y of Y and takes, for each nonzero x_k and y_k,
    one axpy by row k of the kept sparse rows of b and b^-1 a b (of a c*1
    one pair each); for beta_i^-1 that sum is multiplied by the sparse rows
    of a^-1.  A row zero in both slots stays zero untouched.
    """
    X, Y = blocks[i - 1], blocks[i]
    if not X:
        return
    b, d = before[i], len(X[0])
    ops = b.field.ops
    zero, nonzero, neg, sub, axpy = ops.zero, ops.nonzero, ops.neg, ops.sub, ops.axpy
    zrow = (zero,) * d
    B, new = b.sparse, []
    C = after[i].sparse if e > 0 else before[i - 1].inverse().sparse
    for x, y in zip(X, Y):
        if x == zrow and y == zrow:
            new.append(zrow)
            continue
        acc = list(y)
        if e > 0:                  # X b + Y - Y C, C = b^-1 a b
            for k, xk in enumerate(x):
                if nonzero(xk):
                    axpy(acc, xk, B[k])
            for k, yk in enumerate(y):
                if nonzero(yk):
                    axpy(acc, neg(yk), C[k])
        else:                      # (Y - X + X b) C, C = a^-1
            for k, xk in enumerate(x):
                if nonzero(xk):
                    acc[k] = sub(acc[k], xk)
                    axpy(acc, xk, B[k])
            z, acc = acc, [zero] * d
            for k, zk in enumerate(z):
                if nonzero(zk):
                    axpy(acc, zk, C[k])
        new.append(tuple(acc))
    blocks[i - 1], blocks[i] = (Y, new) if e > 0 else (new, X)


def phi_transport(T, words, rows):
    """One (rows Phi(T, w), T^w) per braid word w of `words`, in one walk: the oracle of
    the cocycle Phi that the loop read-out and braid_act are checked against.

    Phi composes by Phi(T, b b') = Phi(T, b) Phi(T^b, b').  The payload rows of
    `rows` (each of width (r+1) dim, or PreconditionError) are carried along
    each word, of r = T.r strands, by _walk_words.  T^w is built from the
    walk's last entries and from points swapped here, letter by letter; it is
    T itself when every entry ends as the same object in its slot, with the
    same points.
    """
    _check_fields(T, rows, "phi_transport")
    n = len(T.entries)
    if any(len(v) != n * T.dim for v in rows.payload):
        raise PreconditionError(f"rows must have (r+1) dim = {n * T.dim} columns")
    out = []
    for w, states in zip(words, _walk_words(T.entries, rows.payload, [w.letters for w in words])):
        entries, blocks = states[-1]
        images = Matrix(T.field, tuple(sum(parts, ()) for parts in zip(*blocks)))
        points = None
        if T.points is not None:
            points = list(T.points)
            for i, _e in w.letters:
                points[i - 1], points[i] = points[i], points[i - 1]
        if all(M is N for M, N in zip(entries, T.entries)) and (
                points is None or tuple(points) == T.points):
            out.append((images, T))
        else:
            out.append((images, MonodromyTuple.make(T.field, entries, points)))
    return out


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


def kernel_basis_oracle(M):
    """kernel_basis with a free-column loop of its own: for each free column fc of
    the elimination of M^T, e_fc minus row[fc] at every pivot column, zero or not."""
    m, ops = M.nrows, M.field.ops
    ech = _echelon(ops, zip(*M.payload))
    pivots = set(ech.pivots)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [ops.zero] * m
        v[fc] = ops.one
        for row, pc in zip(ech.rows, ech.pivots):
            v[pc] = ops.neg(row[fc])
        basis.append(tuple(v))
    return Matrix(M.field, tuple(basis))


def reduced_kernel_basis_oracle(M):
    """reduced_kernel_basis with a free-column loop of its own, over the elimination
    of M^T with reversed columns: the pivot rows keyed by the column they end at."""
    ops, m = M.field.ops, M.nrows
    ech = _echelon(ops, [w[::-1] for w in zip(*M.payload)])
    ends = {m - 1 - p: row[::-1] for p, row in zip(ech.pivots, ech.rows)}
    basis = []
    for f in range(m):
        if f not in ends:
            v = [ops.zero] * m
            v[f] = ops.one
            for j, w in ends.items():
                if ops.nonzero(w[f]):
                    v[j] = ops.neg(w[f])
            basis.append(tuple(v))
    return Matrix(M.field, tuple(basis))


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
