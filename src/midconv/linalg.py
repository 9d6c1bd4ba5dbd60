"""Exact dense linear algebra over a FieldDescriptor.

Matrices act on row vectors from the right: the image of v under M is v*M.
Consequently kernel_basis returns the *left* kernel {v : v M = 0} and the
image of M is its row space.  A list of vectors is a Matrix, its rows:
kernel_basis, reduced_kernel_basis, row_space_basis, intersect_row_spaces
and solve_coords take and return Matrices.  `_echelon` is the one Gaussian
elimination: Matrix.inverse, Matrix.det, rank, row_space_basis,
kernel_basis and _annihilator all read it.  It picks the first nonzero
pivot, so every computed basis is deterministic, and a unit pivot costs no
inverse.  solve_coords eliminates nothing: it reads coordinates at the
pivot columns of a reduced echelon basis and checks them by a product.

A left kernel is read off one elimination of M^T by one loop, _free_rows:
e_f minus the pivot rows' entries at f, for each free column f.  The two
callers differ in the column order they eliminate in.  kernel_basis keeps
M^T's own order, because find_invertible scans its basis in that order and
the witnesses that equiv and group print rest on it.  _annihilator (hence
reduced_kernel_basis and tuples.quotient_basis) reverses the columns, which
makes the basis reduced at once; the U of tuples.cohomology_spaces and
intersect_row_spaces, hence the W of MC_lambda, need no second elimination.

A Matrix holds its field and a tuple of payload rows, the canonical payloads
of the scalars module, so equality and hashing compare payloads.
`Matrix.from_rows` is the one checked boundary: it takes Scalars, ints,
Fractions and scalar text, and raises FieldMismatch for a Scalar of another
field and TypeError for any other entry.  `Matrix.rows` and `M[i, j]` box
Scalars on demand, for output.  Everything in between passes payload rows
along and runs the field's ops table: the elimination, the products
(`_mul_rows`, hence Matrix.__matmul__), kronecker, char_poly and the
coefficient rows of solve_matrix_equations build no Scalar.  A function
that takes two matrices checks that their fields agree.  Each loop touches
only nonzero entries: the right factor M of a product is read as M.sparse
((j, b) for the nonzero b of each row), and the elimination runs along the
nonzero entries of the pivot row.  A row update is one
`ops.axpy(row, a, pairs)`, row[j] += a*y for the (j, y) in pairs, in
place: _echelon calls it once per eliminated row, _mul_rows once per
nonzero entry of the left factor, and solve_matrix_equations once per
nonzero entry of L and row of R.  Every term is one multiply-accumulate,
normalized once, instead of a mul and an add; char_poly sums its terms by
`ops.addmul(acc, a, b)` = acc + a*b.  A Matrix builds each derived form
(sparse, is_scalar, inverse(), and `moved`, the reduced-echelon basis of
im(M - 1)) at most once; equality and hashing read the field and the
payload alone.  kronecker with a 1 x 1 identity factor returns the other
factor itself, so its derived forms are shared.

`solve_matrix_equations` is the one solver for linear equations in an
unknown matrix (L X R = L' X R' per pair, unknowns numbered by the caller).
It returns the solutions as matrices; `find_invertible` scans such a list,
then its prefix sums, for an invertible one: tuples.equivalence scans
commutant_basis(As, Bs) = Hom(A, B) for a conjugator.  char_poly is
Berkowitz alone.

`eigenvalues` is the one eigenvalue search: field_roots of char_poly, with
the caller's hints, then the diagonal entries, as the first candidates.
The convolution-sheaf check reads it, and so does jordan_data when the
ranks at its own hints do not fill the dimension.  field_roots does no polynomial
arithmetic of its own: it tests a candidate by poly.horner, deflates a
root by poly.divide by x - root, and takes its rational candidates from
poly.rational_roots, the l-adic lifting.  It reads one lazy stream of
candidates until the remainder is constant: a polynomial that splits over
F_q costs no pass over the field, a remainder without roots q evaluations.
Nothing is factored, so no input is refused for its size.

`powers` is the one running-power loop: jordan_data's ranks of the powers
of M - alpha read it, and so does `matrix_order`, the order test of sl_demo
and of the O_3 certificate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import Any, NamedTuple

from .errors import DoesNotSplit, FieldMismatch, PreconditionError
from .poly import divide, horner, rational_roots
from .scalars import CYCLOTOMIC, FINITE, FieldDescriptor, Scalar, parse_scalar


def _entry_payload(field: FieldDescriptor, x):
    """The payload of one entry given to Matrix.from_rows or Matrix.scale."""
    if isinstance(x, Scalar):
        if x.field is not field and x.field != field:
            raise FieldMismatch(f"{x.field} vs {field}")
        return x.payload
    if isinstance(x, str):
        return parse_scalar(x, field).payload
    if isinstance(x, (int, Fraction)):
        return field.from_fraction(Fraction(x)).payload
    raise TypeError(f"expected a Scalar, int, Fraction or str, got {type(x).__name__}")


def _check_fields(a, b, what: str) -> None:
    """FieldMismatch unless the two objects (matrices, tuples) share a field."""
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatch(f"{what} across fields")


@dataclass(frozen=True)
class Matrix:
    """A matrix over `field` as a tuple of payload rows; len(M) is its row count.

    A matrix without rows (an empty basis) has no column count to check, so
    its product with any matrix is the matrix without rows.
    """

    field: FieldDescriptor
    payload: tuple[tuple, ...]

    @staticmethod
    def from_rows(field: FieldDescriptor, rows) -> "Matrix":
        """The one checked way in: rows of Scalars, ints, Fractions or scalar text."""
        return Matrix(field, tuple(tuple(_entry_payload(field, x) for x in r) for r in rows))

    @staticmethod
    def identity(field: FieldDescriptor, n: int) -> "Matrix":
        one, zero = field.ops.one, field.ops.zero
        return Matrix(field, tuple(tuple(one if i == j else zero for j in range(n))
                                   for i in range(n)))

    @staticmethod
    def zero(field: FieldDescriptor, m: int, n: int) -> "Matrix":
        return Matrix(field, ((field.ops.zero,) * n,) * m)

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries as Scalars, boxed on every call."""
        field = self.field
        return tuple(tuple(Scalar(field, x) for x in r) for r in self.payload)

    def __len__(self) -> int:
        return len(self.payload)

    nrows = property(__len__)

    @property
    def ncols(self) -> int:
        return len(self.payload[0]) if self.payload else 0

    @property
    def dim(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return Scalar(self.field, self.payload[i][j])

    def _entrywise(self, other: "Matrix", op, what: str) -> "Matrix":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch in matrix {what}")
        _check_fields(self, other, f"matrix {what}")
        return Matrix(self.field, tuple(tuple(map(op, ra, rb))
                                        for ra, rb in zip(self.payload, other.payload)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.field.ops.add, "sum")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.field.ops.sub, "difference")

    def __neg__(self) -> "Matrix":
        neg = self.field.ops.neg
        return Matrix(self.field, tuple(tuple(map(neg, r)) for r in self.payload))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_fields(self, other, "matrix product")
        if self and self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        return Matrix(self.field, tuple(_mul_rows(self.field.ops, self.payload,
                                                  other.sparse, other.ncols)))

    def scale(self, c) -> "Matrix":
        """c M for a Scalar (or int, Fraction, text) c of the field."""
        mul, c = self.field.ops.mul, _entry_payload(self.field, c)
        return Matrix(self.field, tuple(tuple(mul(c, a) for a in r) for r in self.payload))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.payload)))

    def minus_identity(self) -> "Matrix":
        sub, one = self.field.ops.sub, self.field.ops.one
        return Matrix(self.field, tuple(tuple(sub(a, one) if i == j else a
                                              for j, a in enumerate(r))
                                        for i, r in enumerate(self.payload)))

    @cached_property
    def sparse(self) -> list[list]:
        """The _sparse_rows of the payload, the right factor's form in a product."""
        return _sparse_rows(self.field.ops, self.payload)

    @cached_property
    def moved(self) -> "Matrix":
        """The row_space_basis of M - 1: a reduced-echelon basis of im(M - 1), rk(M - 1) rows."""
        return row_space_basis(self.minus_identity())

    @cached_property
    def is_scalar(self) -> bool:
        """Whether M is c*1 for some c != 0."""
        S = self.sparse
        c = S[0][0][1] if S and S[0] else None
        return self.is_square() and all(row == [(k, c)] for k, row in enumerate(S))

    def inverse(self) -> "Matrix":
        """M^-1, eliminated at most once per matrix."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "Matrix":
        n = self.nrows
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        ops = self.field.ops
        one, zero = ops.one, ops.zero
        ech = _echelon(ops, [r + tuple(one if i == j else zero for j in range(n))
                             for i, r in enumerate(self.payload)])
        if ech.pivots != list(range(n)):
            raise PreconditionError("matrix is singular")
        return Matrix(self.field, tuple(tuple(r[n:]) for r in ech.rows))

    def is_invertible(self) -> bool:
        return self.is_square() and rank(self) == self.nrows

    def det(self) -> Scalar:
        """(-1)^swaps times the pivot product of an unreduced echelon form."""
        if not self.is_square():
            raise PreconditionError("determinant of a non-square matrix")
        ech = _echelon(self.field.ops, self.payload, reduced=False)
        if len(ech.pivots) < self.nrows:
            return self.field.zero()
        return Scalar(self.field, ech.det)

    def trace(self) -> Scalar:
        add, t = self.field.ops.add, self.field.ops.zero
        for i, r in enumerate(self.payload):
            t = add(t, r[i])
        return Scalar(self.field, t)

    def __str__(self):
        return "\n".join(", ".join(str(a) for a in r) for r in self.rows)


# -- the payload loops -----------------------------------------------------------

def _sparse_rows(ops, B) -> list[list]:
    """The (j, b) pairs of the nonzero entries b of each payload row of B."""
    nonzero = ops.nonzero
    return [[(j, b) for j, b in enumerate(row) if nonzero(b)] for row in B]


def _mul_rows(ops, A, SB, ncols: int) -> list[tuple]:
    """Payload rows of the product A B; SB = _sparse_rows(ops, B), B has ncols columns.

    Each nonzero a in column k of a row of A adds a*b into column j for the
    nonzero (j, b) of row k of B, one axpy per such a; Matrix.sparse keeps SB.
    """
    zero, nonzero, axpy = ops.zero, ops.nonzero, ops.axpy
    out = []
    for row in A:
        acc = [zero] * ncols
        for a, brow in zip(row, SB):
            if brow and nonzero(a):
                axpy(acc, a, brow)
        out.append(tuple(acc))
    return out


class _Echelon(NamedTuple):
    rows: list[list]                  # payload rows of the echelon form, pivot rows only
    pivots: list[int]
    det: Any                          # payload of (-1)^swaps * (product of the pivots)


def _echelon(ops, rows, reduced: bool = True) -> _Echelon:
    """Row echelon form of payload rows, by the field's ops table.

    Zero rows are dropped first.  `det` is the determinant of a square input
    whose pivots are 0..n-1.  A pivot equal to one costs no inverse, no
    scaling of its row and no factor of det.
    """
    nonzero, neg, mul, axpy, one = ops.nonzero, ops.neg, ops.mul, ops.axpy, ops.one
    M = [list(r) for r in rows if any(map(nonzero, r))]
    det = one
    piv = []
    r0 = 0
    for c in range(len(M[0]) if M else 0):
        pr = next((r for r in range(r0, len(M)) if nonzero(M[r][c])), None)
        if pr is None:
            continue
        if pr != r0:
            M[r0], M[pr] = M[pr], M[r0]
            det = neg(det)
        prow = M[r0]
        if prow[c] != one:
            det = mul(det, prow[c])
            pv = ops.inv(prow[c])
            prow = M[r0] = [mul(x, pv) if nonzero(x) else x for x in prow]
        pairs = [(j, y) for j, y in enumerate(prow) if nonzero(y)]
        for r in range(len(M)) if reduced else range(r0 + 1, len(M)):
            row = M[r]
            if r != r0 and nonzero(row[c]):
                axpy(row, neg(row[c]), pairs)
        piv.append(c)
        r0 += 1
        if r0 == len(M):
            break
    return _Echelon(M[:r0], piv, det)


def rank(M: Matrix) -> int:
    """Rank: the pivot count of an unreduced echelon form."""
    return len(_echelon(M.field.ops, M.payload, reduced=False).pivots)


def row_space_basis(M: Matrix) -> Matrix:
    """Reduced-echelon basis of the row space of M (or of a nonempty list of Scalar rows)."""
    if not isinstance(M, Matrix):
        M = Matrix.from_rows(M[0][0].field, M)
    return Matrix(M.field, tuple(map(tuple, _echelon(M.field.ops, M.payload).rows)))


def _free_rows(ops, pivot_rows: dict, m: int) -> tuple[tuple, ...]:
    """e_f - sum_p row_p[f] e_p for each column f < m that is no pivot, f ascending.

    pivot_rows maps each pivot column p to its reduced pivot row, so the
    vectors are the left kernel read off that elimination; only the nonzero
    terms are written.
    """
    zero, one, nonzero, neg = ops.zero, ops.one, ops.nonzero, ops.neg
    basis = []
    for f in range(m):
        if f not in pivot_rows:
            v = [zero] * m
            v[f] = one
            for p, row in pivot_rows.items():
                if nonzero(row[f]):
                    v[p] = neg(row[f])
            basis.append(tuple(v))
    return tuple(basis)


def kernel_basis(M: Matrix) -> Matrix:
    """Exact basis of the left kernel {v : v M = 0}, one vector per free column of M^T.

    Not reduced: solve_matrix_equations hands this basis, in this order, to
    find_invertible, whose witnesses equiv and group print (pinned in the
    tests and in the o3-group benchmark digest).  reduced_kernel_basis is the
    reduced form of the same space.
    """
    ops = M.field.ops
    ech = _echelon(ops, zip(*M.payload))
    return Matrix(M.field, _free_rows(ops, dict(zip(ech.pivots, ech.rows)), M.nrows))


def _annihilator(ops, vectors, m: int) -> tuple[tuple, ...]:
    """Reduced-echelon basis of {v in K^m : v . w = 0 for each w in vectors}, payload rows.

    The _free_rows of one elimination of the vectors with their columns
    reversed: each pivot there marks the row w_j of the reduced span whose
    last nonzero entry is a 1 at column j.  The vector of a free column f is
    1 at f and nonzero elsewhere only at pivot columns j > f, so the
    vectors, taken by f ascending, are reduced.
    """
    ech = _echelon(ops, [w[::-1] for w in vectors])
    return _free_rows(ops, {m - 1 - p: row[::-1] for p, row in zip(ech.pivots, ech.rows)}, m)


def reduced_kernel_basis(M: Matrix) -> Matrix:
    """Reduced-echelon basis of the left kernel {v : v M = 0}: the _annihilator of M's columns.

    Times a reduced matrix with independent rows it stays reduced (the
    argument is in tuples.cohomology_spaces), with no further elimination.
    """
    return Matrix(M.field, _annihilator(M.field.ops, zip(*M.payload), M.nrows))


def solve_coords(basis: Matrix, vectors: Matrix) -> Matrix | None:
    """Coefficient rows x with sum_k x_k basis_k = v for each row v, or None if any v is outside.

    The basis must be in reduced echelon form, as row_space_basis returns
    it, or PreconditionError is raised: row k is 1 at its pivot column p_k,
    where every other row is 0.  So x = v|_P is read at the pivot columns P,
    and v lies in the span exactly when v = x basis on the other columns.
    """
    _check_fields(basis, vectors, "solve_coords")
    field, ops, B, V = basis.field, basis.field.ops, basis.payload, vectors.payload
    n, nonzero = basis.ncols or vectors.ncols, ops.nonzero      # no row, no column count
    P = [next((c for c, x in enumerate(b) if nonzero(x)), n) for b in B]
    if P != sorted(set(P)) or n in P or any(b[p] != (ops.one if i == k else ops.zero)
                                            for k, b in enumerate(B) for i, p in enumerate(P)):
        raise PreconditionError("solve_coords needs a basis in reduced echelon form")
    rest = sorted(set(range(n)) - set(P))
    X = [tuple(v[c] for c in P) for v in V]
    R = _sparse_rows(ops, [[b[c] for c in rest] for b in B])
    if _mul_rows(ops, X, R, len(rest)) != [tuple(v[c] for c in rest) for v in V]:
        return None
    return Matrix(field, tuple(X))


def intersect_row_spaces(B1: Matrix, B2: Matrix) -> Matrix:
    """Reduced-echelon basis of the intersection of two row spaces.

    B1 is reduced first, a scan when it already is; B2 may be any spanning
    rows, dependent ones included, and mc_lambda hands it the block rows of
    the R_k unreduced.  The vectors c B1 = -d B2 have as c the first len(B1)
    coordinates of the reduced kernel of [B1; B2].  A kernel row leading
    inside them is still reduced there; the others are 0 there, from
    dependencies among the rows of B2, and are dropped.  So the c are
    reduced and independent, and c B1 is reduced.
    """
    _check_fields(B1, B2, "intersect_row_spaces")
    B1 = row_space_basis(B1)
    n1, nonzero = len(B1), B1.field.ops.nonzero
    coefs = reduced_kernel_basis(Matrix(B1.field, B1.payload + B2.payload)).payload
    return Matrix(B1.field, tuple(c[:n1] for c in coefs if any(map(nonzero, c[:n1])))) @ B1


# -- characteristic polynomial and Jordan data ---------------------------------

def char_poly(M: Matrix) -> list[Scalar]:
    """Monic characteristic polynomial det(x - M), ascending coefficients.

    One algorithm for every matrix: the division-free Berkowitz algorithm, on
    payloads.  Every sum of products is one addmul per term with both factors
    nonzero; the coefficients are boxed on return.
    """
    if not M.is_square():
        raise PreconditionError("characteristic polynomial of a non-square matrix")
    field = M.field
    ops = field.ops
    zero, nonzero, neg, addmul = ops.zero, ops.nonzero, ops.neg, ops.addmul
    A = M.payload

    def dot(row, pairs):
        acc = zero
        for j, y in pairs:
            if nonzero(row[j]):
                acc = addmul(acc, row[j], y)
        return acc

    # Berkowitz: the leading principal minors one by one; vec is descending.
    vec = [ops.one]
    for i, row in enumerate(A):
        # q = (A_ii, R C, R A' C, ..., R A'^(i-1) C), A' the leading i x i minor
        q, w = [row[i]], [A[j][i] for j in range(i)]
        for _ in range(i):
            pairs = [(j, y) for j, y in enumerate(w) if nonzero(y)]
            q.append(dot(row, pairs))
            w = [dot(A[r], pairs) for r in range(i)]
        negq = [neg(x) if nonzero(x) else x for x in q]
        new = []
        for r in range(i + 2):
            acc = vec[r] if r <= i else zero
            for c in range(min(r, i + 1)):
                if nonzero(vec[c]) and nonzero(negq[r - c - 1]):
                    acc = addmul(acc, negq[r - c - 1], vec[c])
            new.append(acc)
        vec = new
    return [Scalar(field, x) for x in reversed(vec)]


def _own_candidates(coeffs, field: FieldDescriptor):
    """The field's own candidate roots of coeffs, lazily, in field_roots' order."""
    if field.kind == FINITE:
        yield from field.elements()
        return
    if field.kind == CYCLOTOMIC:
        # the roots of unity, each once: -zeta^e is zeta^(e + n/2) for even n
        for e in range(field.n if field.n % 2 else field.n // 2):
            yield from (field.zeta(e), -field.zeta(e))
    # a rational root is a root of each coordinate polynomial; over Q there is one
    columns = zip(*(c.coords() for c in coeffs))
    yield from map(field.from_fraction,
                   rational_roots(next((col for col in columns if any(col)), ())))


def field_roots(coeffs, field: FieldDescriptor, extra=()):
    """All roots of the polynomial that lie in the field, with multiplicity.

    Returns (list of (root, multiplicity), remaining factor).  One loop reads
    one lazy stream of candidates: the `extra` hints, then every element of
    F_q, the rational roots over Q, or over Q(zeta_n) the roots of unity
    +-zeta^e and the rational roots of the first nonzero coordinate
    polynomial (in 1, z, z^2, ...).  A root is deflated as often as it
    divides, so a repeated candidate is no root, and the loop stops once the
    remainder is constant.  The search is exact and complete over F_q and Q.
    In characteristic 0 a last step tries the mean of the remainder's roots,
    which solves a remainder (x - alpha)^k (k = 1 included); over Q(zeta_n)
    anything else stays in the remainder.  The roots come in coords() order.
    """
    coeffs = list(coeffs)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    roots, one = [], field.one()

    def deflate(cand):
        nonlocal coeffs
        mult = 0
        while len(coeffs) > 1 and not horner(coeffs, cand):
            coeffs = divide(coeffs, [-cand, one])[0]
            mult += 1
        if mult:
            roots.append((cand, mult))

    for cand in chain(extra, _own_candidates(coeffs, field)):
        deflate(cand)
        if len(coeffs) < 2:
            break
    if field.characteristic == 0 and len(coeffs) > 1:
        # the mean -c_{k-1} / (k c_k) of the remainder's roots
        deflate(-coeffs[-2] / (field.from_int(len(coeffs) - 1) * coeffs[-1]))
    roots.sort(key=lambda rm: rm[0].coords())
    return roots, coeffs


@dataclass(frozen=True)
class JordanData:
    """Multiset of Jordan blocks (eigenvalue, length); the lengths sum to the dimension."""

    blocks: tuple[tuple[Scalar, int], ...]

    @staticmethod
    def of(blocks, ambient_dim=None) -> "JordanData":
        blocks = tuple(sorted(blocks, key=lambda b: (b[0].coords(), b[1])))
        used = sum(n for _, n in blocks)
        if ambient_dim is not None and used != ambient_dim:
            raise PreconditionError(f"Jordan blocks fill dimension {used}, "
                                    f"not the ambient dimension {ambient_dim}")
        return JordanData(blocks)

    def __str__(self):
        parts = []
        for (ev, n), c in sorted(Counter(self.blocks).items(),
                                 key=lambda kv: (kv[0][0].coords(), kv[0][1])):
            s = f"J({ev},{n})"
            parts.append(s if c == 1 else f"{c}*{s}")
        return " + ".join(parts) if parts else "(empty)"


def eigenvalues(M: Matrix, hints=()):
    """The eigenvalues of M in its field: field_roots of char_poly(M).

    The hints, then the diagonal entries, are the first candidates, so the
    eigenvalues of a triangular matrix are all found, even those (such as
    1 + zeta_4 over Q(zeta_4)) that are neither rational nor a root of
    unity.  Returns (list of (eigenvalue, multiplicity), remaining factor).
    """
    return field_roots(char_poly(M), M.field, [*hints, *(M[i, i] for i in range(M.nrows))])


def powers(M: Matrix):
    """M, M^2, M^3, ...: one product a step, made only when the next power is read."""
    P = M
    while True:
        yield P
        P = P @ M


def matrix_order(M: Matrix, bound: int) -> int | None:
    """The least k <= bound with M^k = 1, or None: at most bound - 1 products."""
    ident = Matrix.identity(M.field, M.nrows)
    return next((k for k, P in enumerate(islice(powers(M), bound), 1) if P == ident), None)


def _power_ranks(M: Matrix, alpha: Scalar):
    """rank((M - alpha)^k) for k = 1, 2, ..., lazily: one product and one rank a step."""
    yield from map(rank, powers(M - Matrix.identity(M.field, M.nrows).scale(alpha)))


def jordan_data(M: Matrix, hints=()) -> JordanData:
    """Jordan block multiset of an invertible matrix that splits over its field.

    The distinct nonzero hints, in the caller's order, come first: one rank
    of M - alpha each, then for each hint in turn the powers of M - alpha
    while the rank still drops and the nullities sum to less than n.  A sum
    of n is the whole answer, with no char_poly: generalized eigenspaces of
    distinct alpha are independent and the nullity of (M - alpha)^k is at
    most the dimension of alpha's, so a sum of n makes each kernel all of
    it, and M has no other eigenvalue.  Otherwise the root search runs with
    the hints as its first candidates; a wrong hint costs one rank.  Both
    ways, ranks[k] - ranks[k + 1] blocks of alpha are longer than k.  A
    hint of another field raises FieldMismatch.

    Raises DoesNotSplit (carrying the offending factor) when an eigenvalue
    lies outside the declared field; the caller may retry over a larger
    cyclotomic field.
    """
    if not M.is_square():
        raise PreconditionError("jordan_data needs a square matrix")
    for h in hints:
        _check_fields(h, M, "jordan_data hints")
    n = M.nrows
    alphas = list(dict.fromkeys(h for h in hints if h))
    streams = {alpha: _power_ranks(M, alpha) for alpha in alphas}
    ranks = {alpha: [n, next(streams[alpha])] for alpha in alphas}
    nullity = sum(n - r[-1] for r in ranks.values())
    for alpha in alphas:
        r = ranks[alpha]
        while nullity < n and r[-1] < r[-2]:
            r.append(next(streams[alpha]))
            nullity += r[-2] - r[-1]
    if nullity < n:
        roots, rem = eigenvalues(M, alphas)
        if any(not alpha for alpha, _ in roots):
            raise PreconditionError("jordan_data needs an invertible matrix")
        if len(rem) > 1:
            raise DoesNotSplit(rem)
        for alpha, mult in roots:
            if alpha not in ranks:
                streams[alpha] = _power_ranks(M, alpha)
                ranks[alpha] = [n, n - 1] if mult == 1 else [n]
            r = ranks[alpha]
            while n - r[-1] < mult:
                r.append(next(streams[alpha]))
    blocks = []
    for alpha, r in ranks.items():
        longer = [a - b for a, b in zip(r, r[1:])] + [0]
        blocks += [(alpha, k) for k in range(1, len(r)) for _ in range(longer[k - 1] - longer[k])]
    return JordanData.of(blocks, n)


def kronecker(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product on the basis e_i (x) f_j, lexicographic in (i, j).

    A 1 x 1 identity factor returns the other factor, the same object.
    """
    _check_fields(A, B, "kronecker")
    one = ((A.field.ops.one,),)
    if A.payload == one:
        return B
    if B.payload == one:
        return A
    mul = A.field.ops.mul
    return Matrix(A.field, tuple(tuple(mul(a, b) for a in ra for b in rb)
                                 for ra in A.payload for rb in B.payload))


def solve_matrix_equations(pairs, unknowns) -> list[Matrix]:
    """Basis of {X : L X R = L' X R' for each ((L, R), (L', R')) in pairs}.

    unknowns[a][b] numbers the unknown at entry (a, b) of X, and entries may
    share one: row-major numbering for a general X, one unknown per a <= b
    for a symmetric X.  Entry (i, j) of L X R - L' X R' is one equation,
    in which the unknown at (u, v) has the coefficient L_iu R_vj - L'_iu R'_vj.
    The solutions are the kernel_basis of the coefficients (one row per
    unknown), read back into matrices through `unknowns`.
    """
    field = pairs[0][0][0].field
    if any(M.field != field for pair in pairs for side in pair for M in side):
        raise FieldMismatch("solve_matrix_equations across fields")
    ops = field.ops
    nonzero, axpy = ops.nonzero, ops.axpy
    coefs = [[] for _ in range(1 + max(map(max, unknowns)))]
    for pair in pairs:
        (L0, R0), _ = pair
        # block[x][i]: the coefficients of unknown x in the equations of row i
        block = [[[ops.zero] * R0.ncols for _ in range(L0.nrows)] for _ in coefs]
        for (L, R), negate in zip(pair, (False, True)):
            rrows = R.sparse
            for i, lrow in enumerate(L.payload):
                for u, a in enumerate(lrow):
                    if nonzero(a):
                        a = ops.neg(a) if negate else a
                        for v, rrow in enumerate(rrows):
                            axpy(block[unknowns[u][v]][i], a, rrow)
        for row, part in zip(coefs, block):
            row.extend(chain.from_iterable(part))
    return [Matrix(field, tuple(tuple(v[k] for k in row) for row in unknowns))
            for v in kernel_basis(Matrix(field, tuple(map(tuple, coefs)))).payload]


def commutant_basis(As: list[Matrix], Bs: list[Matrix]) -> list[Matrix]:
    """Basis of {X : A_i X = X B_i for all i}, unknowns numbered row by row."""
    d = As[0].nrows
    ident = Matrix.identity(As[0].field, d)
    return solve_matrix_equations([((A, ident), (ident, B)) for A, B in zip(As, Bs)],
                                  [range(a * d, (a + 1) * d) for a in range(d)])


def find_invertible(basis: list[Matrix]) -> Matrix | None:
    """First invertible matrix among the basis, then among its prefix sums.

    The scan order is fixed, so the answer is deterministic; it is not a
    complete search of the span.
    """
    seen = set()
    for S in list(basis) + list(accumulate(basis)):
        if S not in seen:
            seen.add(S)
            if S.is_invertible():
                return S
    return None

