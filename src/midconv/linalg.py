"""Exact dense linear algebra over a FieldDescriptor.

Matrices act on row vectors from the right: the image of v under M is v*M.
Consequently kernel_basis returns the *left* kernel {v : v M = 0} and the
image of M is its row space.  `_echelon` is the one Gaussian elimination:
Matrix.inverse, Matrix.det, rank, row_space_basis, kernel_basis,
solve_coords and in_span all read it.  It picks the first nonzero pivot, so
every computed basis is deterministic.  solve_coords eliminates only its
basis (independent, beside an identity block); the vectors enter products.

The payload loops -- the elimination, the matrix products (`_echelon`,
`_mul_rows`, hence Matrix.__matmul__), char_poly and the coefficient rows of
solve_matrix_equations -- run on raw payloads through the field's ops
table.  `_unbox` is their boundary: it raises TypeError for an entry that is
not a Scalar and FieldMismatch for an entry of another field, as Scalar
arithmetic does; results are boxed back into Scalars on the way out.  Each
loop touches only nonzero entries: the right factor of a product is read as
`_sparse_rows` ((j, b) for the nonzero b of each row, built once by a caller
that reuses it), the elimination runs along the nonzero entries of the pivot
row, and every term is one `ops.addmul(acc, a, b)` = acc + a*b, normalized
once, instead of a mul and an add.

`solve_matrix_equations` is the one solver for linear equations in an
unknown matrix (L X R = L' X R' per pair, unknowns numbered by the caller).
It returns the solutions as matrices; `find_invertible` scans such a list,
then its prefix sums, for an invertible one.  char_poly is Berkowitz alone.

`eigenvalues` is the one eigenvalue search: field_roots of char_poly, with
the diagonal entries among the candidates.  jordan_data and the
convolution-sheaf check both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Any, NamedTuple

from .errors import DoesNotSplit, FieldMismatch, PreconditionError
from .scalars import FINITE, RATIONAL, FieldDescriptor, Scalar, divisors, parse_scalar

Row = tuple


def _to_scalar(field: FieldDescriptor, x) -> Scalar:
    if isinstance(x, Scalar):
        if x.field != field:
            raise FieldMismatch(f"{x.field} vs {field}")
        return x
    if isinstance(x, str):
        return parse_scalar(x, field)
    if isinstance(x, Fraction):
        return field.from_fraction(x)
    return field.from_int(x)


@dataclass(frozen=True)
class Matrix:
    field: FieldDescriptor
    rows: tuple[tuple[Scalar, ...], ...]

    @staticmethod
    def from_rows(field: FieldDescriptor, rows) -> "Matrix":
        return Matrix(field, tuple(tuple(_to_scalar(field, x) for x in r) for r in rows))

    @staticmethod
    def identity(field: FieldDescriptor, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return Matrix(field, tuple(tuple(one if i == j else zero for j in range(n))
                                   for i in range(n)))

    @staticmethod
    def zero(field: FieldDescriptor, m: int, n: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, tuple((z,) * n for _ in range(m)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def dim(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix sum")
        return Matrix(self.field, tuple(tuple(a + b for a, b in zip(ra, rb))
                                        for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix difference")
        return Matrix(self.field, tuple(tuple(a - b for a, b in zip(ra, rb))
                                        for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, tuple(tuple(-a for a in r) for r in self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        field = self.field
        if other.field is not field and other.field != field:
            raise FieldMismatch("matrix product across fields")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        prod = _mul_rows(field.ops, _unbox(field, self.rows),
                         _sparse_rows(field.ops, _unbox(field, other.rows)), other.ncols)
        return Matrix(field, tuple(_box_row(field, r) for r in prod))

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.field, tuple(tuple(c * a for a in r) for r in self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)))

    def minus_identity(self) -> "Matrix":
        one = self.field.one()
        return Matrix(self.field, tuple(tuple(a - one if i == j else a
                                              for j, a in enumerate(r))
                                        for i, r in enumerate(self.rows)))

    def pow(self, e: int) -> "Matrix":
        if e < 0:
            return self.inverse().pow(-e)
        out = Matrix.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def inverse(self) -> "Matrix":
        n = self.nrows
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        field = self.field
        one, zero = field.one(), field.zero()
        ech = _echelon([r + tuple(one if i == j else zero for j in range(n))
                        for i, r in enumerate(self.rows)], field)
        if ech.pivots != list(range(n)):
            raise PreconditionError("matrix is singular")
        return Matrix(field, tuple(_box_row(field, r[n:]) for r in ech.rows))

    def is_invertible(self) -> bool:
        return self.is_square() and rank(self) == self.nrows

    def det(self) -> Scalar:
        """(-1)^swaps times the pivot product of an unreduced echelon form."""
        if not self.is_square():
            raise PreconditionError("determinant of a non-square matrix")
        ech = _echelon(self.rows, self.field, reduced=False)
        if len(ech.pivots) < self.nrows:
            return self.field.zero()
        return Scalar(self.field, ech.det)

    def trace(self) -> Scalar:
        t = self.field.zero()
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def __str__(self):
        return "\n".join(", ".join(str(a) for a in r) for r in self.rows)


# -- the payload loops -----------------------------------------------------------

def _field_of(rows) -> FieldDescriptor | None:
    """The field of the first entry, or None when there is no entry."""
    for r in rows:
        for x in r:
            if not isinstance(x, Scalar):
                raise TypeError(f"expected Scalar, got {type(x).__name__}")
            return x.field
    return None


def _unbox(field: FieldDescriptor, rows) -> list[list]:
    """Payload rows of Scalar rows, every entry checked to be a Scalar of `field`."""
    out = []
    for r in rows:
        row = []
        for x in r:
            if not isinstance(x, Scalar):
                raise TypeError(f"expected Scalar, got {type(x).__name__}")
            if x.field is not field and x.field != field:
                raise FieldMismatch(f"{x.field} vs {field}")
            row.append(x.payload)
        out.append(row)
    return out


def _box_row(field: FieldDescriptor, payloads) -> Row:
    return tuple(Scalar(field, x) for x in payloads)


def _sparse_rows(ops, B) -> list[list]:
    """The (j, b) pairs of the nonzero entries b of each payload row of B."""
    nonzero = ops.nonzero
    return [[(j, b) for j, b in enumerate(row) if nonzero(b)] for row in B]


def _mul_rows(ops, A, SB, ncols: int) -> list[tuple]:
    """Payload rows of the product A B; SB = _sparse_rows(ops, B), B has ncols columns.

    Each nonzero a in column k of a row of A adds a*b into column j for the
    nonzero (j, b) of row k of B, one addmul per term.  A caller that
    multiplies by one B many times builds SB once.
    """
    zero, nonzero, addmul = ops.zero, ops.nonzero, ops.addmul
    out = []
    for row in A:
        acc = [zero] * ncols
        for a, brow in zip(row, SB):
            if brow and nonzero(a):
                for j, b in brow:
                    acc[j] = addmul(acc[j], a, b)
        out.append(tuple(acc))
    return out


class _Echelon(NamedTuple):
    field: FieldDescriptor | None     # None when the input has no entry
    rows: list[list]                  # payload rows of the echelon form, pivot rows only
    pivots: list[int]
    det: Any                          # payload of (-1)^swaps * (product of the pivots)


def _echelon(rows, field: FieldDescriptor | None = None, reduced: bool = True) -> _Echelon:
    """Row echelon form of Scalar rows, computed on payloads.

    Zero rows are dropped first.  `det` is the determinant of a square input
    whose pivots are 0..n-1; `field` defaults to that of the first entry.
    """
    rows = list(rows)
    if field is None:
        field = _field_of(rows)
        if field is None:
            return _Echelon(None, [], [], None)
    ops = field.ops
    nonzero, neg, mul, addmul = ops.nonzero, ops.neg, ops.mul, ops.addmul
    M = [r for r in _unbox(field, rows) if any(map(nonzero, r))]
    det = ops.one
    piv = []
    r0 = 0
    for c in range(len(M[0]) if M else 0):
        pr = next((r for r in range(r0, len(M)) if nonzero(M[r][c])), None)
        if pr is None:
            continue
        if pr != r0:
            M[r0], M[pr] = M[pr], M[r0]
            det = neg(det)
        pivot = M[r0][c]
        det = mul(det, pivot)
        pv = ops.inv(pivot)
        prow = M[r0] = [mul(x, pv) if nonzero(x) else x for x in M[r0]]
        pairs = [(j, y) for j, y in enumerate(prow) if nonzero(y)]
        for r in range(len(M)) if reduced else range(r0 + 1, len(M)):
            row = M[r]
            if r != r0 and nonzero(row[c]):
                f = neg(row[c])
                for j, y in pairs:
                    row[j] = addmul(row[j], f, y)
        piv.append(c)
        r0 += 1
        if r0 == len(M):
            break
    return _Echelon(field, M[:r0], piv, det)


def rank(M: Matrix) -> int:
    """Rank: the pivot count of an unreduced echelon form."""
    return len(_echelon(M.rows, M.field, reduced=False).pivots)


def row_space_basis(rows) -> list[Row]:
    """Reduced-echelon basis of the span of the given row vectors."""
    ech = _echelon(rows)
    return [_box_row(ech.field, r) for r in ech.rows]


def kernel_basis(M: Matrix) -> list[Row]:
    """Exact basis of the left kernel {v : v M = 0}."""
    m, n = M.nrows, M.ncols
    if m == 0:
        return []
    field = M.field
    ech = _echelon([[M.rows[i][j] for i in range(m)] for j in range(n)], field)
    neg = field.ops.neg
    zero, one = field.zero(), field.one()
    pivots = set(ech.pivots)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [zero] * m
        v[fc] = one
        for row, pc in zip(ech.rows, ech.pivots):
            v[pc] = Scalar(field, neg(row[fc]))
        basis.append(tuple(v))
    return basis


def in_span(basis, v) -> bool:
    """v in the span of a linearly independent basis (see solve_coords)."""
    return solve_coords(basis, [v]) is not None


def solve_coords(basis, vectors):
    """Coefficients x with sum_k x_k basis_k = v for each v, or None if any v is outside.

    The basis must be linearly independent; a dependent one raises
    PreconditionError.  One reduced elimination of [basis | 1_m] gives rows
    R = M basis with pivot columns P.  v lies in the span exactly when
    v = v|_P R, checked on the other columns, and then x = v|_P M: the
    vectors enter two products, not the elimination.
    """
    m = len(basis)
    if m == 0:
        return None if any(any(v) for v in vectors) else [[] for _ in vectors]
    field, n = _field_of(basis), len(basis[0])
    one, zero = field.one(), field.zero()
    ech = _echelon([tuple(b) + tuple(one if k == i else zero for k in range(m))
                    for i, b in enumerate(basis)], field)
    if ech.pivots[-1] >= n:
        raise PreconditionError("solve_coords needs a linearly independent basis")
    rest = sorted(set(range(n)) - set(ech.pivots))
    V = _unbox(field, vectors)
    VP = [[v[c] for c in ech.pivots] for v in V]
    ops = field.ops
    R = _sparse_rows(ops, [[r[c] for c in rest] for r in ech.rows])
    if _mul_rows(ops, VP, R, len(rest)) != [tuple(v[c] for c in rest) for v in V]:
        return None
    M = _sparse_rows(ops, [r[n:] for r in ech.rows])
    return [list(_box_row(field, x)) for x in _mul_rows(ops, VP, M, m)]


def intersect_row_spaces(B1, B2) -> list[Row]:
    """Basis of the intersection of two row spaces."""
    if not B1 or not B2:
        return []
    fld = B1[0][0].field
    stacked = Matrix(fld, tuple(tuple(r) for r in list(B1) + list(B2)))
    coefs = kernel_basis(stacked)
    if not coefs:
        return []
    C = Matrix(fld, tuple(c[:len(B1)] for c in coefs))
    return row_space_basis((C @ Matrix(fld, tuple(tuple(r) for r in B1))).rows)


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
    A = _unbox(field, M.rows)

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


def poly_eval(coeffs, x: Scalar) -> Scalar:
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs, root: Scalar):
    """Divide a monic-or-not polynomial by (x - root); assumes exact."""
    out = [None] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry
        carry = coeffs[i] + root * carry
    assert not carry
    return out


def _rational_candidates(coeffs: list[Fraction], field: FieldDescriptor):
    """0 and +- p/q with p | a_0, q | a_lead, a_i the coefficients made integers."""
    den = math.lcm(*(c.denominator for c in coeffs))
    int_coeffs = [int(c * den) for c in coeffs]
    lo = next((c for c in int_coeffs if c), None)
    if lo is None:
        return []
    hi = int_coeffs[-1]
    cands = {Fraction(0)}
    for pn in divisors(lo):
        for qd in divisors(hi):
            cands.add(Fraction(pn, qd))
            cands.add(Fraction(-pn, qd))
    return [field.from_fraction(f) for f in sorted(cands)]


def field_roots(coeffs, field: FieldDescriptor, extra=()):
    """All roots of the polynomial that lie in the field, with multiplicity.

    Returns (list of (root, multiplicity), remaining factor).  The search is
    exact and complete over Q and over finite fields; over Q(zeta_n) it tries
    rationals, the roots of unity of the field and the `extra` candidates,
    then the mean of the remainder's roots, which solves a remainder
    (x - alpha)^k (k = 1 included), leaving anything else in the remainder.
    The roots come in sort_key order.
    """
    coeffs = list(coeffs)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    if field.kind == FINITE:
        candidates = list(field.elements())
    elif field.kind == RATIONAL:
        candidates = _rational_candidates([c.payload for c in coeffs], field)
    else:
        # a rational root is a root of each coordinate polynomial in 1, z, z^2, ...
        coords = ([Fraction(c.payload[0][j], c.payload[1]) for c in coeffs]
                  for j in range(field.degree))
        candidates = (list(field.roots_of_unity()) + [field.zero()]
                      + _rational_candidates(next((x for x in coords if any(x)), []), field))
    candidates = list({c.payload: c for c in candidates + list(extra)}.values())
    candidates.sort(key=lambda s: s.sort_key())
    roots = []
    for cand in candidates + [None]:
        if cand is None:
            # the mean -c_{k-1} / (k c_k) of the remainder's roots: the root of
            # any (x - alpha)^k, a linear remainder among them
            if field.kind == FINITE or len(coeffs) < 2:
                break
            cand = -coeffs[-2] / (field.from_int(len(coeffs) - 1) * coeffs[-1])
        mult = 0
        while len(coeffs) > 1 and not poly_eval(coeffs, cand):
            coeffs = _deflate(coeffs, cand)
            mult += 1
        if mult:
            roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots, coeffs


@dataclass(frozen=True)
class JordanData:
    """Multiset of Jordan blocks (eigenvalue, length) plus ambient dimension."""

    blocks: tuple[tuple[Scalar, int], ...]
    ambient_dim: int

    @staticmethod
    def of(blocks, ambient_dim=None) -> "JordanData":
        blocks = tuple(sorted(blocks, key=lambda b: (b[0].sort_key(), b[1])))
        if ambient_dim is None:
            ambient_dim = sum(n for _, n in blocks)
        assert sum(n for _, n in blocks) == ambient_dim
        return JordanData(blocks, ambient_dim)

    def counts(self):
        out = {}
        for ev, n in self.blocks:
            out[(ev, n)] = out.get((ev, n), 0) + 1
        return out

    def __str__(self):
        parts = []
        for (ev, n), c in sorted(self.counts().items(),
                                 key=lambda kv: (kv[0][0].sort_key(), kv[0][1])):
            s = f"J({ev},{n})"
            parts.append(s if c == 1 else f"{c}*{s}")
        return " + ".join(parts) if parts else "(empty)"


def jordan_block(field: FieldDescriptor, alpha: Scalar, n: int) -> Matrix:
    """Explicit Jordan block: alpha on the diagonal, ones above it."""
    one, zero = field.one(), field.zero()
    return Matrix(field, tuple(tuple(alpha if i == j else one if j == i + 1 else zero
                                     for j in range(n)) for i in range(n)))


def eigenvalues(M: Matrix):
    """The eigenvalues of M in its field: field_roots of char_poly(M).

    The diagonal entries join the candidates, so the eigenvalues of a
    triangular matrix are all found, even those (such as 1 + zeta_4 over
    Q(zeta_4)) that are neither rational nor a root of unity.  Returns
    (list of (eigenvalue, multiplicity), remaining factor).
    """
    return field_roots(char_poly(M), M.field, [M.rows[i][i] for i in range(M.nrows)])


def jordan_data(M: Matrix) -> JordanData:
    """Jordan block multiset of an invertible matrix that splits over its field.

    Raises DoesNotSplit (carrying the offending factor) when an eigenvalue
    lies outside the declared field; the caller may retry over a larger
    cyclotomic field.
    """
    if not M.is_square():
        raise PreconditionError("jordan_data needs a square matrix")
    n = M.nrows
    field = M.field
    roots, rem = eigenvalues(M)
    if any(not alpha for alpha, _ in roots):
        raise PreconditionError("jordan_data needs an invertible matrix")
    if len(rem) > 1:
        raise DoesNotSplit(rem)
    blocks = []
    for alpha, mult in roots:
        if mult == 1:
            blocks.append((alpha, 1))
            continue
        N = M - Matrix.identity(field, n).scale(alpha)
        ranks = [n, rank(N)]
        P = N
        while n - ranks[-1] < mult:
            P = P @ N
            ranks.append(rank(P))
        ge = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
        for size in range(len(ge), 0, -1):
            cnt = ge[size - 1] - (ge[size] if size < len(ge) else 0)
            blocks.extend([(alpha, size)] * cnt)
    return JordanData.of(blocks, n)


def kronecker(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product on the basis e_i (x) f_j, lexicographic in (i, j)."""
    if A.field != B.field:
        raise FieldMismatch("kronecker across fields")
    na, nb = A.nrows, B.nrows
    out = []
    for i in range(na):
        for k in range(nb):
            row = []
            for j in range(A.ncols):
                a = A.rows[i][j]
                row.extend(a * b for b in B.rows[k])
            out.append(tuple(row))
    return Matrix(A.field, tuple(out))


def kronecker_jordan(alpha: Scalar, n1: int, beta: Scalar, n2: int) -> JordanData:
    """Jordan type of J(alpha,n1) (x) J(beta,n2) in characteristic zero."""
    if n1 > n2:
        raise PreconditionError("kronecker_jordan needs n1 <= n2")
    if not alpha or not beta:
        raise PreconditionError("kronecker_jordan needs nonzero eigenvalues")
    if alpha.field != beta.field:
        raise FieldMismatch("eigenvalues in different fields")
    if alpha.field.characteristic != 0:
        raise PreconditionError("kronecker_jordan is a characteristic-zero statement")
    prod = alpha * beta
    return JordanData.of([(prod, n1 + n2 - 1 - 2 * i) for i in range(n1)], n1 * n2)


def solve_matrix_equations(pairs, unknowns) -> list[Matrix]:
    """Basis of {X : L X R = L' X R' for each ((L, R), (L', R')) in pairs}.

    unknowns[a][b] numbers the unknown at entry (a, b) of X, and entries may
    share one: row-major numbering for a general X, one unknown per a <= b
    for a symmetric X.  Entry (i, j) of L X R - L' X R' is one equation,
    in which the unknown at (u, v) has the coefficient L_iu R_vj - L'_iu R'_vj.
    The solutions are the kernel_basis of the coefficients (one row per
    unknown, built on payloads), read back into matrices through `unknowns`.
    """
    field = pairs[0][0][0].field
    ops = field.ops
    nonzero, addmul = ops.nonzero, ops.addmul
    coefs = [[] for _ in range(1 + max(map(max, unknowns)))]
    for pair in pairs:
        (L0, R0), _ = pair
        width = R0.ncols
        block = [[ops.zero] * (L0.nrows * width) for _ in coefs]
        for (L, R), negate in zip(pair, (False, True)):
            rrows = _sparse_rows(ops, _unbox(field, R.rows))
            for i, lrow in enumerate(_unbox(field, L.rows)):
                for u, a in enumerate(lrow):
                    if nonzero(a):
                        a = ops.neg(a) if negate else a
                        for v, rrow in enumerate(rrows):
                            c = block[unknowns[u][v]]
                            for j, b in rrow:
                                c[i * width + j] = addmul(c[i * width + j], a, b)
        for row, part in zip(coefs, block):
            row.extend(part)
    system = Matrix(field, tuple(_box_row(field, row) for row in coefs))
    return [Matrix(field, tuple(tuple(v[k] for k in row) for row in unknowns))
            for v in kernel_basis(system)]


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


def conjugacy_solve(TA: list[Matrix], TB: list[Matrix]) -> Matrix | None:
    """Invertible S with S^-1 TA_i S = TB_i for all i, or None.

    Solves the linear system TA_i X = X TB_i and scans the solution space in
    a deterministic order for an invertible element.  For absolutely
    irreducible tuples the space has dimension <= 1, so the first basis
    matrix decides.
    """
    if not TA or len(TA) != len(TB):
        return None
    d = TA[0].nrows
    if any(M.nrows != d or M.ncols != d for M in list(TA) + list(TB)):
        return None
    return find_invertible(commutant_basis(TA, TB))
