"""Reduction of tuples mod ell and brute-force matrix-group analysis.

Group recognition is by exact order (breadth-first closure under the
generators), not by classification theorems; at desk scale the relevant
closures stay below a few tens of thousands of elements.  The closure acts
on row ids: row i of B A is (row i of B) A, so each distinct payload row
gets a small int id, each generator keeps a list from row id to the id of
that row times the generator, filled level by level, and an element is the
tuple of its n row ids.  A product is one itemgetter over such a list;
only group_elements turns the ids back into payload rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import BadPrime, NoInvariantForm, NoRootInQuadratic, PreconditionError
from .linalg import (Matrix, _check_fields, _mul_rows, commutant_basis, find_invertible,
                     jordan_data, poly_eval, rank, solve_matrix_equations)
from .scalars import (FINITE, RATIONAL, FieldDescriptor, Scalar, cyclotomic_polynomial,
                      is_prime)
from .tuples import MonodromyTuple


@dataclass
class GroupReport:
    order: int | None                      # None means "exceeds cap"
    absolutely_irreducible: bool | None = None
    invariant_gram: Matrix | None = None
    recognized: str | None = None

    @property
    def order_text(self) -> str:
        return "exceeds cap" if self.order is None else str(self.order)


def _reduce_fraction(fr: Fraction, ell: int) -> int:
    if fr.denominator % ell == 0:
        raise BadPrime(f"denominator {fr.denominator} vanishes mod {ell}")
    return fr.numerator * pow(fr.denominator, -1, ell) % ell


def _cyclotomic_root_mod(n: int, ell: int) -> tuple[FieldDescriptor, Scalar]:
    """Smallest root of Phi_n in F_ell if any, else in F_{ell^2}."""
    for degree in (1, 2):
        field = FieldDescriptor.finite(ell, degree)
        phi = [field.from_int(c) for c in cyclotomic_polynomial(n)]
        for root in field.elements():
            if not poly_eval(phi, root):
                return field, root
    # required degree = multiplicative order of ell mod n
    k = 1
    acc = ell % n
    while acc != 1:
        acc = acc * ell % n
        k += 1
    raise NoRootInQuadratic(k)


def reduce_mod(T: MonodromyTuple, ell: int) -> MonodromyTuple:
    """Residual tuple mod ell; zeta_n goes to the smallest root of Phi_n.

    The target is F_ell when Phi_n has a root there, F_{ell^2} otherwise.
    BadPrime if ell divides a denominator or the cyclotomic order.
    """
    if not is_prime(ell):
        raise BadPrime(f"{ell} is not prime")
    src = T.field
    if src.kind == FINITE:
        raise PreconditionError("tuple is already over a finite field")
    if src.kind == RATIONAL:
        target = FieldDescriptor.finite(ell)

        def conv(x):
            return (_reduce_fraction(x, ell),)
    else:
        if src.n % ell == 0:
            raise BadPrime(f"{ell} divides the cyclotomic order {src.n}")
        target, root = _cyclotomic_root_mod(src.n, ell)
        ops, root = target.ops, root.payload

        def conv(x):
            nums, den = x
            acc, power = ops.zero, ops.one
            for a in nums:
                if a:
                    acc = ops.addmul(acc, target.from_int(a).payload, power)
                power = ops.mul(power, root)
            dinv = target.from_int(_reduce_fraction(Fraction(1, den), ell)).payload
            return ops.mul(acc, dinv)
    entries = [Matrix(target, tuple(tuple(map(conv, row)) for row in M.payload))
               for M in T.entries]
    return MonodromyTuple.make(target, entries, T.points)


def _extend_tables(gens: list[Matrix], rows: list, ids: dict, tables: list[list]) -> None:
    """Extend each generator's table over the rows it does not cover yet.

    tables[g][k] is the id of rows[k] times gens[g]; the images of the new
    rows come from one _mul_rows call per generator, and an image not seen
    before is interned: appended to rows, with the next id in ids.
    """
    new_rows = rows[len(tables[0]):]
    for A, table in zip(gens, tables):
        for image in _mul_rows(A.field.ops, new_rows, A.sparse, A.ncols):
            k = ids.setdefault(image, len(rows))
            if k == len(rows):
                rows.append(image)
            table.append(k)


def _closure_rows(gens: list[Matrix], cap: int) -> tuple[dict, list] | None:
    """Breadth-first closure under right multiplication by the generators.

    Returns (seen, rows), or None when the closure passes the cap.  The keys
    of the insertion-ordered dict seen are the elements, each as the tuple
    of its n row ids; rows[k] is the payload row with id k, and the
    identity's rows have ids 0..n-1.

    Row i of B A is (row i of B) A, so each generator keeps a plain list
    from a row id to the id of that row times the generator.  At the start
    of each level _extend_tables fills the lists over the rows found since
    the last level, one vector-times-matrix product per distinct (row,
    generator) pair; a product B A is then one itemgetter over A's list,
    and the key it builds and hashes is a tuple of ints.  No payload row is
    hashed per product, and no Scalar or Matrix is built inside the loop.
    """
    n = gens[0].nrows
    if any(A.dim != (n, n) for A in gens):
        raise ValueError("dimension mismatch in matrix product")
    for A in gens:
        _check_fields(A, gens[0], "matrix product")
    rows = list(Matrix.identity(gens[0].field, n).payload)
    ids = {row: k for k, row in enumerate(rows)}
    tables: list[list[int]] = [[] for _ in gens]
    ident = tuple(range(n))
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        _extend_tables(gens, rows, ids, tables)
        new = []
        for B in frontier:
            # itemgetter of one index returns the entry itself, not a 1-tuple
            get = itemgetter(*B) if n > 1 else (lambda table, k=B[0]: (table[k],))
            for table in tables:
                C = get(table)
                if C not in seen:
                    seen[C] = None
                    if len(seen) > cap:
                        return None
                    new.append(C)
        frontier = new
    return seen, rows


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise PreconditionError(f"cap must be at least 1, got {cap}")


def group_closure(gens: list[Matrix], cap: int = 100000) -> int | None:
    """Order of the generated group; None when past the cap (an int >= 1)."""
    _check_cap(cap)
    if not gens:
        return 1
    closure = _closure_rows(gens, cap)
    return None if closure is None else len(closure[0])


def group_elements(gens: list[Matrix], cap: int = 100000):
    """The closure itself (insertion order); None when past the cap (an int >= 1).

    The BFS keeps an element as the tuple of its row ids; this is where the
    ids turn back into payload rows, each element a Matrix of them.  Needs at
    least one generator: without one there is no dimension to build the
    identity in.
    """
    _check_cap(cap)
    if not gens:
        raise PreconditionError("group_elements needs at least one generator")
    closure = _closure_rows(gens, cap)
    if closure is None:
        return None
    seen, rows = closure
    return [Matrix(gens[0].field, tuple(map(rows.__getitem__, key))) for key in seen]


def absolutely_irreducible(gens: list[Matrix]) -> bool:
    """True iff the commutant of the generated algebra is the scalars."""
    return len(commutant_basis(gens, gens)) == 1


def invariant_symmetric_form(gens: list[Matrix]) -> Matrix | None:
    """Nondegenerate symmetric G with g G g^T = G for all generators, if any."""
    d = gens[0].nrows
    upper = {}                             # one unknown G_ab per a <= b
    for a in range(d):
        for b in range(a, d):
            upper[a, b] = len(upper)
    unknowns = [[upper[min(a, b), max(a, b)] for b in range(d)] for a in range(d)]
    ident = Matrix.identity(gens[0].field, d)
    return find_invertible(solve_matrix_equations(
        [((g, g.transpose()), (ident, ident)) for g in gens], unknowns))


def primitivity_bound(T: MonodromyTuple) -> tuple[Fraction, bool]:
    """Lower bound, and decision, for block dimensions of invariant decompositions.

    Returns (bound, primitive).  The bound is max{x, n - m/2 + (a+b)/2} with
    m the total unipotent-rank sum, x the longest block length prime to the
    characteristic, a the semisimple and b the unipotent contributions.  The
    decision scans every block dimension d | n, d <= n/2 and declares
    primitivity when each is beaten by its own bound.
    """
    field = T.field
    if field.kind != FINITE:
        raise PreconditionError("primitivity_bound works over finite fields")
    p = field.p
    n = T.dim
    entries = list(T.entries)
    if not absolutely_irreducible(entries):
        raise PreconditionError("entries must generate an absolutely irreducible group")
    jordans = [jordan_data(M) for M in entries]
    ranks = [rank(M.minus_identity()) for M in entries]
    m_total = sum(ranks)
    x = 0
    for jd in jordans:
        for _ev, ln in jd.blocks:
            if ln % p != 0:
                x = max(x, ln)

    def semisimple(jd):
        return all(ln == 1 for _ev, ln in jd.blocks)

    def unipotent(jd):
        return all(ev.is_one() for ev, _ln in jd.blocks)

    # identity entries act trivially on any decomposition; they only ever
    # contribute zeros, so keep them out of the unipotent sum
    b_sum = sum(sum(ln for _ev, ln in jd.blocks if ln % p != 0)
                for jd, rk in zip(jordans, ranks) if unipotent(jd) and rk > 0)

    def bound_given(dim_v1: int) -> Fraction:
        a_sum = sum(rk for jd, rk in zip(jordans, ranks)
                    if semisimple(jd) and not unipotent(jd) and rk < dim_v1)
        return max(Fraction(x), Fraction(n) - Fraction(m_total, 2)
                   + Fraction(a_sum + b_sum, 2))

    primitive = True
    for ddim in range(1, n // 2 + 1):
        if n % ddim == 0 and Fraction(ddim) >= bound_given(ddim):
            primitive = False
            break
    return bound_given(n), primitive


def o3_recognition(gens: list[Matrix], ell: int, cap: int = 100000) -> GroupReport:
    """Recognize O_3(F_ell) by invariant form plus exact order 2 ell (ell^2-1)."""
    if not is_prime(ell) or ell == 2:
        raise PreconditionError("ell must be an odd prime")
    if any(g.nrows != 3 for g in gens):
        raise PreconditionError("o3_recognition needs 3x3 generators")
    gram = invariant_symmetric_form(gens)
    if gram is None:
        raise NoInvariantForm("no nondegenerate invariant symmetric form")
    order = group_closure(gens, cap=cap)
    recognized = None
    if order == 2 * ell * (ell * ell - 1):
        recognized = f"O3(F_{ell})"
    return GroupReport(order=order,
                       absolutely_irreducible=absolutely_irreducible(gens),
                       invariant_gram=gram,
                       recognized=recognized)
