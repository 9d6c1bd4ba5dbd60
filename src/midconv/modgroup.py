"""Reduction of tuples mod ell and matrix-group analysis.

group_report is the one answer path for a generated group: its order, its
absolute irreducibility, an invariant symmetric form and, for O_3(F_ell),
its name.  A 3 x 3 group over F_ell (ell >= 7) that keeps a nondegenerate
symmetric form is measured, when it can be, by Dickson's classification of
the subgroups of PGL_2(F_ell) = SO_3(F_ell): no invariant line and one
element of order > 5 prove Omega_3(F_ell) <= G, and det and the spinor
norm give the index (o3_recognition).  Every other group is measured by
exact order, a breadth-first closure under the generators; at desk scale
the relevant closures stay below a few tens of thousands of elements.  The
closure acts on row ids: row i of B A is (row i of B) A, so each distinct
payload row gets a small int id, each generator keeps a list from row id to
the id of that row times the generator, filled level by level, and an
element is the tuple of its n row ids.  A product is one itemgetter over
such a list; only the tests' closure oracle turns the ids back into rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import itemgetter

from .errors import BadPrime, NoRootInQuadratic, PreconditionError, Verdict
from .linalg import (Matrix, _check_fields, _mul_rows, commutant_basis, eigenvalues,
                     find_invertible, jordan_data, kernel_basis, matrix_order, rank,
                     solve_matrix_equations)
from .poly import cyclotomic_polynomial, euler_criterion, horner, is_prime
from .scalars import FINITE, RATIONAL, FieldDescriptor, Scalar
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


def _reduce_fraction(fr: Fraction | int, ell: int) -> int:
    if fr.denominator % ell == 0:
        raise BadPrime(f"denominator {fr.denominator} vanishes mod {ell}")
    return fr.numerator * pow(fr.denominator, -1, ell) % ell


def _cyclotomic_root_mod(n: int, ell: int) -> tuple[FieldDescriptor, Scalar]:
    """The first root of Phi_n, in elements() order, in F_ell if any, else in
    F_{ell^2}; ell must not divide n.

    Phi_n has a root in F_q exactly when n | q - 1, and then its roots are the
    w^k, gcd(k, n) = 1, for any root w: the first power w = x^((q-1)/n) that is
    one.  The x skip 0 and, over F_{ell^2}, F_ell, where Phi_n has no root,
    without building those skipped elements.
    """
    for degree in (1, 2):
        q = ell ** degree
        if (q - 1) % n:
            continue
        field = FieldDescriptor.finite(ell, degree)
        phi = [field.from_int(c) for c in cyclotomic_polynomial(n)]
        xs = (range(1, ell) if degree == 1
              else ((a, b) for b in range(1, ell) for a in range(ell)))
        for x in xs:
            w = Scalar(field, x) ** ((q - 1) // n)
            if not horner(phi, w):
                return field, min((w ** k for k in range(n) if math.gcd(k, n) == 1),
                                  key=lambda root: root.coords()[::-1])
    # the required degree is the multiplicative order of ell mod n
    raise NoRootInQuadratic(next(k for k in count(1) if pow(ell, k, n) == 1))


def reduce_mod(T: MonodromyTuple, ell: int) -> MonodromyTuple:
    """Residual tuple mod ell; zeta_n goes to the smallest root of Phi_n.

    The target is F_ell when Phi_n has a root there, F_{ell^2} otherwise.
    An entry maps by Horner over its reduced coordinates at the root; over Q,
    which is Q(zeta_1), the one coordinate is the entry and the root is
    never read.  BadPrime if ell divides a denominator or the cyclotomic order.
    """
    if not is_prime(ell):
        raise BadPrime(f"{ell} is not prime")
    src = T.field
    if src.kind == FINITE:
        raise PreconditionError("tuple is already over a finite field")
    if src.kind == RATIONAL:
        target, root = FieldDescriptor.finite(ell), None
    else:
        if src.n % ell == 0:
            raise BadPrime(f"{ell} divides the cyclotomic order {src.n}")
        target, root = _cyclotomic_root_mod(src.n, ell)

    def conv(x):
        return horner([target.from_int(_reduce_fraction(c, ell)) for c in src.ops.coords(x)],
                      root).payload
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


CLOSURE_CAP = 100_000                      # the default bound on the elements a closure lists


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise PreconditionError(f"cap must be at least 1, got {cap}")


def group_closure(gens: list[Matrix], cap: int = CLOSURE_CAP) -> int | None:
    """Order of the generated group; None when past the cap (an int >= 1)."""
    _check_cap(cap)
    if not gens:
        return 1
    closure = _closure_rows(gens, cap)
    return None if closure is None else len(closure[0])


def absolutely_irreducible(gens: list[Matrix]) -> bool:
    """True iff the commutant of the generated algebra is the scalars."""
    return len(commutant_basis(gens, gens)) == 1


def invariant_symmetric_form(gens: list[Matrix]) -> Verdict:
    """True with an invertible symmetric G, g G g^T = G for all g; None: the scan found none."""
    d = gens[0].nrows
    upper = {}                             # one unknown G_ab per a <= b
    for a in range(d):
        for b in range(a, d):
            upper[a, b] = len(upper)
    unknowns = [[upper[min(a, b), max(a, b)] for b in range(d)] for a in range(d)]
    ident = Matrix.identity(gens[0].field, d)
    G = find_invertible(solve_matrix_equations(
        [((g, g.transpose()), (ident, ident)) for g in gens], unknowns))
    return Verdict(None if G is None else True, G, "scan of the solutions of g G g^T = G")


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
    ranks = [len(M.moved) for M in entries]
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


def _eigenlines(w: Matrix) -> list[tuple] | None:
    """The eigenlines of w over its field, one row each, or None if an eigenspace
    has dimension > 1."""
    spaces = [kernel_basis(w - Matrix.identity(w.field, w.nrows).scale(ev))
              for ev, _mult in eigenvalues(w)[0]]
    return None if any(len(E) > 1 for E in spaces) else [E.payload[0] for E in spaces]


def _certified_order(gens: list[Matrix], gram: Matrix, ell: int) -> int | None:
    """|G| by Dickson's theorem (see o3_recognition), or None when it does not apply."""
    if ell < 7:
        return None
    field = gens[0].field
    ident = Matrix.identity(field, 3)
    dets = [g.det() for g in gens]
    rots = [g.scale(d) for g, d in zip(gens, dets)]
    words = rots + [a @ b for a in rots for b in rots]

    def invariant(v):
        row = Matrix(field, (v,))
        return all(rank(Matrix(field, row.payload + (row @ g).payload)) == 1 for g in gens)

    lines = next(filter(None, map(_eigenlines, words)), None)
    if lines is None or any(map(invariant, lines)):
        return None
    if all(matrix_order(w, 5) for w in words):
        return None

    def spinor_square(r):
        t = r.trace() + field.one()
        if not t:                          # r is an involution: its -1 plane decides
            W = kernel_basis(r + ident)
            t = (W @ gram @ W.transpose()).det()
        return euler_criterion(t.coords()[0], ell) == 1
    # 0, 1 or more nontrivial classes in Z_2 x Z_2 generate 1, 2 or 4 of them
    classes = {(d.is_one(), spinor_square(r)) for d, r in zip(dets, rots)} - {(True, True)}
    return ell * (ell * ell - 1) // 2 * min(4, 2 ** len(classes))


def o3_recognition(gens: list[Matrix], ell: int, cap: int = CLOSURE_CAP) -> GroupReport:
    """Recognize O_3(F_ell): an invariant form plus the order 2 ell (ell^2 - 1).

    The generators g must lie over F_ell.  When they keep a nondegenerate
    symmetric form, G <= O_3(F_ell) = SO_3(F_ell) x {+-1}, and g' = det(g) g lies
    in SO_3(F_ell) = PGL_2(F_ell).  By Dickson's theorem (Huppert, Endliche
    Gruppen I, II.8.27; Serre, Invent. Math. 15, 1972, section 2) a subgroup of
    PGL_2(F_ell), ell prime, lies in a Borel subgroup or a torus normalizer,
    both of which fix a line, or is A_4, S_4 or A_5, whose elements have
    order <= 5, or contains PSL_2(F_ell) = Omega_3(F_ell).  So for ell >= 7
    two facts about the words g'_a and g'_a g'_b prove Omega_3 <= G: the
    first word whose eigenspaces over F_ell are all lines has no eigenline
    that every generator keeps (an invariant line of G is one of them), and
    some word has order > 5.  Then G is absolutely irreducible, and |G| is
    |Omega_3| = ell (ell^2 - 1) / 2 times the order of the subgroup of
    Z_2 x Z_2 = O_3 / Omega_3 that the pairs (det g, theta(g')) generate.
    The spinor norm theta(r) of r in SO_3 is the class of tr r + 1 mod
    squares (tr Ad(A) + 1 = tr(A)^2 / det(A) for A in GL_2); when tr r = -1,
    r is an involution and theta(r) is the discriminant of the form on
    ker(r + 1).

    The report comes from group_report, which takes the order from
    group_closure when the certificate does not conclude or no form is found.
    """
    if not is_prime(ell) or ell == 2:
        raise PreconditionError("ell must be an odd prime")
    if any(g.field.kind != FINITE or g.field.k != 1 or g.field.p != ell for g in gens):
        raise PreconditionError(f"o3_recognition needs generators over F_{ell}")
    if any(g.nrows != 3 for g in gens):
        raise PreconditionError("o3_recognition needs 3x3 generators")
    return group_report(gens, cap)


def group_report(gens: list[Matrix], cap: int = CLOSURE_CAP) -> GroupReport:
    """Order, absolute irreducibility, invariant form and name of <gens>.

    A 3 x 3 group over F_ell, ell odd, with an invariant form is first given
    to the Dickson certificate (see o3_recognition); otherwise, or when the
    certificate does not conclude, the order comes from group_closure, None
    past the cap, and absolute irreducibility from the commutant.  The name
    O3(F_ell) is given to such a group of order 2 ell (ell^2 - 1).
    """
    _check_cap(cap)
    if not gens:
        raise PreconditionError("group_report needs at least one generator")
    gram = invariant_symmetric_form(gens).witness
    field, ell = gens[0].field, gens[0].field.p
    o3 = (gram is not None and gens[0].nrows == 3 and field.kind == FINITE
          and field.k == 1 and ell != 2)
    order = _certified_order(gens, gram, ell) if o3 else None
    irreducible = True
    if order is None:
        order, irreducible = group_closure(gens, cap=cap), absolutely_irreducible(gens)
    recognized = f"O3(F_{ell})" if o3 and order == 2 * ell * (ell * ell - 1) else None
    return GroupReport(order=order, absolutely_irreducible=irreducible,
                       invariant_gram=gram, recognized=recognized)
