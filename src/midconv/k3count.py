"""Point counting on the K3 fibre, Frobenius traces and eigenvalues.

The affine model is w^2 = f(x, y) with f = (x^2-1)((y-x)^2-1)(y-z), by
default at the fibre z = 1, counted over F_q for q = p or p^2 via the
quadratic character: N(q) = q^2 + sum chi(f).  Both fields come from
FieldDescriptor.finite and its payload ops table; chi is read off the set
of squares.  chi(f) factors as g(x) g(y - x) chi(y - z) with
g(s) = chi(s^2 - 1), so the sum is chi(t - z) against G = g * g, the
self-convolution of g over the additive group of F_q, and G comes from
one exact square of a big integer that packs the table g + 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, SmallPrime, VerificationFailed
from .linalg import Matrix
from .poly import euler_criterion, is_prime
from .scalars import FieldDescriptor

# the largest q that count_affine accepts; its cost grows about as q, and
# q = 10,993 takes about 30 ms, q = 103^2 about 45 ms, on a 2-vCPU host
# under CPython 3.11
MAX_Q = 11_000

# count_affine packs its table into little-endian slots of _SLOT_BYTES bytes;
# the square's coefficients are below 4q, so the slots hold 4 MAX_Q
_SLOT_BYTES = ((4 * MAX_Q).bit_length() + 7) // 8


def legendre(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion; extended to q = p^2 by squaring."""
    if p != 2 and is_prime(p):
        return euler_criterion(a, p)
    root = _prime_square_root(p)
    if root not in (None, 2):
        return legendre(a, root) ** 2
    raise PreconditionError(f"{p} is neither an odd prime nor its square")


def _prime_square_root(q: int) -> int | None:
    """The prime p with p^2 = q, or None (also for q < 2)."""
    if q < 2:
        return None
    r = math.isqrt(q)
    return r if r * r == q and is_prime(r) else None


def _split_q(q: int) -> tuple[int, int]:
    """(p, exponent) for q = p or p^2, requiring p > 3."""
    if is_prime(q):
        p, e = q, 1
    else:
        p = _prime_square_root(q)
        if p is None:
            raise PreconditionError(f"q (of {len(str(abs(q)))} digits) must be p or p^2")
        e = 2
    if p <= 3:
        raise SmallPrime(f"the trace formula needs p > 3, got p = {p}")
    return p, e


def count_affine(q: int, z: Fraction = Fraction(1)) -> int:
    """N(q) = #{(w,x,y) : w^2 = (x^2-1)((y-x)^2-1)(y-z)} over F_q, q = p or p^2 <= MAX_Q.

    With g(s) = chi(s^2 - 1) and s = y - x, N(q) - q^2 is the sum over x and
    s of g(x) g(s) chi(x + s - z), that is the sum over t of chi(t - z) G(t)
    for G = g * g, the self-convolution of g over the additive group of F_q.
    Elements u + v p are indexed in FieldDescriptor.elements() order, and
    addition acts on u mod p and v mod q/p separately.

    G comes from one exact square of a big integer (Kronecker substitution).
    g + 1, with entries 0, 1, 2, is packed with element u + v p at slot
    u + (2p - 1) v, each slot _SLOT_BYTES little-endian bytes wide.  Rows of
    2p - 1 slots hold the acyclic sums in u, and no coefficient of the
    square reaches 4q, so none spills into the next slot.  Folded mod p in u
    and mod q/p in v, the coefficients give the self-convolution of g + 1,
    G'(t) = G(t) + 2 sum(g) + q; the constant drops out because chi sums to
    0 over F_q.  So N(q) - q^2 is one dot product, byte plane by byte
    plane, of the square's slots with chi(t - z) at their folded indices t.
    """
    p, e = _split_q(q)
    if q > MAX_Q:
        raise PreconditionError(f"q (of {len(str(q))} digits) is above the limit MAX_Q = {MAX_Q}")
    if z.denominator % p == 0:
        raise PreconditionError(f"fibre z = {z} is not p-integral")
    field = FieldDescriptor.finite(p, e)
    ops = field.ops
    elems = [x.payload for x in field.elements()]
    index = {x: i for i, x in enumerate(elems)}
    chi = [-1] * q
    for x in elems:
        chi[index[ops.mul(x, x)]] = 1
    chi[index[ops.zero]] = 0
    h = [chi[index[ops.sub(ops.mul(s, s), ops.one)]] + 1 for s in elems]
    rows, width = q // p, 2 * p - 1     # rows of p entries, one per v; slots per row
    packed = bytearray(_SLOT_BYTES * width * rows)
    for v in range(rows):
        start = _SLOT_BYTES * width * v
        packed[start:start + _SLOT_BYTES * p:_SLOT_BYTES] = bytes(h[v * p:(v + 1) * p])
    n = int.from_bytes(packed, "little")
    square = (n * n).to_bytes(_SLOT_BYTES * width * (2 * rows - 1), "little")
    uz = field.from_fraction(z).coords()[0]    # z lies in F_p, so it shifts u alone
    folded_chi = []                     # chi(t - z) at every slot of the square
    for v in range(rows):
        row = chi[v * p:(v + 1) * p]
        row = row[p - uz:] + row[:p - uz]
        folded_chi += row + row[:p - 1]
    folded_chi += folded_chi[:width * (rows - 1)]
    return q * q + sum(256 ** j * sum(map(operator.mul, square[j::_SLOT_BYTES], folded_chi))
                       for j in range(_SLOT_BYTES))


@dataclass(frozen=True)
class CountRecord:
    q: int
    N: int
    trace: Fraction


def trace_frobenius(q: int) -> Fraction:
    """t_q = N(q) + q - q^2 - (1 + (-1/q)) q."""
    return count_record(q).trace


def count_record(q: int, z: Fraction = Fraction(1)) -> CountRecord:
    n = count_affine(q, z)
    t = Fraction(n + q - q * q - (1 + legendre(-1, q)) * q)
    return CountRecord(q=q, N=n, trace=t)


@dataclass(frozen=True)
class FrobeniusData:
    p: int
    s3: int
    s_minus1: int
    u: Fraction
    d: Fraction
    verified: bool

    @property
    def eigenvalue_text(self) -> str:
        if self.d == 0:
            return str(Fraction(self.u, self.p))
        return f"({self.u}+sqrt({self.d}))/{self.p}"


def frobenius_eigenvalues(p: int) -> FrobeniusData:
    """Solve alpha + alpha^-1 + (3/p) = t_p/p and verify against t_{p^2}.

    alpha_p = (u + sqrt(d))/p with u = (t_p - (3/p) p)/2 and d = u^2 - p^2,
    so alpha_p has unit norm; the choice of the sign (3/p) is confirmed by
    alpha^2 + alpha^-2 + 1 = t_{p^2}/p^2, which reduces to 4u^2 - p^2 = t_{p^2}.
    """
    if not is_prime(p) or p <= 3:
        raise SmallPrime("need a prime p > 3")
    t_p2 = trace_frobenius(p * p)       # first: above MAX_Q it fails before any count
    t_p = trace_frobenius(p)
    s3 = legendre(3, p)

    def u_for(sign):
        return Fraction(t_p - sign * p, 2)

    chosen = u_for(s3)
    ok = 4 * chosen * chosen - p * p == t_p2
    other_ok = 4 * u_for(-s3) ** 2 - p * p == t_p2
    if not ok and not other_ok:
        raise VerificationFailed(f"t_(p^2) check fails for both signs at p={p}")
    if not ok:
        raise VerificationFailed(
            f"t_(p^2) check contradicts the Legendre sign (3/{p})={s3}")
    return FrobeniusData(p=p, s3=s3, s_minus1=legendre(-1, p),
                         u=chosen, d=chosen * chosen - p * p, verified=ok)


# -- the Neron-Severi intersection determinant -----------------------------------

def intersection_matrix(x) -> list[list]:
    """The 19x19 intersection matrix of the resolution divisors; x is the
    intersection number of the two components over the line y = 0."""
    M = [[0] * 19 for _ in range(19)]
    for i in range(19):
        M[i][i] = -2
    for i in range(3):                 # the three double-point curves met by both
        M[i][17] = M[17][i] = 1
        M[i][18] = M[18][i] = 1
    for j in (10, 11, 12):             # first triple point: hub 10 meets 11,12,13
        M[9][j] = M[j][9] = 1
    for j in (14, 15, 16):             # second triple point: hub 14 meets 15,16,17
        M[13][j] = M[j][13] = 1
    M[17][18] = M[18][17] = x
    return M


def intersection_matrix_det() -> tuple[int, int, int]:
    """det of the intersection matrix as a polynomial (c0, c1, c2) in x.

    x enters the matrix in exactly two entries, so the determinant is a
    quadratic; three integer evaluations determine it exactly.
    """
    Q = FieldDescriptor.rational()
    d0, d1, dm1 = (int(Matrix.from_rows(Q, intersection_matrix(x)).det().coords()[0])
                   for x in (0, 1, -1))
    c0 = d0
    c2, rem = divmod(d1 + dm1 - 2 * d0, 2)
    if rem:
        raise VerificationFailed("the intersection determinant is not a quadratic "
                                 "in x with integer coefficients")
    c1 = d1 - d0 - c2
    return (c0, c1, c2)
