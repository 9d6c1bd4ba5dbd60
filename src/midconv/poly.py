"""Polynomials as ascending coefficient lists: c[0] + c[1] x + ... + c[-1] x^deg.

The coefficients are ints, Fractions (the two mix) or Scalars of one field;
the code reads only +, -, * and truth.  So one Horner evaluation, `horner`,
and one long division, `divide`, serve every caller: the eigenvalue search
of linalg, the l-adic lifting of `rational_roots`, the Q(zeta_n) tables of
scalars and the reduction mod l of modgroup.

`divide(num, den)` needs a monic den: each quotient term is then the
leading coefficient of the running remainder, with no division and no test
of den's leading coefficient, and a zero term costs nothing.  Over a field,
dividing by `monic(den)` gives the remainder of dividing by den.

The module imports nothing from midconv, because scalars builds its
Q(zeta_n) tables from `cyclotomic_polynomial`: poly sits below scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice

# the first 13 primes: as Miller-Rabin bases they decide primality exactly for
# n < 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2015)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _SMALL_PRIMES: exact below 3.3e24, a strong
    probable-prime test to 13 bases above."""
    if n < 2:
        return False
    for a in _SMALL_PRIMES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes in increasing order, by a sieve of Eratosthenes whose bound doubles."""
    lo, hi = 0, 1 << 10
    while True:
        sieve = bytearray([1]) * hi
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(hi - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
        yield from compress(range(lo, hi), sieve[lo:hi])
        lo, hi = hi, 2 * hi


def _least_prime_not_dividing(n: int) -> int:
    """The least prime that does not divide n != 0: one remainder of n per block of 64
    primes, by the block's product, then a remainder of that per prime of the block."""
    primes = _primes()
    while True:
        block = list(islice(primes, 64))
        r = n % math.prod(block)
        ell = next((p for p in block if r % p), 0)
        if ell:
            return ell


def horner(coeffs, x, m: int = 0):
    """The value of a nonempty polynomial at x, reduced mod m after each step unless m = 0."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
        if m:
            acc %= m
    return acc


def divide(num, den) -> tuple[list, list]:
    """(q, r) with num = q den + r and len(r) < len(den), for a monic den; r keeps
    its zero leading coefficients, and q is empty when num is shorter than den."""
    r, k = list(num), len(den) - 1
    q = r[k:]
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + k]
        if c:
            for j in range(k):
                r[i + j] = r[i + j] - c * den[j]
    return q, r[:k]


def monic(coeffs) -> list[Fraction]:
    """A rational polynomial divided by its leading coefficient."""
    return [Fraction(c) / coeffs[-1] for c in coeffs]


def primitive(coeffs) -> list[int]:
    """The primitive integer multiple c * coeffs, c > 0, of a nonzero rational polynomial."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def gcd_res(a: list, b: list) -> tuple[list, Fraction]:
    """(gcd, resultant) of two nonzero polynomials over Q, deg a >= deg b, by one
    Euclidean remainder sequence; the resultant is 0 unless the gcd is constant.

    res(a, b) = (-1)^(deg a deg b) lead(b)^(deg a - deg r) res(b, r) for r = a mod b,
    and res(a, c) = c^(deg a) for a constant c.
    """
    res = Fraction(1)
    while len(b) > 1:
        r = divide(a, monic(b))[1]
        while r and not r[-1]:
            r.pop()
        if not r:
            return b, Fraction(0)
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
        a, b = b, r
    return b, res * b[0] ** (len(a) - 1)


def rational_roots(coeffs) -> list[Fraction]:
    """The distinct rational roots of a polynomial over Q, in increasing order.

    By l-adic lifting (Loos, SIAM J. Comput. 12, 1983), without factoring:
    f is the primitive integer polynomial with x^k (the root 0) split off,
    and g = f / gcd(f, f') its squarefree part, exact over Z by Gauss's lemma.
    l is the least prime dividing neither lead(g) nor res(g, g'), the least
    prime not dividing their product, so every root of g mod l is simple,
    and each root p/q in lowest terms (p | g_0, q | lead(g)) reduces to one
    of them.  Newton's method lifts each root mod l^(2^i) past
    M > 2 |g_0 lead(g)|, and with it the inverse s of g' at the root, by
    s <- s (2 - g'(x) s), so only the first step inverts.  Rational
    reconstruction gives p/q back: the first remainder r <= |g_0| of Euclid
    on (M, lift), with its cofactor t, is r/t (von zur Gathen and Gerhard,
    Modern Computer Algebra, 5.26).  An exact check keeps the roots.  l is
    O(log |res|), so the search needs no budget.
    """
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    k = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
    roots = [Fraction(0)] if k else []
    if len(coeffs) - k < 2:
        return roots
    f = primitive(coeffs[k:])
    df = [i * c for i, c in enumerate(f)][1:]
    g = primitive(divide(f, monic(gcd_res(f, df)[0]))[0])
    dg = [i * c for i, c in enumerate(g)][1:]
    ell = _least_prime_not_dividing(g[-1] * int(gcd_res(g, dg)[1]))
    bound, g_ell = 2 * abs(g[0] * g[-1]), [c % ell for c in g]
    for x in range(ell):
        if horner(g_ell, x, ell):
            continue
        m, s = ell, pow(horner(dg, x, ell), -1, ell)
        while m <= bound:
            # s = 1/g'(x) mod the old m is enough for x mod m^2; then s lifts too
            m *= m
            x = (x - horner(g, x, m) * s) % m
            s = s * (2 - horner(dg, x, m) * s) % m
        r0, t0, r1, t1 = m, 0, x, 1
        while r1 > abs(g[0]):
            quo = r0 // r1
            r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
        if not horner(g, Fraction(r1, t1)):
            roots.append(Fraction(r1, t1))
    return sorted(roots)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial Phi_n:
    x^n - 1 divided by Phi_d for each proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = divide(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)
