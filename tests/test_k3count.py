import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import SEED

from midconv.errors import PreconditionError, SmallPrime, VerificationFailed
from midconv.fixtures import ALPHA_TABLE, N_TABLE, T2_TABLE, T_TABLE
from midconv.k3count import (MAX_Q, _SLOT_BYTES, _prime_square_root, count_affine,
                             count_record, frobenius_eigenvalues, intersection_matrix,
                             intersection_matrix_det, legendre, trace_frobenius)
from midconv.scalars import FieldDescriptor


def test_legendre_examples():
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1
    assert legendre(3, 11) == 1
    assert legendre(55, 11) == 0


def test_legendre_on_prime_squares():
    assert legendre(-1, 25) == 1
    assert legendre(5, 25) == 0
    assert legendre(3, 49) == 1


@pytest.mark.parametrize("a", [0, 1, 3])
@pytest.mark.parametrize("q", [2, 4])
def test_legendre_refuses_two_and_four(a, q):
    # (p - 1) // 2 = 0 at p = 2, so Euler's criterion would give pow(a, 0, 2) = 1 = p - 1
    with pytest.raises(PreconditionError, match=f"^{q} is neither an odd prime"):
        legendre(a, q)


def test_legendre_multiplicative(rng):
    p = 23
    for _ in range(30):
        a, b = rng.randint(1, 100), rng.randint(1, 100)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def _naive_count(q):
    """Triple-loop oracle over F_p (p prime only)."""
    n = 0
    for w in range(q):
        for x in range(q):
            for y in range(q):
                lhs = w * w % q
                rhs = (x * x - 1) * ((y - x) ** 2 - 1) % q * (y - 1) % q
                if lhs == rhs:
                    n += 1
    return n


@pytest.mark.parametrize("q", [5, 7])
def test_count_matches_naive_oracle(q):
    assert count_affine(q) == _naive_count(q)


def _scalar_count(p, e, z):
    """#{(w, x, y) : w^2 = (x^2-1)((y-x)^2-1)(y-z)} by Scalar arithmetic over F_{p^e}."""
    field = FieldDescriptor.finite(p, e)
    elems = list(field.elements())
    square_roots = Counter(w * w for w in elems)      # a -> #{w : w^2 = a}
    one, zz = field.one(), field.from_fraction(z)
    return sum(square_roots[(x * x - one) * ((y - x) * (y - x) - one) * (y - zz)]
               for x in elems for y in elems)


@pytest.mark.parametrize("z", [Fraction(1), Fraction(3), Fraction(-2, 3)])
@pytest.mark.parametrize("p, e", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)])
def test_count_matches_scalar_oracle(p, e, z):
    assert count_affine(p ** e, z) == _scalar_count(p, e, z)


def _correlation_count(p, e, z):
    """N(p^e) by the row correlation: for each x, sum_s g(s) chi(x - z + s), one row of
    g against one shifted row of chi per v, read from chi rows doubled to length 2p."""
    q = p ** e
    field = FieldDescriptor.finite(p, e)
    ops = field.ops
    elems = [x.payload for x in field.elements()]
    index = {x: i for i, x in enumerate(elems)}
    chi = [-1] * q
    for x in elems:
        chi[index[ops.mul(x, x)]] = 1
    chi[index[ops.zero]] = 0
    g = [chi[index[ops.sub(ops.mul(s, s), ops.one)]] for s in elems]
    rows = q // p
    g_rows = [g[v * p:(v + 1) * p] for v in range(rows)]
    chi_rows = [2 * chi[v * p:(v + 1) * p] for v in range(rows)]
    zel = field.from_fraction(z).payload
    total = 0
    for x, gx in zip(elems, g):
        if gx:
            vt, ut = divmod(index[ops.sub(x, zel)], p)
            total += gx * sum(
                sum(map(operator.mul, g_rows[v], chi_rows[(vt + v) % rows][ut:ut + p]))
                for v in range(rows))
    return q * q + total


def _seeded_fibres(p):
    """z = 1, z = -1 and four seeded z with denominators prime to p.

    z = -1 has u index p - 1, the largest rotation of the chi rows.  A rational z
    has v index 0; for e = 2 the v wrap comes from folding the square's upper rows.
    """
    rng = random.Random(SEED + p)
    zs = [Fraction(1), Fraction(-1)]
    while len(zs) < 6:
        den = rng.randint(1, 3 * p)
        if den % p:
            zs.append(Fraction(rng.randint(-5 * p, 5 * p), den))
    return zs


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_count_matches_correlation_oracle(p, e):
    for z in _seeded_fibres(p):
        assert count_affine(p ** e, z) == _correlation_count(p, e, z), z


@pytest.mark.parametrize("q, z", [(5, Fraction(1, 5)), (25, Fraction(2, 5)),
                                  (7, Fraction(3, 14))])
def test_count_rejects_fibre_not_p_integral(q, z):
    with pytest.raises(PreconditionError):
        count_affine(q, z)


def test_count_affine_packs_two_byte_slots():
    # the slots hold the square's coefficients, which stay below 4 MAX_Q
    assert _SLOT_BYTES == 2 and 4 * MAX_Q < 1 << 8 * _SLOT_BYTES


def test_count_table():
    for q, n in N_TABLE.items():
        assert count_affine(q) == n


def test_trace_table_primes():
    for p, t in T_TABLE.items():
        assert trace_frobenius(p) == t


@pytest.mark.parametrize("p", [5, 7, 11])
def test_trace_table_prime_squares_small(p):
    assert trace_frobenius(p * p) == T2_TABLE[p]


def test_count_rejects_small_primes():
    with pytest.raises(SmallPrime):
        count_affine(3)
    with pytest.raises(SmallPrime):
        count_affine(9)


def test_character_sum_decomposition():
    # N(q) = q^2 + sum chi(f), with the sum taken independently here
    for q in (5, 7, 11):
        total = 0
        for x in range(q):
            for y in range(q):
                f = (x * x - 1) * ((y - x) ** 2 - 1) * (y - 1) % q
                total += legendre(f, q)
        n = count_affine(q)
        assert n == q * q + total
        assert n % 2 == (q * q + total) % 2


def test_frobenius_eigenvalues_table():
    for p, (u, d) in ALPHA_TABLE.items():
        data = frobenius_eigenvalues(p)
        assert data.u == u and data.d == d
        assert data.verified
        assert data.s3 == legendre(3, p)
        assert data.u ** 2 - data.d == p * p


# (u, d) with alpha_p = (u + sqrt(d))/p beyond ALPHA_TABLE
_PINNED_ALPHA = {31: (29, -120), 37: (-19, -1008), 41: (25, -1056),
                 43: (41, -168), 47: (17, -1920), 53: (17, -2520),
                 59: (-55, -456), 101: (97, -792), 103: (5, -10584)}


# p = 59, 101 and 103 reach the largest q: 103^2 = 10,609 is the largest prime square
# under MAX_Q, where the packed square's coefficients come closest to their slot width
@pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                               59, 101, 103])
def test_frobenius_laws(p):
    data = frobenius_eigenvalues(p)
    assert data.verified
    assert data.s3 == legendre(3, p)
    assert data.u ** 2 - data.d == p * p
    if p in _PINNED_ALPHA:
        assert (data.u, data.d) == _PINNED_ALPHA[p]


def test_frobenius_sign_candidates_are_exclusive():
    # the rejected sign must fail the t_{p^2} identity for every table prime
    for p in ALPHA_TABLE:
        t_p = trace_frobenius(p)
        t_p2 = trace_frobenius(p * p)
        s3 = legendre(3, p)
        wrong_u = Fraction(t_p + s3 * p, 2)
        assert 4 * wrong_u ** 2 - p * p != t_p2


def test_prime_square_root_of_a_large_prime_square():
    # an 80-bit prime: the float square root of p^2 misses p by more than 1
    p = 151563013271669255324009
    assert _prime_square_root(p * p) == p
    assert _prime_square_root(p * p + 1) is None and _prime_square_root(p * (p + 2)) is None
    assert _prime_square_root(49) == 7 and _prime_square_root(36) is None


def test_nonsquare_q_rejected():
    with pytest.raises(Exception):
        count_affine(15)


def test_intersection_matrix_shape():
    M = intersection_matrix(7)
    assert len(M) == 19 and all(len(r) == 19 for r in M)
    assert all(M[i][j] == M[j][i] for i in range(19) for j in range(19))
    assert M[17][18] == 7
    assert all(M[i][i] == -2 for i in range(19))


def test_intersection_determinant():
    c0, c1, c2 = intersection_matrix_det()
    assert (c0, c1, c2) == (16384, 24576, 8192)
    assert c0 == 16384                       # value at x = 0
    assert c0 - c1 + c2 == 0                 # x = -1 is the degenerate value


def test_an_odd_second_difference_of_the_determinant_raises(monkeypatch):
    # a 1x1 "matrix" whose determinant x (x + 1) / 2 reads 0, 1, 0 at x = 0, 1, -1:
    # no quadratic with integer coefficients, which must raise under python -O too
    from midconv import k3count
    monkeypatch.setattr(k3count, "intersection_matrix", lambda x: [[x * (x + 1) // 2]])
    with pytest.raises(VerificationFailed, match="not a quadratic"):
        intersection_matrix_det()
