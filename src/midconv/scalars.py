"""Exact arithmetic in Q, Q(zeta_n) and F_{p^k} (k = 1, 2).

Every other module is generic over a FieldDescriptor.  Elements are
immutable Scalar values in a unique canonical form, so equality and hashing
are plain coefficient-vector comparisons:

  * rational      -- a Fraction (coprime pair, positive denominator),
  * cyclotomic n  -- integer vector of length phi(n) over a common positive
                     denominator, reduced mod the n-th cyclotomic polynomial,
  * finite p,k    -- vector of k integers in [0, p).

Cyclotomic reduction tables and power tables are cached per n.  Integer
coefficients are arbitrary precision throughout.

Field descriptors are interned: the constructors return one object per field,
so a field check is an identity test (`a is b`), with `==` as the fallback
for a descriptor built some other way.  Each descriptor carries its ops table
(`FieldOps`: zero, one, nonzero, add, sub, neg, mul, addmul, inv on
payloads), chosen once from the field's kind, and cached zero() and one()
elements.  Scalar arithmetic calls the table.  A linalg.Matrix holds payloads,
not Scalars, so the loops of linalg, tuples and modgroup call the table
directly: Scalars appear only where entries enter a matrix (Matrix.from_rows)
and where they leave it (Matrix.rows, M[i, j]).  `addmul(c, a, b)` is
their multiply-accumulate c + a*b: one reduction (F_p, F_{p^2}) or one
normalization (Q, Q(zeta_n)) per term instead of one for the product and one
for the sum.

The Q ops do their own integer arithmetic on numerators and denominators
(Knuth, TAOCP 2, 4.5.1), with one gcd per op, of the result, where Henrici's
scheme takes gcds of the operands' parts first: add and sub skip the cross
products when the denominators agree, and addmul when the product's
denominator is c's.  Every result goes through `_fraction(n, d)`,
which divides by gcd(n, d) and fills the two slots of a bare Fraction, so no
op pays for Fraction's operator dispatch, its constructor's type checks or a
second gcd.  It is the only code that knows the slot layout; a test pins it.

A Scalar is built by the two slot setters, bound once at module level, so
construction is two C calls; `__setattr__` raises, so Scalars stay
immutable.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple

from .errors import DivisionByZero, FieldMismatch, ParseError

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
FINITE = "finite"


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


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial Phi_n."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _cyc_tables(n: int):
    """(phi, reduction rows for zeta^m with phi <= m <= 2*phi-2, powers zeta^e)."""
    phi_poly = cyclotomic_polynomial(n)
    phi = len(phi_poly) - 1
    # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1})
    red = [tuple(-c for c in phi_poly[:phi])]
    for _ in range(phi - 2):
        prev = red[-1]
        shifted = (0,) + prev[:-1]
        top = prev[-1]
        red.append(tuple(s + top * r for s, r in zip(shifted, red[0])))
    powers = []
    vec = [0] * phi
    vec[0] = 1
    for e in range(n):
        powers.append(tuple(vec))
        nxt = [0] + vec[:-1]
        top = vec[-1]
        if top:
            nxt = [a + top * b for a, b in zip(nxt, red[0])]
        vec = nxt[:phi]
    return phi, tuple(red), tuple(powers)


def _least_nonresidue(p: int) -> int:
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return a
    raise ValueError(f"no quadratic non-residue mod {p}")


class FieldOps(NamedTuple):
    """Arithmetic on the payloads of one field; see the module docstring."""

    zero: Any
    one: Any
    nonzero: Callable
    add: Callable
    sub: Callable
    neg: Callable
    mul: Callable
    addmul: Callable       # addmul(c, a, b) = c + a*b, normalized once
    inv: Callable          # the argument must be nonzero


_FIELDS: dict[tuple, "FieldDescriptor"] = {}


def _interned(kind: str, n: int = 0, p: int = 0, k: int = 1,
              poly: tuple[int, ...] = ()) -> "FieldDescriptor":
    key = (kind, n, p, k, poly)
    field = _FIELDS.get(key)
    if field is None:
        field = _FIELDS[key] = FieldDescriptor(*key)
    return field


@dataclass(frozen=True)
class FieldDescriptor:
    """Tag describing one of the three supported exact fields."""

    kind: str
    n: int = 0                      # cyclotomic order
    p: int = 0                      # finite characteristic
    k: int = 1                      # finite extension degree (1 or 2)
    poly: tuple[int, ...] = ()      # monic defining polynomial, ascending

    def __post_init__(self):
        if self.kind == RATIONAL:
            ops = _rational_ops()
        elif self.kind == CYCLOTOMIC:
            ops = _cyclotomic_ops(self.n)
        elif self.k == 1:
            ops = _prime_field_ops(self.p)
        else:
            ops = _quadratic_field_ops(self.p, self.poly[0], self.poly[1])
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "_zero", Scalar(self, ops.zero))
        object.__setattr__(self, "_one", Scalar(self, ops.one))

    def __reduce__(self):
        return (_interned, (self.kind, self.n, self.p, self.k, self.poly))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rational() -> "FieldDescriptor":
        return _interned(RATIONAL)

    @staticmethod
    def cyclotomic(n: int) -> "FieldDescriptor":
        if n < 1:
            raise ValueError("cyclotomic order must be >= 1")
        return _interned(CYCLOTOMIC, n=n)

    @staticmethod
    def finite(p: int, k: int = 1, poly: tuple[int, ...] | None = None) -> "FieldDescriptor":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k not in (1, 2):
            raise ValueError("only degrees 1 and 2 are supported")
        if k == 1:
            return _interned(FINITE, p=p, k=1, poly=(0, 1))
        if poly is None:   # t^2 - a for the least non-residue a; t^2 + t + 1 over F_2
            poly = (1, 1, 1) if p == 2 else (-_least_nonresidue(p) % p, 0, 1)
        poly = tuple(c % p for c in poly)
        if len(poly) != 3 or poly[2] != 1:
            raise ValueError("defining polynomial must be monic of degree 2")
        if any((a * a + poly[1] * a + poly[0]) % p == 0 for a in range(p)):
            raise ValueError("defining polynomial is reducible mod p")
        return _interned(FINITE, p=p, k=2, poly=poly)

    # -- basic structure ---------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == FINITE else 0

    @property
    def degree(self) -> int:
        """Dimension of the field over its prime field."""
        if self.kind == RATIONAL:
            return 1
        if self.kind == CYCLOTOMIC:
            return _cyc_tables(self.n)[0]
        return self.k

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def from_int(self, c: int) -> "Scalar":
        return self.from_fraction(Fraction(c))

    def from_fraction(self, fr: Fraction) -> "Scalar":
        if self.kind == RATIONAL:
            return Scalar(self, Fraction(fr))
        if self.kind == CYCLOTOMIC:
            phi = self.degree
            nums = [fr.numerator] + [0] * (phi - 1)
            return Scalar(self, _cyc_normalize(tuple(nums), fr.denominator))
        den = fr.denominator % self.p
        if den == 0:
            raise DivisionByZero("denominator vanishes mod p")
        c = fr.numerator * pow(den, -1, self.p) % self.p
        return Scalar(self, (c,) + (0,) * (self.k - 1))

    def zeta(self, e: int = 1) -> "Scalar":
        """The root of unity zeta_n^e (cyclotomic fields only)."""
        if self.kind != CYCLOTOMIC:
            raise FieldMismatch("zeta lives in cyclotomic fields")
        _, _, powers = _cyc_tables(self.n)
        return Scalar(self, (powers[e % self.n], 1))

    def gen(self) -> "Scalar":
        """The residue of t in F_{p^2} (degree-2 finite fields only)."""
        if self.kind != FINITE or self.k != 2:
            raise FieldMismatch("gen() needs a degree-2 finite field")
        return Scalar(self, (0, 1))

    def elements(self):
        """Iterate all field elements (finite fields only)."""
        if self.kind != FINITE:
            raise FieldMismatch("cannot enumerate an infinite field")
        if self.k == 1:
            for a in range(self.p):
                yield Scalar(self, (a,))
        else:
            for b in range(self.p):
                for a in range(self.p):
                    yield Scalar(self, (a, b))

    def roots_of_unity(self) -> list["Scalar"]:
        """All roots of unity the descriptor guarantees to contain.

        For F_{p^k} that is every nonzero element; for Q it is +-1; for
        Q(zeta_n) the group generated by -1 and zeta_n.
        """
        if self.kind == RATIONAL:
            return [self.one(), -self.one()]
        if self.kind == FINITE:
            return [x for x in self.elements() if x]
        out = []
        seen = set()
        for e in range(self.n):
            for sign in (1, -1):
                s = self.zeta(e) if sign == 1 else -self.zeta(e)
                if s.payload not in seen:
                    seen.add(s.payload)
                    out.append(s)
        return out

    def __str__(self) -> str:
        if self.kind == RATIONAL:
            return "Q"
        if self.kind == CYCLOTOMIC:
            return f"Q(zeta_{self.n})"
        return f"F_{self.p}" if self.k == 1 else f"F_{self.p}^{self.k}"


def _cyc_normalize(nums: tuple[int, ...], den: int):
    if den < 0:
        nums = tuple(-a for a in nums)
        den = -den
    g = den
    for a in nums:
        g = math.gcd(g, a)
        if g == 1:
            break
    if g > 1:
        nums = tuple(a // g for a in nums)
        den //= g
    return (nums, den)


def _fraction(n: int, d: int) -> Fraction:
    """n/d in lowest terms, for d > 0, past Fraction.__new__: fills the two slots of a
    bare Fraction, as CPython's own Fraction._from_coprime_ints does.  The one place
    that knows the slot layout."""
    g = math.gcd(n, d)
    x = object.__new__(Fraction)
    x._numerator = n // g
    x._denominator = d // g
    return x


def _rational_ops() -> FieldOps:
    """Q: payloads are Fractions in lowest terms; see the module docstring."""
    def add(a, b):
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        if da == db:
            return _fraction(na + nb, da)
        return _fraction(na * db + nb * da, da * db)

    def sub(a, b):
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        if da == db:
            return _fraction(na - nb, da)
        return _fraction(na * db - nb * da, da * db)

    def mul(a, b):
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        return _fraction(na * nb, da * db)

    def addmul(c, a, b):
        (nc, dc), (na, da), (nb, db) = (c.as_integer_ratio(), a.as_integer_ratio(),
                                        b.as_integer_ratio())
        d = da * db
        if d == dc:
            return _fraction(nc + na * nb, dc)
        # c + a*b = (nc d + na nb dc) / (dc d)
        return _fraction(nc * d + na * nb * dc, dc * d)

    def inv(a):
        n, d = a.as_integer_ratio()
        return Fraction(d, n)           # the constructor moves n's sign to the numerator

    return FieldOps(Fraction(0), Fraction(1), bool, add, sub, operator.neg, mul, addmul, inv)


def _prime_field_ops(p: int) -> FieldOps:
    """F_p: payloads (c,) with 0 <= c < p."""
    def add(a, b):
        return ((a[0] + b[0]) % p,)

    def sub(a, b):
        return ((a[0] - b[0]) % p,)

    def neg(a):
        return (-a[0] % p,)

    def mul(a, b):
        return (a[0] * b[0] % p,)

    def addmul(c, a, b):
        return ((c[0] + a[0] * b[0]) % p,)

    def inv(a):
        return (pow(a[0], -1, p),)

    return FieldOps((0,), (1,), any, add, sub, neg, mul, addmul, inv)


def _quadratic_field_ops(p: int, c0: int, c1: int) -> FieldOps:
    """F_p[t] / (t^2 + c1 t + c0): payloads (a0, a1) for a0 + a1 t."""
    def add(a, b):
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(a, b):
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(a):
        return (-a[0] % p, -a[1] % p)

    def mul(a, b):
        a0, a1 = a
        b0, b1 = b
        hi = a1 * b1
        # t^2 = -c1*t - c0
        return ((a0 * b0 - hi * c0) % p, (a0 * b1 + a1 * b0 - hi * c1) % p)

    def addmul(c, a, b):
        a0, a1 = a
        b0, b1 = b
        hi = a1 * b1
        return ((c[0] + a0 * b0 - hi * c0) % p, (c[1] + a0 * b1 + a1 * b0 - hi * c1) % p)

    def inv(a):
        a0, a1 = a
        # conjugate of a0 + a1 t is (a0 - a1 c1) - a1 t; norm is their product
        ninv = pow((a0 * a0 - a0 * a1 * c1 + a1 * a1 * c0) % p, -1, p)
        return ((a0 - a1 * c1) * ninv % p, (-a1) * ninv % p)

    return FieldOps((0, 0), (1, 0), any, add, sub, neg, mul, addmul, inv)


def _cyclotomic_ops(n: int) -> FieldOps:
    """Q(zeta_n): payloads (nums, den), see _cyc_normalize."""
    phi, red, powers = _cyc_tables(n)
    zero = ((0,) * phi, 1)
    one = ((1,) + (0,) * (phi - 1), 1)

    def nonzero(a):
        return any(a[0])

    def add(a, b):
        (x, dx), (y, dy) = a, b
        return _cyc_normalize(tuple(s * dy + t * dx for s, t in zip(x, y)), dx * dy)

    def sub(a, b):
        (x, dx), (y, dy) = a, b
        return _cyc_normalize(tuple(s * dy - t * dx for s, t in zip(x, y)), dx * dy)

    def neg(a):
        nums, den = a
        return (tuple(-c for c in nums), den)

    # the nonzero (j, c) of each reduction row: zeta^(phi+m) = sum_j c zeta^j, m < phi-1
    sparse_red = [[(j, c) for j, c in enumerate(row) if c] for row in red[:phi - 1]]
    tail = [0] * (phi - 1)

    def addmul(c, a, b):
        (z, dz), (x, dx), (y, dy) = c, a, b
        d = dx * dy
        if d == dz:
            conv = [*z, *tail]
        else:                           # c + a*b = (z d + x y dz) / (dz d)
            conv = [s * d for s in z] + tail
            if dz != 1:
                x = [s * dz for s in x]
            d *= dz
        for i, s in enumerate(x):
            if s:
                for k, t in enumerate(y, i):
                    if t:
                        conv[k] += s * t
        for m, row in enumerate(sparse_red, phi):
            if conv[m]:
                for j, r in row:
                    conv[j] += conv[m] * r
        return _cyc_normalize(tuple(conv[:phi]), d)

    def mul(a, b):
        if not any(a[0]) or not any(b[0]):
            return zero
        return addmul(zero, a, b)

    def inv(a):
        """a^-1 = prod_{k != 1} sigma_k(a) / N(a), sigma_k: zeta -> zeta^k, k prime to n."""
        nums, den = a
        conj = one
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                vec = [0] * phi
                for j, c in enumerate(nums):
                    if c:
                        for i, e in enumerate(powers[j * k % n]):
                            vec[i] += c * e
                conj = mul(conj, _cyc_normalize(tuple(vec), den))
        (norm, *_), norm_den = mul(a, conj)     # N(a) is rational
        c_nums, c_den = conj
        return _cyc_normalize(tuple(x * norm_den for x in c_nums), c_den * norm)

    return FieldOps(zero, one, nonzero, add, sub, neg, mul, addmul, inv)


class Scalar:
    """Immutable element of a FieldDescriptor in canonical form."""

    __slots__ = ("field", "payload")

    def __init__(self, field: FieldDescriptor, payload):
        _set_field(self, field)
        _set_payload(self, payload)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return self.field.ops.nonzero(self.payload)

    def is_one(self) -> bool:
        return self == self.field.one()

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.field.ops.add(self.payload, other.payload))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.ops.neg(self.payload))

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.field.ops.sub(self.payload, other.payload))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.field.ops.mul(self.payload, other.payload))

    def inverse(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inverse of zero")
        return Scalar(self.field, self.field.ops.inv(self.payload))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "Scalar":
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scalar)
                and (self.field is other.field or self.field == other.field)
                and self.payload == other.payload)

    def __hash__(self):
        return hash((self.field, self.payload))

    def sort_key(self):
        """Deterministic total order inside one field (for canonical output)."""
        k = self.field.kind
        if k == RATIONAL:
            return (self.payload,)
        if k == CYCLOTOMIC:
            nums, den = self.payload
            return tuple(Fraction(a, den) for a in nums)
        return self.payload

    # -- conversions ---------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.field}, {format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


# the slot setters, bound once: Scalar.__setattr__ raises, and these bypass it
_set_field, _set_payload = Scalar.field.__set__, Scalar.payload.__set__


def coerce(s: Scalar, target: FieldDescriptor) -> Scalar:
    """Explicit embedding Q -> Q(zeta_n) or Q(zeta_m) -> Q(zeta_n), m | n."""
    if s.field == target:
        return s
    if target.kind == CYCLOTOMIC and s.field.kind == RATIONAL:
        return target.from_fraction(s.payload)
    if (target.kind == CYCLOTOMIC and s.field.kind == CYCLOTOMIC
            and target.n % s.field.n == 0):
        step = target.n // s.field.n
        nums, den = s.payload
        out = target.zero()
        for j, a in enumerate(nums):
            if a:
                out = out + target.from_fraction(Fraction(a, den)) * target.zeta(step * j)
        return out
    raise FieldMismatch(f"no embedding {s.field} -> {target}")


# -- text grammar -------------------------------------------------------------

_TERM_RE = re.compile(r"""
    (?P<coef>[+-]?\d+(?:/\d+)?|[+-])? (?:(?<=\d)\*)?
    (?P<sym>[zt])? (?:\^(?P<exp>\d+))?
    """, re.VERBOSE)


def parse_terms(text: str):
    """Yield the terms of a sum in the scalar grammar, whitespace ignored.

    Each term is (position, coefficient Fraction, symbol or None, exponent):
    "3/2*z^2-t+1" gives (0, 3/2, 'z', 2), (7, -1, 't', 1), (9, 1, None, 0).
    A term starts at each sign.  Raises ParseError for an empty text, a
    dangling sign or a malformed term, when the iteration reaches it.
    """
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty scalar", 0)
    for piece in re.finditer(r"[+-]?[^+-]+|[+-]", compact):
        pos, term = piece.start(), piece.group()
        if term in "+-":
            raise ParseError("dangling sign", pos)
        m = _TERM_RE.fullmatch(term.lstrip("+"))
        coef, sym, exp = m.group("coef", "sym", "exp") if m else (None, None, None)
        if coef is None and sym is None:
            raise ParseError(f"malformed term {term!r}", pos)
        if exp is not None and sym is None:
            raise ParseError(f"exponent without symbol in {term!r}", pos)
        try:
            c = Fraction({None: 1, "+": 1, "-": -1}.get(coef, coef))
            e = int(exp) if exp is not None else int(sym is not None)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {term!r}", pos) from None
        except ValueError:              # more digits than int() converts
            raise ParseError("too many digits in a number", pos) from None
        yield pos, c, sym, e


def parse_scalar(text: str, field: FieldDescriptor) -> Scalar:
    """Parse the bit-exact scalar grammar; inverse of format_scalar."""
    out = field.zero()
    for pos, coef, sym, exp in parse_terms(text):
        if sym == "z":
            if field.kind != CYCLOTOMIC:
                raise FieldMismatch(f"symbol 'z' not available in {field}")
            out = out + field.from_fraction(coef) * field.zeta(exp)
        elif sym == "t":
            if field.kind != FINITE or field.k < 2:
                raise FieldMismatch(f"symbol 't' not available in {field}")
            if coef.denominator != 1:
                raise ParseError(f"non-integer coefficient {coef} in finite field", pos)
            out = out + field.from_fraction(coef) * field.gen() ** exp
        else:
            if field.kind == FINITE and coef.denominator != 1:
                raise ParseError(f"non-integer coefficient {coef} in finite field", pos)
            out = out + field.from_fraction(coef)
    return out


def format_poly(coeffs, sym: str, den: int = 1) -> str:
    """Canonical text of sum_e (coeffs[e] / den) sym^e; inverse of parse_terms.

    Descending powers, '-' bound to its term, "0" for the zero polynomial.
    """
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        if coeffs[e]:
            c = Fraction(coeffs[e], den)
            body = str(abs(c)) if e == 0 else sym if e == 1 else f"{sym}^{e}"
            if e and abs(c) != 1:
                body = f"{abs(c)}*{body}"
            parts.append("-" + body if c < 0 else "+" + body if parts else body)
    return "".join(parts) or "0"


def format_scalar(s: Scalar) -> str:
    """Canonical text form (descending powers, '-' bound to its term)."""
    k = s.field.kind
    if k == RATIONAL:
        return str(s.payload)
    if k == CYCLOTOMIC:
        nums, den = s.payload
        return format_poly(nums, "z", den)
    return format_poly(s.payload, "t")
