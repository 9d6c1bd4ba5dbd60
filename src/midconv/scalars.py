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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, FieldMismatch, ParseError

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
FINITE = "finite"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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


@dataclass(frozen=True)
class FieldDescriptor:
    """Tag describing one of the three supported exact fields."""

    kind: str
    n: int = 0                      # cyclotomic order
    p: int = 0                      # finite characteristic
    k: int = 1                      # finite extension degree (1 or 2)
    poly: tuple[int, ...] = ()      # monic defining polynomial, ascending

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rational() -> "FieldDescriptor":
        return FieldDescriptor(RATIONAL)

    @staticmethod
    def cyclotomic(n: int) -> "FieldDescriptor":
        if n < 1:
            raise ValueError("cyclotomic order must be >= 1")
        return FieldDescriptor(CYCLOTOMIC, n=n)

    @staticmethod
    def finite(p: int, k: int = 1, poly: tuple[int, ...] | None = None) -> "FieldDescriptor":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k not in (1, 2):
            raise ValueError("only degrees 1 and 2 are supported")
        if k == 1:
            return FieldDescriptor(FINITE, p=p, k=1, poly=(0, 1))
        if poly is None:
            poly = (-_least_nonresidue(p) % p, 0, 1)
        poly = tuple(c % p for c in poly)
        if len(poly) != 3 or poly[2] != 1:
            raise ValueError("defining polynomial must be monic of degree 2")
        if any((a * a + poly[1] * a + poly[0]) % p == 0 for a in range(p)):
            raise ValueError("defining polynomial is reducible mod p")
        return FieldDescriptor(FINITE, p=p, k=2, poly=poly)

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
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, c: int) -> "Scalar":
        return self.from_fraction(Fraction(c))

    def from_fraction(self, fr: Fraction) -> "Scalar":
        if self.kind == RATIONAL:
            return Scalar(self, fr)
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


class Scalar:
    """Immutable element of a FieldDescriptor in canonical form."""

    __slots__ = ("field", "payload")

    def __init__(self, field: FieldDescriptor, payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        k = self.field.kind
        if k == RATIONAL:
            return self.payload != 0
        if k == CYCLOTOMIC:
            return any(self.payload[0])
        return any(self.payload)

    def is_one(self) -> bool:
        return self == self.field.one()

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        k = self.field.kind
        if k == RATIONAL:
            return Scalar(self.field, self.payload + other.payload)
        if k == CYCLOTOMIC:
            (a, da), (b, db) = self.payload, other.payload
            nums = tuple(x * db + y * da for x, y in zip(a, b))
            return Scalar(self.field, _cyc_normalize(nums, da * db))
        p = self.field.p
        return Scalar(self.field, tuple((x + y) % p for x, y in zip(self.payload, other.payload)))

    def __neg__(self) -> "Scalar":
        k = self.field.kind
        if k == RATIONAL:
            return Scalar(self.field, -self.payload)
        if k == CYCLOTOMIC:
            nums, den = self.payload
            return Scalar(self.field, (tuple(-a for a in nums), den))
        p = self.field.p
        return Scalar(self.field, tuple((-x) % p for x in self.payload))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        k = self.field.kind
        if k == RATIONAL:
            return Scalar(self.field, self.payload * other.payload)
        if k == CYCLOTOMIC:
            (a, da), (b, db) = self.payload, other.payload
            if not any(a) or not any(b):
                return self.field.zero()
            phi, red, _ = _cyc_tables(self.field.n)
            conv = [0] * (2 * phi - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            conv[i + j] += x * y
            nums = conv[:phi]
            for m in range(phi, 2 * phi - 1):
                c = conv[m]
                if c:
                    row = red[m - phi]
                    for j in range(phi):
                        if row[j]:
                            nums[j] += c * row[j]
            return Scalar(self.field, _cyc_normalize(tuple(nums), da * db))
        p = self.field.p
        if self.field.k == 1:
            return Scalar(self.field, ((self.payload[0] * other.payload[0]) % p,))
        a0, a1 = self.payload
        b0, b1 = other.payload
        c0, c1 = self.field.poly[0], self.field.poly[1]
        hi = a1 * b1
        # t^2 = -c1*t - c0
        return Scalar(self.field, ((a0 * b0 - hi * c0) % p,
                                   (a0 * b1 + a1 * b0 - hi * c1) % p))

    def inverse(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inverse of zero")
        k = self.field.kind
        if k == RATIONAL:
            return Scalar(self.field, 1 / self.payload)
        if k == CYCLOTOMIC:
            return _cyc_inverse(self)
        p = self.field.p
        if self.field.k == 1:
            return Scalar(self.field, (pow(self.payload[0], -1, p),))
        a0, a1 = self.payload
        c0, c1 = self.field.poly[0], self.field.poly[1]
        # conjugate of a0 + a1 t is (a0 - a1 c1) - a1 t; norm is their product
        n = (a0 * a0 - a0 * a1 * c1 + a1 * a1 * c0) % p
        ninv = pow(n, -1, p)
        return Scalar(self.field, ((a0 - a1 * c1) * ninv % p, (-a1) * ninv % p))

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
        return (isinstance(other, Scalar) and self.field == other.field
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

    def as_fraction(self) -> Fraction:
        """The rational value, if the element lies in the prime field Q."""
        k = self.field.kind
        if k == RATIONAL:
            return self.payload
        if k == CYCLOTOMIC:
            nums, den = self.payload
            if any(nums[1:]):
                raise ValueError("element is not rational")
            return Fraction(nums[0], den)
        raise ValueError("finite-field element has no rational value")

    def __repr__(self):
        return f"Scalar({self.field}, {format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


def _cyc_inverse(s: Scalar) -> Scalar:
    """s^-1 = prod_{k != 1} sigma_k(s) / N(s), sigma_k: zeta -> zeta^k, k prime to n."""
    field = s.field
    n = field.n
    phi, _, powers = _cyc_tables(n)
    nums, den = s.payload
    conj = field.one()
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            vec = [0] * phi
            for j, a in enumerate(nums):
                if a:
                    for i, c in enumerate(powers[j * k % n]):
                        vec[i] += a * c
            conj = conj * Scalar(field, _cyc_normalize(tuple(vec), den))
    (norm, *_), norm_den = (s * conj).payload     # N(s) is rational
    c_nums, c_den = conj.payload
    return Scalar(field, _cyc_normalize(tuple(x * norm_den for x in c_nums), c_den * norm))


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


def field_ops(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Named field operation, per the module contract."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if not b:
            raise DivisionByZero("division by zero")
        return a / b
    raise ValueError(f"unknown op {op!r}")


# -- text grammar -------------------------------------------------------------

_TERM_RE = re.compile(r"""
    (?P<coef>[+-]?\d+(?:/\d+)?|[+-])? (?:(?<=\d)\*)?
    (?P<sym>[zt])? (?:\^(?P<exp>\d+))?
    """, re.VERBOSE)


def _split_terms(text: str):
    """Split a whitespace-free sum into (position, signed term) pieces."""
    terms = []
    i = 0
    start = 0
    while i < len(text):
        c = text[i]
        if c in "+-" and i > start:
            terms.append((start, text[start:i]))
            start = i
        i += 1
    terms.append((start, text[start:]))
    return terms


def _parse_term(term: str, pos: int):
    """Return (coefficient Fraction, symbol or None, exponent int)."""
    m = _TERM_RE.fullmatch(term.lstrip("+"))
    if not m or (m.group("coef") is None and m.group("sym") is None):
        raise ParseError(f"malformed term {term!r}", pos)
    if m.group("exp") is not None and m.group("sym") is None:
        raise ParseError(f"exponent without symbol in {term!r}", pos)
    try:
        coef = Fraction(m.group("coef")) if m.group("coef") not in (None, "-", "+") \
            else Fraction(-1 if m.group("coef") == "-" else 1)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {term!r}", pos) from None
    exp = int(m.group("exp")) if m.group("exp") is not None else (1 if m.group("sym") else 0)
    return coef, m.group("sym"), exp


def parse_scalar(text: str, field: FieldDescriptor) -> Scalar:
    """Parse the bit-exact scalar grammar; inverse of format_scalar."""
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty scalar", 0)
    out = field.zero()
    for pos, term in _split_terms(compact):
        if not term or term in "+-":
            raise ParseError("dangling sign", pos)
        coef, sym, exp = _parse_term(term, pos)
        if sym == "z":
            if field.kind != CYCLOTOMIC:
                raise FieldMismatch(f"symbol 'z' not available in {field}")
            out = out + field.from_fraction(coef) * field.zeta(exp)
        elif sym == "t":
            if field.kind != FINITE or field.k < 2:
                raise FieldMismatch(f"symbol 't' not available in {field}")
            if coef.denominator != 1:
                raise ParseError(f"non-integer coefficient {term!r} in finite field", pos)
            out = out + field.from_fraction(coef) * field.gen() ** exp
        else:
            if field.kind == FINITE and coef.denominator != 1:
                raise ParseError(f"non-integer coefficient {term!r} in finite field", pos)
            out = out + field.from_fraction(coef)
    return out


def _fmt_coef_symbol(c: Fraction, sym: str, e: int, lead: bool) -> str:
    if e == 0:
        body = str(abs(c))
    else:
        s = sym if e == 1 else f"{sym}^{e}"
        body = s if abs(c) == 1 else f"{abs(c)}*{s}"
    if c < 0:
        return "-" + body
    return body if lead else "+" + body


def format_scalar(s: Scalar) -> str:
    """Canonical text form (descending powers, '-' bound to its term)."""
    k = s.field.kind
    if k == RATIONAL:
        return str(s.payload)
    if k == CYCLOTOMIC:
        nums, den = s.payload
        parts = []
        for e in range(len(nums) - 1, -1, -1):
            if nums[e]:
                parts.append(_fmt_coef_symbol(Fraction(nums[e], den), "z", e, not parts))
        return "".join(parts) if parts else "0"
    parts = []
    for e in range(len(s.payload) - 1, -1, -1):
        if s.payload[e]:
            parts.append(_fmt_coef_symbol(Fraction(s.payload[e]), "t", e, not parts))
    return "".join(parts) if parts else "0"
