"""Exact arithmetic in Q, Q(zeta_n) and F_{p^k} (k = 1, 2).

Every other module is generic over a FieldDescriptor.  Elements are
immutable Scalar values in a unique canonical form, so equality and hashing
are plain coefficient-vector comparisons.  The payload layouts are private
to this module:

  * cyclotomic n  -- integer vector of length phi(n) over a common positive
                     denominator, reduced mod the n-th cyclotomic polynomial;
  * rational      -- the same layout for n = 1, ((a,), d): Q runs as Q(zeta_1);
  * finite p, 1   -- the bare int c with 0 <= c < p;
  * finite p, 2   -- the pair (a0, a1) of integers in [0, p), for a0 + a1 t.

Elsewhere a payload goes to the ops table or is compared and hashed whole.
Two read-outs see the layouts: `coords()`, the coordinates in the basis
1, zeta, .. of Q(zeta_n), Q being Q(zeta_1), or 1, t of F_{p^k}, which the
sort order, format_scalar, modgroup.reduce_mod and the root search read;
and `FieldDescriptor.square_indices()`, which k3count's character tables read.

The Q(zeta_n) tables are cached per n: _cyc_tables reduces the powers
zeta^e, e < n, by poly.cyclotomic_polynomial(n), and reads the reduction
rows of zeta^phi .. zeta^(2 phi - 2) off those powers, since zeta^n = 1.
Integer coefficients are arbitrary precision throughout.

Field descriptors are interned: the constructors return one object per field,
so a field check is an identity test (`a is b`), with `==` as the fallback
for a descriptor built some other way.  Q has one descriptor, which
cyclotomic(1) returns too: Q(zeta_1) prints as Q, and its text has no 'z'.
Each descriptor carries its ops table (`FieldOps`: zero, one, nonzero, add,
sub, neg, mul, addmul, axpy, inv and coords on payloads), chosen once from the
field's kind, and cached zero() and one() elements.  There are three kinds of table: Q(zeta_n), which
serves Q as Q(zeta_1), F_p and F_{p^2}.  Scalar arithmetic calls the table.
A linalg.Matrix holds payloads, not Scalars, so the loops of linalg, tuples
and modgroup call the table directly: Scalars appear only where entries
enter a matrix (Matrix.from_rows) and where they leave it (Matrix.rows,
M[i, j]).  `addmul(c, a, b)` is their multiply-accumulate c + a*b: one
reduction (F_p, F_{p^2}) or one normalization (Q, Q(zeta_n)) per term
instead of one for the product and one for the sum.  `axpy(row, a, pairs)`
is the row kernel of the elimination and the products: row[j] += a*y in
place for each (j, y) in pairs, one call per row update.  Over F_p it is
one loop with (row[j] + a*y) % p inlined, integer arithmetic alone, as in
word-size prime-field linear algebra (Dumas, Giorgi and Pernet, ACM TOMS
35, 2008); over Q(zeta_n) it is generated (below).  Only F_{p^2} and
phi(n) > UNROLL_MAX_PHI loop over their own addmul.  `inv` of Q(zeta_n)
takes a rational payload, nums zero past the first, to ((+-den, 0, ..),
|a0|), and reads the inverse of a unit +-zeta^e from a table of the 2n of
them, both without the product of the Galois conjugates.
Payloads are canonical, so a value has one payload and zero is the table's
zero: over Q and Q(zeta_n) `nonzero` is the bound `zero.__ne__`, one C call
in place of a Python frame.  Over F_p it is `bool` of the int, over
F_{p^2} `any` of the pair.

The Q(zeta_n) ops add, sub, neg, mul, addmul and axpy are compiled once per
field from straight-line source, with no loop but axpy's over its pairs.
_straight_line_cyclotomic_ops writes it from phi(n) and the integer
reduction rows of _cyc_tables(n) alone, never from input text.  The source
unpacks the numerators into locals.  A product of a and y has one
`if y_k:` block per coordinate of y, so a zero coordinate of y costs one
test and a rational y costs phi products.  mul and addmul add a_i y_k into
the unfolded product and then fold its coefficients of zeta^phi ..
zeta^(2 phi - 2) in once, by the fixed rows.  axpy builds a's table once
per call: column k holds the coordinates of a zeta^k, k < phi, the last
column shifted up with its top coordinate folded in by the row of
zeta^phi.  Each pair then adds column k times y_k, with no fold.  Each
result is normalized once with gcd(d, o0, ..), skipped when d == 1; add
and sub skip the cross products when the denominators agree.  The kernel
is compiled under the filename "<Q(zeta_n) kernel>", so profiles and
tracebacks name the field.  The source and its compile time grow as
phi^2, and the straight lines still multiply the zero coordinates of a,
so the kernel is built only for phi(n) <= UNROLL_MAX_PHI; larger fields
keep the loops of _looped_cyclotomic_ops (Q(zeta_997), phi 996, would
take seconds and gigabytes to compile).  Both give the same canonical
payloads.  Over Q, phi = 1, the kernel is one numerator over one
denominator, one product with no test, and one gcd per op, of the result
(Knuth, TAOCP 2, 4.5.1).

A Scalar is built by the two slot setters, bound once at module level, so
construction is two C calls; `__setattr__` raises, so Scalars stay
immutable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple

from .errors import DivisionByZero, FieldMismatch, ParseError
from .poly import cyclotomic_polynomial, euler_criterion, horner, is_prime

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
FINITE = "finite"


@lru_cache(maxsize=None)
def _cyc_tables(n: int):
    """(phi, reduction rows, powers): powers[e] holds the coordinates of zeta^e for
    e < n, and the reduction rows those of zeta^(phi+m) for m < phi - 1, which is
    powers[(phi + m) % n] because zeta^n = 1."""
    phi_poly = cyclotomic_polynomial(n)
    phi = len(phi_poly) - 1
    # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1})
    low = [-c for c in phi_poly[:phi]]
    powers, vec = [], [1] + [0] * (phi - 1)
    for _ in range(n):
        powers.append(tuple(vec))
        top, vec = vec[-1], [0] + vec[:-1]
        if top:
            vec = [a + top * b for a, b in zip(vec, low)]
    return phi, tuple(powers[(phi + m) % n] for m in range(phi - 1)), tuple(powers)


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
    axpy: Callable         # axpy(row, a, pairs): row[j] = addmul(row[j], a, y) per (j, y)
    inv: Callable          # the argument must be nonzero
    coords: Callable       # the coordinates, see the module docstring


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
    """Tag describing one of the supported exact fields: Q (kind RATIONAL), Q(zeta_n),
    n >= 2, and F_{p^k}, k = 1, 2.  Q keeps its own kind, for its name, its file-format
    line and its reduction mod l, but its payloads, ops and zeta() are Q(zeta_1)'s."""

    kind: str
    n: int = 0                      # cyclotomic order
    p: int = 0                      # finite characteristic
    k: int = 1                      # finite extension degree (1 or 2)
    poly: tuple[int, ...] = ()      # monic defining polynomial, ascending

    def __post_init__(self):
        if self.kind != FINITE:
            ops = _cyclotomic_ops(self.n or 1)      # Q, with n = 0, is Q(zeta_1)
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
        return _interned(CYCLOTOMIC, n=n) if n > 1 else FieldDescriptor.rational()

    @staticmethod
    def finite(p: int, k: int = 1, poly: tuple[int, ...] | None = None) -> "FieldDescriptor":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k not in (1, 2):
            raise ValueError("only degrees 1 and 2 are supported")
        if k == 1:
            return _interned(FINITE, p=p, k=1, poly=(0, 1))
        if poly is None:   # t^2 - a for the least non-residue a; t^2 + t + 1 over F_2
            poly = (1, 1, 1) if p == 2 else (-next(a for a in range(2, p)
                                                   if euler_criterion(a, p) == -1), 0, 1)
        poly = tuple(c % p for c in poly)
        if len(poly) != 3 or poly[2] != 1:
            raise ValueError("defining polynomial must be monic of degree 2")
        if p == 2:
            reducible = any(not horner(poly, a, 2) for a in (0, 1))
        else:       # the discriminant is a square mod p
            reducible = euler_criterion(poly[1] ** 2 - 4 * poly[0], p) != -1
        if reducible:
            raise ValueError("defining polynomial is reducible mod p")
        return _interned(FINITE, p=p, k=2, poly=poly)

    # -- basic structure ---------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == FINITE else 0

    @property
    def degree(self) -> int:
        """Dimension of the field over its prime field."""
        return len(self.ops.coords(self.ops.one))

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def from_int(self, c: int) -> "Scalar":
        return self.from_fraction(Fraction(c))

    def from_fraction(self, fr: Fraction) -> "Scalar":
        """The image of a Fraction or int: fr times one, over Q and Q(zeta_n) the
        payload ((num, 0, ..), den), which is canonical as fr is in lowest terms."""
        if self.kind != FINITE:
            return Scalar(self, ((fr.numerator,) + (0,) * (self.degree - 1), fr.denominator))
        den = fr.denominator % self.p
        if den == 0:
            raise DivisionByZero("denominator vanishes mod p")
        c = fr.numerator * pow(den, -1, self.p) % self.p
        return Scalar(self, c if self.k == 1 else (c, 0))

    def zeta(self, e: int = 1) -> "Scalar":
        """The root of unity zeta_n^e (Q(zeta_n) only, Q being Q(zeta_1))."""
        if self.kind == FINITE:
            raise FieldMismatch("zeta lives in cyclotomic fields")
        n = self.n or 1
        _, _, powers = _cyc_tables(n)
        return Scalar(self, (powers[e % n], 1))

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
                yield Scalar(self, a)
        else:
            for b in range(self.p):
                for a in range(self.p):
                    yield Scalar(self, (a, b))

    def square_indices(self) -> list[int]:
        """For each element in elements() order, the index of its square in that
        order (finite fields only).  a + b t is at index a + p b, and over
        F_p[t] / (t^2 + c1 t + c0) its square is (a^2 - c0 b^2) + (2ab - c1 b^2) t."""
        if self.kind != FINITE:
            raise FieldMismatch("cannot enumerate an infinite field")
        p = self.p
        if self.k == 1:
            return [a * a % p for a in range(p)]
        c0, c1 = self.poly[0], self.poly[1]
        return [(a * a - c0 * b * b) % p + p * ((2 * a - c1 * b) * b % p)
                for b in range(p) for a in range(p)]

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


def _looped_axpy(addmul) -> Callable:
    """The row kernel as a loop over the table's own addmul."""
    def axpy(row, a, pairs):
        for j, y in pairs:
            row[j] = addmul(row[j], a, y)
    return axpy


def _prime_field_ops(p: int) -> FieldOps:
    """F_p: payloads the ints c with 0 <= c < p."""
    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def neg(a):
        return -a % p

    def mul(a, b):
        return a * b % p

    def addmul(c, a, b):
        return (c + a * b) % p

    def axpy(row, a, pairs):
        for j, y in pairs:
            row[j] = (row[j] + a * y) % p

    def inv(a):
        return pow(a, -1, p)

    def coords(a):
        return (a,)

    return FieldOps(0, 1, bool, add, sub, neg, mul, addmul, axpy, inv, coords)


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

    return FieldOps((0, 0), (1, 0), any, add, sub, neg, mul, addmul, _looped_axpy(addmul), inv,
                    tuple)


# the largest phi(n) whose ops are compiled from straight-line source.  On axpy with
# 1 to phi/2 nonzero numerators per operand, as in sl_demo, on a 2-vCPU host under
# CPython 3.11, the straight lines were 1.8-2.5x faster than the loops at phi = 16,
# 1.2-2.1x at phi = 20 and 1.1-1.7x at phi = 24, from calls of one pair to calls of
# sixteen.  At phi = 28 and 36 they were 1.3-1.7x faster from four pairs on but
# 0.8-0.9x on one pair, whose call builds a's whole table for one product, while
# compiling, which grows as phi^2, took 14 ms at phi = 24 and 25-35 ms at 28 and 36.
# The bound covers every field sl_demo builds (phi <= 20).
UNROLL_MAX_PHI = 24


def _straight_line_cyclotomic_ops(n: int):
    """add, sub, neg, mul, addmul, axpy of Q(zeta_n), compiled from straight-line
    source (see the module docstring).  In the source, x_i, y_i and z_i are the
    numerators of the operands and of the addend, h_m the product's coefficient of
    zeta^(phi+m), t_jk coordinate j of a zeta^k in axpy's table, and o_j the result's
    numerators over the denominator d."""
    phi, red, _ = _cyc_tables(n)

    def each(fmt: str) -> list[str]:
        return [fmt.format(k=k) for k in range(phi)]

    def vec(fmt: str) -> str:           # "x0, x1, ": a valid target and tuple body
        return "".join(f"{term}, " for term in each(fmt))

    def signed(c: int, name: str) -> str:   # "+ name", "- 2*name"
        return f"{'-' if c < 0 else '+'} {f'{abs(c)}*' if abs(c) != 1 else ''}{name}"

    def normalize(store: str) -> list[str]:     # store: "return " or "row[j] = "
        return [f"g = gcd(d, {vec('o{k}')})", "if g == 1:",
                f"    {store}(({vec('o{k}')}), d)", "else:",
                f"    {store}(({vec('o{k} // g')}), d // g)"]

    def reduced(store: str) -> list[str]:       # d == 1 needs no gcd
        return (["if d == 1:", f"    {store}(({vec('o{k}')}), 1)", "else:"]
                + [f"    {line}" for line in normalize(store)])

    def blocks(sums: list[str], terms) -> list[str]:
        """The sums set to 0, then one `if yk:` block per coordinate of y, which adds
        factor*yk into the sum for each (sum, factor) in terms(k)."""
        lines = [f"{' = '.join(sums)} = 0"]
        for k in range(phi):
            lines += [f"if y{k}:"] + [f"    {o} += {f}*y{k}" for o, f in terms(k)]
        return lines

    # mul, addmul: the unfolded product, o_e the coefficient of zeta^e and h_m that of
    # zeta^(phi+m), then one fold of each h_m by the reduction row of zeta^(phi+m)
    sums = each("o{k}") + each("h{k}")[:-1]
    product = blocks(sums, lambda k: [(sums[i + k], f"x{i}") for i in range(phi)])
    for j in range(phi):
        terms = [signed(row[j], f"h{m}") for m, row in enumerate(red) if row[j]]
        if terms:
            product.append(f"o{j} = o{j} {' '.join(terms)}")

    # axpy: the table t_jk, coordinate j of a*zeta^k.  Column k shifts column k - 1 up by
    # one and folds its top coordinate in by the reduction row of zeta^phi, whose
    # constant coordinate is -1 (Phi_n(0) = 1 for n >= 2); a coordinate that only moves
    # up keeps its name
    table, build = [each("x{k}")], []
    for k in range(1, phi):
        prev, col = table[-1], []
        for j, c in enumerate(red[0]):
            if c:
                fold = signed(c, prev[-1])
                build.append(f"t{j}_{k} = {f'{prev[j - 1]} {fold}' if j else fold}")
            col.append(f"t{j}_{k}" if c else prev[j - 1])
        table.append(col)
    table_product = blocks(each("o{k}"), lambda k: zip(each("o{k}"), table[k]))
    if phi == 1:    # Q: one product, and the y of axpy's pairs are nonzero
        product = table_product = ["o0 = x0*y0"]

    unpack = [f"{vec('x{k}')}= x", f"{vec('y{k}')}= y"]
    plus_z = ([f"{vec('z{k}')}= z", "d = dx * dy", "if d == dz:"]
              + each("    o{k} += z{k}")
              + ["elif dz == 1:"]             # c + a*b = (z d + x y) / d
              + each("    o{k} += z{k} * d")
              + ["else:"]                     # (z d + x y dz) / (dz d)
              + each("    o{k} = z{k} * d + o{k} * dz")
              + ["    d *= dz"])

    def linear(op: str) -> list[str]:   # add, sub: equal denominators skip the cross products
        return (["(x, dx), (y, dy) = a, b"] + unpack
                + ["if dx == dy:", "    if dx == 1:",
                   f"        return (({vec(f'x{{k}} {op} y{{k}}')}), 1)"]
                + each(f"    o{{k}} = x{{k}} {op} y{{k}}")
                + ["    d = dx", "else:"]
                + each(f"    o{{k}} = x{{k}} * dy {op} y{{k}} * dx")
                + ["    d = dx * dy"] + normalize("return "))

    functions = {
        "add(a, b)": linear("+"),
        "sub(a, b)": linear("-"),
        "neg(a)": ["x, d = a", f"{vec('x{k}')}= x", f"return (({vec('-x{k}')}), d)"],
        "mul(a, b)": (["(x, dx), (y, dy) = a, b"] + unpack + product + ["d = dx * dy"]
                      + reduced("return ")),
        "addmul(c, a, b)": (["(z, dz), (x, dx), (y, dy) = c, a, b"] + unpack + product + plus_z
                            + reduced("return ")),
        # addmul per pair on a's table, built once per call, so no pair folds
        "axpy(row, a, pairs)": (["x, dx = a", unpack[0]] + build + ["for j, (y, dy) in pairs:"]
                                + [f"    {line}" for line in ["z, dz = row[j]", unpack[1]]
                                   + table_product + plus_z + reduced("row[j] = ")]),
    }
    source = "".join(f"def {head}:\n" + "".join(f"    {line}\n" for line in body)
                     for head, body in functions.items())
    namespace = {"gcd": math.gcd}
    exec(compile(source, f"<Q(zeta_{n}) kernel>", "exec"), namespace)
    return tuple(namespace[head.split("(")[0]] for head in functions)


def _looped_cyclotomic_ops(phi: int, red):
    """add, sub, neg, mul, addmul of Q(zeta_n) as loops over the coefficients."""
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
    sparse_red = [[(j, c) for j, c in enumerate(row) if c] for row in red]
    tail = [0] * (phi - 1)
    zero = ((0,) * phi, 1)

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

    return add, sub, neg, mul, addmul


def _cyclotomic_ops(n: int) -> FieldOps:
    """Q(zeta_n): payloads (nums, den), see _cyc_normalize."""
    phi, red, powers = _cyc_tables(n)
    tail = (0,) * (phi - 1)
    zero, one = ((0,) + tail, 1), ((1,) + tail, 1)
    if phi <= UNROLL_MAX_PHI:
        add, sub, neg, mul, addmul, axpy = _straight_line_cyclotomic_ops(n)
    else:
        add, sub, neg, mul, addmul = _looped_cyclotomic_ops(phi, red)
        axpy = _looped_axpy(addmul)

    # +-zeta^e -> +-zeta^-e; Q's units +-1 are rational, so its table is empty
    units = {(tuple(s * c for c in powers[e]), 1): (tuple(s * c for c in powers[-e % n]), 1)
             for e in range(n) for s in (1, -1)} if phi > 1 else {}

    def inv(a):
        """a^-1 = prod_{k != 1} sigma_k(a) / N(a), sigma_k: zeta -> zeta^k, k prime to n;
        a rational a0/den is den/a0, and +-zeta^e is +-zeta^-e."""
        nums, den = a
        if nums[1:] == tail:
            a0 = nums[0]
            return ((den if a0 > 0 else -den,) + tail, abs(a0))
        unit = units.get(a)
        if unit is not None:
            return unit
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

    def coords(a):
        # no Fraction for a zero numerator or over den 1: save_tuple reads
        # mostly-zero entries
        nums, den = a
        return nums if den == 1 else tuple(Fraction(c, den) if c else 0 for c in nums)

    return FieldOps(zero, one, zero.__ne__, add, sub, neg, mul, addmul, axpy, inv, coords)


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

    def coords(self) -> tuple:
        """The coordinates in the field's basis; sorting by them is the
        deterministic total order inside one field (for canonical output)."""
        return self.field.ops.coords(self.payload)

    # -- conversions ---------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.field}, {format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


# the slot setters, bound once: Scalar.__setattr__ raises, and these bypass it
_set_field, _set_payload = Scalar.field.__set__, Scalar.payload.__set__


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


def format_poly(coeffs, sym: str) -> str:
    """Canonical text of sum_e coeffs[e] sym^e (ints and Fractions); inverse of
    parse_terms.

    Descending powers, '-' bound to its term, "0" for the zero polynomial.
    """
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c:
            body = str(abs(c)) if e == 0 else sym if e == 1 else f"{sym}^{e}"
            if e and abs(c) != 1:
                body = f"{abs(c)}*{body}"
            parts.append("-" + body if c < 0 else "+" + body if parts else body)
    return "".join(parts) or "0"


def format_scalar(s: Scalar) -> str:
    """Canonical text form (descending powers, '-' bound to its term)."""
    return format_poly(s.coords(), "t" if s.field.kind == FINITE else "z")
