"""The benchmark's four workloads: inputs, operations and output checks.

An operation takes one input through the workload's pipeline; it is a
sequence of steps, timed together.  A step fails when it raises a midconv
DomainError or when its check raises Mismatch.  A failed step fails its
operation and makes the run incorrect, unless the step is marked
`known_defect`: then only the operation fails.  Every step's check returns
a canonical text of the output; the runner hashes these texts into the
pass's output digest.

Steps look their library functions up on the module at call time
(`mc.convolution.sl_demo`, never a reference taken at set-up), so the traced
run sees the wrappers the tracer installs.

Which layers each workload exercises or bypasses is documented in README.md.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class Mismatch(Exception):
    """A step returned an output that fails its check."""


@dataclass(frozen=True)
class Step:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str]      # canonical output text; raises Mismatch
    # A failure of this step is a listed defect of the program: it fails the
    # operation but leaves the run correct, so that the defect is measured
    # rather than making every affected seed unusable.  Only mc_lambda on
    # conv-corpus has one.
    known_defect: bool = False


@dataclass(frozen=True)
class Op:
    label: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable                     # (midconv modules, seed) -> list[Op]
    scalar_fields: Callable             # midconv modules -> fields for the microbenchmark


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows_text(M) -> str:
    """Canonical text of a matrix from the Scalar payloads (no library calls)."""
    return repr([[x.payload for x in row] for row in M.rows])


def _tuple_text(T) -> str:
    return f"{T.field}|{T.dim}|{T.points}|" + ";".join(_rows_text(M) for M in T.entries)


# -- sl-demo: the two-step convolution of the SL-realization proof ------------------

# (3,6) and (5,6) take 16 s and 26 s each, too long for the number of runs a
# comparison needs; they are left out for run time only.  sl_demo runs m = 1
# as m = 3, so (1,4) repeats the computation and output of (3,4); it stays
# because it is the m = 1 entry point of the pipeline.
SL_DEMO_CASES = ((3, 4), (3, 5), (1, 4))

# sha256 of save_tuple(sl_demo(m, r).result), pinned at commit 6884eac: a
# change must keep the pipeline's output byte-identical.
SL_DEMO_SHA256 = {
    (3, 4): "f5b6da03695d3494be4ae752d58fda416edcf3b37b2f48bc77bd028b5b88d20d",
    (3, 5): "e9cc310930b1aa6f59b3a59d20ee61de74cb8d8c20cca332e7c9465139a46462",
    (1, 4): "f5b6da03695d3494be4ae752d58fda416edcf3b37b2f48bc77bd028b5b88d20d",
}


def sl_demo_ops(mc, seed: int) -> list[Op]:
    def op(m, r):
        def check(rep):
            text = mc.tupleio.save_tuple(rep.result)
            _expect(rep.checks_passed, "checks_passed is false")
            _expect(rep.rank == 4 * r - 7, f"rank {rep.rank}, expected 4r-7 = {4 * r - 7}")
            _expect(_sha256(text) == SL_DEMO_SHA256[(m, r)],
                    "save_tuple text differs from the pinned digest")
            return text
        return Op(f"sl_demo({m},{r})",
                  (Step("sl_demo", lambda: mc.convolution.sl_demo(m, r), check),))
    return [op(m, r) for m, r in SL_DEMO_CASES]


# -- o3-group: reduction mod ell and recognition of O_3(F_ell) ----------------------

O3_PRIMES = (13, 19)


def o3_group_ops(mc, seed: int) -> list[Op]:
    V = mc.fixtures.m_tuple()

    def op(ell):
        def recognize():
            residual = mc.modgroup.reduce_mod(V, ell)
            return mc.modgroup.o3_recognition(list(residual.entries), ell)

        def check(report):
            order = 2 * ell * (ell * ell - 1)
            _expect(report.order == order, f"order {report.order}, expected {order}")
            _expect(report.recognized == f"O3(F_{ell})",
                    f"recognized {report.recognized!r}")
            return (f"{report.order} {report.recognized} {report.absolutely_irreducible} "
                    f"{_rows_text(report.invariant_gram)}")
        return Op(f"o3(V mod {ell})", (Step("o3_recognition", recognize, check),))
    return [op(ell) for ell in O3_PRIMES]


# -- k3-frob: point counts and Frobenius eigenvalues on the K3 fibre ----------------

K3_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (u, d) with alpha_p = (u + sqrt(d))/p beyond the fixture tables' p <= 29
K3_PINNED_ALPHA = {31: (29, -120), 37: (-19, -1008)}


def k3_frob_ops(mc, seed: int) -> list[Op]:
    fx = mc.fixtures

    def op(p):
        def check(fd):
            _expect(fd.verified, "t_(p^2) check not verified")
            # Recover the traces from alpha_p: u = (t_p - (3/p) p)/2, the
            # verified identity 4u^2 - p^2 = t_(p^2), and
            # N(p) = t_p - p + p^2 + (1 + (-1/p)) p.
            t_p = 2 * fd.u + fd.s3 * p
            t_p2 = 4 * fd.u * fd.u - p * p
            n_p = t_p - p + p * p + (1 + fd.s_minus1) * p
            if p in fx.N_TABLE:
                want = (fx.N_TABLE[p], fx.T_TABLE[p], fx.T2_TABLE[p])
                _expect((n_p, t_p, t_p2) == want, f"(N, t_p, t_p2) = {(n_p, t_p, t_p2)}")
                _expect((fd.u, fd.d) == fx.ALPHA_TABLE[p], f"(u, d) = {(fd.u, fd.d)}")
            else:
                _expect((fd.u, fd.d) == K3_PINNED_ALPHA[p], f"(u, d) = {(fd.u, fd.d)}")
            return f"{fd.s3} {fd.s_minus1} {fd.u} {fd.d} {n_p} {t_p} {t_p2}"
        return Op(f"frobenius_eigenvalues({p})",
                  (Step("frobenius_eigenvalues",
                        lambda: mc.k3count.frobenius_eigenvalues(p), check),))
    return [op(p) for p in K3_PRIMES]


# -- conv-corpus: a seeded random corpus of small tuples ------------------------------

CORPUS_DIMS = (1, 2, 3)
CORPUS_RS = (2, 3, 4)
CORPUS_PER_CLASS = 6          # tuples kept per (field, dim, r) class


def corpus_fields(mc):
    F = mc.scalars.FieldDescriptor
    return [F.rational(), F.finite(7), F.finite(11)]


def _random_invertible(rng, mc, field, d):
    while True:
        if field.kind == mc.scalars.FINITE:
            rows = [[rng.randrange(field.p) for _ in range(d)] for _ in range(d)]
        else:
            rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        M = mc.linalg.Matrix.from_rows(field, rows)
        if mc.linalg.rank(M) == d:
            return M


def build_corpus(mc, seed: int) -> list:
    """CORPUS_PER_CLASS convolution sheaves per (field, dim, r), distinct points.

    Candidates are drawn until one passes is_convolution_sheaf; nothing else
    is filtered, so inputs on which the program fails stay in the corpus.
    """
    rng = random.Random(seed)
    corpus = []
    for field in corpus_fields(mc):
        for d in CORPUS_DIMS:
            for r in CORPUS_RS:
                kept = 0
                while kept < CORPUS_PER_CLASS:
                    entries = [_random_invertible(rng, mc, field, d) for _ in range(r)]
                    points = rng.sample(range(-9, 10), r)
                    T = mc.tuples.MonodromyTuple.from_finite_entries(field, entries, points)
                    if mc.convolution.is_convolution_sheaf(T).ok:
                        corpus.append(T)
                        kept += 1
    return corpus


def dettweiler_reiter_dim(mc, T, lam) -> int:
    """dim MC_lambda(T) = sum rk(A_i - 1) - (n - rk(lambda A_1...A_p - 1)).

    Dettweiler-Reiter, J. Symb. Comp. 30 (2000), for tuples satisfying the
    convolution-sheaf conditions (*) and (**).
    """
    rank = mc.linalg.rank
    finite = T.finite_entries()
    prod = mc.linalg.Matrix.identity(T.field, T.dim)
    for A in finite:
        prod = prod @ A
    return (sum(rank(A.minus_identity()) for A in finite)
            - (T.dim - rank(prod.scale(lam).minus_identity())))


def conv_corpus_ops(mc, seed: int) -> list[Op]:
    conv, tupleio = mc.convolution, mc.tupleio
    ops = []
    for k, T in enumerate(build_corpus(mc, seed)):
        lam = -T.field.one()
        kummer = conv.kummer_tuple(T.field, lam)
        pair = conv.ConvolutionInput(T, kummer)
        conv_rank = conv.rank_formula(pair) if conv.rank_formula_applicable(pair) else None
        dr_dim = dettweiler_reiter_dim(mc, T, lam)

        def check_sheaf(res):
            _expect(res.ok, "is_convolution_sheaf disagrees with the corpus filter")
            return "ok"

        def check_conv(out, conv_rank=conv_rank):
            _expect(conv_rank is None or out.dim == conv_rank,
                    f"dim {out.dim}, rank formula gives {conv_rank}")
            return _tuple_text(out)

        def check_mc_lambda(out, dr_dim=dr_dim):
            _expect(out.dim == dr_dim, f"dim {out.dim}, Dettweiler-Reiter gives {dr_dim}")
            return _tuple_text(out)

        def check_round_trip(loaded, T=T):
            _expect(loaded == T, "load_tuple(save_tuple(T)) != T")
            return "equal"

        ops.append(Op(f"corpus[{k}] {T.field} dim {T.dim} r {T.r}", (
            Step("is_convolution_sheaf",
                 lambda T=T: conv.is_convolution_sheaf(T), check_sheaf),
            Step("middle_convolution",
                 lambda pair=pair: conv.middle_convolution(pair), check_conv),
            # mc_lambda disagrees with the Dettweiler-Reiter dimension on some
            # convolution sheaves, by raising or by returning another dimension
            Step("mc_lambda", lambda T=T, lam=lam: conv.mc_lambda(T, lam), check_mc_lambda,
                 known_defect=True),
            Step("round_trip",
                 lambda T=T: tupleio.load_tuple(tupleio.save_tuple(T)), check_round_trip),
        )))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("sl-demo", sl_demo_ops,
             lambda mc: [mc.scalars.FieldDescriptor.cyclotomic(12)]),
    Workload("o3-group", o3_group_ops,
             lambda mc: [mc.scalars.FieldDescriptor.finite(ell) for ell in O3_PRIMES]),
    Workload("k3-frob", k3_frob_ops,
             lambda mc: [mc.scalars.FieldDescriptor.finite(37, 2)]),
    Workload("conv-corpus", conv_corpus_ops, corpus_fields),
)}


def random_scalar(rng, field):
    """A nonzero element of `field` with small coefficients."""
    while True:
        x = field.from_fraction(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
        for e in range(1, field.degree):
            basis = field.zeta(e) if field.characteristic == 0 else field.gen()
            x = x + field.from_int(rng.randint(-3, 3)) * basis
        if x:
            return x
