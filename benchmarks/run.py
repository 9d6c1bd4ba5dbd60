"""Benchmark runner for midconv (standard library only).

One workload, in this process:

    python3 benchmarks/run.py --workload sl-demo --seed 1 --seconds 25 --trace 0

runs set-up SETUP_REPS times, then passes over the workload's inputs until
--seconds are spent (at least one pass), one operation at a time: a closed
loop with a single client.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A result file
with the commit, Python version, nproc and seed goes to
benchmarks/results/<workload>-seed<seed>-trace<trace>.json.  The exit code
is 1 when a step raises or an output fails its check, other than a known
defect (see workloads.py), and 2 when the midconv sources are missing.

Every workload, each in a fresh process, one at a time, untraced then traced:

    python3 benchmarks/run.py --all [--seed N] [--seconds S] [--label L]

prints every metric by name with its unit and writes
benchmarks/results/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS, Mismatch, random_scalar

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPS = 11
MICRO_REPS = 5
# times are reported at the speed where reference_s() takes this long; on
# the 2-vCPU host the bounds were set on it took 2 to 3.5 ms
REFERENCE_S = 0.002
REFERENCE_EVERY_S = 0.25
MIDCONV_MODULES = ("errors", "scalars", "linalg", "tuples", "convolution",
                   "modgroup", "k3count", "tupleio", "fixtures")

END_TO_END = {
    "wall_s": "s", "op_iqm_ms": "ms", "ok_ratio": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# spans reported with .calls and .self_s, then spans reported with .self_s only
CALL_SPANS = (
    "linalg.solve_coords", "linalg.in_span", "linalg.row_space_basis",
    "linalg.kernel_basis", "linalg.intersect_row_spaces", "linalg.jordan_data",
    "linalg.rank", "linalg.Matrix.matmul", "linalg.Matrix.inverse",
    "tuples.cohomology_spaces", "tuples.quotient_basis", "tuples.phi_transport",
    "tuples.induced_quotient_matrix",
    "convolution.middle_convolution", "convolution.circ_tuple",
    "convolution.mc_lambda", "convolution.is_convolution_sheaf",
    "k3count.count_affine",
    "tupleio.save_tuple", "tupleio.load_tuple",
)
SELF_SPANS = ("modgroup.group_closure", "modgroup.invariant_symmetric_form",
              "modgroup.absolutely_irreducible")


# -- reference speed -----------------------------------------------------------------

def reference_s() -> float:
    """Seconds for a fixed pure-Python loop: the interpreter's speed right now.

    On a shared host that speed drifts by tens of percent over tens of
    seconds.  The loop mixes Fraction arithmetic, small tuples and integer
    arithmetic, like the workloads, and calls no midconv code, so a change
    to midconv leaves it alone.  The fastest of three runs discards a burst
    that hits one of them.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc, slots = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i % 17 + 1, i % 13 + 1)
            slots[i & 15] = (acc, i)
        n = 0
        for i in range(20_000):
            n += i * i % 7
        times.append(time.perf_counter() - start)
    return min(times)


class SpeedSampler:
    """Times reference_s() every REFERENCE_EVERY_S, from a timer signal.

    The handler runs between two bytecodes of whatever is running, so a
    long operation is sampled while it runs.  Use `interval` once the
    `with` block has ended.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self.refs: list[float] = []

    def _sample(self, *_):
        start = time.perf_counter()
        ref = reference_s()
        self.starts.append(start)
        self.lengths.append(time.perf_counter() - start)
        self.refs.append(ref)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """Seconds of [start, end) spent outside sampling, and the same at reference speed.

        The speed is the mean of the samples taken inside the interval and
        of the nearest one on each side.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = end - start - sum(self.lengths[lo:hi])
        refs = self.refs[max(lo - 1, 0):hi + 1]
        return busy, busy * REFERENCE_S * len(refs) / sum(refs)


# -- set-up ------------------------------------------------------------------------

def load_midconv() -> SimpleNamespace:
    """Import midconv afresh from src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "midconv" or n.startswith("midconv.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"midconv.{n}")
                              for n in MIDCONV_MODULES})


def setup(workload, seed: int):
    """Import plus building inputs, SETUP_REPS times.

    Returns the median time at reference speed, the median measured time,
    and the modules and operations of the last repetition.
    """
    intervals = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            mc = load_midconv()
            ops = workload.build(mc, seed)
            intervals.append((start, time.perf_counter()))
    measured, scaled = zip(*(sampler.interval(*iv) for iv in intervals))
    return statistics.median(scaled), statistics.median(measured), mc, ops


# -- passes ------------------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float               # operations and their checks, at reference speed
    op_s: list[float]           # each operation, at reference speed
    measured_wall_s: float
    measured_op_s: list[float]
    failures: list[str]
    mismatches: list[str]        # failures that make the run incorrect
    step_failures: Counter       # step name -> operations where it raised or failed
    digest: str


def run_pass(ops, domain_error) -> Pass:
    """Every operation once, in order; checks every output and hashes it."""
    clock = time.perf_counter
    texts, failures, mismatches, intervals = [], [], [], []
    step_failures = Counter()
    with SpeedSampler() as sampler:
        for op in ops:
            outcomes = []
            op_start = clock()
            for step in op.steps:
                try:
                    outcomes.append(step.run())
                except domain_error as exc:
                    outcomes.append(exc)
            op_end = clock()
            problems = []
            for step, out in zip(op.steps, outcomes):
                problem = None
                if isinstance(out, domain_error):
                    text = problem = f"raised {type(out).__name__}: {out}"
                else:
                    try:
                        text = step.check(out)
                    except Mismatch as exc:
                        text = problem = f"mismatch: {exc}"
                if problem:
                    problems.append(f"{step.name} {problem}")
                    step_failures[step.name] += 1
                    if not step.known_defect:
                        mismatches.append(f"{op.label}: {step.name} {problem}")
                texts.append(f"{op.label} {step.name}: {text}")
            if problems:
                failures.append(f"{op.label}: " + "; ".join(problems))
            intervals.append((op_start, op_end, clock()))
    op_s, measured_op_s = [], []
    wall = measured_wall = 0.0
    for op_start, op_end, checked in intervals:
        measured, scaled = sampler.interval(op_start, op_end)
        measured_op_s.append(measured)
        op_s.append(scaled)
        measured, scaled = sampler.interval(op_start, checked)
        measured_wall += measured
        wall += scaled
    digest = hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()
    return Pass(wall, op_s, measured_wall, measured_op_s, failures, mismatches,
                step_failures, digest)


def measure(ops, domain_error, seconds: float) -> list[Pass]:
    """Passes until the next one would end past `seconds`; at least one."""
    passes = []
    start = last = time.perf_counter()
    while True:
        passes.append(run_pass(ops, domain_error))
        now = time.perf_counter()
        if 2 * now - last - start > seconds:
            return passes
        last = now


# -- microbenchmarks -----------------------------------------------------------------

def scalar_op_ns(fields, seed: int) -> dict[str, float]:
    """Median ns per +, * and inverse on random nonzero scalars of `fields`."""
    rng = random.Random(seed)
    pairs = []
    for field in fields:
        xs = [random_scalar(rng, field) for _ in range(64)]
        pairs += list(zip(xs, xs[1:] + xs[:1]))

    def add():
        for a, b in pairs:
            a + b

    def mul():
        for a, b in pairs:
            a * b

    def inv():
        for a, _ in pairs:
            a.inverse()

    out = {}
    for name, loop, repeat in (("add", add, 20), ("mul", mul, 20), ("inv", inv, 2)):
        samples = []
        for _ in range(MICRO_REPS):
            start = time.perf_counter()
            for _ in range(repeat):
                loop()
            samples.append((time.perf_counter() - start) / (repeat * len(pairs)))
        out[name] = statistics.median(samples) * 1e9
    return out


def row_space_basis_40_ms(mc, seed: int) -> float:
    """Median ms of row_space_basis on a 40x40 matrix over Q(zeta_12).

    A fifth of the entries are random 12th roots of unity, the rest zero,
    like the block matrices of the sl-demo pipeline.
    """
    rng = random.Random(seed)
    field = mc.scalars.FieldDescriptor.cyclotomic(12)
    roots = [field.zeta(e) for e in range(12)]
    rows = [tuple(rng.choice(roots) if rng.random() < 0.2 else field.zero()
                  for _ in range(40)) for _ in range(40)]
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        mc.linalg.row_space_basis(rows)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


# -- metrics -------------------------------------------------------------------------

def op_iqm(passes, field: str) -> float:
    """Interquartile mean of the operations' median times over the passes.

    The mean of the middle half is a typical operation's time.  On the
    corpus, whose operation times cluster by class, it varies far less
    from seed to seed than the median does.
    """
    times = sorted(statistics.median(t) for t in zip(*(getattr(p, field) for p in passes)))
    quarter = len(times) // 4
    return statistics.mean(times[quarter:len(times) - quarter])


def end_to_end_metrics(passes, setup_s: float) -> dict:
    attempted = sum(len(p.op_s) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_iqm_ms": op_iqm(passes, "op_s") * 1e3,
        "ok_ratio": 1 - failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(tracer: Tracer, base: Pass, traced: Pass, scalar_ns, row40_ms) -> dict:
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for key in ("add", "mul", "inv", "eq_hash"):
        put(f"scalars.{key}.count", tracer.counts[key], "count")
    for key in ("add", "mul", "inv"):
        put(f"scalars.{key}_ns", scalar_ns[key], "ns")
    for name in CALL_SPANS:
        put(f"{name}.calls", tracer.span(name).calls, "count")
        put(f"{name}.self_s", tracer.span(name).self_s, "s")
    for name in SELF_SPANS:
        put(f"{name}.self_s", tracer.span(name).self_s, "s")
    put("linalg.row_space_basis_40_ms", row40_ms, "ms")
    put("tuples.quotient_rank", tracer.sums["tuples.quotient_rank"], "count")
    transport = (tracer.span("tuples.phi_transport").total_s
                 + tracer.span("tuples.induced_quotient_matrix").total_s)
    put("tuples.transport_share", transport / traced.measured_wall_s, "ratio")
    put("convolution.mc_lambda.failed", traced.step_failures["mc_lambda"], "count")
    elements = tracer.sums["modgroup.group_closure.elements"]
    closure_s = tracer.span("modgroup.group_closure").total_s
    put("modgroup.group_closure.elements", elements, "count")
    put("modgroup.closure_elems_per_s", elements / closure_s if closure_s else 0.0, "1/s")
    count_s = tracer.span("k3count.count_affine").total_s
    put("k3count.points_per_s",
        tracer.sums["k3count.points"] / count_s if count_s else 0.0, "1/s")
    put("tupleio.save_tuple.bytes", tracer.sums["tupleio.save_tuple.bytes"], "bytes")
    put("trace.overhead_ratio", traced.wall_s / base.wall_s, "ratio")
    return out


# -- result files ----------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git repository.

    git does not look for a repository above the checkout, so a checkout
    inside another repository does not report that repository's commit.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the midconv sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "midconv").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"commit": git_commit(), "source_sha256": source_sha256(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc, "seed": seed}


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# -- one workload --------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(summary printed last, full result document)."""
    workload = WORKLOADS[name]
    setup_s, measured_setup_s, mc, ops = setup(workload, seed)
    domain_error = mc.errors.DomainError
    detail = {}
    if not trace:
        passes = checked = measure(ops, domain_error, seconds)
        metrics = end_to_end_metrics(passes, setup_s)
    else:
        base = run_pass(ops, domain_error)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, domain_error)
        finally:
            tracer.uninstall()
        passes, checked = [traced], [base, traced]
        metrics = per_layer_metrics(tracer, base, traced,
                                    scalar_op_ns(workload.scalar_fields(mc), seed),
                                    row_space_basis_40_ms(mc, seed))
        detail["untraced_digest"] = base.digest
        detail["spans"] = {n: s.as_dict() for n, s in sorted(tracer.spans.items())}
        detail["scalar_counts"] = tracer.counts
    mismatches = [m for p in checked for m in p.mismatches]
    if len({p.digest for p in checked}) > 1:
        mismatches.append("passes gave different output digests")
    summary = {
        "correct": not mismatches,
        "attempted": sum(len(p.op_s) for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "metrics": metrics,
    }
    doc = dict(environment(seed), workload=name, seconds=seconds, trace=int(trace),
               **summary, output_digest=passes[0].digest,
               measured_setup_s=measured_setup_s,
               measured_wall_s=statistics.median(p.measured_wall_s for p in passes),
               measured_op_iqm_ms=op_iqm(passes, "measured_op_s") * 1e3,
               pass_wall_s=[p.wall_s for p in passes],
               pass_measured_wall_s=[p.measured_wall_s for p in passes],
               ops=[op.label for op in ops],
               pass_op_s=[p.op_s for p in passes],
               pass_failures=[p.failures for p in checked], mismatches=mismatches,
               **detail)
    return summary, doc


# -- every workload ------------------------------------------------------------------

def run_all(seed: int, seconds: int, label: str | None) -> int:
    env = environment(seed)
    # the source digest keeps a run on an uncommitted change from
    # overwriting the file of the commit it started from
    label = label or "-".join(x[:12] for x in (env["commit"], env["source_sha256"]) if x)
    results, ok = {}, True
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace {trace}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            summary = json.loads(lines[-1])
            ok = ok and proc.returncode == 0 and summary["correct"]
            doc = json.loads((RESULTS / f"{name}-seed{seed}-trace{trace}.json").read_text())
            results.setdefault(name, {})[f"trace{trace}"] = dict(
                summary, output_digest=doc["output_digest"])
            print(f"\n{name} (trace {trace}): correct={summary['correct']} "
                  f"attempted={summary['attempted']} failed={summary['failed']}")
            for metric, m in summary["metrics"].items():
                print(f"  {metric:<44} {m['value']:>16.6g} {m['unit']}")
    path = RESULTS / f"BENCH_{label}.json"
    write_json(path, dict(env, label=label, seconds=seconds, workloads=results))
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, in fresh processes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="suffix of the BENCH_<label>.json written by --all "
                        "(default: commit and source digest)")
    args = parser.parse_args(argv)
    if not (SRC / "midconv" / "__init__.py").is_file():
        print(f"no midconv sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds, args.label)
    if args.workload is None:
        parser.error("give --workload or --all")
    summary, doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    write_json(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", doc)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
