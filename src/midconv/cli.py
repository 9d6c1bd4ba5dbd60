"""Command-line front end.

argparse picks the handler of every leaf command.  A handler delegates to the
library modules and returns its report (payload, human lines, exit code); run
prints it once: the human lines or, with --json, the payload as a document with
the same numbers.  run maps InputError and OSError to exit 2 and DomainError to
exit 1, as errors.py states; _verdict_report maps a Verdict to 0, 1 or 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import fixtures
from .convolution import (ConvolutionInput, irreducibility_criterion,
                          is_convolution_sheaf, mc_lambda, middle_convolution,
                          predict_infinity_jordan, predict_local_jordan,
                          rank_formula, rank_formula_applicable, sl_demo)
from .errors import DomainError, InputError, ParseError, Verdict
from .k3count import count_record, frobenius_eigenvalues, intersection_matrix_det
from .linalg import jordan_data
from .modgroup import CLOSURE_CAP, group_report, primitivity_bound, reduce_mod
from .scalars import parse_scalar
from .tuples import (braid_act, cohomology_spaces, equivalence, parabolic_rank_formula,
                     parse_braid_word)
from .tupleio import load_tuple_file, save_tuple


def _load(spec: str, mod: int | None = None):
    """The tuple of a file or of fixture:NAME, reduced mod `mod` when it is given."""
    if spec.startswith("fixture:"):
        T = fixtures.get_tuple_fixture(spec[len("fixture:"):])
    else:
        T = load_tuple_file(spec)
    return T if mod is None else reduce_mod(T, mod)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _emit(args, payload: dict, human: list[str], code: int) -> int:
    """Print a handler's report; return its exit code."""
    if getattr(args, "json", False):
        json.dump(payload, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        for line in human:
            print(line)
    return code


def _save(args, T) -> str:
    """T's save_tuple text, written to --out if given: the one writer of tuple files."""
    text = save_tuple(T)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _tuple_report(args, T, payload: dict, human: list[str]):
    """Save T (see _save); the report of exit 0 with T's text last."""
    text = _save(args, T)
    return {**payload, "tuple": text}, human + [text.rstrip()], 0


def _verdict_report(verdict: Verdict, payload: dict, witness, human: list[str]):
    """The report of payload with the witness (as JSON) and method, exiting by the verdict."""
    return ({**payload, "witness": witness, "method": verdict.method}, human,
            {True: 0, False: 1, None: 3}[verdict.ok])


# -- subcommand implementations -----------------------------------------------

def _cmd_convolve(args):
    inp = ConvolutionInput(_load(args.left), _load(args.right))
    out = middle_convolution(inp)
    points = [str(p) for p in out.points]
    return _tuple_report(args, out,
                         {"dim": out.dim, "points": points, "generic": inp.is_generic()},
                         [f"dim {out.dim} on points " + ", ".join(points)])


def _cmd_mcl(args):
    T = _load(args.tuple)
    out = mc_lambda(T, parse_scalar(args.lam, T.field))
    points = None if out.points is None else [str(p) for p in out.points]
    return _tuple_report(args, out, {"dim": out.dim, "points": points}, [f"dim {out.dim}"])


def _cmd_rank(args):
    inp = ConvolutionInput(_load(args.left), _load(args.right))
    value, ok = rank_formula(inp), rank_formula_applicable(inp)
    human = [f"rank {value}"]
    if not ok:
        human.append("warning: neither stalk stabilizer is trivial")
    return {"rank": value, "precondition_ok": ok}, human, 0


def _cmd_check_conv(args):
    res = is_convolution_sheaf(_load(args.tuple))
    human = ["pass" if res.ok else "fail"]
    witness = None
    if res.witness:
        cond, i, tau = res.witness
        witness = {"condition": cond, "entry": i, "tau": str(tau)}
        human.append(f"violated ({cond}) at entry {i} with tau = {tau}")
    return _verdict_report(res, {"convolution_sheaf": res.ok}, witness, human)


def _cmd_irred(args):
    T = _load(args.tuple)
    lams = [parse_scalar(tok.strip(), T.field) for tok in args.lambdas.split(",")]
    res = irreducibility_criterion(T, lams)
    text = "irreducible" if res.ok else "inconclusive"
    return _verdict_report(res, {"verdict": text}, res.witness, [text])


def _cmd_jordan(args):
    T = _load(args.tuple)
    data = [jordan_data(M) for M in T.entries]
    return ({"entries": [str(j) for j in data]},
            [f"entry {k + 1}: {j}" for k, j in enumerate(data)], 0)


def _cmd_predict(args):
    needed = ({"tuple": "--tuple", "lam": "--lambda"} if args.infinity
              else {"left": "--left", "right": "--right"})
    missing = [opt for dest, opt in needed.items() if getattr(args, dest) is None]
    if missing:
        mode = "predict --infinity" if args.infinity else "predict"
        raise InputError(f"{mode} needs {' and '.join(missing)}")
    if args.infinity:
        T = _load(args.tuple)
        jd = predict_infinity_jordan(T, parse_scalar(args.lam, T.field))
        return {"infinity": str(jd)}, [f"infinity: {jd}"], 0
    inp = ConvolutionInput(_load(args.left), _load(args.right))
    table = predict_local_jordan(inp)
    points = inp.loop_points()
    payload, human = {}, []
    for (i, j), jd in sorted(table.items()):
        pt = points[i, j]
        payload[f"{i},{j}"] = {"point": str(pt), "jordan": str(jd)}
        human.append(f"({i},{j}) at {pt}: {jd}")
    return payload, human, 0


def _cmd_braid(args):
    T = _load(args.tuple)
    return _tuple_report(args, braid_act(T, parse_braid_word(args.word, T.r)), {}, [])


def _cmd_cohomology(args):
    T = _load(args.tuple)
    e, u = map(len, cohomology_spaces(T))
    h = T.r * T.dim            # dim H_T = r dim V, see cohomology_spaces
    payload = {"dim_H": h, "dim_E": e, "dim_U": u, "h1": h - e, "parabolic": u - e,
               "rank_formula": parabolic_rank_formula(T)}
    return payload, [f"dim H_T = {h}, dim E_T = {e}, dim U_T = {u}",
                     f"dim H^1 = {h - e}, dim H^1_p = {u - e}",
                     f"rank formula gives {payload['rank_formula']}"], 0


def _cmd_equiv(args):
    res = equivalence(_load(args.a), _load(args.b))
    text = {True: "equivalent", False: f"not equivalent: {res.witness}",
            None: "inconclusive: the invariants agree, but no conjugator was found"}[res.ok]
    return _verdict_report(res, {"equivalent": res.ok}, res.witness, [text])


def _cmd_reduce(args):
    out = _load(args.tuple, args.mod)
    return _tuple_report(args, out, {"field": str(out.field)}, [])


def _cmd_group(args):
    T = _load(args.tuple, args.mod)
    report = group_report(list(T.entries), cap=args.cap)
    payload = {"order": report.order_text,
               "absolutely_irreducible": report.absolutely_irreducible,
               "recognized": report.recognized,
               "invariant_gram": str(report.invariant_gram) if report.invariant_gram else None}
    human = [f"order {report.order_text}",
             f"absolutely irreducible: {report.absolutely_irreducible}"]
    if report.recognized:
        human.append(f"recognized: {report.recognized}")
    return payload, human, 0


def _cmd_primitivity(args):
    bound, primitive = primitivity_bound(_load(args.tuple, args.mod))
    return ({"bound": str(bound), "primitive": primitive},
            [f"bound {bound}", "primitive" if primitive else "possibly imprimitive"], 0)


def _count_record(args):
    """The fibre --z and the point count of --q on it."""
    try:
        z = Fraction(args.z)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fibre --z {args.z!r}") from None
    return z, count_record(args.q, z)


def _cmd_k3_count(args):
    z, rec = _count_record(args)
    payload = {"q": rec.q, "N": rec.N, "z": str(z)}
    human = [f"N({rec.q}) = {rec.N}"]
    if z == 1:
        payload["trace"] = str(rec.trace)
        human.append(f"t_{rec.q} = {rec.trace}")
    return payload, human, 0


def _cmd_k3_trace(args):
    z, rec = _count_record(args)
    if z == 1:
        return {"q": rec.q, "trace": str(rec.trace)}, [str(rec.trace)], 0
    return ({"q": rec.q, "N": rec.N, "z": str(z), "note": "trace formula asserted only at z = 1",
             "trace_if_formula_held": str(rec.trace)},
            [f"N({rec.q}) = {rec.N} at z = {z}",
             f"trace formula asserted only at z = 1; formal value {rec.trace}"], 0)


def _cmd_k3_frob(args):
    data = frobenius_eigenvalues(args.p)
    payload = {"p": data.p, "u": str(data.u), "d": str(data.d),
               "s3": data.s3, "s_minus1": data.s_minus1,
               "alpha": data.eigenvalue_text, "verified": data.verified}
    return payload, [f"alpha_{data.p} = {data.eigenvalue_text}",
                     f"eigenvalues (alpha, 1/alpha, {data.s3:+d}); verified: {data.verified}"], 0


def _cmd_k3_nsdet(args):
    c0, c1, c2 = intersection_matrix_det()
    payload = {"det": f"{c2}*x^2+{c1}*x+{c0}", "coeffs": [c0, c1, c2]}
    human = [f"det = {c2}*x^2 + {c1}*x + {c0}"]
    if args.x is not None:
        val = c0 + c1 * args.x + c2 * args.x * args.x
        payload["value_at_x"] = val
        human.append(f"value at x = {args.x}: {val}")
    return payload, human, 0


def _cmd_demo(args):
    report = sl_demo(args.m, args.r)
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
               if f.name != "result"}
    human = [f"rank {report.rank} (expected {report.expected_rank}) over {report.field}",
             f"first entry Jordan data as announced: {report.first_entry_jordan_ok}",
             f"second entry is a homology of order {report.second_entry_homology_order}",
             f"finite determinants lie in <zeta_4>: {report.determinants_in_zeta4}",
             "all checks passed" if report.checks_passed else "CHECKS FAILED"]
    if args.out:
        _save(args, report.result)
    return payload, human, 0 if report.checks_passed else 1


def _cmd_fixtures_list(args):
    names = fixtures.fixture_names()
    return {"fixtures": names}, names, 0


def _cmd_fixtures_dump(args):
    table = fixtures.TABLE_FIXTURES.get(args.name)
    if table is not None:
        return dict(table), [f"{k}: {v}" for k, v in table.items()], 0
    return _tuple_report(args, _load(f"fixture:{args.name}"), {}, [])


# -- parser ---------------------------------------------------------------------

def _attached(what: str, example: str) -> str:
    """Help text of a scalar option: argparse reads a separate "-2/3" as an option."""
    return f"{what}; a negative value must be attached with '=', for example {example}"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # no default: a subcommand's own --json must not reset one given before it
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    tupled = argparse.ArgumentParser(add_help=False)
    tupled.add_argument("--tuple", required=True)
    paired = argparse.ArgumentParser(add_help=False)
    paired.add_argument("--left", required=True)
    paired.add_argument("--right", required=True)
    ap = argparse.ArgumentParser(
        prog="midconv",
        description="Exact middle convolution of monodromy tuples, "
                    "finite-group reduction, and K3 point counting.",
        parents=[common])
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn=None, *parents, where=sub, **kw):
        """A parser of `where`; a leaf gets its handler fn, a parent of leaves none."""
        p = where.add_parser(name, parents=[common, *parents], **kw)
        if fn:
            p.set_defaults(fn=fn)
        return p

    p = add("convolve", _cmd_convolve, paired, help="middle convolution of two tuples")
    p.add_argument("--out")

    p = add("mcl", _cmd_mcl, tupled, help="Katz MC_lambda via Pochhammer matrices")
    p.add_argument("--lambda", dest="lam", required=True,
                   help=_attached("the scalar lambda", "--lambda=-1/2"))
    p.add_argument("--out")

    add("rank", _cmd_rank, paired, help="rank formula for a convolution")

    add("check-conv", _cmd_check_conv, tupled, help="convolution-sheaf conditions")

    p = add("irred", _cmd_irred, tupled, help="irreducibility criterion")
    p.add_argument("--lambdas", required=True,
                   help=_attached("comma-separated scalars of the rank-one factor",
                                  "--lambdas=-1,2"))

    add("jordan", _cmd_jordan, tupled, help="Jordan data of every entry")

    p = add("predict", _cmd_predict, help="predicted local Jordan data")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--infinity", action="store_true")
    p.add_argument("--tuple")
    p.add_argument("--lambda", dest="lam",
                   help=_attached("the scalar lambda", "--lambda=-1/2"))

    p = add("braid", _cmd_braid, tupled, help="act by a braid word")
    p.add_argument("--word", required=True)
    p.add_argument("--out")

    add("cohomology", _cmd_cohomology, tupled, help="H/E/U dimensions")

    p = add("equiv", _cmd_equiv, help="equivalence up to simultaneous conjugacy")
    p.add_argument("a")
    p.add_argument("b")

    p = add("reduce", _cmd_reduce, tupled, help="reduce a tuple mod ell")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--out")

    p = add("group", _cmd_group, tupled, help="closure order and invariant form")
    p.add_argument("--mod", type=int)
    p.add_argument("--cap", type=_positive_int, default=CLOSURE_CAP,
                   help=f"most elements the closure may list (default {CLOSURE_CAP}); it bounds "
                        "only that enumeration, so an order that O3 recognition "
                        "proves is printed past it")

    p = add("primitivity", _cmd_primitivity, tupled, help="primitivity bound")
    p.add_argument("--mod", type=int)

    k3sub = add("k3", help="point counts, traces, Frobenius data").add_subparsers(
        dest="k3cmd", required=True)
    for name, fn in (("count", _cmd_k3_count), ("trace", _cmd_k3_trace)):
        sp = add(name, fn, where=k3sub)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--z", default="1",
                        help=_attached("the fibre, a rational", "--z=-2/3"))
    add("frob", _cmd_k3_frob, where=k3sub).add_argument("--p", type=int, required=True)
    add("nsdet", _cmd_k3_nsdet, where=k3sub).add_argument("--x", type=int)

    demosub = add("demo", help="the SL-realization pipeline").add_subparsers(
        dest="democmd", required=True)
    sp = add("sl", _cmd_demo, where=demosub)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--r", type=int, default=4)
    sp.add_argument("--out")

    fsub = add("fixtures", help="embedded reference data").add_subparsers(
        dest="fixcmd", required=True)
    add("list", _cmd_fixtures_list, where=fsub)
    sp = add("dump", _cmd_fixtures_dump, where=fsub)
    sp.add_argument("--name", required=True)
    sp.add_argument("--out")

    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _emit(args, *args.fn(args))  # inside the try: a closed stdout exits 2
    except (InputError, DomainError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
