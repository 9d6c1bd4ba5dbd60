"""Command-line front end.

Every subcommand delegates to the library modules and renders either a
human-readable report or, with --json, a machine-readable document with the
same numbers.  The exit codes follow the contract stated in errors.py, and
_emit_verdict is the one map from a Verdict to 0, 1 or 3.
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
        try:
            T = fixtures.get_tuple_fixture(spec[len("fixture:"):])
        except KeyError as exc:
            raise InputError(str(exc)) from exc
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


def _emit(args, payload: dict, human: list[str]) -> None:
    if getattr(args, "json", False):
        json.dump(payload, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        for line in human:
            print(line)


def _save(args, T) -> str:
    """T's save_tuple text, written to --out if given: the one writer of tuple files."""
    text = save_tuple(T)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _emit_tuple(args, T, payload: dict, human: list[str]) -> None:
    """Save T (see _save), then emit the report with its text last."""
    text = _save(args, T)
    _emit(args, {**payload, "tuple": text}, human + [text.rstrip()])


def _emit_verdict(args, verdict: Verdict, payload: dict, witness, human: list[str]) -> int:
    """Emit payload with the witness (as JSON) and method of verdict; return its exit code."""
    _emit(args, {**payload, "witness": witness, "method": verdict.method}, human)
    return {True: 0, False: 1, None: 3}[verdict.ok]


# -- subcommand implementations -----------------------------------------------

def _cmd_convolve(args):
    inp = ConvolutionInput(_load(args.left), _load(args.right))
    out = middle_convolution(inp)
    points = [str(p) for p in out.points]
    _emit_tuple(args, out, {"dim": out.dim, "points": points, "generic": inp.is_generic()},
                [f"dim {out.dim} on points " + ", ".join(points)])
    return 0


def _cmd_mcl(args):
    T = _load(args.tuple)
    lam = parse_scalar(args.lam, T.field)
    out = mc_lambda(T, lam)
    points = None if out.points is None else [str(p) for p in out.points]
    _emit_tuple(args, out, {"dim": out.dim, "points": points}, [f"dim {out.dim}"])
    return 0


def _cmd_rank(args):
    inp = ConvolutionInput(_load(args.left), _load(args.right))
    value = rank_formula(inp)
    ok = rank_formula_applicable(inp)
    payload = {"rank": value, "precondition_ok": ok}
    human = [f"rank {value}"]
    if not ok:
        human.append("warning: neither stalk stabilizer is trivial")
    _emit(args, payload, human)
    return 0


def _cmd_check_conv(args):
    res = is_convolution_sheaf(_load(args.tuple))
    human = ["pass" if res.ok else "fail"]
    witness = None
    if res.witness:
        cond, i, tau = res.witness
        witness = {"condition": cond, "entry": i, "tau": str(tau)}
        human.append(f"violated ({cond}) at entry {i} with tau = {tau}")
    return _emit_verdict(args, res, {"convolution_sheaf": res.ok}, witness, human)


def _cmd_irred(args):
    T = _load(args.tuple)
    lams = [parse_scalar(tok.strip(), T.field) for tok in args.lambdas.split(",")]
    res = irreducibility_criterion(T, lams)
    text = "irreducible" if res.ok else "inconclusive"
    return _emit_verdict(args, res, {"verdict": text}, res.witness, [text])


def _cmd_jordan(args):
    T = _load(args.tuple)
    data = [jordan_data(M) for M in T.entries]
    payload = {"entries": [str(j) for j in data]}
    human = [f"entry {k + 1}: {j}" for k, j in enumerate(data)]
    _emit(args, payload, human)
    return 0


def _cmd_predict(args):
    needed = ({"tuple": "--tuple", "lam": "--lambda"} if args.infinity
              else {"left": "--left", "right": "--right"})
    missing = [opt for dest, opt in needed.items() if getattr(args, dest) is None]
    if missing:
        mode = "predict --infinity" if args.infinity else "predict"
        raise InputError(f"{mode} needs {' and '.join(missing)}")
    if args.infinity:
        T = _load(args.tuple)
        lam = parse_scalar(args.lam, T.field)
        jd = predict_infinity_jordan(T, lam)
        _emit(args, {"infinity": str(jd)}, [f"infinity: {jd}"])
        return 0
    inp = ConvolutionInput(_load(args.left), _load(args.right))
    table = predict_local_jordan(inp)
    points = inp.loop_points()
    payload = {}
    human = []
    for (i, j), jd in sorted(table.items()):
        pt = points[i, j]
        payload[f"{i},{j}"] = {"point": str(pt), "jordan": str(jd)}
        human.append(f"({i},{j}) at {pt}: {jd}")
    _emit(args, payload, human)
    return 0


def _cmd_braid(args):
    T = _load(args.tuple)
    word = parse_braid_word(args.word, T.r)
    _emit_tuple(args, braid_act(T, word), {}, [])
    return 0


def _cmd_cohomology(args):
    T = _load(args.tuple)
    e, u = map(len, cohomology_spaces(T))
    h = T.r * T.dim            # dim H_T = r dim V, see cohomology_spaces
    payload = {"dim_H": h, "dim_E": e, "dim_U": u, "h1": h - e, "parabolic": u - e,
               "rank_formula": parabolic_rank_formula(T)}
    _emit(args, payload, [f"dim H_T = {h}, dim E_T = {e}, dim U_T = {u}",
                          f"dim H^1 = {h - e}, dim H^1_p = {u - e}",
                          f"rank formula gives {payload['rank_formula']}"])
    return 0


def _cmd_equiv(args):
    res = equivalence(_load(args.a), _load(args.b))
    text = {True: "equivalent", False: f"not equivalent: {res.witness}",
            None: "inconclusive: the invariants agree, but no conjugator was found"}[res.ok]
    return _emit_verdict(args, res, {"equivalent": res.ok}, res.witness, [text])


def _cmd_reduce(args):
    out = _load(args.tuple, args.mod)
    _emit_tuple(args, out, {"field": str(out.field)}, [])
    return 0


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
    _emit(args, payload, human)
    return 0


def _cmd_primitivity(args):
    bound, primitive = primitivity_bound(_load(args.tuple, args.mod))
    _emit(args, {"bound": str(bound), "primitive": primitive},
          [f"bound {bound}", "primitive" if primitive else "possibly imprimitive"])
    return 0


def _parse_fibre(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fibre --z {text!r}") from None


def _cmd_k3(args):
    if args.k3cmd in ("count", "trace"):
        z = _parse_fibre(args.z)
        rec = count_record(args.q, z)
        payload = {"q": rec.q, "N": rec.N, "z": str(z)}
        if args.k3cmd == "count":
            human = [f"N({rec.q}) = {rec.N}"]
            if z == 1:
                payload["trace"] = str(rec.trace)
                human.append(f"t_{rec.q} = {rec.trace}")
        elif z == 1:
            payload, human = {"q": rec.q, "trace": str(rec.trace)}, [str(rec.trace)]
        else:
            payload.update(note="trace formula asserted only at z = 1",
                           trace_if_formula_held=str(rec.trace))
            human = [f"N({rec.q}) = {rec.N} at z = {z}",
                     f"trace formula asserted only at z = 1; formal value {rec.trace}"]
        _emit(args, payload, human)
    elif args.k3cmd == "frob":
        data = frobenius_eigenvalues(args.p)
        payload = {"p": data.p, "u": str(data.u), "d": str(data.d),
                   "s3": data.s3, "s_minus1": data.s_minus1,
                   "alpha": data.eigenvalue_text, "verified": data.verified}
        _emit(args, payload,
              [f"alpha_{data.p} = {data.eigenvalue_text}",
               f"eigenvalues (alpha, 1/alpha, {data.s3:+d}); verified: {data.verified}"])
    else:  # nsdet
        c0, c1, c2 = intersection_matrix_det()
        payload = {"det": f"{c2}*x^2+{c1}*x+{c0}", "coeffs": [c0, c1, c2]}
        human = [f"det = {c2}*x^2 + {c1}*x + {c0}"]
        if args.x is not None:
            val = c0 + c1 * args.x + c2 * args.x * args.x
            payload["value_at_x"] = val
            human.append(f"value at x = {args.x}: {val}")
        _emit(args, payload, human)
    return 0


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
    _emit(args, payload, human)
    return 0 if report.checks_passed else 1


def _cmd_fixtures(args):
    if args.fixcmd == "list":
        names = fixtures.fixture_names()
        _emit(args, {"fixtures": names}, names)
        return 0
    name = args.name
    if name in fixtures.TABLE_FIXTURES:
        table = fixtures.TABLE_FIXTURES[name]
        _emit(args, {k: v for k, v in table.items()},
              [f"{k}: {v}" for k, v in table.items()])
        return 0
    _emit_tuple(args, _load(f"fixture:{name}"), {}, [])
    return 0


# -- parser ---------------------------------------------------------------------

def _attached(what: str, example: str) -> str:
    """Help text of a scalar option: argparse reads a separate "-2/3" as an option."""
    return f"{what}; a negative value must be attached with '=', for example {example}"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # no default: a subcommand's own --json must not reset one given before it
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    ap = argparse.ArgumentParser(
        prog="midconv",
        description="Exact middle convolution of monodromy tuples, "
                    "finite-group reduction, and K3 point counting.",
        parents=[common])
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("convolve", _cmd_convolve, help="middle convolution of two tuples")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")

    p = add("mcl", _cmd_mcl, help="Katz MC_lambda via Pochhammer matrices")
    p.add_argument("--tuple", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help=_attached("the scalar lambda", "--lambda=-1/2"))
    p.add_argument("--out")

    p = add("rank", _cmd_rank, help="rank formula for a convolution")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("check-conv", _cmd_check_conv, help="convolution-sheaf conditions")
    p.add_argument("--tuple", required=True)

    p = add("irred", _cmd_irred, help="irreducibility criterion")
    p.add_argument("--tuple", required=True)
    p.add_argument("--lambdas", required=True,
                   help=_attached("comma-separated scalars of the rank-one factor",
                                  "--lambdas=-1,2"))

    p = add("jordan", _cmd_jordan, help="Jordan data of every entry")
    p.add_argument("--tuple", required=True)

    p = add("predict", _cmd_predict, help="predicted local Jordan data")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--infinity", action="store_true")
    p.add_argument("--tuple")
    p.add_argument("--lambda", dest="lam",
                   help=_attached("the scalar lambda", "--lambda=-1/2"))

    p = add("braid", _cmd_braid, help="act by a braid word")
    p.add_argument("--tuple", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--out")

    p = add("cohomology", _cmd_cohomology, help="H/E/U dimensions")
    p.add_argument("--tuple", required=True)

    p = add("equiv", _cmd_equiv, help="equivalence up to simultaneous conjugacy")
    p.add_argument("a")
    p.add_argument("b")

    p = add("reduce", _cmd_reduce, help="reduce a tuple mod ell")
    p.add_argument("--tuple", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--out")

    p = add("group", _cmd_group, help="closure order and invariant form")
    p.add_argument("--tuple", required=True)
    p.add_argument("--mod", type=int)
    p.add_argument("--cap", type=_positive_int, default=CLOSURE_CAP,
                   help=f"most elements the closure may list (default {CLOSURE_CAP}); it bounds "
                        "only that enumeration, so an order that O3 recognition "
                        "proves is printed past it")

    p = add("primitivity", _cmd_primitivity, help="primitivity bound")
    p.add_argument("--tuple", required=True)
    p.add_argument("--mod", type=int)

    p = add("k3", _cmd_k3, help="point counts, traces, Frobenius data")
    k3sub = p.add_subparsers(dest="k3cmd", required=True)
    for name in ("count", "trace"):
        sp = k3sub.add_parser(name, parents=[common])
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--z", default="1",
                        help=_attached("the fibre, a rational", "--z=-2/3"))
        sp.set_defaults(fn=_cmd_k3)
    sp = k3sub.add_parser("frob", parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(fn=_cmd_k3)
    sp = k3sub.add_parser("nsdet", parents=[common])
    sp.add_argument("--x", type=int)
    sp.set_defaults(fn=_cmd_k3)

    p = add("demo", _cmd_demo, help="the SL-realization pipeline")
    demosub = p.add_subparsers(dest="democmd", required=True)
    sp = demosub.add_parser("sl", parents=[common])
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--r", type=int, default=4)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_demo)

    p = add("fixtures", _cmd_fixtures, help="embedded reference data")
    fsub = p.add_subparsers(dest="fixcmd", required=True)
    sp = fsub.add_parser("list", parents=[common])
    sp.set_defaults(fn=_cmd_fixtures)
    sp = fsub.add_parser("dump", parents=[common])
    sp.add_argument("--name", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_fixtures)

    return ap


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (InputError, DomainError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
