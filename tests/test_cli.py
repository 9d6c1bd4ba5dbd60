"""The command line: --json documents and exit codes (the contract stated in errors.py)."""

import hashlib
import json
import random
import time

import pytest

from midconv import cli, convolution
from midconv.k3count import MAX_Q
from midconv.linalg import Matrix
from midconv.scalars import FieldDescriptor
from midconv.tupleio import save_tuple

from conftest import PRIMORIAL_9767, SEED, random_tuple
from test_tuples import h_basis_oracle


def _run(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _run_json(capsys, *argv):
    code, out, _err = _run(capsys, *argv, "--json")
    return code, json.loads(out)


@pytest.mark.parametrize("mod, spec, order, recognized, gram", [
    (13, "fixture:V", "4368", "O3(F_13)", "1, 12, 0\n12, 8, 1\n0, 1, 1"),
    (7, "fixture:V", "336", None, "1, 6, 0\n6, 5, 1\n0, 1, 1"),
    (11, "fixture:LstarL", "1320", None, None),
    (5, "fixture:L", "2", None, "1"),
    # past the default cap of the closure; Dickson's theorem proves the order
    (37, "fixture:V", "101232", "O3(F_37)", "1, 36, 0\n36, 20, 1\n0, 1, 1"),
])
def test_group_documents(capsys, mod, spec, order, recognized, gram):
    code, doc = _run_json(capsys, "group", "--mod", str(mod), "--tuple", spec)
    assert code == 0
    assert doc == {"order": order, "absolutely_irreducible": True,
                   "recognized": recognized, "invariant_gram": gram}


def test_group_over_q_takes_the_generic_branch(capsys):
    code, doc = _run_json(capsys, "group", "--cap", "50", "--tuple", "fixture:V")
    assert code == 0
    assert doc["order"] == "exceeds cap"
    assert doc["recognized"] is None


@pytest.mark.parametrize("field, first, second, order", [
    ("finite 2 1", ["0, 1, 0", "1, 0, 0", "0, 0, 1"], ["0, 1, 0", "1, 0, 0", "0, 0, 1"], "2"),
    ("finite 5 1", ["2, 0, 0", "0, 1, 0", "0, 0, 1"], ["3, 0, 0", "0, 1, 0", "0, 0, 1"], "4"),
], ids=["swap over F_2", "diag(2,1,1) over F_5"])
def test_group_of_a_3x3_tuple_without_a_found_form_prints_the_closure_order(
        capsys, tmp_path, field, first, second, order):
    path = _write(tmp_path, "t.txt", field, 3, [first, second])
    code, doc = _run_json(capsys, "group", "--tuple", path)
    assert code == 0
    assert doc == {"order": order, "absolutely_irreducible": False,
                   "recognized": None, "invariant_gram": None}


@pytest.mark.parametrize("cap", ["0", "-3", "x"])
def test_group_cap_below_one_is_a_usage_error(capsys, cap):
    code, out, err = _run(capsys, "group", "--cap", cap, "--tuple", "fixture:V", "--mod", "5")
    assert code == 2 and out == ""
    assert "--cap" in err


@pytest.mark.parametrize("a, b, equivalent, code", [
    ("fixture:V", "fixture:V", True, 0),
    ("fixture:L", "fixture:LstarL", False, 1),
])
def test_equiv_exit_codes(capsys, a, b, equivalent, code):
    witness = "1, 0, 0\n0, 1, 0\n0, 0, 1" if equivalent else "field, dim or r differ"
    method = "scan of Hom(A, B)" if equivalent else "invariants"
    assert _run_json(capsys, "equiv", a, b) == (
        code, {"equivalent": equivalent, "witness": witness, "method": method})


_SHEAF = "invariants and coinvariants of the twisted tuples"
_MARGIN = "(p-2) n - sum dim ker(A_i - 1) > 0"
# two reflections and two rotations of the triangle group, infinity = 1: margin 2
_DIHEDRAL = ("rational", 2, [["0, 1", "1, 0"], ["-1, -1", "0, 1"], ["0, 1", "-1, -1"],
                             ["0, 1", "-1, -1"], ["1, 0", "0, 1"]])
# every Hom basis matrix and prefix sum is singular, so the scan finds no conjugator
_DIAGONAL = ("rational", 3, [["1, 0, 0", "0, 1, 0", "0, 0, 2"],
                             ["1, 0, 0", "0, 1, 0", "0, 0, 1/2"]])


@pytest.mark.parametrize("argv, code, out, doc", [
    (["check-conv", "--tuple", "fixture:V"], 0, "pass\n",
     {"convolution_sheaf": True, "witness": None, "method": _SHEAF}),
    (["check-conv", "--tuple", "fixture:Kummer-1"], 1,
     "fail\nviolated (**) at entry 1 with tau = -1\n",
     {"convolution_sheaf": False, "witness": {"condition": "**", "entry": 1, "tau": "-1"},
      "method": _SHEAF}),
    (["irred", "--tuple", "{dihedral}", "--lambdas=-1"], 0, "irreducible\n",
     {"verdict": "irreducible", "witness": 2, "method": _MARGIN}),
    (["irred", "--tuple", "fixture:L", "--lambdas=-1"], 3, "inconclusive\n",
     {"verdict": "inconclusive", "witness": 0, "method": _MARGIN}),
    (["equiv", "fixture:L", "fixture:L"], 0, "equivalent\n",
     {"equivalent": True, "witness": "1", "method": "scan of Hom(A, B)"}),
    (["equiv", "fixture:V", "fixture:LstarL"], 1,
     "not equivalent: field, dim or r differ\n",
     {"equivalent": False, "witness": "field, dim or r differ", "method": "invariants"}),
    (["equiv", "{diagonal}", "{diagonal}"], 3,
     "inconclusive: the invariants agree, but no conjugator was found\n",
     {"equivalent": None, "witness": None, "method": "scan of Hom(A, B)"}),
], ids=["check-conv-pass", "check-conv-fail", "irred-irreducible", "irred-inconclusive",
        "equiv-yes", "equiv-no", "equiv-inconclusive"])
def test_each_decision_exits_by_its_verdict(capsys, tmp_path, argv, code, out, doc):
    # 0 yes, 1 proved no, 3 inconclusive, in text and in --json
    paths = {"dihedral": _write(tmp_path, "dihedral.txt", *_DIHEDRAL),
             "diagonal": _write(tmp_path, "diagonal.txt", *_DIAGONAL)}
    argv = [arg.format(**paths) for arg in argv]
    assert _run(capsys, *argv) == (code, out, "")
    assert _run_json(capsys, *argv) == (code, doc)


def test_lambda_zero_and_one_name_the_one_precondition(capsys, tmp_path):
    code, out, err = _run(capsys, "predict", "--infinity", "--tuple", "fixture:V",
                          "--lambda=0")
    assert (code, out, err) == (1, "", "PreconditionError: lambda must not be 0\n")
    # the identity at infinity passes the criterion's first check
    path = _write(tmp_path, "t.txt", "rational", 1, [["-1"], ["-1"], ["1"], ["1"]],
                  ["0", "1", "2"])
    code, out, err = _run(capsys, "irred", "--tuple", path, "--lambdas=1")
    assert (code, out, err) == (1, "", "LambdaIsOne: lambda must not be 1\n")


@pytest.mark.parametrize("argv, missing", [
    (["predict", "--left", "fixture:L"], "--right"),
    (["predict", "--infinity"], "--tuple and --lambda"),
])
def test_predict_missing_options_is_an_input_error(capsys, argv, missing):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("InputError:") and missing in err


def test_seed_flag_is_gone(capsys):
    code, _out, _err = _run(capsys, "--seed", "3", "fixtures", "list")
    assert code == 2


_GOOD_TUPLE = "field: rational\ndim: 1\npoints: 0, 1\nmatrix:\n-1\nmatrix:\n-1\nmatrix:\n1\n"


@pytest.mark.parametrize("old, new", [
    ("dim: 1", "dim: x"),
    ("points: 0, 1", "points: a"),
    ("points: 0, 1", "points: 0, 1/0"),
    ("matrix:\n-1\n", "matrix:\n1/0\n"),
    ("field: rational", "field: finite 4 1"),
    ("field: rational", "field: finite 7 x"),
    ("field: rational", "field: cyclotomic 0"),
])
def test_malformed_tuple_file_is_a_parse_error(capsys, tmp_path, old, new):
    path = tmp_path / "bad.txt"
    path.write_text(_GOOD_TUPLE.replace(old, new, 1))
    code, _out, err = _run(capsys, "check-conv", "--tuple", str(path))
    assert code == 2
    assert err.startswith("ParseError:") and "Traceback" not in err


def test_failed_product_relation_stays_a_domain_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(_GOOD_TUPLE.replace("matrix:\n1\n", "matrix:\n2\n"))
    code, _out, err = _run(capsys, "check-conv", "--tuple", str(path))
    assert code == 1 and err.startswith("PreconditionError:")


def test_zero_denominator_lambda_is_a_parse_error(capsys):
    code, _out, err = _run(capsys, "mcl", "--tuple", "fixture:L", "--lambda", "1/0")
    assert code == 2 and err.startswith("ParseError:")


@pytest.mark.parametrize("argv, doc", [
    (["k3", "count", "--q", "25", "--z", "3"], {"q": 25, "N": 700, "z": "3"}),
    (["k3", "count", "--q", "5", "--z=-2/3"], {"q": 5, "N": 27, "z": "-2/3"}),
    (["k3", "frob", "--p", "29"],
     {"p": 29, "u": "25", "d": "-216", "s3": -1, "s_minus1": 1,
      "alpha": "(25+sqrt(-216))/29", "verified": True}),
    (["k3", "trace", "--q", "49"], {"q": 49, "trace": "51"}),
    (["k3", "nsdet"], {"det": "8192*x^2+24576*x+16384", "coeffs": [16384, 24576, 8192]}),
    (["k3", "nsdet", "--x", "2"], {"det": "8192*x^2+24576*x+16384",
                                   "coeffs": [16384, 24576, 8192], "value_at_x": 98304}),
    (["k3", "count", "--q", "5"], {"q": 5, "N": 27, "z": "1", "trace": "-3"}),
    (["k3", "trace", "--q", "7", "--z", "3"],
     {"q": 7, "N": 55, "z": "3", "note": "trace formula asserted only at z = 1",
      "trace_if_formula_held": "13"}),
    # d = 0: the eigenvalue is the rational u / p, not a square root
    (["k3", "frob", "--p", "17"],
     {"p": 17, "u": "17", "d": "0", "s3": -1, "s_minus1": 1, "alpha": "1", "verified": True}),
])
def test_k3_documents(capsys, argv, doc):
    assert _run_json(capsys, *argv) == (0, doc)


@pytest.mark.parametrize("argv, doc", [
    (["primitivity", "--tuple", "fixture:V", "--mod", "11"], {"bound": "3", "primitive": True}),
    (["fixtures", "dump", "--name", "nq-table"],
     {"5": 27, "7": 45, "11": 107, "13": 173, "17": 323, "19": 325, "23": 515, "29": 891}),
])
def test_primitivity_and_fixture_documents(capsys, argv, doc):
    assert _run_json(capsys, *argv) == (0, doc)


def test_the_s3_monomial_tuple_is_imprimitive(capsys, tmp_path):
    # it permutes the two coordinate lines of F_7^2
    path = _write(tmp_path, "s3.txt", "finite 7 1", 2,
                  [["0, 1", "1, 0"], ["2, 0", "0, 4"], ["0, 4", "2, 0"]])
    assert _run_json(capsys, "primitivity", "--tuple", path) == (
        0, {"bound": "1", "primitive": False})


def test_fixture_dump_in_text_mode_prints_the_tuple_file(capsys):
    assert _run(capsys, "fixtures", "dump", "--name", "L") == (
        0, "field: rational\ndim: 1\npoints: -1, 1\nmatrix:\n-1\nmatrix:\n-1\nmatrix:\n1\n", "")


@pytest.mark.parametrize("z", ["abc", "1/0"])
def test_k3_malformed_fibre_is_a_parse_error(capsys, z):
    code, _out, err = _run(capsys, "k3", "count", "--q", "5", "--z", z)
    assert code == 2 and err.startswith("ParseError:")


def test_reduce_mod_two_goes_to_f4(capsys, tmp_path):
    path = tmp_path / "z3.txt"
    path.write_text("field: cyclotomic 3\ndim: 1\nmatrix:\nz\nmatrix:\nz\nmatrix:\nz\n")
    code, doc = _run_json(capsys, "reduce", "--mod", "2", "--tuple", str(path))
    assert code == 0 and doc["field"] == "F_2^2"


def test_reduce_with_a_denominator_divisible_by_ell_is_a_bad_prime(capsys, tmp_path):
    path = tmp_path / "z3.txt"
    path.write_text("field: cyclotomic 3\ndim: 1\nmatrix:\n1/7\nmatrix:\n7\n")
    code, out, err = _run(capsys, "reduce", "--mod", "7", "--tuple", str(path))
    assert code == 1 and out == ""
    assert err.startswith("BadPrime:")


@pytest.mark.parametrize("command", [["reduce"], ["group", "--cap", "50"], ["primitivity"]])
def test_mod_zero_is_reduced_not_ignored(capsys, command):
    code, out, err = _run(capsys, *command, "--mod", "0", "--tuple", "fixture:V")
    assert code == 1 and out == ""
    assert err.startswith("BadPrime:")


@pytest.mark.parametrize("argv", [["k3", "frob", "--p", "5"], ["k3", "nsdet"]])
def test_k3_z_flag_is_gone_where_unused(capsys, argv):
    code, _out, _err = _run(capsys, *argv, "--z", "1")
    assert code == 2


_LSTARL_KUMMER = ("field: rational\ndim: 3\npoints: -2, 0, 2\n"
                  "matrix:\n-1, -4, 4\n0, 1, 0\n0, 0, 1\n"
                  "matrix:\n1, 0, 0\n-2, -1, 2\n0, 0, 1\n"
                  "matrix:\n1, 0, 0\n0, 1, 0\n4, 4, -1\n"
                  "matrix:\n-1, -4, 4\n2, 7, -6\n4, 12, -9\n")
_V_L = ("field: rational\ndim: 6\npoints: -3, -1, 1, 3\n"
        "matrix:\n-3, -12, -24, -2, -4, 4\n0, 1, 0, 0, 0, 0\n0, 0, 1, 0, 0, 0\n"
        "8, 24, 48, 5, 8, -8\n0, 0, 0, 0, 1, 0\n0, 0, 0, 0, 0, 1\n"
        "matrix:\n-1, -8, -16, -2, -4, 4\n-2, -3, -12, -2, -2, 2\n0, 0, 1, 0, 0, 0\n"
        "2, 8, 16, 3, 4, -4\n4, 8, 24, 4, 5, -4\n0, 0, 0, 0, 0, 1\n"
        "matrix:\n1, 0, 0, 0, 0, 0\n0, -1, -8, -2, -2, 2\n-2, -2, -3, -2, -2, 1\n"
        "0, 0, 0, 1, 0, 0\n0, 2, 8, 2, 3, -2\n-8, -8, -16, -8, -8, 5\n"
        "matrix:\n1, 0, 0, 0, 0, 0\n0, 1, 0, 0, 0, 0\n0, 0, -1, -2, -2, 1\n"
        "0, 0, 0, 1, 0, 0\n0, 0, 0, 0, 1, 0\n0, 0, -4, -4, -4, 3\n"
        "matrix:\n-1, -4, -8, 0, 0, 0\n2, 7, 12, 0, 0, 0\n-2, -6, -9, 0, 0, 0\n"
        "-2, -8, -16, -1, -4, 4\n4, 14, 24, 2, 7, -6\n8, 24, 36, 4, 12, -9\n")
_MCL_V = ("field: rational\ndim: 2\npoints: -2, 0, 2\n"
          "matrix:\n1, -4\n0, 1\nmatrix:\n1, 0\n2, 1\n"
          "matrix:\n-3, -4\n4, 5\nmatrix:\n-3, -8\n2, 5\n")
_MCL_LSTARL = ("field: rational\ndim: 3\npoints: -2, 0, 2\n"
               "matrix:\n2, -4, 4\n0, 1, 0\n0, 0, 1\n"
               "matrix:\n1, 0, 0\n4, 2, 2\n0, 0, 1\n"
               "matrix:\n1, 0, 0\n0, 1, 0\n-8, -8, 2\n"
               "matrix:\n1/2, 2, -2\n-1, -7/2, 3\n-2, -6, 9/2\n")


@pytest.mark.parametrize("argv, doc", [
    (["convolve", "--left", "fixture:LstarL", "--right", "fixture:Kummer-1"],
     {"dim": 3, "points": ["-2", "0", "2"], "generic": True, "tuple": _LSTARL_KUMMER}),
    (["convolve", "--left", "fixture:V", "--right", "fixture:L"],
     {"dim": 6, "points": ["-3", "-1", "1", "3"], "generic": False, "tuple": _V_L}),
    (["mcl", "--tuple", "fixture:V", "--lambda", "-1"],
     {"dim": 2, "points": ["-2", "0", "2"], "tuple": _MCL_V}),
    (["mcl", "--tuple", "fixture:LstarL", "--lambda", "2"],
     {"dim": 3, "points": ["-2", "0", "2"], "tuple": _MCL_LSTARL}),
])
def test_convolution_documents(capsys, argv, doc):
    assert _run_json(capsys, *argv) == (0, doc)


def test_transport_leaving_u_is_a_dimension_inconsistency(capsys, monkeypatch):
    real = convolution._carry_back

    def leaky(letters, states, blocks):
        # v + e_1 is never in U: e_1 alone breaks the equation that cuts out H
        rows = real(letters, states, blocks)
        e1 = Matrix.from_rows(rows.field, [[int(k == 0) for k in range(rows.ncols)]] * len(rows))
        return rows + e1

    monkeypatch.setattr(convolution, "_carry_back", leaky)
    code, _out, err = _run(capsys, "convolve", "--left", "fixture:LstarL",
                           "--right", "fixture:Kummer-1")
    assert code == 1
    assert err == "DimensionInconsistency: quotient space is not preserved\n"


def _write(tmp_path, name, field, dim, matrices, points=None):
    lines = [f"field: {field}", f"dim: {dim}"]
    if points is not None:
        lines.append("points: " + ", ".join(points))
    for rows in matrices:
        lines.append("matrix:")
        lines.extend(rows)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_predict_local_outside_the_hypotheses_is_a_precondition_error(capsys, tmp_path):
    # rank prints -1 for this pair, and the predicted blocks outgrow it
    left = _write(tmp_path, "pl.txt", "rational", 2, [["1, 0", "1, 1"], ["1, 0", "-1, 1"]],
                  ["-2"])
    right = _write(tmp_path, "pr.txt", "rational", 2,
                   [["-2, -2", "0, 1"], ["-1/2, -1", "0, 1"]], ["-1"])
    code, out, err = _run(capsys, "predict", "--left", left, "--right", right)
    assert code == 1 and out == ""
    assert err.startswith("PreconditionError: local prediction at entry (1,1)")
    assert "Traceback" not in err


def test_predict_infinity_outside_the_hypotheses_is_a_precondition_error(capsys, tmp_path):
    path = _write(tmp_path, "t.txt", "rational", 2, [["-1, 1", "0, 1"]] * 2)
    code, out, err = _run(capsys, "predict", "--infinity", "--tuple", path, "--lambda=-1")
    assert code == 1 and out == ""
    assert err.startswith("PreconditionError: infinity prediction")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, error", [
    (["k3", "count", "--q=-5"], 1, "PreconditionError:"),
    (["k3", "trace", "--q=-7"], 1, "PreconditionError:"),
    (["fixtures", "dump", "--name", "nope"], 2, "InputError:"),
    (["k3", "count", f"--q={10 ** 400}"], 1, "PreconditionError:"),   # no float square root
])
def test_bad_input_exits_without_a_traceback(capsys, argv, code, error):
    got, out, err = _run(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith(error) and "Traceback" not in err


@pytest.mark.parametrize("argv, q", [(["k3", "count", "--q", "1000003"], 1000003),
                                     (["k3", "frob", "--p", "211"], 211 ** 2),
                                     (["k3", "frob", "--p", "10007"], 10007 ** 2)])
def test_k3_above_the_size_limit_exits_1_at_once(capsys, argv, q):
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith(f"PreconditionError: q (of {len(str(q))} digits) is above the limit "
                          f"MAX_Q = {MAX_Q}")


_M_ABOVE_THE_LIMIT = ("PreconditionError: m is above the limit SL_DEMO_MAX_M = 200: "
                      "it needs r >= 2 + phi(m) > SL_DEMO_MAX_R\n")


def test_sl_demo_with_too_few_points_for_a_large_m_exits_1_at_once(capsys):
    # an m above 200 is refused before it is factored
    start = time.perf_counter()
    code, out, err = _run(capsys, "demo", "sl", "--m", "10000001", "--r", "5")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == _M_ABOVE_THE_LIMIT


def test_sl_demo_never_factors_a_300_digit_m(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, "demo", "sl", "--m", str(10 ** 300 + 1), "--r", "5")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == _M_ABOVE_THE_LIMIT


_SMOOTH = 6983776800                    # 2^5 3^3 5^2 7 11 13 17 19: 2,304 divisors


def _reciprocal_tuple(c):
    """The 1x1 tuple (c, 1/c) and the outputs of jordan, check-conv and predict on it."""
    return (1, [[str(c)], [f"1/{c}"]],
            {"jordan": f"entry 1: J({c},1)\nentry 2: J(1/{c},1)\n",
             "check-conv": f"fail\nviolated (**) at entry 1 with tau = 1/{c}\n",
             "predict": f"infinity: J(-1/{c},1)\n"})


@pytest.mark.parametrize("cmd", [("jordan",), ("check-conv",),
                                 ("predict", "--infinity", "--lambda=-1")])
@pytest.mark.parametrize("dim, rows, outs", [
    _reciprocal_tuple(10 ** 300 + 1),
    (2, [[f"{_SMOOTH}, 0", f"0, 1/{_SMOOTH}"], [f"1/{_SMOOTH}, 0", f"0, {_SMOOTH}"]],
     {"jordan": f"entry 1: J(1/{_SMOOTH},1) + J({_SMOOTH},1)\n"
                f"entry 2: J(1/{_SMOOTH},1) + J({_SMOOTH},1)\n",
      "check-conv": f"fail\nviolated (**) at entry 1 with tau = {_SMOOTH}\n",
      "predict": f"infinity: J(-{_SMOOTH},1) + J(-1/{_SMOOTH},1)\n"}),
    _reciprocal_tuple(10 ** 1000 + 1),
    _reciprocal_tuple(10 ** 2000 + 1),
], ids=["rho-steps", "candidates", "size-1001", "size-2001"])
def test_eigenvalue_search_past_its_budget_exits_1_at_once(capsys, tmp_path, cmd, dim,
                                                           rows, outs):
    # The name and the ids keep the budgets of the divisor search that refused
    # these inputs with exit 1: 10^300 + 1 was not factored within its rho
    # steps, a_0 = a_lead = 6983776800 gave 2 * 2304^2 candidates p/q, and
    # 10^1000 + 1 and 10^2000 + 1 kept a cofactor past 1024 bits.  l-adic
    # lifting answers each.
    path = _write(tmp_path, "t.txt", "rational", dim, rows)
    start = time.perf_counter()
    code, out, err = _run(capsys, *cmd, "--tuple", path)
    assert time.perf_counter() - start < 1.0
    # check-conv proves that (**) fails: exit 1
    assert (code, out, err) == (int(cmd[0] == "check-conv"), outs[cmd[0]], "")


def test_jordan_of_x2_minus_a_4198_digit_primorial_exits_1_at_once(capsys, tmp_path):
    # x^2 - P for P the product of the primes up to 9767: the least prime that
    # divides neither the leading coefficient nor the discriminant 4P is 9769,
    # found without a budget
    path = _write(tmp_path, "t.txt", "rational", 2,
                  [["0, " + str(PRIMORIAL_9767), "1, 0"],
                   ["0, 1", f"1/{PRIMORIAL_9767}, 0"]])
    start = time.perf_counter()
    code, out, err = _run(capsys, "jordan", "--tuple", path)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("DoesNotSplit: ")


_P = 1000003


@pytest.mark.parametrize("dim, rows, out", [
    (1, [["5"], [str(pow(5, -1, _P))]], "entry 1: J(5,1)\nentry 2: J(600002,1)\n"),
    (2, [["2, 1", "0, 3"], [f"{pow(2, -1, _P)}, {-pow(6, -1, _P) % _P}", f"0, {pow(3, -1, _P)}"]],
     "entry 1: J(2,1) + J(3,1)\nentry 2: J(500002,1) + J(666669,1)\n"),
], ids=["reciprocal", "triangular"])
def test_jordan_over_a_million_element_field_stops_when_the_polynomial_splits(
        capsys, tmp_path, dim, rows, out):
    # the diagonal hints deflate the characteristic polynomial to a constant,
    # and the search stops there: it took 4.7 s and 6.0 s when every element
    # of F_1000003 was listed, de-duplicated and sorted first
    path = _write(tmp_path, "t.txt", f"finite {_P} 1", dim, rows)
    start = time.perf_counter()
    code, got, err = _run(capsys, "jordan", "--tuple", path)
    assert time.perf_counter() - start < 1.0
    assert (code, got, err) == (0, out, "")


@pytest.mark.parametrize("argv, error", [
    (["jordan", "--tuple", "{missing}"],
     "FileNotFoundError: [Errno 2] No such file or directory: "),
    (["jordan", "--tuple", "{dir}"], "IsADirectoryError: "),
    (["jordan", "--tuple", "{latin1}"], "ParseError: "),
    (["reduce", "--tuple", "fixture:V", "--mod", "13", "--out", "{dir}"], "IsADirectoryError: "),
], ids=["missing", "directory", "not-utf-8", "out-is-a-directory"])
def test_a_file_that_cannot_be_read_or_written_exits_2_with_one_line(capsys, tmp_path, argv,
                                                                     error):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("field: rational\n# caf\u00e9\n".encode("latin-1"))
    paths = {"missing": tmp_path / "missing.txt", "dir": tmp_path, "latin1": latin1}
    code, out, err = _run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(error) and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("m, need", [(199, 200), (15, 10)])
def test_sl_demo_with_m_up_to_the_limit_names_the_points_it_needs(capsys, m, need):
    # phi(199) = 198 and phi(15) = 8 are the counts of the units mod m
    code, out, err = _run(capsys, "demo", "sl", "--m", str(m), "--r", "5")
    assert code == 1 and out == ""
    assert err == f"PreconditionError: need r >= {need}\n"


def test_check_conv_of_the_kummer_fixture_reports_a_failure_at_r_1_as_double_star(capsys):
    # with r = 1 there is no other entry, and ker(tau T_1 - 1) != 0 is (**)
    code, out, err = _run(capsys, "check-conv", "--tuple", "fixture:Kummer-1")
    assert (code, out, err) == (1, "fail\nviolated (**) at entry 1 with tau = -1\n", "")


def test_k3_error_line_gives_the_size_of_a_huge_q_not_its_digits(capsys):
    code, out, err = _run(capsys, "k3", "count", f"--q={10 ** 400 + 1}")
    assert code == 1 and out == ""
    assert err == "PreconditionError: q (of 401 digits) must be p or p^2\n"


def test_cyclotomic_order_above_the_limit_exits_2(capsys, tmp_path):
    path = _write(tmp_path, "t.txt", "cyclotomic 10000", 1, [["1"]])
    code, out, err = _run(capsys, "cohomology", "--tuple", path)
    assert code == 2 and out == ""
    assert err.startswith("ParseError: cyclotomic order 10000 is above the limit 1000")
    assert "Traceback" not in err


def test_equiv_without_a_conjugator_or_a_proof_is_inconclusive(capsys, tmp_path):
    # every commutant basis matrix and prefix sum is singular, so the scan
    # finds no conjugator, yet the tuple is equivalent to itself
    path = _write(tmp_path, "a.txt", "rational", 3,
                  [["1, 0, 0", "0, 1, 0", "0, 0, 2"], ["1, 0, 0", "0, 1, 0", "0, 0, 1/2"]])
    assert _run_json(capsys, "equiv", path, path) == (
        3, {"equivalent": None, "witness": None, "method": "scan of Hom(A, B)"})
    code, out, _err = _run(capsys, "equiv", path, path)
    assert code == 3 and out.startswith("inconclusive")


def test_equiv_not_equivalent_is_proved_by_commutant_dimensions(capsys, tmp_path):
    # equal characteristic polynomials; dim End is 2 for A and 4 for B
    a = _write(tmp_path, "a.txt", "rational", 2, [["1, 1", "0, 1"], ["1, -1", "0, 1"]])
    b = _write(tmp_path, "b.txt", "rational", 2, [["1, 0", "0, 1"]] * 2)
    assert _run_json(capsys, "equiv", a, b) == (1, {
        "equivalent": False, "witness": "dim Hom(A, B), dim End(A), dim End(B) = 2, 2, 4",
        "method": "invariants"})
    code, out, _err = _run(capsys, "equiv", a, b)
    assert code == 1
    assert out == "not equivalent: dim Hom(A, B), dim End(A), dim End(B) = 2, 2, 4\n"


def test_check_conv_sees_an_eigenvalue_off_the_roots_of_unity(capsys, tmp_path):
    # the eigenvalue z+1 of both entries is neither rational nor a root of
    # unity; it lies on the diagonal
    path = _write(tmp_path, "t.txt", "cyclotomic 4", 2,
                  [["1, 0", "0, z+1"], ["z+1, 0", "1, 1"],
                   ["-1/2*z+1/2, 0", "1/2*z-1/2, -1/2*z+1/2"]], ["0", "1"])
    code, out, _err = _run(capsys, "check-conv", "--tuple", path)
    assert code == 1
    assert out == "fail\nviolated (**) at entry 1 with tau = -1/2*z+1/2\n"


def test_check_conv_finds_an_eigenvalue_from_a_linear_remainder(capsys, tmp_path):
    # the tuple above conjugated by [[1,1],[0,1]] [[1,0],[1,1]]: z+1 is off
    # the diagonal now, and field_roots finds it as the root of a linear factor
    path = _write(tmp_path, "t.txt", "cyclotomic 4", 2,
                  [["-z+1, 2*z", "-z, 2*z+1"], ["2*z+2, -2*z-1", "z+1, -z"],
                   ["0, -1/2*z+1/2", "1/2*z-1/2, -z+1"]], ["0", "1"])
    code, out, _err = _run(capsys, "check-conv", "--tuple", path)
    assert code == 1
    assert out == "fail\nviolated (**) at entry 1 with tau = -1/2*z+1/2\n"


@pytest.mark.parametrize("spec, h, e, u", [
    ("fixture:V", 9, 3, 3), ("fixture:LstarL", 6, 2, 2), ("fixture:L", 2, 1, 1),
    ("fixture:Kummer-1", 1, 1, 1),
])
def test_cohomology_documents(capsys, spec, h, e, u):
    # dim H_T is printed as r dim V; the oracle solves for H_T
    assert len(h_basis_oracle(cli._load(spec))) == h
    assert _run_json(capsys, "cohomology", "--tuple", spec) == (0, {
        "dim_H": h, "dim_E": e, "dim_U": u, "h1": h - e, "parabolic": u - e,
        "rank_formula": u - e})


@pytest.mark.parametrize("argv", [
    ["k3", "trace", "--q", "5"],
    ["cohomology", "--tuple", "fixture:V"],
    ["fixtures", "list"],
])
def test_json_before_and_after_the_subcommand_print_the_same_document(capsys, argv):
    before = _run(capsys, "--json", *argv)
    nested = _run(capsys, *argv[:1], "--json", *argv[1:])
    after = _run(capsys, *argv, "--json")
    assert before == nested == after
    assert before[0] == 0 and isinstance(json.loads(before[1]), dict)
    assert _run(capsys, *argv)[1] != before[1]


def test_python_dash_m_midconv_runs_the_command_line():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "midconv", "demo", "sl", "--m", "3", "--r", "4",
                           "--json"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["checks_passed"] is True


def test_demo_sl_writes_the_pinned_tuple_file(capsys, tmp_path):
    out = tmp_path / "d34.txt"
    code, doc = _run_json(capsys, "demo", "sl", "--m", "3", "--r", "4", "--out", str(out))
    assert code == 0
    assert (doc["rank"], doc["second_entry_homology_order"], doc["checks_passed"]) == (9, 4, True)
    # the digest that benchmarks/workloads.py pins for save_tuple(sl_demo(3, 4).result)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f5b6da03695d3494be4ae752d58fda416edcf3b37b2f48bc77bd028b5b88d20d")


def test_convolve_writes_the_tuple_of_its_document(capsys, tmp_path):
    out = tmp_path / "c.txt"
    code, doc = _run_json(capsys, "convolve", "--left", "fixture:LstarL",
                          "--right", "fixture:Kummer-1", "--out", str(out))
    assert code == 0 and out.read_text() == doc["tuple"] == _LSTARL_KUMMER


def test_a_cyclotomic_1_copy_of_l_is_l(capsys, tmp_path):
    # Q(zeta_1) is Q: equiv proves the copy equivalent to L, and convolve reads it as L
    code, text, _err = _run(capsys, "fixtures", "dump", "--name", "L")
    assert code == 0 and text.startswith("field: rational\n")
    path = tmp_path / "L1.txt"
    path.write_text(text.replace("field: rational", "field: cyclotomic 1"))
    assert _run_json(capsys, "equiv", "fixture:L", str(path)) == (
        0, {"equivalent": True, "witness": "1", "method": "scan of Hom(A, B)"})
    got = _run(capsys, "convolve", "--left", str(path), "--right", "fixture:Kummer-1")
    assert got[0] == 0
    assert got == _run(capsys, "convolve", "--left", "fixture:L", "--right", "fixture:Kummer-1")


_REFUSED = {
    "f7": ("finite 7 1", 1, [["2"], ["4"]], ["0"]),
    "ones": ("rational", 1, [["1"], ["1"], ["1"]], ["0", "1"]),
    "diagonal": ("rational", 2, [["2, 0", "0, 3"], ["1/2, 0", "0, 1/3"], ["1, 0", "0, 1"]],
                 ["0", "1"]),
    "unipotent": ("rational", 2, [["1, 1", "0, 1"], ["1, -1", "0, 1"]], ["5"]),
    "half_t": ("finite 7 2 t^2+1", 1, [["1/2*t"], ["1"]]),
}


@pytest.mark.parametrize("argv, code, error", [
    (["convolve", "--left", "{f7}", "--right", "fixture:L"], 1,
     "FieldMismatch: convolution inputs over different fields"),
    (["irred", "--tuple", "{ones}", "--lambdas=-1"], 1,
     "PreconditionError: left factor is not a convolution sheaf"),
    (["irred", "--tuple", "{diagonal}", "--lambdas=-1"], 1,
     "PreconditionError: left factor is not absolutely irreducible"),
    (["predict", "--left", "fixture:L", "--right", "fixture:L"], 1,
     "PreconditionError: local predictions need a generic divisor sum"),
    (["predict", "--left", "fixture:L", "--right", "{unipotent}"], 1,
     "PreconditionError: right-hand finite entries must be semisimple"),
    (["jordan", "--tuple", "{half_t}"], 2, "ParseError: non-integer coefficient 1/2"),
], ids=["convolve-across-fields", "irred-not-a-sheaf", "irred-reducible",
        "predict-not-generic", "predict-not-semisimple", "fraction-times-t"])
def test_each_refusal_exits_with_its_error(capsys, tmp_path, argv, code, error):
    paths = {name: _write(tmp_path, f"{name}.txt", *spec) for name, spec in _REFUSED.items()}
    got, out, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert (got, out) == (code, "")
    assert err.startswith(error) and err.count("\n") == 1


def test_mcl_on_a_tuple_without_points_keeps_it_without_points(capsys, tmp_path):
    path = _write(tmp_path, "t.txt", "rational", 1, [["2"], ["3"], ["1/6"]])
    code, out, err = _run(capsys, "mcl", "--tuple", path, "--lambda=-1")
    assert code == 0 and err == "" and "points:" not in out
    code, doc = _run_json(capsys, "mcl", "--tuple", path, "--lambda=-1")
    assert code == 0 and doc["points"] is None and doc["dim"] == 2


CONTRACT_FIELDS = [FieldDescriptor.rational(), FieldDescriptor.finite(7),
                   FieldDescriptor.finite(2), FieldDescriptor.finite(5, 2),
                   FieldDescriptor.cyclotomic(3), FieldDescriptor.cyclotomic(4)]


@pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=str)
def test_every_tuple_subcommand_keeps_the_exit_code_contract(capsys, tmp_path, field):
    # random small tuples t (with points), n (without) and k (rank one, with points)
    rng = random.Random(SEED)
    t, n, k = (tmp_path / name for name in ("t.txt", "n.txt", "k.txt"))
    t.write_text(save_tuple(random_tuple(field, rng.randint(1, 2), rng.randint(1, 3), rng, True)))
    n.write_text(save_tuple(random_tuple(field, rng.randint(1, 2), rng.randint(1, 3), rng)))
    k.write_text(save_tuple(random_tuple(field, 1, rng.randint(1, 2), rng, True)))
    t, n, k = map(str, (t, n, k))
    for argv in (["convolve", "--left", t, "--right", k], ["convolve", "--left", n, "--right", k],
                 ["mcl", "--tuple", t, "--lambda=-1"], ["mcl", "--tuple", n, "--lambda=-1"],
                 ["rank", "--left", t, "--right", k], ["check-conv", "--tuple", t],
                 ["irred", "--tuple", t, "--lambdas=-1,2"], ["jordan", "--tuple", n],
                 ["predict", "--left", t, "--right", k],
                 ["predict", "--infinity", "--tuple", n, "--lambda=-1"],
                 ["braid", "--tuple", n, "--word", "b1"], ["cohomology", "--tuple", n],
                 ["equiv", t, n], ["equiv", t, t], ["reduce", "--tuple", t, "--mod", "5"],
                 ["group", "--tuple", n, "--cap", "30"], ["primitivity", "--tuple", t],
                 ["primitivity", "--tuple", n, "--mod", "5"]):
        for extra in ([], ["--json"]):
            code, out, err = _run(capsys, *argv, *extra)
            assert code in (0, 1, 2, 3), (argv, err)
            assert "Traceback" not in err
            if extra and (out or code == 0):
                json.loads(out)                    # one document and nothing else


def test_tuples_without_a_finite_entry_or_a_dimension_exit_1(capsys, tmp_path):
    r0 = _write(tmp_path, "r0.txt", "rational", 1, [["1"]])
    d0 = _write(tmp_path, "d0.txt", "rational", 0, [[]])
    code, out, err = _run(capsys, "mcl", "--tuple", r0, "--lambda=-1")
    assert (code, out, err) == (1, "", "PreconditionError: MC_lambda needs a finite entry\n")
    for argv in (["group", "--tuple", d0], ["equiv", d0, d0], ["cohomology", "--tuple", d0]):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (1, "", "PreconditionError: a tuple needs dim >= 1\n")


@pytest.mark.parametrize("argv", [["jordan", "--tuple", "fixture:nope"],
                                  ["fixtures", "dump", "--name", "nope"]])
def test_an_unknown_fixture_name_is_one_unquoted_input_error(capsys, argv):
    assert _run(capsys, *argv) == (2, "", "InputError: unknown tuple fixture 'nope'\n")


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_stdout_exits_2_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = cli.run(["fixtures", "list"])
    monkeypatch.undo()
    _out, err = capsys.readouterr()
    assert code == 2 and err.startswith("BrokenPipeError:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, lines", [
    (["rank", "--left", "{q111}", "--right", "{q111}"],
     ["rank -2", "warning: neither stalk stabilizer is trivial"]),
    (["k3", "nsdet", "--x", "2"], ["det = 8192*x^2 + 24576*x + 16384", "value at x = 2: 98304"]),
    (["k3", "trace", "--q", "7"], ["3"]),
    (["k3", "trace", "--q", "7", "--z", "3"],
     ["N(7) = 55 at z = 3", "trace formula asserted only at z = 1; formal value 13"]),
    (["k3", "count", "--q", "29"], ["N(29) = 891", "t_29 = 21"]),
    (["k3", "frob", "--p", "17"],
     ["alpha_17 = 1", "eigenvalues (alpha, 1/alpha, -1); verified: True"]),
    (["group", "--tuple", "fixture:V", "--mod", "19"],
     ["order 13680", "absolutely irreducible: True", "recognized: O3(F_19)"]),
], ids=["rank-warning", "k3-nsdet", "k3-trace", "k3-trace-off-z-1", "k3-count", "k3-frob",
        "group-o3"])
def test_human_reports(capsys, tmp_path, argv, lines):
    # the dim-1 tuple (1, 1, 1) over Q at points 0, 1: neither stalk stabilizer is trivial
    q111 = _write(tmp_path, "q111.txt", "rational", 1, [["1"], ["1"], ["1"]], ["0", "1"])
    assert _run(capsys, *(arg.format(q111=q111) for arg in argv)) == (
        0, "".join(line + "\n" for line in lines), "")


def test_convolve_prints_its_dimension_and_points_before_the_tuple(capsys):
    code, out, err = _run(capsys, "convolve", "--left", "fixture:LstarL",
                          "--right", "fixture:Kummer-1")
    assert (code, err) == (0, "")
    assert out == "dim 3 on points -2, 0, 2\n" + _LSTARL_KUMMER
