"""The command line: --json documents and exit codes (0 ok, 1 domain, 2 input)."""

import json

import pytest

from midconv import cli


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


@pytest.mark.parametrize("a, b, equivalent, code", [
    ("fixture:V", "fixture:V", True, 0),
    ("fixture:L", "fixture:LstarL", False, 1),
])
def test_equiv_exit_codes(capsys, a, b, equivalent, code):
    assert _run_json(capsys, "equiv", a, b) == (code, {"equivalent": equivalent})


def test_irred_inconclusive_exits_zero(capsys):
    code, doc = _run_json(capsys, "irred", "--tuple", "fixture:L", "--lambdas", "-1")
    assert (code, doc) == (0, {"verdict": "inconclusive"})


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
    (["k3", "frob", "--p", "29"],
     {"p": 29, "u": "25", "d": "-216", "s3": -1, "s_minus1": 1,
      "alpha": "(25+sqrt(-216))/29", "verified": True}),
    (["k3", "trace", "--q", "49"], {"q": 49, "trace": "51"}),
])
def test_k3_documents(capsys, argv, doc):
    assert _run_json(capsys, *argv) == (0, doc)


@pytest.mark.parametrize("z", ["abc", "1/0"])
def test_k3_malformed_fibre_is_a_parse_error(capsys, z):
    code, _out, err = _run(capsys, "k3", "count", "--q", "5", "--z", z)
    assert code == 2 and err.startswith("ParseError:")


@pytest.mark.parametrize("argv", [["k3", "frob", "--p", "5"], ["k3", "nsdet"]])
def test_k3_z_flag_is_gone_where_unused(capsys, argv):
    code, _out, _err = _run(capsys, *argv, "--z", "1")
    assert code == 2
