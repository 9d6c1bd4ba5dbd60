"""Fuzzed text inputs: every parser fails with InputError or DomainError only.

The parsers are `load_tuple`, `parse_scalar`, `parse_braid_word` and
`parse_field`.  Any other exception escaping one of them is a parser defect.
Numbers in field descriptions stay at three digits or fewer: tabulating
Q(zeta_n) costs time that grows with n (about 10 s at n = 10^4 on one core
of a 2-vCPU host), a matter of size, not of the exceptions watched here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midconv.errors import DomainError, InputError
from midconv.fixtures import m_tuple
from midconv.linalg import Matrix
from midconv.scalars import FieldDescriptor, parse_scalar
from midconv.tupleio import load_tuple, parse_field, save_tuple
from midconv.tuples import MonodromyTuple, parse_braid_word

FIELDS = [FieldDescriptor.rational(), FieldDescriptor.finite(7),
          FieldDescriptor.finite(7, 2), FieldDescriptor.cyclotomic(4),
          FieldDescriptor.cyclotomic(12)]
SCALAR_ALPHABET = "0123456789zt+-*/^ .eE_x()"


def _only_input_or_domain_errors(fn, *args):
    try:
        fn(*args)
    except (InputError, DomainError):
        pass


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(text=st.text(alphabet=SCALAR_ALPHABET, max_size=25))
def test_parse_scalar_fuzz(field, text):
    _only_input_or_domain_errors(parse_scalar, text, field)


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet="b0123456789^-1 \t+x", max_size=30), r=st.integers(1, 6))
def test_parse_braid_word_fuzz(text, r):
    _only_input_or_domain_errors(parse_braid_word, text, r)


_FIELD_TOKENS = st.one_of(
    st.sampled_from(["rational", "cyclotomic", "finite", "t^2+1", "t^2+t+1", "t^2+4",
                     "z^2+1", "t^3", "1/2*t^2", "t^2+1.5", "-", "0"]),
    st.integers(-3, 400).map(str),
    st.text(alphabet="rationlcyfe^tz+-*/. ", max_size=6))


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(_FIELD_TOKENS, max_size=5))
def test_parse_field_fuzz(tokens):
    _only_input_or_domain_errors(parse_field, " ".join(tokens))


def _documents():
    Z4, F49 = FieldDescriptor.cyclotomic(4), FieldDescriptor.finite(7, 2)
    z, t = Z4.zeta(1), F49.gen()
    diag = [Matrix.from_rows(fld, [[a, 0], [0, a.inverse()]])
            for fld, a in ((Z4, z), (F49, t))]
    tuples = [m_tuple(),
              MonodromyTuple.make(Z4, [diag[0], diag[0].inverse()], [0]),
              MonodromyTuple.make(F49, [diag[1], diag[1].inverse()], None)]
    return [save_tuple(T) for T in tuples]


DOCUMENTS = _documents()
BODY_ALPHABET = "0123456789-/,:z^t \n#abcdefimnoprstx"


@st.composite
def _mutated_documents(draw):
    """A valid document with up to four edits after its field line."""
    head, body = draw(st.sampled_from(DOCUMENTS)).split("\n", 1)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(body)))
        op = draw(st.sampled_from(["insert", "delete", "replace", "line"]))
        if op == "insert":
            body = body[:i] + draw(st.sampled_from(BODY_ALPHABET)) + body[i:]
        elif op == "delete":
            body = body[:i] + body[i + 1:]
        elif op == "replace":
            body = body[:i] + draw(st.sampled_from(BODY_ALPHABET)) + body[i + 1:]
        else:                       # drop or repeat one line
            lines = body.split("\n")
            k = i % len(lines)
            lines[k:k + 1] = [] if draw(st.booleans()) else [lines[k]] * 2
            body = "\n".join(lines)
    return head + "\n" + body


@settings(max_examples=300, deadline=None)
@given(text=_mutated_documents())
def test_load_tuple_fuzz(text):
    _only_input_or_domain_errors(load_tuple, text)


@pytest.mark.parametrize("parse", [
    lambda digits: parse_scalar(digits, FIELDS[0]),
    lambda digits: parse_scalar("z^" + digits, FIELDS[3]),
    lambda digits: parse_scalar("3*t^" + digits, FIELDS[2]),
    lambda digits: parse_braid_word("b" + digits, 3),
    lambda digits: parse_field("cyclotomic " + digits),
    lambda digits: load_tuple("field: rational\ndim: " + digits + "\nmatrix:\n1\n"),
], ids=["scalar", "z exponent", "t exponent", "braid index", "field", "dim"])
def test_numbers_past_the_int_digit_limit_do_not_escape(parse):
    # int() refuses strings of more than 4300 digits with a ValueError
    _only_input_or_domain_errors(parse, "1" * 5000)
