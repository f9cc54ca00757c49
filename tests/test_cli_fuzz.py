"""Malformed JSON payloads never crash the CLI.

Payloads go inline through ``perisym.cli.main``, the entry point of
``tests/test_cli.py``.  Each is a well-formed polynomial with one thing
broken (a wrong type, a float, a missing key, a huge integer, a ragged
``exp``), a JSON object of arbitrary values, or text that is not JSON.
Every run must end with exit code 0, 1 or 2.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from perisym.cli import main

HUGE = st.one_of(st.integers(min_value=2**63), st.integers(max_value=-(2**63)),
                 st.just(10**40))
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6), HUGE, st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8,
)

# Command lines, each with the payload's arity it expects.  The lift
# search is capped so that a payload that happens to be valid stays cheap.
COMMANDS = [
    (lambda p: ["member", "-f", p], 2),
    (lambda p: ["kernel-decompose", "--n", "2", "-f", p], 2),
    (lambda p: ["lift", "--n", "4", "-h", p, "--max-window", "6"], 2),
    (lambda p: ["certify", "--n", "2", "-f", p, "--max-window", "6"], 2),
]


def valid_payload(n: int) -> dict:
    return {"n": n, "terms": [{"exp": [1] * n, "coef": "1"},
                              {"exp": [0] * n, "coef": -1}]}


@st.composite
def broken_payload(draw, n):
    data = valid_payload(n)
    term = data["terms"][draw(st.integers(0, 1))]
    kind = draw(st.sampled_from([
        "n", "terms", "term", "exp", "exp_entry", "ragged", "coef", "drop", "drop_term_key",
        "duplicate", "huge_exp", "huge_coef",
    ]))
    if kind == "n":
        data["n"] = draw(st.one_of(JUNK, st.integers(-3, 6), st.just(str(n))))
    elif kind == "terms":
        data["terms"] = draw(JUNK)
    elif kind == "term":
        data["terms"][0] = draw(JUNK)
    elif kind == "exp":
        term["exp"] = draw(JUNK)
    elif kind == "exp_entry":
        term["exp"][draw(st.integers(0, n - 1))] = draw(JUNK)
    elif kind == "ragged":
        term["exp"] = draw(st.lists(st.integers(-3, 3), max_size=6).filter(
            lambda exp: len(exp) != n))
    elif kind == "coef":
        term["coef"] = draw(st.one_of(JUNK, st.just("2.5"), st.just("1e3"), st.just(" 1")))
    elif kind == "drop":
        del data[draw(st.sampled_from(["n", "terms"]))]
    elif kind == "drop_term_key":
        del term[draw(st.sampled_from(["exp", "coef"]))]
    elif kind == "duplicate":
        data["terms"].append(dict(term))
    elif kind == "huge_exp":
        # Off the diagonal: (x1 x2)^B - 1 is a valid kernel element whose
        # quotient by R has B terms (see test_huge_diagonal_exponent).
        term["exp"] = [draw(HUGE)] + [0] * (n - 1)
    else:
        term["coef"] = draw(st.one_of(HUGE, HUGE.map(str)))
    return json.dumps(data)


def any_object():
    return st.dictionaries(st.sampled_from(["n", "terms", "exp", "coef", "x"]),
                           JSON_VALUES, max_size=3).map(json.dumps)


def not_json():
    return st.text(max_size=20).map(lambda text: "{" + text)


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestMalformedPayloads:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(COMMANDS).flatmap(
        lambda cmd: st.tuples(st.just(cmd[0]), st.one_of(
            broken_payload(cmd[1]), any_object(), not_json()))))
    def test_exit_code_is_0_1_or_2(self, case):
        command, payload = case
        assert run_quietly(command(payload)) in (0, 1, 2)

    def test_huge_diagonal_exponent(self):
        payload = json.dumps({"n": 2, "terms": [{"exp": [2**63, 2**63], "coef": "1"},
                                                {"exp": [0, 0], "coef": "-1"}]})
        assert run_quietly(["member", "-f", payload]) == 0
        assert run_quietly(["lift", "--n", "4", "-h", payload]) == 0

    def test_huge_arity_member_returns(self):
        payload = json.dumps({"n": 10**30, "terms": []})
        assert run_quietly(["member", "-f", payload]) == 0
