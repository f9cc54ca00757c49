"""Both directions of the thin-Kac change of basis.

``thinkac.thin_kac_combination`` writes thin-Kac coordinates as a
polynomial; ``kernel_decompose`` checks that a polynomial lies in the
kernel of the evaluation map and reads its coordinates back.  Both read
the same cached Brauer-Klimyk tables, so the combination is also checked
against R multiplied in one factor at a time.  A zero input takes neither
direction through R, so no factor of R is built at any arity.
"""

import functools
import json
import operator
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import perisym
from perisym import (KClass, LaurentPoly, NotDominant, SchurExpansion, certify, kclass_sch,
                     kernel_decompose)
from perisym import thinkac
from perisym.schur import denominator_factors
from perisym.thinkac import thin_kac_combination
from perisym.weights import parity


@st.composite
def thin_kac_coordinates(draw):
    """Arity 2 to 4 and up to four dominant weights with entries in
    [-2, 2], each with a coefficient in [-3, 3] (zeros included)."""
    n = draw(st.integers(2, 4))
    weight = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))
    return n, draw(st.dictionaries(weight, st.integers(-3, 3), max_size=4))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(thin_kac_coordinates())
    def test_coordinates_to_polynomial_and_back(self, case):
        n, coeffs = case
        assert kernel_decompose(thin_kac_combination(n, coeffs)) == SchurExpansion(n, coeffs)

    def test_one_symmetry_pass(self, monkeypatch):
        f = thin_kac_combination(3, {(1, 0, -1): 2, (0, 0, 0): -1, (2, 1, 1): 3})
        calls = []
        original = LaurentPoly.is_symmetric

        def spy(self):
            calls.append(self.arity)
            return original(self)

        monkeypatch.setattr(LaurentPoly, "is_symmetric", spy)
        kernel_decompose(f)
        assert calls == [3]


@st.composite
def wide_thin_kac_coordinates(draw):
    """Arity 0 to 5 and up to three dominant weights with entries in
    [-2, 3], each with a coefficient in [-3, 3] (zeros included)."""
    n = draw(st.integers(0, 5))
    weight = st.lists(st.integers(-2, 3), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))
    return n, draw(st.dictionaries(weight, st.integers(-3, 3), max_size=3))


def product_with_r(n, coeffs):
    """The parity-signed Schur sum multiplied by the factors of R one at a
    time."""
    signed = {lam: -c if parity(lam) else c for lam, c in coeffs.items()}
    return functools.reduce(operator.mul, denominator_factors(n)[0],
                            SchurExpansion(n, signed).to_poly())


class TestAgainstTheProduct:
    @settings(max_examples=60, deadline=None)
    @given(wide_thin_kac_coordinates())
    @example((5, {(3, 3, 0, -2, -2): -3, (1, 1, 1, 1, 1): 2}))
    @example((4, {(3, 1, 0, -2): 0, (0, 0, 0, 0): 0}))
    @example((3, {}))
    @example((1, {(3,): 2, (-2,): -1}))
    @example((0, {(): 3}))
    def test_equals_the_factor_by_factor_product(self, case):
        n, coeffs = case
        assert thin_kac_combination(n, coeffs) == product_with_r(n, coeffs)


class TestBadCoordinatesReadNoTable:
    @pytest.mark.parametrize("coeffs", [{(1, 0): 1}, {(0, 1, 2): 1}],
                             ids=["short_weight", "increasing_weight"])
    def test_raises_and_leaves_the_tables(self, monkeypatch, coeffs):
        # Tables are cached by weight alone: a table for (1, 0) built from
        # the factors of R in three variables would answer later calls in two.
        monkeypatch.delitem(thinkac._brauer_klimyk_cache, (1, 0), raising=False)
        before = dict(thinkac._brauer_klimyk_cache)
        with pytest.raises(NotDominant):
            thin_kac_combination(3, coeffs)
        assert thinkac._brauer_klimyk_cache == before
        assert thin_kac_combination(2, {(1, 0): 1}) == LaurentPoly(
            2, {(0, 1): -1, (1, 0): -1, (1, 2): 1, (2, 1): 1})


@pytest.fixture
def factor_calls(monkeypatch):
    """Arities passed to ``denominator_factors`` by either direction."""
    calls = []
    original = thinkac.denominator_factors

    def spy(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(thinkac, "denominator_factors", spy)
    return calls


class TestZeroSkipsR:
    def test_zero_input_builds_no_factor(self, factor_calls):
        zero = LaurentPoly.zero(4)
        assert kernel_decompose(zero) == SchurExpansion(4)
        assert thin_kac_combination(4, {}) == zero
        assert thin_kac_combination(4, {(1, 0, 0, 0): 0}) == zero
        assert kclass_sch(KClass(4)) == zero
        assert certify(zero).validate() == zero
        assert factor_calls == []

    def test_nonzero_input_builds_the_factors(self, factor_calls):
        f = thin_kac_combination(4, {(1, 0, 0, -1): 1})
        assert kernel_decompose(f) == SchurExpansion(4, {(1, 0, 0, -1): 1})
        assert factor_calls == [4, 4]

    def test_zero_certificate_at_huge_arity(self, factor_calls):
        cert = certify(LaurentPoly.zero(2500))
        assert len(cert.levels) == 1250
        assert cert.bottom == LaurentPoly.zero(0)
        assert cert.validate() == LaurentPoly.zero(2500)
        assert factor_calls == []


def run_cli_limited(*argv):
    """``perisym.cli.main(argv)`` in a fresh interpreter whose address
    space is capped at 2 GB, so a regression that builds the factors of
    R at a huge arity fails with MemoryError instead of exhausting the
    host.  Returns the exit code and stdout."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, 2 * 1024 ** 3))

    code = "import sys; from perisym.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(perisym.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=300)
    return done.returncode, done.stdout


ZERO_1500 = json.dumps({"n": 1500, "terms": []})


class TestZeroAtHugeArityThroughTheCli:
    def test_kernel_decompose(self):
        code, out = run_cli_limited("kernel-decompose", "--n", "1500", "-f", ZERO_1500)
        assert code == 0
        assert json.loads(out) == {"n": 1500, "coeffs": [], "basis": "thinkac"}

    def test_certify(self):
        code, out = run_cli_limited("certify", "--n", "1500", "-f", ZERO_1500)
        assert code == 0
        levels = json.loads(out)["levels"]
        assert [level["rank"] for level in levels] == list(range(1500, 0, -2))
        assert all(level["kernel"]["coeffs"] == [] and level["lift"]["terms"] == []
                   for level in levels)
