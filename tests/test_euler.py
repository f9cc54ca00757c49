import hashlib
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perisym
from perisym import euler, thinkac
from perisym import (
    LaurentPoly,
    LeviIncompatible,
    SchurExpansion,
    denominators,
    ds_eval,
    ds_power,
    euler_characteristic,
    euler_ds_power,
    membership,
    radical_roots,
)
from perisym.laurent import permutations_with_signs, straighten_alternant
from perisym.weights import rho

import util


def root(n, entries):
    out = [0] * n
    for idx, val in entries:
        out[idx] += val
    return tuple(out)


class TestRadicalRoots:
    def test_block_parabolic_n4(self):
        datum = radical_roots((0, 0, -1, -1))
        even = {root(4, [(i, 1), (j, -1)]) for i in (0, 1) for j in (2, 3)}
        assert set(datum.even_radical) == even
        odd = {root(4, [(i, -1), (j, -1)]) for i in range(4) for j in range(i + 1, 4)
               if j >= 2}
        assert set(datum.odd_radical) == odd
        assert datum.blocks == ((1, 2), (3, 4))

    def test_zero_weight(self):
        datum = radical_roots((0, 0, 0))
        assert datum.even_radical == ()
        assert datum.odd_radical == ()
        assert datum.blocks == ((1, 2, 3),)

    def test_rank_two(self):
        datum = radical_roots((0, -1))
        assert set(datum.even_radical) == {(1, -1)}
        assert set(datum.odd_radical) == {(-1, -1)}

    def test_doubled_roots_counted(self):
        datum = radical_roots((1, 0))
        # pairings: e1+e2 -> 1, 2e1 -> 2 positive; -e1-e2 -> -1 negative
        assert set(datum.odd_radical) == {(1, 1), (2, 0)}


class TestEulerCharacteristic:
    def test_diagonal_line_bundle(self):
        for a in (0, 1, 2, -1):
            poly, expansion = euler_characteristic((a, a), (0, 0))
            assert poly == LaurentPoly(2, {(a, a): 1})
            assert expansion.coeffs == {(a, a): 1}

    def test_block_preimage_n4(self):
        for a in (0, 1, 2):
            poly, _ = euler_characteristic((a, a, 0, 0), (0, 0, -1, -1))
            assert ds_eval(poly) == denominators(2)[0]

    def test_levi_incompatible(self):
        with pytest.raises(LeviIncompatible):
            euler_characteristic((1, 0, 0, 0), (0, 0, -1, -1))

    def test_levi_zero_sum_pair(self):
        # gamma pairs positions 1 and 2 through an odd Levi root
        with pytest.raises(LeviIncompatible):
            euler_characteristic((1, -1, 0), (1, -1, -2))
        poly, _ = euler_characteristic((1, 1, 0), (1, -1, -2))
        assert membership(poly).member

    def test_member(self):
        rng = random.Random(51)
        for _ in range(12):
            n = rng.choice((2, 3))
            gamma = tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True))
            # group indices forced equal by the Levi: equal gamma entries
            # and zero-sum gamma pairs
            component = list(range(n))

            def find(i):
                while component[i] != i:
                    component[i] = component[component[i]]
                    i = component[i]
                return i

            for i in range(n):
                for j in range(i + 1, n):
                    if gamma[i] == gamma[j] or gamma[i] + gamma[j] == 0:
                        component[find(i)] = find(j)
            values = {}
            lam = tuple(values.setdefault(find(i), rng.randint(-2, 2))
                        for i in range(n))
            poly, _ = euler_characteristic(lam, gamma)
            assert membership(poly).member

    def test_w_sum_oracle(self):
        # Literal orbit sum of x^lam * prod(1 - x^-alpha) over the group,
        # cleared to the common Vandermonde denominator.
        cases = [
            ((0, 0), (0, -1)),
            ((1, 1), (0, -1)),
            ((0, 0, 0), (0, -1, -1)),
            ((2, 2, 0), (0, 0, -1)),
            ((1, 1, 1), (0, 0, -1)),
        ]
        for lam, gamma in cases:
            n = len(lam)
            datum = radical_roots(gamma)
            staircase = rho(n)
            numerator = LaurentPoly.monomial(
                n, tuple(lam[i] + staircase[i] for i in range(n))
            )
            for alpha in datum.odd_radical:
                numerator = numerator * (
                    1 - LaurentPoly.monomial(n, [-a for a in alpha])
                )
            signed_orbit = LaurentPoly.zero(n)
            for perm, sign in permutations_with_signs(n):
                signed_orbit = signed_orbit + sign * util.permute_poly(numerator, perm)
            oracle = signed_orbit.exact_divide(denominators(n)[1])
            assert oracle == euler_characteristic(lam, gamma)[0]


class TestEulerDsPower:
    def test_agrees_with_literal_composition(self):
        grid = [(n, k, a) for n in (2, 3, 4) for k in range(1, n // 2 + 1)
                for a in (0, 1, 2)]
        grid.append((5, 2, 1))
        for n, k, a in grid:
            gamma = tuple(0 if i < 2 * k else -1 for i in range(n))
            lam = tuple(a if i < 2 * k else 0 for i in range(n))
            literal = ds_power(euler_characteristic(lam, gamma)[0], k)
            assert euler_ds_power(lam, gamma, k) == literal

    def test_k_zero_is_materialization(self):
        lam, gamma = (1, 1, 0, 0), (0, 0, -1, -1)
        assert euler_ds_power(lam, gamma, 0) == euler_characteristic(lam, gamma)[0]

    def test_block_targets(self):
        for n in (4, 5, 6):
            for k in range(1, n // 2 + 1):
                gamma = tuple(0 if i < 2 * k else -1 for i in range(n))
                lam = tuple(1 if i < 2 * k else 0 for i in range(n))
                assert euler_ds_power(lam, gamma, k) == denominators(n - 2 * k)[0]

    def test_levi_guard(self):
        with pytest.raises(LeviIncompatible):
            euler_ds_power((1, 0, 0, 0), (0, 0, -1, -1), 1)


def reference_straightened(lam, gamma) -> SchurExpansion:
    """The Schur expansion of the Euler characteristic as computed before
    the Euler module shared the Schur module's straightening: expand
    x^(lam + rho) * prod_alpha (1 - x^-alpha) and straighten each term."""
    datum = radical_roots(gamma)
    n = datum.arity
    numerator = LaurentPoly.monomial(n, tuple(lam[i] + (n - 1 - i) for i in range(n)))
    for alpha in datum.odd_radical:
        numerator = numerator * (LaurentPoly.one(n) - LaurentPoly.monomial(n, [-a for a in alpha]))
    coeffs = {}
    for exps, coef in numerator.terms.items():
        res = straighten_alternant(exps)
        if res is None:
            continue
        sign, mu = res
        new = coeffs.get(mu, 0) + sign * coef
        if new:
            coeffs[mu] = new
        else:
            del coeffs[mu]
    return SchurExpansion(n, coeffs)


@st.composite
def levi_compatible(draw):
    """(lam, gamma) with n <= 4 and entries in [-2, 2], lam constant on
    each class of indices the Levi ties together: equal gamma entries and
    zero-sum gamma pairs."""
    n = draw(st.integers(1, 4))
    gamma = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    component = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if gamma[i] == gamma[j] or gamma[i] + gamma[j] == 0:
                old, new = component[j], component[i]
                component = [new if c == old else c for c in component]
    values = {c: draw(st.integers(-2, 2)) for c in sorted(set(component))}
    return tuple(values[c] for c in component), gamma


@settings(max_examples=100, deadline=None)
@given(levi_compatible())
def test_euler_matches_reference_straightening(case):
    lam, gamma = case
    poly, expansion = euler_characteristic(lam, gamma)
    assert expansion == reference_straightened(lam, gamma)
    # Only a decreasing gamma gives a supersymmetric result, on which the
    # evaluation map is defined.
    if list(gamma) == sorted(gamma, reverse=True):
        for k in range(1, len(lam) // 2 + 1):
            assert euler_ds_power(lam, gamma, k) == ds_power(poly, k)


# -- the factorized route: gamma weakly decreasing with all entries <= 0 ---


@st.composite
def dual_cauchy_family(draw):
    """(lam, gamma) with n <= 6: gamma is b zeros followed by a weakly
    decreasing tail in [-3, -1] (b = 0 and b = n included), and lam is a
    on the zero block and, on the tail, constant on each block of equal
    gamma entries with values in [-2, 2] drawn per block, so the tail
    need not be dominant."""
    n = draw(st.integers(1, 6))
    b = draw(st.integers(0, n))
    tail = sorted(draw(st.lists(st.integers(-3, -1), min_size=n - b, max_size=n - b)),
                  reverse=True)
    values = {g: draw(st.integers(-2, 2)) for g in sorted(set(tail))}
    a = draw(st.integers(-2, 2))
    return (a,) * b + tuple(values[g] for g in tail), (0,) * b + tuple(tail)


@settings(max_examples=100, deadline=None)
@given(dual_cauchy_family())
@example(((0, 2, 0, -1), (-1, -2, -3, -4)))  # b = 0, tail not dominant
@example(((1, 1, 1, 1, 1, 1), (0,) * 6))  # b = n
@example(((2, 2, -1, 0, 1), (0, 0, -1, -2, -3)))  # increasing tail
@example(((0, 0, 1, 1, 2, 2), (0, 0, -1, -1, -2, -2)))  # tail blocks
def test_factorized_route_matches_reference_straightening(case):
    lam, gamma = case
    poly, expansion = euler_characteristic(lam, gamma)
    assert expansion == reference_straightened(lam, gamma)
    assert poly == expansion.to_poly()


@pytest.fixture
def mul_calls(monkeypatch):
    """Arities of the operands of every ``LaurentPoly.__mul__`` call."""
    calls = []
    original = LaurentPoly.__mul__

    def spy(self, other):
        calls.append(self.arity)
        return original(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", spy)
    return calls


class TestNoNumeratorProduct:
    @pytest.mark.parametrize("lam, gamma", [
        ((3, 3, 1, 0, -1), (0, 0, -1, -2, -3)),
        ((0, 2, 0, -1), (-1, -2, -3, -4)),
        ((2, 2, 2), (0, 0, 0)),
        ((5, 5, 5, 5, 0, 0), (0, 0, 0, 0, -1, -1)),
    ])
    def test_family_multiplies_nothing(self, mul_calls, lam, gamma):
        euler_characteristic(lam, gamma)
        assert mul_calls == []

    def test_positive_entry_expands_the_numerator(self, mul_calls):
        euler_characteristic((1, 0, 1, -1), (1, 0, -1, -2))
        assert mul_calls


def test_tables_are_keyed_by_translation_class():
    # Shifting lam by c * 1 shifts every coordinate by c and adds no table.
    lam, gamma = (2, 2, 1, 0, -1), (0, 0, -1, -2, -3)
    base = euler_characteristic(lam, gamma)[1]
    sizes = len(euler._tail_cache), len(thinkac._brauer_klimyk_cache)
    for c in (-1000, 7, 31337):
        shifted = euler_characteristic(tuple(e + c for e in lam), gamma)[1]
        assert shifted.coeffs == {tuple(e + c for e in mu): coef
                                  for mu, coef in base.coeffs.items()}
    assert (len(euler._tail_cache), len(thinkac._brauer_klimyk_cache)) == sizes


def run_limited(code: str, cap_mb: int) -> subprocess.CompletedProcess:
    """``python -c code`` in a fresh interpreter whose address space is
    capped at ``cap_mb`` MB, so a route that builds a large polynomial
    fails with MemoryError instead of exhausting the host."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_mb * 1024 ** 2, cap_mb * 1024 ** 2))

    env = dict(os.environ, PYTHONPATH=str(Path(perisym.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, preexec_fn=cap, timeout=300)


def test_rank_eight_coordinates_in_bounded_memory():
    # The Schur coordinates of E_1(0) at n = 8.  The numerator route
    # multiplies out a 1,588,544-term product and peaks near 500 MB;
    # the digest was recorded from it.
    code = ("import json; from perisym import serialize; from perisym.euler import _expansion; "
            "e = _expansion((0,) * 8, (0, 0, -1, -2, -3, -4, -5, -6)); "
            "print(json.dumps(serialize.schur_to_dict(e), sort_keys=True, separators=(',', ':')))")
    done = run_limited(code, 256)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.strip().encode()).hexdigest() == (
        "e4b9c27f3d525e5a7844c911ef42ef90a5b085ed319abb7e9ae5635b70c7fd03")
