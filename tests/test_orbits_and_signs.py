"""The alternant straightening and orbit-writing kernels against
independent references: an O(n^2) inversion count for the sign, and the
set of all permutations for the orbit sums."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from perisym import LaurentPoly, monomial_orbit_sum, straighten_alternant
from perisym.laurent import _from_orbits, _permutation_sign, sort_sign


def reference_sort_sign(values):
    """Count the pairs out of strictly decreasing order, one by one."""
    vals = tuple(values)
    sign = 1
    for a in range(len(vals)):
        for b in range(a + 1, len(vals)):
            if vals[a] == vals[b]:
                return None
            if vals[a] < vals[b]:
                sign = -sign
    return sign, tuple(sorted(vals, reverse=True))


def reference_straighten(nu):
    res = reference_sort_sign(nu)
    if res is None:
        return None
    sign, desc = res
    n = len(desc)
    return sign, tuple(desc[i] - (n - 1 - i) for i in range(n))


def reference_orbit_terms(mu, coef=1):
    return {perm: coef for perm in set(itertools.permutations(mu))}


# Entries in a small range, so that collisions are common.
small_words = st.lists(st.integers(-3, 3), max_size=6).map(tuple)


class TestSortSign:
    @settings(max_examples=500, deadline=None)
    @given(small_words)
    @example(())
    @example((4,))
    @example((2, 2))
    @example((5, 4, 3, 2, 1, 0))
    @example((0, 1, 2, 3, 4, 5))
    def test_matches_inversion_count(self, values):
        assert sort_sign(values) == reference_sort_sign(values)
        assert sort_sign(iter(values)) == reference_sort_sign(values)

    @settings(max_examples=500, deadline=None)
    @given(small_words)
    @example(())
    @example((-7,))
    @example((1, 1, 0))
    @example((0, 1, 2, 3, 4, 5))
    def test_straighten_matches_reference(self, nu):
        assert straighten_alternant(nu) == reference_straighten(nu)

    @pytest.mark.parametrize("n", range(0, 10))
    def test_every_small_permutation(self, n):
        if n > 6:
            perms = itertools.islice(itertools.permutations(range(n)), 0, None, 997)
        else:
            perms = itertools.permutations(range(n))
        for perm in perms:
            assert sort_sign(perm) == reference_sort_sign(perm)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
    def test_permutation_sign_matches_inversion_count(self, perm):
        """Table lookups up to arity 6, cycle counts above."""
        perm = tuple(perm)
        inversions = sum(perm[a] > perm[b]
                         for a in range(len(perm)) for b in range(a + 1, len(perm)))
        assert _permutation_sign(perm) == (-1) ** inversions


class TestOrbits:
    @settings(max_examples=500, deadline=None)
    @given(small_words)
    @example(())
    @example((3,))
    @example((1, 1, 1, 1, 1, 1))
    @example((0, 0, 0, 0, -1, -1))
    @example((5, 3, 1, 0, -2, -4))
    @example((2, 2, 1, 0, 0, 0, -1))
    def test_monomial_orbit_sum_matches_set_of_permutations(self, mu):
        assert monomial_orbit_sum(len(mu), mu) == LaurentPoly(len(mu), reference_orbit_terms(mu))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.dictionaries(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
            lambda w: tuple(sorted(w, reverse=True))),
        st.integers(-5, 5), max_size=6).map(lambda coeffs: (n, coeffs))))
    def test_from_orbits_matches_set_of_permutations(self, case):
        n, coeffs = case
        expected = {}
        for mu, coef in coeffs.items():
            if coef:
                expected.update(reference_orbit_terms(mu, coef))
        assert _from_orbits(n, coeffs) == LaurentPoly(n, expected)

    @settings(max_examples=300, deadline=None)
    @given(small_words)
    @example((2, 2, 1, 2))
    @example((1, 0, 1, 0, 1, 0))
    @example((0, 1, 0, 2, 1, 0, 0))
    def test_terms_follow_first_appearance_in_permutations(self, mu):
        """Term insertion order is the one the full expansion had, so
        anything iterating over the terms sees them in the same order."""
        got = list(monomial_orbit_sum(len(mu), mu).terms)
        assert got == list(dict.fromkeys(itertools.permutations(mu)))
