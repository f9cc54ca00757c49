"""Thin-Kac coordinates by the Brauer-Klimyk peel, against the route that
divides by R: exact division by the factors of R, straightening of the
quotient, then the parity sign.  Also the cached tables the peel reads
(Schur expansions of orbit sums and of R * s_lam) against independent
expansions, and the distinct orbit arrangements above the table arity
against the full expansion."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from perisym import LaurentPoly, monomial_orbit_sum, schur_expand, schur_poly
from perisym.errors import NotDivisible
from perisym.laurent import _arrangements, _divide_by_binomials, _from_orbits
from perisym.schur import (SchurExpansion, _alternant_coefficients, _orbit_schur,
                           _schur_coefficients, denominator_factors, denominators)
from perisym.thinkac import (_brauer_klimyk, _expanded, _parity_signed,
                             _thin_kac_coordinates, thin_kac_combination)


def divided_coordinates(f):
    """The route the peel replaced: divide f by R's factors, straighten
    the quotient, parity-sign."""
    if f.is_zero():
        return SchurExpansion(f.arity)
    quotient = _divide_by_binomials(f, denominator_factors(f.arity)[0])
    return SchurExpansion(f.arity, _parity_signed(_alternant_coefficients(quotient)))


def dominant(n, lo=-2, hi=2):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))


@st.composite
def coordinates(draw, min_arity=0, max_arity=5):
    """An arity and up to four dominant weights with entries in [-2, 2],
    each with a coefficient in [-3, 3] (zeros included)."""
    n = draw(st.integers(min_arity, max_arity))
    return n, draw(st.dictionaries(dominant(n), st.integers(-3, 3), max_size=4))


def orbit_sums(n):
    """Up to five orbit sums of dominant weights with entries in [-2, 2],
    coefficients in [-3, 3]: a symmetric polynomial in n variables."""
    return st.dictionaries(dominant(n), st.integers(-3, 3), max_size=5).map(
        lambda coeffs: _from_orbits(n, coeffs))


def symmetric(min_arity=0, max_arity=5):
    return st.integers(min_arity, max_arity).flatmap(orbit_sums)


class TestAgainstDivision:
    @settings(max_examples=80, deadline=None)
    @given(coordinates())
    @example((4, {(1, 0, 0, -1): 1}))
    @example((2, {(0, 0): 0}))
    def test_kernel_elements(self, case):
        n, coeffs = case
        f = thin_kac_combination(n, coeffs)
        assert _thin_kac_coordinates(f) == divided_coordinates(f) == SchurExpansion(n, coeffs)

    @settings(max_examples=60, deadline=None)
    @given(coordinates(min_arity=2))
    def test_kernel_element_plus_one_is_refused_by_both(self, case):
        n, coeffs = case
        f = thin_kac_combination(n, coeffs) + LaurentPoly.one(n)
        with pytest.raises(NotDivisible):
            divided_coordinates(f)
        with pytest.raises(NotDivisible):
            _thin_kac_coordinates(f)

    @settings(max_examples=80, deadline=None)
    @given(coordinates(min_arity=2, max_arity=4).flatmap(
        lambda case: st.tuples(st.just(case), orbit_sums(case[0]))))
    def test_symmetric_inputs_agree(self, drawn):
        """Either both routes refuse, or both return the same coordinates."""
        (n, coeffs), extra = drawn
        f = thin_kac_combination(n, coeffs) + extra
        try:
            expected = divided_coordinates(f)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                _thin_kac_coordinates(f)
        else:
            assert _thin_kac_coordinates(f) == expected

    def test_guard_stops_a_peel_below_the_exponents(self):
        # Without the guard, 1 at n = 2 peels (-1, -1), (-2, -2), ... forever.
        with pytest.raises(NotDivisible):
            _thin_kac_coordinates(LaurentPoly.one(2))
        with pytest.raises(NotDivisible):
            _thin_kac_coordinates(LaurentPoly.monomial(2, (3, 3)))


class TestTables:
    @settings(max_examples=150, deadline=None)
    @given(symmetric(max_arity=6))
    @example(LaurentPoly.zero(0))
    @example(LaurentPoly.one(0))
    @example(monomial_orbit_sum(6, (2, 1, 1, 0, 0, -2)))
    def test_schur_coefficients_are_the_nonzero_alternant_coefficients(self, f):
        expected = {lam: c for lam, c in _alternant_coefficients(f).items() if c}
        assert _schur_coefficients(f) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5).flatmap(dominant))
    @example((0, 0))
    @example((2, 2, 2, 2, 2))
    def test_brauer_klimyk_is_the_expansion_of_r_times_s_lam(self, lam):
        n = len(lam)
        table = _brauer_klimyk(lam, _expanded(denominator_factors(n)[0]))
        assert dict(table) == schur_expand(denominators(n)[0] * schur_poly(lam)).coeffs

    def test_cached_tables_are_read_only(self):
        orbit = _orbit_schur((1, 0, 0))
        with pytest.raises(TypeError):
            orbit[(5, 0, 0)] = 1
        translated = _orbit_schur((2, 1, 1))
        with pytest.raises(TypeError):
            translated[(2, 1, 1)] = 0
        table = _brauer_klimyk((1, 0, -1), _expanded(denominator_factors(3)[0]))
        with pytest.raises(TypeError):
            table[(3, 2, 1)] = 7
        with pytest.raises(TypeError):
            del table[next(iter(table))]


class TestArrangementsAboveTheTables:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(7, 9).flatmap(
        lambda n: st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(tuple)))
    @example((0,) * 9)
    @example((2, 2, 1, 0, 0, 0, -1))
    @example((1, 0, 1, 0, 1, 0, 1, 0))
    def test_match_the_full_expansion_in_order(self, mu):
        assert list(_arrangements(mu)) == list(dict.fromkeys(itertools.permutations(mu)))

    def test_repeated_entries_at_arity_twelve(self):
        # The full expansion would walk 12! permutations.
        assert monomial_orbit_sum(12, (0,) * 12) == LaurentPoly.one(12)
        pairs = monomial_orbit_sum(12, (1, 1) + (0,) * 10)
        assert len(pairs) == 66 and set(pairs.terms.values()) == {1}
