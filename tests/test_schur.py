import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perisym import (
    LaurentPoly,
    NotDominant,
    NotSymmetric,
    SchurExpansion,
    denominators,
    dominant_weights_with_beads_in,
    schur_expand,
    schur_poly,
)
from perisym.laurent import monomial_orbit_sum
from perisym.schur import alternant
from perisym.weights import rho

import util


class TestSchurPoly:
    def test_trivial_character(self):
        assert schur_poly((0, 0, 0)) == LaurentPoly.one(3)

    def test_standard_n2(self):
        assert schur_poly((1, 0)) == LaurentPoly(2, {(1, 0): 1, (0, 1): 1})

    def test_negative_entries(self):
        assert schur_poly((1, -1)) == LaurentPoly(
            2, {(1, -1): 1, (0, 0): 1, (-1, 1): 1}
        )

    def test_not_dominant(self):
        with pytest.raises(NotDominant):
            schur_poly((0, 1))

    def test_symmetric_output(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 4)
            lam = tuple(sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True))
            assert schur_poly(lam).is_symmetric()

    def test_against_determinant_oracle(self):
        # all dominant weights with entries in [-4, 4], ranks up to 4
        import itertools

        for n in (1, 2, 3, 4):
            for lam in itertools.combinations_with_replacement(range(4, -5, -1), n):
                assert schur_poly(lam) == util.schur_bialternant_oracle(lam)


class TestDenominators:
    def test_empty_products(self):
        assert denominators(1) == (LaurentPoly.one(1), LaurentPoly.one(1))
        assert denominators(0) == (LaurentPoly.one(0), LaurentPoly.one(0))

    def test_single_factor(self):
        r, v = denominators(2)
        assert r == LaurentPoly(2, {(0, 0): 1, (1, 1): -1})
        assert v == LaurentPoly(2, {(1, 0): 1, (0, 1): -1})

    def test_three_pairs(self):
        r3 = denominators(3)[0]
        expected = LaurentPoly.one(3)
        for pair in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
            expected = expected * (1 - LaurentPoly.monomial(3, pair))
        assert r3 == expected

    def test_symmetry_types(self):
        for n in (2, 3, 4):
            r, v = denominators(n)
            assert r.is_symmetric()
            for k in range(1, n):
                assert v.swap_variables(k, k + 1) == -v

    def test_denominator_identity(self):
        # The signed staircase orbit sum equals the Vandermonde product.
        for m in range(0, 7):
            assert alternant(rho(m)) == denominators(m)[1]


class TestSchurExpand:
    def test_constant(self):
        assert schur_expand(LaurentPoly.one(2)) == SchurExpansion(2, {(0, 0): 1})

    def test_inverse_of_schur_poly(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
        assert schur_expand(f) == SchurExpansion(2, {(1, 0): 1})

    def test_power_sum(self):
        f = LaurentPoly(2, {(2, 0): 1, (0, 2): 1})
        assert schur_expand(f) == SchurExpansion(2, {(2, 0): 1, (1, 1): -1})

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            schur_expand(LaurentPoly(2, {(1, 0): 1}))

    def test_roundtrip_window(self):
        # Expanding a Schur polynomial recovers the single coordinate.
        for n in (1, 2, 3, 4):
            for lam in dominant_weights_with_beads_in(n, -5, n + 4):
                assert schur_expand(schur_poly(lam)) == SchurExpansion(n, {lam: 1})

    def test_random_symmetric_roundtrip(self):
        rng = random.Random(24)
        for _ in range(30):
            n = rng.randint(1, 3)
            f = util.random_symmetric(n, rng)
            assert schur_expand(f).to_poly() == f

    def test_expansion_normalizes_zeros(self):
        e = SchurExpansion(2, {(1, 0): 0, (0, 0): 2})
        assert e.coeffs == {(0, 0): 2}
        assert not SchurExpansion(2, {}).coeffs


def peel_expand(f: LaurentPoly) -> SchurExpansion:
    """Reference Schur expansion by peeling: the graded-lex leading
    monomial of a symmetric polynomial is dominant and leads its Schur
    polynomial, so subtracting coef * s_lead strictly lowers the lead."""
    coeffs = {}
    work = f
    while not work.is_zero():
        lead, coef = work.leading_term()
        coeffs[lead] = coef
        work = work - coef * schur_poly(lead)
    return SchurExpansion(f.arity, coeffs)


@st.composite
def symmetric_polys(draw, min_arity=0):
    """Integer combinations of monomial orbit sums, n <= 4, exponents in
    [-3, 3]."""
    n = draw(st.integers(min_arity, 4))
    orbits = st.tuples(*[st.integers(-3, 3)] * n)
    f = LaurentPoly.zero(n)
    for mu, coef in draw(st.lists(st.tuples(orbits, st.integers(-5, 5)), max_size=5)):
        f = f + coef * monomial_orbit_sum(n, mu)
    return f


class TestSchurExpandProperties:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_polys())
    def test_matches_peeling(self, f):
        assert schur_expand(f) == peel_expand(f)

    @settings(max_examples=200, deadline=None)
    @given(symmetric_polys())
    def test_to_poly_roundtrip(self, f):
        assert schur_expand(f).to_poly() == f

    @settings(max_examples=100, deadline=None)
    @given(symmetric_polys(min_arity=2), st.data())
    def test_not_symmetric_raises(self, f, data):
        n = f.arity
        e = data.draw(st.tuples(*[st.integers(-3, 3)] * n).filter(lambda e: e[0] != e[1]))
        with pytest.raises(NotSymmetric):
            schur_expand(f + LaurentPoly.monomial(n, e))
