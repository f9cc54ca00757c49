import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perisym import (
    LaurentPoly,
    NotDominant,
    NotSymmetric,
    SchurExpansion,
    denominators,
    dominant_weights_with_beads_in,
    euler_characteristic,
    euler_ds_power,
    schur_expand,
    schur_poly,
)
from perisym.laurent import monomial_orbit_sum, permutations_with_signs
from perisym.schur import _kostka_cache, _schur_cache, alternant, denominator_factors
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


def reference_schur_by_division(lam) -> LaurentPoly:
    """s_lam by the bialternant route: the alternant of mu + rho, for the
    partition mu = lam - lam_n, divided exactly by the C(n,2) factors
    x_i - x_j of the Vandermonde, then shifted by (x_1...x_n)^{lam_n}."""
    n = len(lam)
    if n == 0:
        return LaurentPoly.one(0)
    shift = lam[-1]
    quotient = alternant([a - shift + r for a, r in zip(lam, rho(n))])
    for factor in denominator_factors(n)[1]:
        quotient = quotient.exact_divide(factor)
    return times_power_of_product(quotient, shift)


def times_power_of_product(f: LaurentPoly, c: int) -> LaurentPoly:
    """(x_1...x_n)^c * f, shifting every exponent, so no product code runs."""
    return LaurentPoly(f.arity, {tuple(e + c for e in exps): coef
                                 for exps, coef in f.terms.items()})


def weyl_dimension(lam) -> int:
    """prod_{i<j} (lam_i - lam_j + j - i) / (j - i)."""
    n = len(lam)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert out.denominator == 1
    return out.numerator


def dominant_weights(max_arity: int, low: int, high: int):
    """Weakly decreasing weights of arity 0..max_arity with entries in
    [low, high]."""
    return st.integers(0, max_arity).flatmap(
        lambda n: st.lists(st.integers(low, high), min_size=n, max_size=n)
    ).map(lambda entries: tuple(sorted(entries, reverse=True)))


def fresh_schur_poly(lam) -> LaurentPoly:
    """schur_poly computed now, not read from the cache: the Kostka table
    of lam's translation class is dropped too, so the branching
    recursion runs again."""
    lam = tuple(lam)
    _schur_cache.pop(lam, None)
    _kostka_cache.pop(tuple(e - lam[-1] for e in lam), None)
    return schur_poly(lam)


class TestSchurPolyBranching:
    @settings(max_examples=150, deadline=None)
    @given(dominant_weights(6, -3, 4))
    def test_matches_division_reference(self, lam):
        assert fresh_schur_poly(lam) == reference_schur_by_division(lam)

    @settings(max_examples=150, deadline=None)
    @given(dominant_weights(6, -4, 5))
    def test_value_at_ones_is_weyl_dimension(self, lam):
        poly = fresh_schur_poly(lam)
        assert sum(poly.terms.values()) == weyl_dimension(lam)
        assert all(c > 0 for c in poly.terms.values())

    def test_arity_zero(self):
        assert fresh_schur_poly(()) == LaurentPoly.one(0)

    def test_arity_one_is_a_monomial(self):
        for a in (-3, 0, 1, 4):
            assert fresh_schur_poly((a,)) == LaurentPoly.monomial(1, (a,))

    def test_all_equal_is_a_power_of_the_product(self):
        for n in range(1, 7):
            for a in (-2, 0, 3):
                assert fresh_schur_poly((a,) * n) == LaurentPoly.monomial(n, (a,) * n)

    def test_shift_multiplies_by_the_product(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 5)
            lam = tuple(sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True))
            c = rng.randint(-5, 5)
            shifted = tuple(a + c for a in lam)
            assert fresh_schur_poly(shifted) == times_power_of_product(fresh_schur_poly(lam), c)


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


def reference_alternant(nu) -> LaurentPoly:
    """The alternant as first written: every signed permuted monomial
    added into one dict, zeros dropped as they appear."""
    n = len(nu)
    terms = {}
    for perm, sign in permutations_with_signs(n):
        exps = tuple(nu[p] for p in perm)
        new = terms.get(exps, 0) + sign
        if new:
            terms[exps] = new
        else:
            del terms[exps]
    return LaurentPoly(n, terms)


exponent_vectors = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple))


class TestAlternant:
    @settings(max_examples=200, deadline=None)
    @given(exponent_vectors)
    def test_matches_accumulating_reference(self, nu):
        assert alternant(nu) == reference_alternant(nu)

    @settings(max_examples=100, deadline=None)
    @given(exponent_vectors.filter(lambda nu: len(nu) >= 2), st.data())
    def test_repeated_entry_gives_zero(self, nu, data):
        i, j = data.draw(st.lists(st.integers(0, len(nu) - 1), min_size=2, max_size=2,
                                  unique=True))
        nu = list(nu)
        nu[j] = nu[i]
        assert alternant(nu).is_zero()


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


# -- SchurExpansion.to_poly, against the sum of Schur polynomials -----------


def reference_to_poly(expansion: SchurExpansion) -> LaurentPoly:
    """sum_lam c_lam s_lam, one Schur polynomial per weight, as to_poly
    computed it before it summed Kostka tables."""
    out = LaurentPoly.zero(expansion.arity)
    for lam, coef in expansion.coeffs.items():
        out = out + coef * schur_poly(lam)
    return out


@st.composite
def schur_expansions(draw, max_arity=5):
    """Combinations of up to four weights of arity 0..max_arity, entries
    in [-3, 4], coefficients in [-3, 3], zero included.  When a second
    weight nu has K(lam, nu) != 0 for the first weight lam, it may get the
    coefficient -c * K(lam, nu), so that the summed Kostka table cancels
    at nu."""
    n = draw(st.integers(0, max_arity))
    weights = st.lists(st.integers(-3, 4), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))
    coeffs = dict(draw(st.lists(st.tuples(weights, st.integers(-3, 3)), max_size=4)))
    if coeffs and draw(st.booleans()):
        lam, c = next(iter(coeffs.items()))
        nu = draw(weights)
        kostka = schur_poly(lam).terms.get(nu, 0)
        if nu != lam and kostka:
            coeffs[nu] = -c * kostka
    return SchurExpansion(n, coeffs)


class TestSummedExpansion:
    @settings(max_examples=200, deadline=None)
    @given(schur_expansions())
    @example(SchurExpansion(2, {(2, 0): 1, (1, 1): -1}))
    # s_(2,1,0) has coefficient 2 at x^(1,1,1), which 2 s_(1,1,1) cancels.
    @example(SchurExpansion(3, {(2, 1, 0): 1, (1, 1, 1): -2}))
    def test_matches_sum_of_schur_polys(self, expansion):
        poly = expansion.to_poly()
        assert poly == reference_to_poly(expansion)
        assert all(poly.terms.values())

    def test_arity_zero(self):
        assert SchurExpansion(0, {(): 3}).to_poly() == LaurentPoly.constant(0, 3)

    def test_arity_one(self):
        expansion = SchurExpansion(1, {(2,): 4, (-1,): -3})
        assert expansion.to_poly() == LaurentPoly(1, {(2,): 4, (-1,): -3})

    def test_zero_expansion(self):
        for n in range(6):
            poly = SchurExpansion(n, {}).to_poly()
            assert poly.is_zero()
            assert poly.arity == n

    def test_euler_characteristic_leaves_schur_cache_unchanged(self):
        cases = (((9, 5, -2, -7), (3, 2, 1, 0)),
                 ((6, 6, -5, -5), (1, 1, 0, 0)),
                 ((8, 3, -6), (2, 1, 0)))
        ds_case = ((7, 7, -4, -4), (0, 0, -1, -1))
        # Uncache the expansions' weights, so that building any s_lam
        # on the way would show up as a new key.
        for lam, gamma in cases + (ds_case,):
            for weight in euler_characteristic(lam, gamma)[1].coeffs:
                _schur_cache.pop(weight, None)
        before = dict(_schur_cache)
        for lam, gamma in cases:
            euler_characteristic(lam, gamma)
        euler_ds_power(*ds_case, 1)
        assert _schur_cache.keys() == before.keys()
        assert all(_schur_cache[lam] is poly for lam, poly in before.items())
