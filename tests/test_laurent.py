import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from perisym import (
    ArityMismatch,
    BadIndices,
    LaurentPoly,
    NotDivisible,
    monomial_orbit_sum,
    straighten_alternant,
)
from perisym.laurent import _divide_by_heap, grlex_key
from perisym.schur import denominator_factors, denominators, schur_poly

import util


def P(n, terms):
    return LaurentPoly(n, terms)


x1 = P(1, {(1,): 1})


class TestRingOps:
    def test_difference_of_squares(self):
        assert (1 + x1) * (1 - x1) == P(1, {(0,): 1, (2,): -1})

    def test_odd_root_product_n2(self):
        n = 2
        prod = LaurentPoly.one(n)
        for i in range(n):
            for j in range(i + 1, n):
                e = [0] * n
                e[i] = 1
                e[j] = 1
                prod = prod * (1 - LaurentPoly.monomial(n, e))
        assert prod == P(2, {(0, 0): 1, (1, 1): -1})

    def test_inverse_monomial(self):
        m = P(2, {(1, 1): 1})
        assert m * m ** -1 == LaurentPoly.one(2)

    def test_scalar_and_sub(self):
        f = P(2, {(1, 0): 2})
        assert 3 * f - f == f + f
        assert f - f == LaurentPoly.zero(2)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            x1 + LaurentPoly.one(2)
        with pytest.raises(ArityMismatch):
            x1 * LaurentPoly.one(2)

    def test_pow_negative_nonunit(self):
        with pytest.raises(NotDivisible):
            (1 + x1) ** -1

    def test_arity_zero_ring(self):
        a = LaurentPoly.constant(0, 5)
        b = LaurentPoly.constant(0, -2)
        assert (a * b).constant_value() == -10
        assert (a + b).constant_value() == 3

    def test_canonical_serialization(self):
        rng = random.Random(1)
        for _ in range(50):
            f = util.random_poly(3, rng)
            g = util.random_poly(3, rng)
            lhs = f + g
            rhs = g + f
            assert lhs == rhs
            assert lhs.sorted_terms() == rhs.sorted_terms()

    def test_grlex_order(self):
        f = P(2, {(1, 1): 1, (2, 0): 1, (0, 0): 1, (-1, 0): 1})
        assert [e for e, _ in f.sorted_terms()] == [(2, 0), (1, 1), (0, 0), (-1, 0)]
        assert grlex_key((2, 0)) > grlex_key((1, 1)) > grlex_key((0, 0))


class TestSubstitutePair:
    def test_pair_to_constant(self):
        s = P(2, {(1, 1): 1}).substitute_pair(1, 2)
        assert s.terms == {(0, ()): 1}

    def test_t_plus_tinv(self):
        s = P(2, {(1, 0): 1, (0, 1): 1}).substitute_pair(1, 2)
        assert s.terms == {(1, ()): 1, (-1, ()): 1}

    def test_reduced_variable_kept_in_order(self):
        s = P(3, {(1, 0, 1): 1}).substitute_pair(1, 2)
        assert s.terms == {(1, (1,)): 1}

    def test_bad_indices(self):
        with pytest.raises(BadIndices):
            P(2, {(1, 0): 1}).substitute_pair(1, 1)
        with pytest.raises(BadIndices):
            P(2, {(1, 0): 1}).substitute_pair(0, 2)
        with pytest.raises(ArityMismatch):
            x1.substitute_pair(1, 2)

    def test_slice_multiplicative(self):
        rng = random.Random(2)
        for _ in range(40):
            f = util.random_poly(3, rng)
            g = util.random_poly(3, rng)
            lhs = (f * g).substitute_pair(1, 3)
            rhs = f.substitute_pair(1, 3) * g.substitute_pair(1, 3)
            assert lhs == rhs

    def test_t_witness_is_largest(self):
        s = P(2, {(1, 0): 1, (0, 1): 1}).substitute_pair(1, 2)
        assert s.t_witness() == (1, ())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-3, 3), max_size=8),
        st.permutations(range(1, n + 1)))))
    def test_every_pair_against_reference(self, case):
        """Every ordered pair, the evaluation pair (n-1, n) included,
        against slices built by deleting the two positions from a list."""
        n, terms, (i, j, *_) = case
        f = P(n, terms)
        for pair in ((i, j), (n - 1, n), (n, n - 1)):
            expected = {}
            for exps, coef in f.terms.items():
                rest = [e for pos, e in enumerate(exps, start=1) if pos not in pair]
                key = (exps[pair[0] - 1] - exps[pair[1] - 1], tuple(rest))
                expected[key] = expected.get(key, 0) + coef
            assert f.substitute_pair(*pair).terms == {k: c for k, c in expected.items() if c}


class TestExactDivide:
    def test_geometric_factor(self):
        f = P(1, {(0,): 1, (2,): -1})
        g = P(1, {(0,): 1, (1,): -1})
        assert f.exact_divide(g) == P(1, {(0,): 1, (1,): 1})

    def test_constructed_product(self):
        r = P(2, {(0, 0): 1, (1, 1): -1})
        s = P(2, {(1, 0): 1, (0, 1): 1})
        assert (-(r * s)).exact_divide(r) == -s

    def test_units_differ(self):
        with pytest.raises(NotDivisible):
            (1 + x1).exact_divide(1 - x1)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            x1.exact_divide(LaurentPoly.zero(1))

    def test_zero_dividend(self):
        assert LaurentPoly.zero(1).exact_divide(1 + x1) == LaurentPoly.zero(1)

    def test_coefficient_not_divisible(self):
        with pytest.raises(NotDivisible):
            P(1, {(0,): 3}).exact_divide(P(1, {(0,): 2}))

    def test_roundtrip_200_random_pairs(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.choice((1, 2, 3))
            f = util.random_poly(n, rng)
            g = util.random_nonzero_poly(n, rng)
            assert (f * g).exact_divide(g) == f

    def test_laurent_shift_handling(self):
        f = P(2, {(-2, 1): 1, (-1, 2): 1})
        g = P(2, {(-1, 0): 1, (0, 1): 1})
        assert f.exact_divide(g) == P(2, {(-1, 1): 1})

    @pytest.mark.parametrize("divisor", [2.0, "x", None])
    @pytest.mark.parametrize("dividend", [1 + x1, LaurentPoly.zero(1)])
    def test_non_polynomial_divisor_is_a_type_error(self, dividend, divisor):
        # The same error type as the ring operations give for the operand.
        with pytest.raises(TypeError):
            dividend + divisor
        with pytest.raises(TypeError):
            dividend.exact_divide(divisor)


class TestSymmetry:
    def test_symmetric_sum(self):
        assert P(2, {(1, 0): 1, (0, 1): 1}).is_symmetric()

    def test_antisymmetric_difference(self):
        assert not P(2, {(1, 0): 1, (0, 1): -1}).is_symmetric()

    def test_orbit_sum_two_elements(self):
        assert monomial_orbit_sum(2, (2, 1)) == P(2, {(2, 1): 1, (1, 2): 1})

    def test_orbit_sum_is_symmetric(self):
        rng = random.Random(4)
        for _ in range(20):
            mu = tuple(rng.randint(-3, 3) for _ in range(4))
            assert monomial_orbit_sum(4, mu).is_symmetric()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple),
                        st.integers(-2, 2), max_size=3),
        st.dictionaries(st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple),
                        st.integers(-2, 2), max_size=2))))
    @example((3, {}, {(2, 1, 0): 1, (1, 0, 2): 1, (0, 2, 1): 1}))  # cyclic only
    @example((3, {}, {(1, 1, 0): 1}))  # fixed by swapping x1 and x2 only
    @example((3, {(2, 1, 0): 1}, {(2, 1, 0): 1, (0, 1, 2): -1}))
    @example((4, {(1, 1, 0, 0): 2, (2, 0, -1, -1): 1}, {}))
    def test_agrees_with_every_permutation(self, case):
        # Orbit sums plus a few stray terms; the reference applies every
        # permutation of the variables.
        n, orbits, stray = case
        f = P(n, stray)
        for mu, coef in orbits.items():
            f = f + coef * monomial_orbit_sum(n, mu)
        expected = all(util.permute_poly(f, perm) == f
                       for perm in itertools.permutations(range(n)))
        assert f.is_symmetric() == expected

    def test_orbit_sum_arity_check(self):
        with pytest.raises(ArityMismatch):
            monomial_orbit_sum(2, (1, 2, 3))


class TestStraightenAlternant:
    def test_already_staircase(self):
        assert straighten_alternant((1, 0)) == (1, (0, 0))

    def test_one_transposition(self):
        assert straighten_alternant((0, 1)) == (-1, (0, 0))

    def test_repeat_vanishes(self):
        assert straighten_alternant((1, 1)) is None

    def test_against_brute_antisymmetrization(self):
        # Straightening must agree with full signed symmetrization of the
        # monomial followed by exact Vandermonde division.
        rng = random.Random(5)
        for _ in range(120):
            n = rng.choice((1, 2, 3))
            nu = tuple(rng.randint(-3, 5) for _ in range(n))
            brute = util.antisymmetrize(LaurentPoly.monomial(n, nu))
            res = straighten_alternant(nu)
            if res is None:
                assert brute.is_zero()
            else:
                sign, lam = res
                quotient = brute.exact_divide(denominators(n)[1])
                assert quotient == sign * schur_poly(lam)


# -- the two-term path of exact_divide, against the heap division -----------


@st.composite
def poly_and_binomial(draw):
    """A random f and a two-term g of one of the shapes the library
    divides by (x_i - x_j, 1 - x_i x_j, t - t^-1) or a non-unit one
    such as 2x - 3y, in 1 to 4 variables."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    f = LaurentPoly(n, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6)))
    shape = draw(st.sampled_from(
        ("vandermonde", "odd_root", "t_pair", "general") if n >= 2
        else ("t_pair", "general")))
    if shape in ("vandermonde", "odd_root"):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        xi, xj = LaurentPoly.variable(n, i), LaurentPoly.variable(n, j)
        g = xi - xj if shape == "vandermonde" else 1 - xi * xj
    elif shape == "t_pair":
        i = draw(st.integers(1, n))
        g = LaurentPoly.variable(n, i) - LaurentPoly.variable(n, i, -1)
    else:
        u, v = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
        nonzero = st.integers(-4, 4).filter(bool)
        g = LaurentPoly(n, {u: draw(nonzero), v: draw(nonzero)})
    return f, g


class TestBinomialDivision:
    @settings(max_examples=300, deadline=None)
    @given(poly_and_binomial())
    def test_product_divides_back(self, case):
        f, g = case
        assert len(g) == 2
        assert (f * g).exact_divide(g) == f

    @settings(max_examples=300, deadline=None)
    @given(poly_and_binomial())
    def test_agrees_with_heap_division(self, case):
        f, g = case
        product = f * g
        if not product.is_zero():
            assert product.exact_divide(g) == _divide_by_heap(product, g)

    @settings(max_examples=300, deadline=None)
    @given(poly_and_binomial(), st.data())
    def test_perturbed_product_not_divisible(self, case, data):
        # A binomial is not a unit, so it divides no monomial: adding one
        # term to a multiple of g leaves a non-multiple.
        f, g = case
        n = f.arity
        e = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
        c = data.draw(st.integers(-3, 3).filter(bool))
        perturbed = f * g + LaurentPoly.monomial(n, e, c)
        with pytest.raises(NotDivisible):
            perturbed.exact_divide(g)

    def test_denominator_factors_divide_in_order(self):
        for n in (2, 3, 4):
            r, v = denominators(n)
            for product, factors in zip((r, v), denominator_factors(n)):
                quotient = product
                for factor in factors:
                    quotient = quotient.exact_divide(factor)
                assert quotient == LaurentPoly.one(n)


# -- the product, against the term-pair product -------------------------


def reference_product(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The product summed over all term pairs, zeros dropped at the end."""
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return LaurentPoly(f.arity, out)


class TestProductAgainstTermPairs:
    @settings(max_examples=300, deadline=None)
    @given(poly_and_binomial())
    @example((1 + x1, 1 - x1))
    def test_binomial_factor(self, case):
        f, g = case
        expected = reference_product(f, g)
        assert f * g == expected
        assert g * f == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(*[st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * n), st.integers(-5, 5), max_size=7)] * 2,
        st.just(n))))
    # (1 + x1 + x1^2)(1 - x1 + x1^2) = 1 + x1^2 + x1^4: the sum at x1^2
    # reaches zero on the second term of g and is written again on the third.
    @example(({(0,): 1, (1,): 1, (2,): 1}, {(0,): 1, (1,): -1, (2,): 1}, 1))
    def test_any_operands(self, case):
        f_terms, g_terms, n = case
        f, g = LaurentPoly(n, f_terms), LaurentPoly(n, g_terms)
        expected = reference_product(f, g)
        assert f * g == expected
        assert g * f == expected


def reference_substitute_pair(f: LaurentPoly, i: int, j: int) -> dict:
    """Slice terms built coordinate by coordinate."""
    a, b = i - 1, j - 1
    out = {}
    for exps, coef in f.terms.items():
        key = (exps[a] - exps[b], tuple(e for k, e in enumerate(exps) if k not in (a, b)))
        out[key] = out.get(key, 0) + coef
    return {key: c for key, c in out.items() if c}


class TestSubstitutePairProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(-3, 3)] * n), st.integers(-5, 5), max_size=8),
        st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True),
        st.just(n))))
    def test_matches_coordinate_reference(self, case):
        terms, (i, j), n = case
        f = LaurentPoly(n, terms)
        assert f.substitute_pair(i, j).terms == reference_substitute_pair(f, i, j)


# -- the heap path of exact_divide: divisors of three or more terms --------


class TestHeapDivisionProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(-3, 3)] * n), st.integers(-5, 5), max_size=6),
        st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-4, 4).filter(bool),
                        min_size=3, max_size=5),
        st.just(n))))
    @example(({(0,): 1, (1,): 1}, {(0,): 1, (1,): 1, (2,): 1}, 1))
    def test_product_divides_back(self, case):
        f_terms, g_terms, n = case
        f, g = LaurentPoly(n, f_terms), LaurentPoly(n, g_terms)
        assert len(g) >= 3
        assert (f * g).exact_divide(g) == f
