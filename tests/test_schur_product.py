"""The one Brauer-Klimyk product behind the Schur tables
(``schur._product``), checked by routes that straighten nothing: a
symmetric factor against the Laurent product of two polynomials written
by the Kostka branching rule, a non-symmetric one against brute-force
antisymmetrization over the whole symmetric group, and the translated
orbit tables against the product over their arrangements."""

from hypothesis import example, given, settings, strategies as st

from perisym import LaurentPoly
from perisym.laurent import _arrangements, _from_orbits
from perisym.schur import SchurExpansion, _orbit_schur, _product
from perisym.weights import rho

import util


def dominant(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))


def exponents(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)


@st.composite
def symmetric_and_weights(draw):
    """An arity n <= 4, a symmetric P = sum c_nu m_nu over up to four
    orbits, and up to four weights with coefficients in [-3, 3] (zeros
    included), all with entries in [-2, 2]."""
    n = draw(st.integers(0, 4))
    p = _from_orbits(n, draw(st.dictionaries(dominant(n), st.integers(-3, 3), max_size=4)))
    return p, draw(st.dictionaries(dominant(n), st.integers(-3, 3), max_size=4))


@st.composite
def any_poly(draw):
    n = draw(st.integers(0, 4))
    return LaurentPoly(n, draw(st.dictionaries(exponents(n), st.integers(-3, 3), max_size=5)))


class TestProduct:
    @settings(max_examples=80, deadline=None)
    @given(symmetric_and_weights())
    @example((_from_orbits(3, {(1, 0, 0): 1, (0, 0, -1): -1}), {(0, 0, 0): 2, (1, 0, -1): -1}))
    @example((_from_orbits(2, {(2, -2): 3}), {(-1, -2): 1, (2, 2): 0}))
    def test_symmetric_factor_is_the_laurent_product(self, case):
        p, q = case
        n = p.arity
        product = SchurExpansion(n, _product(p.terms.items(), q))
        assert product.to_poly() == p * SchurExpansion(n, q).to_poly()

    @settings(max_examples=80, deadline=None)
    @given(any_poly())
    @example(LaurentPoly(3, {(2, 0, -1): 1, (0, 2, -1): 1, (1, 1, 1): -2}))
    @example(LaurentPoly.one(0))
    def test_any_factor_times_one_is_its_antisymmetrization(self, p):
        n = p.arity
        coeffs = _product(p.terms.items(), {(0,) * n: 1})
        expected = util.antisymmetrize(LaurentPoly.monomial(n, rho(n)) * p)
        written = LaurentPoly.zero(n)
        for lam, c in coeffs.items():
            written = written + c * util.antisymmetrize(
                LaurentPoly.monomial(n, [a + r for a, r in zip(lam, rho(n))]))
        assert written == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(dominant).filter(lambda nu: min(nu) != 0))
    @example((3, 2, 2, 1, 1, 1))
    @example((-1, -1, -1, -2, -2, -2))
    @example((1, 1, 0, 0, -1, -1, -2))
    @example((4, 3, 3, 2, 2, 2, 1))
    def test_translated_orbit_table_is_the_product_over_its_arrangements(self, nu):
        direct = _product(((w, 1) for w in _arrangements(nu)), {(0,) * len(nu): 1})
        assert dict(_orbit_schur(nu)) == direct
