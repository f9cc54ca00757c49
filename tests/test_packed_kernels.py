"""Exact division by two-term factors, one at a time or by all the
factors of R, against the tuple sweep it replaced.

``reference_divide_by_binomial`` is the line sweep on exponent tuples
that ``exact_divide`` ran before exponents were packed into ints; the
factor-by-factor loops over it and over ``LaurentPoly.__mul__`` are the
independent side.  Exponents span up to +-40, so line representatives
(one coordinate a difference of two exponents) leave the dividend's box.
Multiplication by R is checked against the factor-by-factor product in
``tests/test_change_of_basis.py``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from perisym import LaurentPoly, NotDivisible
from perisym.laurent import _divide_by_binomials
from perisym.schur import denominator_factors


def reference_divide_by_binomial(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient of f by a two-term g, one line at a time on tuples."""
    if f.is_zero():
        return f
    (u, c1), (v, c2) = g.terms.items()
    d = [a - b for a, b in zip(u, v)]
    p = next(k for k, a in enumerate(d) if a)
    if d[p] < 0:
        u, c1, c2 = v, c2, c1
        d = [-a for a in d]
    step = d[p]
    lines = {}
    for e, c in f.terms.items():
        k = e[p] // step
        key = tuple(a - k * b for a, b in zip(e, d))
        lines.setdefault(key, []).append((k, e, c))
    quot = {}
    for line in lines.values():
        line.sort(reverse=True)
        carry = 0
        for k, e, c in line:
            if carry:
                for _ in range(above - 1 - k):
                    q_exps = [a - b for a, b in zip(q_exps, d)]
                    carry, r = divmod(-c2 * carry, c1)
                    if r:
                        raise NotDivisible("coefficient not divisible")
                    quot[tuple(q_exps)] = carry
            carry, r = divmod(c - c2 * carry, c1)
            if r:
                raise NotDivisible("coefficient not divisible")
            if carry:
                q_exps = [a - b for a, b in zip(e, u)]
                quot[tuple(q_exps)] = carry
            above = k
        if carry:
            raise NotDivisible("nonzero remainder at the end of a line")
    return LaurentPoly(f.arity, quot)


def reference_divide_by_r(f: LaurentPoly) -> LaurentPoly:
    for factor in denominator_factors(f.arity)[0]:
        f = reference_divide_by_binomial(f, factor)
    return f


def reference_multiply_by_r(f: LaurentPoly) -> LaurentPoly:
    for factor in denominator_factors(f.arity)[0]:
        f = f * factor
    return f


def packed_divide_by_r(f: LaurentPoly) -> LaurentPoly:
    return _divide_by_binomials(f, denominator_factors(f.arity)[0])


def wide_poly(n: int, span: int = 40, max_size: int = 5):
    return st.dictionaries(st.tuples(*[st.integers(-span, span)] * n),
                           st.integers(-9, 9), max_size=max_size).map(
        lambda terms: LaurentPoly(n, terms))


arity = st.integers(2, 5)
wide = arity.flatmap(wide_poly)

# Two lines of this dividend by 1 - x1 x2 share a key when the packing
# base is only about one box width: a packed sweep with too narrow a base
# returns a 7-term quotient instead of raising.
COLLISION = LaurentPoly(3, {(0, 10, 0): 1, (6, 0, 1): -1, (0, 11, 0): 1, (1, 12, 0): -1})
ODD_ROOT_12 = LaurentPoly(3, {(0, 0, 0): 1, (1, 1, 0): -1})


class TestRDivision:
    @settings(max_examples=150, deadline=None)
    @given(wide)
    @example(LaurentPoly(2, {(40, -40): 1, (-40, 40): -1}))
    def test_multiple_divides_back_as_the_tuple_sweep(self, f):
        product = reference_multiply_by_r(f)
        quotient = packed_divide_by_r(product)
        assert quotient == f
        assert quotient == reference_divide_by_r(product)

    @settings(max_examples=200, deadline=None)
    @given(wide)
    @example(LaurentPoly(3, {(0, 10, 0): 1, (6, 0, 1): -1}))
    def test_any_dividend_as_the_tuple_sweep(self, f):
        try:
            expected = reference_divide_by_r(f)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                packed_divide_by_r(f)
        else:
            assert packed_divide_by_r(f) == expected

    @settings(max_examples=150, deadline=None)
    @given(wide, st.data())
    def test_perturbed_dividend_not_divisible(self, f, data):
        n = f.arity
        e = data.draw(st.tuples(*[st.integers(-45, 45)] * n))
        c = data.draw(st.integers(-3, 3).filter(bool))
        perturbed = reference_multiply_by_r(f) + LaurentPoly.monomial(n, e, c)
        with pytest.raises(NotDivisible):
            packed_divide_by_r(perturbed)

    def test_zero_and_low_arities(self):
        for n in (0, 1, 2, 3):
            assert packed_divide_by_r(LaurentPoly.zero(n)) == LaurentPoly.zero(n)
        for n in (0, 1):
            f = LaurentPoly.constant(n, 7)
            assert packed_divide_by_r(f) == f


@st.composite
def wide_binomial_case(draw):
    """A dividend and any two-term divisor with wide exponents: steps above
    one and coefficients that are not units included."""
    n = draw(st.integers(1, 4))
    f = draw(wide_poly(n, max_size=6))
    exps = st.tuples(*[st.integers(-40, 40)] * n)
    u, v = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    nonzero = st.integers(-4, 4).filter(bool)
    g = LaurentPoly(n, {u: draw(nonzero), v: draw(nonzero)})
    return f, g


class TestOneFactor:
    @settings(max_examples=200, deadline=None)
    @given(wide_binomial_case())
    # The quotient lies outside the dividend's box and its line keys.
    @example((LaurentPoly(2, {(-100, 0): -1}), LaurentPoly(2, {(50, 0): 1, (51, 0): -1})))
    def test_exact_divide_as_the_tuple_sweep(self, case):
        f, g = case
        for dividend in (f * g, f):
            try:
                expected = reference_divide_by_binomial(dividend, g)
            except NotDivisible:
                with pytest.raises(NotDivisible):
                    dividend.exact_divide(g)
            else:
                assert dividend.exact_divide(g) == expected

    def test_collision_dividend_alone(self):
        with pytest.raises(NotDivisible):
            _divide_by_binomials(COLLISION, (ODD_ROOT_12,))
        with pytest.raises(NotDivisible):
            reference_divide_by_binomial(COLLISION, ODD_ROOT_12)

    def test_collision_dividend_through_exact_divide(self):
        with pytest.raises(NotDivisible):
            COLLISION.exact_divide(ODD_ROOT_12)

    def test_lines_a_base_apart_stay_apart(self):
        # In the box [0, w]^3, the keys (0, w, 0) and (0, w - b, 1) of
        # x^(0, w, 0) and x^(w, 2w - b, 1) under 1 - x1 x2 pack to one int
        # for every base b in (w, 2w], whatever the offset.  The two terms
        # lie on different lines, so no such packing can divide correctly.
        for w in range(1, 41):
            for b in range(w + 1, 2 * w + 1):
                f = LaurentPoly(3, {(0, w, 0): 1, (w, 2 * w - b, 1): -1})
                with pytest.raises(NotDivisible):
                    f.exact_divide(ODD_ROOT_12)
