"""One exact division: every divisor of ``LaurentPoly.exact_divide``, an
int included, goes through the division by leading terms
(``laurent._divide_by_heap``), and ``thin_kac_combination`` divides
nothing."""

import pytest

from perisym import LaurentPoly, NotDivisible
from perisym import laurent
from perisym.laurent import _divide_by_binomials
from perisym.schur import denominator_factors
from perisym.thinkac import thin_kac_combination


x1 = LaurentPoly(1, {(1,): 1})


@pytest.fixture
def spies(monkeypatch):
    """Counts of calls to ``_divide_by_heap``."""
    counts = {"heap": 0}
    divide_by_heap = laurent._divide_by_heap

    def counted_heap(f, divisor):
        counts["heap"] += 1
        return divide_by_heap(f, divisor)

    monkeypatch.setattr(laurent, "_divide_by_heap", counted_heap)
    return counts


class TestIntDivisor:
    def test_divides_as_a_constant(self):
        assert LaurentPoly(1, {(1,): 2}).exact_divide(2) == x1

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly(1, {(1,): 2}).exact_divide(0)

    def test_not_divisible_raises(self):
        with pytest.raises(NotDivisible):
            LaurentPoly(1, {(1,): 2}).exact_divide(3)

    def test_agrees_with_the_constant_polynomial(self):
        f = LaurentPoly(2, {(1, -1): 6, (0, 2): -4, (0, 0): 10})
        for c in (1, -1, 2, -2):
            assert f.exact_divide(c) == f.exact_divide(LaurentPoly.constant(2, c))
        assert LaurentPoly.constant(0, 12).exact_divide(-3) == -4
        assert LaurentPoly.zero(2).exact_divide(5) == LaurentPoly.zero(2)


class TestOnePath:
    @pytest.mark.parametrize("divisor", [
        LaurentPoly(2, {(1, 0): 3}),
        LaurentPoly(2, {(0, 0): 1, (1, 1): -1}),
        LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, 2): -2}),
    ], ids=["one_term", "two_terms", "three_terms"])
    def test_every_length_goes_through_the_heap(self, spies, divisor):
        q = LaurentPoly(2, {(2, -1): 1, (0, 3): -5, (1, 1): 2})
        assert (q * divisor).exact_divide(divisor) == q
        assert spies == {"heap": 1}

    def test_r_divides_out_factor_by_factor(self, spies):
        factors = denominator_factors(4)[0]
        q = LaurentPoly(4, {(2, 1, 0, -1): 3, (0, 0, 0, 0): -1})
        product = q
        for g in factors:
            product = product * g
        assert _divide_by_binomials(product, factors) == q
        assert spies == {"heap": len(factors)}

    def test_thin_kac_combination_divides_nothing(self, spies):
        out = thin_kac_combination(3, {(2, 1, 0): 1, (1, 0, -1): -2})
        assert not out.is_zero()
        assert spies == {"heap": 0}
