"""Ring axioms of LaurentPoly, and exact division undoing a product, with
wide exponents."""

from hypothesis import given, settings, strategies as st

from perisym import LaurentPoly


def polys(n: int, count: int, max_size: int = 5):
    one = st.dictionaries(st.tuples(*[st.integers(-40, 40)] * n), st.integers(-20, 20),
                          max_size=max_size).map(lambda terms: LaurentPoly(n, terms))
    return st.tuples(*[one] * count)


triples = st.integers(0, 4).flatmap(lambda n: polys(n, 3))


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(triples)
    def test_associativity(self, case):
        f, g, h = case
        assert (f * g) * h == f * (g * h)
        assert (f + g) + h == f + (g + h)

    @settings(max_examples=200, deadline=None)
    @given(triples)
    def test_commutativity(self, case):
        f, g, _ = case
        assert f * g == g * f
        assert f + g == g + f

    @settings(max_examples=200, deadline=None)
    @given(triples)
    def test_distributivity(self, case):
        f, g, h = case
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h

    @settings(max_examples=100, deadline=None)
    @given(triples)
    def test_identities_and_inverses(self, case):
        f, _, _ = case
        n = f.arity
        assert f * LaurentPoly.one(n) == f
        assert f + LaurentPoly.zero(n) == f
        assert (f - f).is_zero()
        assert (f * LaurentPoly.zero(n)).is_zero()


@st.composite
def poly_and_wide_binomial(draw):
    n = draw(st.integers(1, 4))
    (f,) = draw(polys(n, 1, max_size=6))
    exps = st.tuples(*[st.integers(-40, 40)] * n)
    u, v = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    nonzero = st.integers(-5, 5).filter(bool)
    return f, LaurentPoly(n, {u: draw(nonzero), v: draw(nonzero)})


class TestDivisionUndoesProduct:
    @settings(max_examples=300, deadline=None)
    @given(poly_and_wide_binomial())
    def test_two_term_divisor(self, case):
        f, g = case
        assert len(g) == 2
        assert (f * g).exact_divide(g) == f
