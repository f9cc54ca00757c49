"""Sums of sparse maps through one kernel, ``intlinalg._axpy``: its
contract, subtraction in every value type against adding the negation,
and the thin-Kac peel when a coefficient drops to zero and comes back.
Also the index and operand checks of ``swap_variables`` and ``TSlice``."""

import pytest
from hypothesis import given, settings, strategies as st

from perisym import BadIndices, KClass, LaurentPoly, SchurExpansion
from perisym import thinkac
from perisym.intlinalg import _axpy
from perisym.laurent import TSlice
from perisym.thinkac import _thin_kac_coordinates, thin_kac_combination

from test_thin_kac_peel import divided_coordinates

nonzero = st.integers(-4, 4).filter(bool)
sparse_maps = st.dictionaries(st.integers(0, 8), nonzero, max_size=8)


class TestAxpy:
    @settings(max_examples=300, deadline=None)
    @given(sparse_maps, sparse_maps, st.integers(-3, 3))
    def test_matches_the_dense_sum(self, dst, src, q):
        before = dict(dst)
        added, removed = _axpy(dst, src, q)
        dense = {k: before.get(k, 0) + q * src.get(k, 0) for k in set(before) | set(src)}
        assert dst == {k: v for k, v in dense.items() if v}
        assert all(dst.values())
        assert added == [k for k in src if k not in before and q]
        assert removed == [k for k in src if k in before and not dense[k]]

    @given(sparse_maps, sparse_maps)
    def test_zero_multiple_is_a_no_op(self, dst, src):
        before = dict(dst)
        assert _axpy(dst, src, 0) == ([], [])
        assert dst == before


def polys(n):
    exps = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    return st.dictionaries(exps, nonzero, max_size=6).map(lambda t: LaurentPoly(n, t))


def slices(n=3, pair=(2, 3)):
    keys = st.tuples(st.integers(-2, 2), st.lists(st.integers(-1, 1), min_size=n - 2,
                                                   max_size=n - 2).map(tuple))
    return st.dictionaries(keys, nonzero, max_size=6).map(lambda t: TSlice(n, pair, t))


def combinations(cls, n=3):
    weights = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
        lambda e: tuple(sorted(e, reverse=True)))
    return st.dictionaries(weights, nonzero, max_size=5).map(lambda c: cls(n, c))


class TestSubtraction:
    @pytest.mark.parametrize("values", [
        polys(3), slices(), combinations(SchurExpansion), combinations(KClass)],
        ids=["LaurentPoly", "TSlice", "SchurExpansion", "KClass"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_minus_is_plus_the_negation(self, values, data):
        f, g = data.draw(values), data.draw(values)
        assert f - g == f + (-g)
        assert (f - f).is_zero()


class TestPeelThroughZero:
    # Found by search: peeling this kernel element drops the Schur
    # coefficient at (1, 0, 0) to zero and adds it back at a later step.
    COORDS = {(1, -1, -1): 1, (0, 0, -1): -1, (-1, -2, -2): 1}

    def test_coordinate_returns_after_zero(self, monkeypatch):
        steps = []

        def spy(dst, src, q):
            added, removed = _axpy(dst, src, q)
            steps.append((list(added), list(removed)))
            return added, removed

        monkeypatch.setattr(thinkac, "_axpy", spy)
        f = thin_kac_combination(3, self.COORDS)
        coords = _thin_kac_coordinates(f)
        gone, returned = set(), []
        for added, removed in steps:
            returned += [k for k in added if k in gone]
            gone.update(removed)
        assert (1, 0, 0) in returned
        assert coords == divided_coordinates(f) == SchurExpansion(3, self.COORDS)


class TestSwapVariables:
    f = LaurentPoly(3, {(1, 2, 3): 1, (0, 0, -1): 2})

    @pytest.mark.parametrize("i, j", [(0, 1), (-1, 2), (1, 4), (0, 0), (4, 4), (2, -1)])
    def test_indices_outside_the_arity_are_refused(self, i, j):
        with pytest.raises(BadIndices):
            self.f.swap_variables(i, j)
        with pytest.raises(BadIndices):
            LaurentPoly.zero(3).swap_variables(i, j)

    def test_indices_inside_the_arity_swap(self):
        assert self.f.swap_variables(1, 3) == LaurentPoly(3, {(3, 2, 1): 1, (-1, 0, 0): 2})
        assert self.f.swap_variables(2, 2) == self.f


class TestTSliceOperands:
    s = TSlice(3, (2, 3), {(1, (2,)): 1, (0, (0,)): -3})

    @pytest.mark.parametrize("other", [1, 2.0, None, LaurentPoly.one(3)])
    def test_foreign_operands_raise_type_error(self, other):
        for op in (lambda: self.s + other, lambda: self.s - other,
                   lambda: other + self.s, lambda: other - self.s):
            with pytest.raises(TypeError):
                op()
        if not isinstance(other, int):
            with pytest.raises(TypeError):
                self.s * other
            with pytest.raises(TypeError):
                other * self.s

    def test_int_multiplier_scales(self):
        doubled = TSlice(3, (2, 3), {(1, (2,)): 2, (0, (0,)): -6})
        assert self.s * 2 == 2 * self.s == doubled
        assert (self.s * 0).is_zero()
