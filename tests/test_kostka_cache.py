"""The Kostka tables behind ``SchurExpansion.to_poly`` are kept for the
life of the process, one per translation class: lam and lam + c * 1 share
the table of lam - lam_n.  These tests clear that table themselves and
compare against the bialternant oracle, which shares no Schur code."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perisym import LaurentPoly, SchurExpansion, schur
from perisym.schur import _kostka_cache
from perisym.verify import schur_bialternant_oracle


def shifted(lam, c):
    return tuple(a + c for a in lam)


def to_poly(lam) -> LaurentPoly:
    return SchurExpansion(len(lam), {lam: 1}).to_poly()


small_dominant = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n)
).map(lambda entries: tuple(sorted(entries, reverse=True)))


class _CountingItertools:
    """Stands in for ``itertools`` inside ``perisym.schur`` and counts the
    calls to ``product``: the branching recursion makes one per cold
    (weight, floor) entry of two or more coordinates, and nothing else
    in ``to_poly`` calls it."""

    def __init__(self):
        self.products = 0

    def product(self, *iterables):
        self.products += 1
        return itertools.product(*iterables)

    def __getattr__(self, name):
        return getattr(itertools, name)


@pytest.fixture
def spy(monkeypatch):
    counting = _CountingItertools()
    monkeypatch.setattr(schur, "itertools", counting)
    return counting


class TestTranslationClassTable:
    @settings(max_examples=60, deadline=None)
    @given(small_dominant, st.integers(-6, 6))
    def test_matches_oracle_cold_and_warm(self, lam, c):
        expected = schur_bialternant_oracle(shifted(lam, c))
        _kostka_cache.clear()
        assert to_poly(shifted(lam, c)) == expected
        _kostka_cache.clear()
        to_poly(lam)
        assert to_poly(shifted(lam, c)) == expected

    def test_mixed_shifts_add_up(self):
        # The combination is written first, from cold tables, so one call
        # computes tables of several classes through its shared memo.
        rng = random.Random(18)
        for _ in range(20):
            n = rng.randint(1, 4)
            combination = {}
            for _ in range(rng.randint(1, 5)):
                lam = tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True))
                combination[shifted(lam, rng.randint(-6, 6))] = rng.randint(-3, 3)
            _kostka_cache.clear()
            combined = SchurExpansion(n, combination).to_poly()
            total = LaurentPoly.zero(n)
            for lam, coef in combination.items():
                total = total + coef * to_poly(lam)
            assert combined == total

    def test_tables_are_read_only_and_keyed_by_least_entry_zero(self):
        for lam in ((3, 1, -2), (0, 0), (5,), (), (2, 2, 2, -1)):
            to_poly(lam)
        assert _kostka_cache
        for key, table in _kostka_cache.items():
            assert min(key, default=0) == 0
            with pytest.raises(TypeError):
                table[key] = 0


class TestBranchingRunsOncePerClass:
    def test_cold_class_runs_the_recursion(self, spy):
        _kostka_cache.clear()
        to_poly((2, 1, 0))
        assert spy.products > 0

    def test_shifted_weight_of_a_cached_class_runs_none(self, spy):
        _kostka_cache.clear()
        to_poly((3, 1, 0, -2))
        spy.products = 0
        for c in (-7, 2, 40):
            assert to_poly((3 + c, 1 + c, c, c - 2)) == \
                schur_bialternant_oracle((3 + c, 1 + c, c, c - 2))
        SchurExpansion(4, {(5, 3, 2, 0): 2, (1, -1, -2, -4): -1}).to_poly()
        assert spy.products == 0
