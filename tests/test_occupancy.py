"""The occupancy sets and the lazy heap of :class:`EchelonSystem`, checked
before every row elimination.

``reference_echelon`` in ``test_intlinalg.py`` compares only results.
Here a spy runs before each ``_eliminate_row`` and recomputes from the
columns what ``_join`` and ``_leave`` keep: each row's set is the
non-pivot columns holding an entry there, and every occupied row except
the one being eliminated has a heap entry whose count is at most the
size of its set.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from perisym.intlinalg import EchelonSystem
from perisym.lift import Window, _orbit_column, _window_weights

from test_intlinalg import sparse_matrices


def expected_occupancy(system) -> dict:
    pivots = {ci for _, ci in system.pivots}
    occ: dict = {}
    for ci, col in enumerate(system.cols):
        if ci not in pivots:
            for row in col:
                occ.setdefault(row, set()).add(ci)
    return occ


def check_step(system, row, heap) -> None:
    assert system._occ == expected_occupancy(system)
    least: dict = {}
    for count, r in heap:
        least[r] = min(count, least.get(r, count))
    for r, s in system._occ.items():
        if r != row:
            assert least.get(r, len(s) + 1) <= len(s), r


def factor_checked(columns) -> int:
    """Factor columns with every elimination checked first; the number
    of steps checked."""
    steps = []
    original = EchelonSystem._eliminate_row

    def spy(self, row, cands, heap):
        check_step(self, row, heap)
        steps.append(row)
        return original(self, row, cands, heap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EchelonSystem, "_eliminate_row", spy)
        system = EchelonSystem(columns)
    assert system._occ == {}
    return len(steps)


@given(sparse_matrices())
def test_random_sparse_matrices(columns):
    factor_checked(columns)


@pytest.mark.parametrize("n, bound", [(3, 4), (3, 5), (4, 3)])
@pytest.mark.parametrize("include_t_zero", [True, False])
def test_lift_systems(n, bound, include_t_zero):
    weights = _window_weights(n, Window(bound))
    assert factor_checked([_orbit_column(mu, include_t_zero) for mu in weights])
