"""One certificate level read from Schur coordinates.

- The thin-Kac peel over Schur coordinates agrees with the peel guarded
  by the x_1-exponents of f, and its bounds are those exponents.
- Each round of the Euler lift evaluates its own part, never the lift
  accumulated over earlier rounds.
- R multiplied out one factor at a time gives the terms of
  ``denominators(n)[0]`` in their order.
"""

import heapq
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from perisym import (LaurentPoly, NotDivisible, SchurExpansion, denominators, ds_eval, euler,
                     lift_euler, membership_window_basis)
from perisym.dsmap import _nonzero_chain
from perisym.euler import _lift_euler
from perisym.intlinalg import _axpy
from perisym.laurent import _from_orbits
from perisym.schur import _schur_coefficients, denominator_factors
from perisym.thinkac import (_brauer_klimyk, _expanded, _parity_signed, _peel,
                             _thin_kac_coordinates, thin_kac_combination)



def window_member(n, rng, bound=2, picks=4):
    basis = membership_window_basis(n, bound)
    out = LaurentPoly.zero(n)
    for index in rng.sample(range(len(basis)), min(picks, len(basis))):
        out = out + rng.randint(-3, 3) * basis[index]
    return out


def x1_guarded_coordinates(f):
    """The thin-Kac peel with its guard read from the x_1-exponents of f,
    as it stood before the peel took Schur coordinates."""
    if f.is_zero():
        return SchurExpansion(f.arity)
    n = f.arity
    g = _schur_coefficients(f)
    if n < 2:
        return SchurExpansion(n, _parity_signed(g))
    r_terms = _expanded(denominator_factors(n)[0])
    first = [exps[0] for exps in f.terms]
    lowest, highest = min(first), max(first) - (n - 1)
    tops = [tuple(map(operator.neg, mu)) for mu in g]
    heapq.heapify(tops)
    queued = set(g)
    coords = {}
    while tops:
        mu = tuple(map(operator.neg, heapq.heappop(tops)))
        top = g.get(mu)
        if top is None:
            continue
        lam = tuple(e - (n - 1) for e in mu)
        if lam[-1] < lowest or lam[0] > highest:
            raise NotDivisible("not divisible by R")
        table = _brauer_klimyk(lam, r_terms)
        c, r = divmod(top, table[mu])
        if r:
            raise NotDivisible("not divisible by R")
        coords[lam] = c
        for nu in _axpy(g, table, -c)[0]:
            if nu not in queued:
                queued.add(nu)
                heapq.heappush(tops, tuple(map(operator.neg, nu)))
    return SchurExpansion(n, _parity_signed(coords))


def dominant(n, lo=-2, hi=2):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))


@st.composite
def symmetric_inputs(draw):
    """A thin-Kac combination, or a random orbit-sum combination that R
    does not divide (a draw that R divides gets 1 added)."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        coeffs = draw(st.dictionaries(dominant(n), st.integers(-3, 3), max_size=4))
        return thin_kac_combination(n, coeffs)
    f = _from_orbits(n, draw(st.dictionaries(dominant(n), st.integers(-3, 3), max_size=5)))
    try:
        x1_guarded_coordinates(f)
    except NotDivisible:
        return f
    return f + LaurentPoly.one(n) if n >= 2 else f


class TestCoordinatePeel:
    @settings(max_examples=120, deadline=None)
    @given(symmetric_inputs())
    @example(LaurentPoly.one(2))
    @example(LaurentPoly.monomial(2, (3, 3)))
    @example(thin_kac_combination(4, {(1, 0, 0, -1): 1}))
    def test_matches_the_x1_guarded_peel(self, f):
        n = f.arity
        try:
            expected = x1_guarded_coordinates(f)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                _peel(n, _schur_coefficients(f))
            with pytest.raises(NotDivisible):
                _thin_kac_coordinates(f)
        else:
            assert SchurExpansion(n, _parity_signed(_peel(n, _schur_coefficients(f)))) == expected
            assert _thin_kac_coordinates(f) == expected

    @settings(max_examples=120, deadline=None)
    @given(symmetric_inputs())
    def test_coordinate_bounds_are_the_x1_exponent_bounds(self, f):
        g = _schur_coefficients(f)
        assert bool(g) == (not f.is_zero())
        if g and f.arity:
            first = [exps[0] for exps in f.terms]
            assert min(mu[-1] for mu in g) == min(first)
            assert max(mu[0] for mu in g) == max(first)


class TestLiftRounds:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_each_round_evaluates_its_own_part(self, monkeypatch, m):
        rng = random.Random(100 + m)
        seen = 0
        for _ in range(40):
            h = window_member(m, rng, bound=1 if m == 4 else 2)
            if len(_nonzero_chain(h)) < 2:
                continue
            evaluated = []

            def spy(f):
                evaluated.append(f)
                return ds_eval(f)

            monkeypatch.setattr(euler, "ds_eval", spy)
            lift = lift_euler(h)
            monkeypatch.undo()
            if len(evaluated) < 2:
                continue
            seen += 1
            assert ds_eval(lift) == h
            # The parts of the rounds sum to the lift; none of them is the
            # lift itself, which is the sum over two or more rounds.
            total = LaurentPoly.zero(m + 2)
            for part in evaluated:
                assert part != lift
                total = total + part
            assert total == lift
            assert _lift_euler(h) == (lift, _schur_coefficients(lift))
            if seen == 3:
                break
        assert seen == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_expanded_matches_the_product_in_order(n):
    # R_7 has 111,850 terms, so its last steps add the shifted copy in
    # several chunks.
    terms = _expanded(denominator_factors(n)[0])
    assert terms == tuple(denominators(n)[0].terms.items())
