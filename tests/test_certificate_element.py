"""A certificate level's element, the lift plus its kernel combination.

``CertificateLevel.element`` adds the lift's Schur coefficients to the
Brauer-Klimyk tables of the kernel coordinates and writes the sum once.
Here it is checked against the same sum formed from polynomials: the
parity-signed Schur sum multiplied by the factors of R one ``LaurentPoly``
product at a time, with no table, then added to the lift.  A hand-built
level whose arities differ, or whose lift is not symmetric, is rejected
before any table is read.
"""

import functools
import operator
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from perisym import (ArityMismatch, Certificate, LaurentPoly, SchurExpansion, certify,
                     ds_eval, membership_window_basis)
from perisym import thinkac
from perisym.lift import CertificateLevel, orbit_sum_combination
from perisym.schur import denominator_factors
from perisym.weights import parity

# The thin-Kac supercharacter of (1, 0): -(x1 + x2) + x1 x2 (x1 + x2).
THIN_KAC_1_0 = LaurentPoly(2, {(0, 1): -1, (1, 0): -1, (1, 2): 1, (2, 1): 1})


def reference_element(level):
    """The lift plus the parity-signed Schur sum of the kernel
    coordinates, multiplied by the factors of R one at a time."""
    n = level.lift_part.arity
    signed = {lam: -c if parity(lam) else c for lam, c in level.kernel_coeffs.coeffs.items()}
    combination = functools.reduce(operator.mul, denominator_factors(n)[0],
                                   SchurExpansion(n, signed).to_poly())
    return level.lift_part + combination


@st.composite
def levels(draw):
    """Arity 0 to 5, a symmetric lift of up to three orbit sums and up to
    three kernel coordinates, with weight entries in [-2, 3] and
    coefficients in [-3, 3] (zeros included)."""
    n = draw(st.integers(0, 5))
    weight = st.lists(st.integers(-2, 3), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))
    coeffs = st.dictionaries(weight, st.integers(-3, 3), max_size=3)
    return CertificateLevel(n, orbit_sum_combination(n, draw(coeffs)),
                            SchurExpansion(n, draw(coeffs)))


class TestAgainstTheProduct:
    @settings(max_examples=60, deadline=None)
    @given(levels())
    @example(CertificateLevel(3, LaurentPoly.zero(3), SchurExpansion(3)))
    @example(CertificateLevel(4, LaurentPoly.zero(4), SchurExpansion(4, {(1, 0, 0, -1): 2})))
    @example(CertificateLevel(4, orbit_sum_combination(4, {(2, 1, 0, 0): 3}), SchurExpansion(4)))
    @example(CertificateLevel(3, orbit_sum_combination(3, {(1, 1, 0): 0}),
                              SchurExpansion(3, {(3, 0, -2): 0})))
    @example(CertificateLevel(2, orbit_sum_combination(2, {(1, 0): 1, (2, 1): -1}),
                              SchurExpansion(2, {(1, 0): 1})))
    @example(CertificateLevel(5, orbit_sum_combination(5, {(3, 1, 0, 0, -2): -1}),
                              SchurExpansion(5, {(3, 3, 0, -2, -2): -3, (1, 1, 1, 1, 1): 2})))
    @example(CertificateLevel(1, LaurentPoly(1, {(2,): 1, (-1,): 4}),
                              SchurExpansion(1, {(3,): 2, (-2,): -1})))
    @example(CertificateLevel(0, LaurentPoly.constant(0, 5), SchurExpansion(0, {(): -2})))
    def test_element_is_the_lift_plus_the_product(self, level):
        assert level.element() == reference_element(level)

    def test_a_lift_can_cancel_the_combination(self):
        # m_(1,0) - m_(2,1) is minus the thin-Kac supercharacter of (1, 0).
        level = CertificateLevel(2, orbit_sum_combination(2, {(1, 0): 1, (2, 1): -1}),
                                 SchurExpansion(2, {(1, 0): 1}))
        assert level.element() == LaurentPoly.zero(2)


class TestArityGuard:
    @pytest.mark.parametrize("lift_arity, weight", [(3, (1, 0)), (2, (1, 0, 0))],
                             ids=["short_coordinates", "long_coordinates"])
    def test_mismatch_raises_before_any_table(self, monkeypatch, lift_arity, weight):
        # Tables are cached by weight alone, so a read here would leave
        # an entry for a weight that the level never certified.
        monkeypatch.delitem(thinkac._brauer_klimyk_cache, weight, raising=False)
        before = dict(thinkac._brauer_klimyk_cache)
        level = CertificateLevel(lift_arity, LaurentPoly.one(lift_arity),
                                 SchurExpansion(len(weight), {weight: 1}))
        cert = Certificate((level,), LaurentPoly.one(lift_arity - 2))
        for replay in (level.element, cert.reconstruct, cert.validate):
            with pytest.raises(ArityMismatch):
                replay()
        assert thinkac._brauer_klimyk_cache == before
        good = CertificateLevel(2, LaurentPoly.zero(2), SchurExpansion(2, {(1, 0): 1}))
        assert good.element() == THIN_KAC_1_0

    def test_empty_coordinates_of_another_arity(self):
        level = CertificateLevel(2, LaurentPoly.one(2), SchurExpansion(3))
        with pytest.raises(ArityMismatch):
            level.element()


NON_SYMMETRIC_LIFTS = [
    LaurentPoly(2, {(1, 0): 1}),
    LaurentPoly(2, {(0, 1): 1}),
    LaurentPoly(2, {(1, 0): 1, (0, 1): 2}),
    LaurentPoly(3, {(2, 1, 0): 1, (1, 0, 2): 1, (0, 2, 1): 1}),
]


class TestNonSymmetricLift:
    @pytest.mark.parametrize("lift", NON_SYMMETRIC_LIFTS, ids=str)
    def test_every_replay_names_the_rank(self, monkeypatch, lift):
        n = lift.arity
        weight = (1,) + (0,) * (n - 1)
        monkeypatch.delitem(thinkac._brauer_klimyk_cache, weight, raising=False)
        before = dict(thinkac._brauer_klimyk_cache)
        level = CertificateLevel(n, lift, SchurExpansion(n, {weight: 1}))
        cert = Certificate((level,), LaurentPoly.zero(n - 2))
        for replay in (level.element, cert.reconstruct, cert.validate):
            with pytest.raises(ValueError, match=f"lift at rank {n} is not symmetric"):
                replay()
        assert thinkac._brauer_klimyk_cache == before

    @pytest.mark.parametrize("broken", [0, 1], ids=["rank_4", "rank_2"])
    def test_validate_rejects_a_lift_the_evaluation_cannot_see(self, broken):
        basis = membership_window_basis(4, 1)
        f = basis[0] + 2 * basis[-1]
        cert = certify(f)
        assert [level.rank for level in cert.levels] == [4, 2]
        level = cert.levels[broken]
        n = level.rank
        # x1 (1 - x_{n-1} x_n) evaluates to zero, so the chain of
        # evaluations alone would accept the broken level.
        x = functools.partial(LaurentPoly.variable, n)
        extra = x(1) * (1 - x(n - 1) * x(n))
        assert ds_eval(extra).is_zero()
        levels = list(cert.levels)
        levels[broken] = replace(level, lift_part=level.lift_part + extra)
        with pytest.raises(ValueError, match=f"lift at rank {n} is not symmetric"):
            Certificate(tuple(levels), cert.bottom).validate()
        assert cert.validate() == f


class TestRanks:
    """``validate`` checks each level's rank against the arities of its
    polynomials and against the level below, before any table is read."""

    def test_rank_above_the_arity_of_its_polynomials(self):
        cert = Certificate((CertificateLevel(7, LaurentPoly.one(2), SchurExpansion(2)),),
                           LaurentPoly.one(0))
        assert cert.top_rank() == 7
        with pytest.raises(ValueError, match="rank 7"):
            cert.validate()

    @pytest.mark.parametrize("lift_arity, coords_arity", [(2, 4), (4, 2), (4, 3)])
    def test_polynomials_of_another_arity(self, lift_arity, coords_arity):
        level = CertificateLevel(4, LaurentPoly.one(lift_arity), SchurExpansion(coords_arity))
        cert = Certificate((level,), LaurentPoly.one(2))
        with pytest.raises(ValueError, match="rank 4"):
            cert.validate()
        with pytest.raises(ArityMismatch):
            cert.validate()

    def test_ranks_must_step_down_by_two(self):
        low = CertificateLevel(2, LaurentPoly.one(2), SchurExpansion(2))
        high = CertificateLevel(6, LaurentPoly.one(6), SchurExpansion(6))
        with pytest.raises(ValueError, match="rank 6 does not step down"):
            Certificate((high, low), LaurentPoly.one(0)).validate()
        with pytest.raises(ValueError, match="rank 2 does not step down"):
            Certificate((low,), LaurentPoly.one(1)).validate()

    def test_a_certificate_in_step_validates(self):
        low = CertificateLevel(2, LaurentPoly.one(2), SchurExpansion(2))
        high = CertificateLevel(4, LaurentPoly.one(4), SchurExpansion(4))
        assert Certificate((high, low), LaurentPoly.one(0)).validate() == LaurentPoly.one(4)
