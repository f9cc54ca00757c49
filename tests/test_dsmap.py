import random

import pytest
from hypothesis import given, settings, strategies as st

from perisym import (
    ArityMismatch,
    LaurentPoly,
    NotInKernel,
    NotMember,
    NotSymmetric,
    SchurExpansion,
    denominators,
    ds_eval,
    ds_power,
    filtration_level,
    kernel_decompose,
    membership,
    quotient_reduce,
    sch_thin_kac,
)
from perisym.lift import membership_window_basis

import util


def member_sample(n, rng, picks=4, coef=3, bound=3):
    basis = membership_window_basis(n, bound)
    out = LaurentPoly.zero(n)
    for i in rng.sample(range(len(basis)), min(picks, len(basis))):
        out = out + rng.randint(-coef, coef) * basis[i]
    return out


class TestDsEval:
    def test_kernel_element(self):
        assert ds_eval(denominators(2)[0]).is_zero()

    def test_diagonal_cube(self):
        assert ds_eval(LaurentPoly(3, {(1, 1, 1): 1})) == LaurentPoly(1, {(1,): 1})

    def test_constant(self):
        assert ds_eval(LaurentPoly.one(2)) == LaurentPoly.one(0)

    def test_not_member(self):
        with pytest.raises(NotMember) as err:
            ds_eval(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))
        assert err.value.witness[0] != 0

    def test_arity_guard(self):
        with pytest.raises(ArityMismatch):
            ds_eval(LaurentPoly.one(1))


class TestDsPower:
    def test_constant_drop_two_ranks(self):
        assert ds_power(LaurentPoly.one(4), 2) == LaurentPoly.one(0)

    def test_once_is_eval(self):
        f = LaurentPoly(3, {(1, 1, 1): 2, (0, 0, 0): -1})
        assert ds_power(f, 1) == ds_eval(f)

    def test_zero_is_identity(self):
        f = LaurentPoly(3, {(1, 1, 1): 2})
        assert ds_power(f, 0) == f

    def test_thin_kac_dies_fast(self):
        assert ds_power(sch_thin_kac((0, 0, 0, 0)), 2).is_zero()

    def test_k_out_of_range(self):
        with pytest.raises(ArityMismatch):
            ds_power(LaurentPoly.one(4), 3)


class TestMembership:
    def test_member_pair(self):
        f = LaurentPoly(2, {(1, 1): 1, (-1, -1): 1})
        report = membership(f)
        assert report.member and report.witness is None

    def test_non_member_witness(self):
        report = membership(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))
        assert not report.member
        assert report.symmetric
        assert report.witness == (1, ())

    def test_thin_kac_member(self):
        assert membership(sch_thin_kac((1, 0))).member

    def test_asymmetric(self):
        report = membership(LaurentPoly(2, {(1, 0): 1}))
        assert not report.symmetric

    def test_low_arity_trivial(self):
        assert membership(LaurentPoly(1, {(5,): 3})).member
        assert membership(LaurentPoly.constant(0, 2)).member


class TestKernelDecompose:
    def test_odd_product(self):
        assert kernel_decompose(denominators(2)[0]) == SchurExpansion(2, {(0, 0): 1})

    def test_signed_fundamental(self):
        f = denominators(2)[0] * LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
        assert kernel_decompose(f) == SchurExpansion(2, {(1, 0): -1})

    def test_not_member(self):
        with pytest.raises(NotMember):
            kernel_decompose(LaurentPoly(2, {(1, 1): 1, (-1, -1): 1, (1, 0): 1, (0, 1): 1}))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            kernel_decompose(LaurentPoly(2, {(1, 0): 1}))

    def test_not_in_kernel(self):
        with pytest.raises(NotInKernel):
            kernel_decompose(LaurentPoly.one(2))

    def test_reconstruction_random(self):
        rng = random.Random(41)
        for n in (2, 3):
            r_minus = denominators(n)[0]
            for _ in range(25):
                f = r_minus * util.random_symmetric(n, rng)
                expansion = kernel_decompose(f)
                rebuilt = LaurentPoly.zero(n)
                for lam, coef in expansion.sorted_items():
                    rebuilt = rebuilt + coef * sch_thin_kac(lam)
                assert rebuilt == f


class TestFiltrationLevel:
    def test_zero(self):
        assert filtration_level(LaurentPoly.zero(3)) == 0

    def test_thin_kac_level_one(self):
        assert filtration_level(sch_thin_kac((0, 0, 0))) == 1

    def test_survivor_gets_top_level(self):
        assert filtration_level(LaurentPoly(3, {(1, 1, 1): 1})) == 2

    def test_monotone_under_evaluation(self):
        rng = random.Random(42)
        for _ in range(15):
            f = member_sample(4, rng, bound=2)
            level = filtration_level(f)
            image = ds_eval(f)
            assert filtration_level(image) == max(level - 1, 0)

    def test_thin_kac_window_level_one(self):
        for n in (2, 3):
            for lam in [(0,) * n, (1,) + (0,) * (n - 1), (2, 1) + (0,) * (n - 2)]:
                assert filtration_level(sch_thin_kac(lam)) == 1

    def test_not_member(self):
        with pytest.raises(NotMember):
            filtration_level(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))


class TestQuotientReduce:
    def test_sp_diagonal_power(self):
        f = LaurentPoly(2, {(3, 3): 1})
        assert quotient_reduce(f, "sp") == LaurentPoly.one(2)

    def test_SP_diagonal_power(self):
        f = LaurentPoly(2, {(3, 3): 1})
        assert quotient_reduce(f, "SP") == LaurentPoly(2, {(1, 1): 1})

    def test_sp_orbit_shift(self):
        f = LaurentPoly(2, {(2, 1): 1, (1, 2): 1})
        assert quotient_reduce(f, "sp") == LaurentPoly(2, {(1, 0): 1, (0, 1): 1})

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            quotient_reduce(LaurentPoly(2, {(1, 0): 1}), "sp")

    def test_bad_name(self):
        with pytest.raises(ValueError):
            quotient_reduce(LaurentPoly.one(2), "sl")

    def test_idempotent_and_multiplicative(self):
        rng = random.Random(43)
        for n in (2, 3):
            for _ in range(30):
                f = util.random_symmetric(n, rng)
                g = util.random_symmetric(n, rng)
                for which in ("sp", "SP"):
                    rf = quotient_reduce(f, which)
                    assert quotient_reduce(rf, which) == rf
                    lhs = quotient_reduce(f * g, which)
                    rhs = quotient_reduce(rf * quotient_reduce(g, which), which)
                    assert lhs == rhs

    def test_sp_residual_entries(self):
        rng = random.Random(44)
        for _ in range(20):
            f = util.random_symmetric(3, rng)
            reduced = quotient_reduce(f, "sp")
            assert all(min(e) == 0 for e in reduced.terms)
            reduced2 = quotient_reduce(f, "SP")
            assert all(min(e) in (0, 1) for e in reduced2.terms)


class TestHomomorphism:
    def test_ring_map_on_members(self):
        rng = random.Random(45)
        for _ in range(30):
            n = rng.choice((2, 3))
            f = member_sample(n, rng)
            g = member_sample(n, rng)
            assert ds_eval(f * g) == ds_eval(f) * ds_eval(g)
            assert ds_eval(f + g) == ds_eval(f) + ds_eval(g)

    def test_pair_choice_independent(self):
        rng = random.Random(46)
        for _ in range(10):
            n = rng.choice((3, 4))
            f = member_sample(n, rng, bound=2)
            reference = ds_eval(f)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    tslice = f.substitute_pair(i, j)
                    assert tslice.t_witness() is None
                    assert LaurentPoly(n - 2, tslice.constant_part()) == reference


@st.composite
def window_members(draw, n):
    """J_n members: combinations of up to three elements of
    ``membership_window_basis(n, 2)`` with coefficients in [-3, 3]."""
    basis = membership_window_basis(n, 2)
    picks = draw(st.lists(st.tuples(st.integers(0, len(basis) - 1), st.integers(-3, 3)),
                          max_size=3))
    out = LaurentPoly.zero(n)
    for i, coef in picks:
        out = out + coef * basis[i]
    return out


class TestHomomorphismProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(window_members(n), window_members(n))))
    def test_multiplicative_on_members(self, fg):
        f, g = fg
        assert ds_eval(f * g) == ds_eval(f) * ds_eval(g)
