import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perisym import (
    KClass,
    LaurentPoly,
    NotDominant,
    dominant_weights_with_beads_in,
    kclass_sch,
    membership,
    parity,
    sch_standard,
    sch_thin_kac,
    supertrace_twist,
    theta_prime,
)
from perisym.schur import denominators, schur_poly
from perisym.weights import to_diagram


class TestSupercharacterFormula:
    def test_zero_weight_gives_odd_product(self):
        for n in (1, 2, 3):
            assert sch_thin_kac((0,) * n) == denominators(n)[0]

    def test_rank_one(self):
        for k in (-3, -1, 0, 1, 2, 5):
            sign = -1 if parity((k,)) else 1
            assert sch_thin_kac((k,)) == LaurentPoly(1, {(k,): sign})

    def test_n2_fundamental(self):
        expected = -(denominators(2)[0] * schur_poly((1, 0)))
        assert sch_thin_kac((1, 0)) == expected

    def test_not_dominant(self):
        with pytest.raises(NotDominant):
            sch_thin_kac((0, 1))

    def test_membership(self):
        # Supercharacters satisfy the supersymmetry condition.
        for n in (1, 2, 3):
            for lam in dominant_weights_with_beads_in(n, -2, n + 1):
                assert membership(sch_thin_kac(lam)).member

    def test_linear_independence_on_window(self):
        polys = {}
        for lam in dominant_weights_with_beads_in(2, -2, 3):
            f = sch_thin_kac(lam)
            assert f not in polys.values()
            polys[lam] = f


class TestStandardModule:
    def test_rank_one(self):
        assert sch_standard(1) == LaurentPoly(1, {(1,): 1, (-1,): -1})

    def test_rank_two(self):
        assert sch_standard(2) == LaurentPoly(
            2, {(1, 0): 1, (0, 1): 1, (-1, 0): -1, (0, -1): -1}
        )

    def test_slice_vanishes(self):
        assert sch_standard(2).substitute_pair(1, 2).is_zero()


class TestThetaPrime:
    def test_rank_one_split(self):
        out = theta_prime(0, KClass.basis((0,)))
        assert out == KClass(1, {(1,): -1, (-1,): -1})
        assert kclass_sch(out) == sch_thin_kac((0,)) * sch_standard(1)

    def test_left_move_only(self):
        out = theta_prime(0, KClass.basis((0, 0)))
        assert out == KClass(2, {(0, -1): -1})

    def test_no_bead(self):
        assert theta_prime(5, KClass.basis((0, 0))).is_zero()

    def test_blocked_bead(self):
        # Bead at 1 in diagram (1, 0) of lam = 0: left occupied, right free.
        out = theta_prime(1, KClass.basis((0, 0)))
        assert set(out.coeffs) == {(1, 0)}

    def test_parity_twist_flag(self):
        cls = KClass.basis((2, 0))
        for k in to_diagram((2, 0)):
            twisted = theta_prime(k, cls, parity_twist=True)
            plain = theta_prime(k, cls)
            assert twisted == (plain if k % 2 == 0 else -plain)

    def test_tensor_identity_window(self):
        rng = random.Random(31)
        for n in (1, 2, 3):
            std = sch_standard(n)
            weights = list(dominant_weights_with_beads_in(n, -3, n + 2))
            for lam in rng.sample(weights, min(8, len(weights))):
                beads = to_diagram(lam)
                total = LaurentPoly.zero(n)
                for k in beads:
                    total = total + kclass_sch(theta_prime(k, KClass.basis(lam)))
                assert total == sch_thin_kac(lam) * std

    def test_linearity(self):
        cls = KClass(2, {(0, 0): 2, (1, 0): -3})
        total = theta_prime(0, cls)
        split = 2 * theta_prime(0, KClass.basis((0, 0))) + (
            -3) * theta_prime(0, KClass.basis((1, 0)))
        assert total == split


class TestSupertraceTwist:
    def test_identity(self):
        cls = KClass(2, {(1, 0): 2, (0, -1): 1})
        assert supertrace_twist(cls, 0) == cls

    def test_example_up(self):
        assert supertrace_twist(KClass.basis((0, 0)), 1) == KClass(2, {(1, 1): -1})

    def test_example_down(self):
        assert supertrace_twist(KClass.basis((2,)), -2) == KClass(1, {(0,): -1})

    def test_involution(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randint(1, 3)
            weights = list(dominant_weights_with_beads_in(n, -3, n + 2))
            cls = KClass(n, {lam: rng.randint(-4, 4)
                             for lam in rng.sample(weights, 3)})
            a = rng.randint(-3, 3)
            assert supertrace_twist(supertrace_twist(cls, a), -a) == cls

    def test_supercharacter_match(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(1, 3)
            weights = list(dominant_weights_with_beads_in(n, -2, n + 1))
            cls = KClass(n, {lam: rng.randint(-3, 3)
                             for lam in rng.sample(weights, 2)})
            a = rng.randint(-2, 2)
            twisted = kclass_sch(supertrace_twist(cls, a))
            assert twisted == LaurentPoly.monomial(n, (a,) * n) * kclass_sch(cls)


@st.composite
def kclasses(draw):
    """Thin-Kac combinations, n <= 4, weight entries in [-3, 3]."""
    n = draw(st.integers(0, 4))
    weights = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda w: tuple(sorted(w, reverse=True)))
    return KClass(n, draw(st.dictionaries(weights, st.integers(-5, 5), max_size=5)))


class TestKClassSupercharacter:
    @settings(max_examples=150, deadline=None)
    @given(kclasses())
    def test_equals_thin_kac_sum(self, cls):
        expected = LaurentPoly.zero(cls.arity)
        for lam, coef in cls.coeffs.items():
            expected = expected + coef * sch_thin_kac(lam)
        assert kclass_sch(cls) == expected
