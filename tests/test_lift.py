import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perisym import (
    Certificate,
    LaurentPoly,
    NotMember,
    NotSymmetric,
    SchurExpansion,
    Window,
    WindowTooSmall,
    certify,
    denominators,
    ds_eval,
    lift_window,
    membership,
    membership_window_basis,
    sch_thin_kac,
)
from perisym.lift import CertificateLevel
from perisym.schur import denominator_factors, schur_poly


def random_member(n, rng, bound=4, picks=5, coef=3):
    basis = membership_window_basis(n, bound)
    out = LaurentPoly.zero(n)
    for i in rng.sample(range(len(basis)), min(picks, len(basis))):
        out = out + rng.randint(-coef, coef) * basis[i]
    return out


class TestLiftWindow:
    def test_constant_lifts_to_constant(self):
        assert lift_window(LaurentPoly.constant(0, 1)) == LaurentPoly.one(2)
        assert lift_window(LaurentPoly.constant(0, -7)) == LaurentPoly.constant(2, -7)

    def test_rank_one_monomial(self):
        h = LaurentPoly(1, {(1,): 1})
        assert lift_window(h) == LaurentPoly(3, {(1, 1, 1): 1})

    def test_rank_one_general(self):
        h = LaurentPoly(1, {(3,): 2, (-1,): -5})
        lifted = lift_window(h)
        assert lifted == LaurentPoly(3, {(3, 3, 3): 2, (-1, -1, -1): -5})
        assert ds_eval(lifted) == h

    def test_kernel_target(self):
        h = denominators(2)[0]
        lifted = lift_window(h)
        assert ds_eval(lifted) == h
        assert membership(lifted).member

    def test_general_target_n4(self):
        h = sch_thin_kac((1, 0))
        lifted = lift_window(h)
        assert ds_eval(lifted) == h
        assert membership(lifted).member

    def test_zero_target(self):
        assert lift_window(LaurentPoly.zero(2)) == LaurentPoly.zero(4)

    def test_window_too_small(self):
        h = sch_thin_kac((1, 0))
        with pytest.raises(WindowTooSmall):
            lift_window(h, window=Window(1))

    def test_rejects_non_member(self):
        with pytest.raises(NotMember):
            lift_window(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))
        with pytest.raises(NotSymmetric):
            lift_window(LaurentPoly(2, {(1, 0): 1}))

    def test_deterministic(self):
        h = sch_thin_kac((1, 0))
        assert lift_window(h) == lift_window(h)

    def test_max_window_env_override(self, monkeypatch):
        from perisym.lift import default_max_window

        monkeypatch.delenv("PERISYM_MAX_WINDOW", raising=False)
        assert default_max_window() == 12
        monkeypatch.setenv("PERISYM_MAX_WINDOW", "6")
        assert default_max_window() == 6

    @pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
    def test_max_window_env_rejects_bad_values(self, monkeypatch, value):
        from perisym.lift import default_max_window

        monkeypatch.setenv("PERISYM_MAX_WINDOW", value)
        with pytest.raises(ValueError, match="PERISYM_MAX_WINDOW"):
            default_max_window()


class TestCertify:
    def test_kernel_element(self):
        f = sch_thin_kac((0, 0))
        cert = certify(f)
        assert len(cert.levels) == 1
        level = cert.levels[0]
        assert level.rank == 2
        assert level.lift_part.is_zero()
        assert level.kernel_coeffs == SchurExpansion(2, {(0, 0): 1})
        assert cert.bottom == LaurentPoly.zero(0)
        assert cert.validate() == f

    def test_constant(self):
        cert = certify(LaurentPoly.one(2))
        assert cert.bottom == LaurentPoly.one(0)
        assert cert.levels[0].lift_part == LaurentPoly.one(2)
        assert cert.levels[0].kernel_coeffs.is_zero()

    def test_pinned_example(self):
        # f = x1 x2 + (x1 x2)^-1 evaluates to the constant 2; its lift is
        # the constant and the remainder has kernel coordinates
        # {(-1,-1): -1, (0,0): -1}.
        f = LaurentPoly(2, {(1, 1): 1, (-1, -1): 1})
        cert = certify(f)
        assert cert.bottom == LaurentPoly.constant(0, 2)
        assert cert.levels[0].lift_part == LaurentPoly.constant(2, 2)
        assert cert.levels[0].kernel_coeffs == SchurExpansion(
            2, {(-1, -1): -1, (0, 0): -1}
        )
        assert cert.validate() == f

    def test_random_roundtrip_small_ranks(self):
        rng = random.Random(61)
        for n in (2, 3):
            for _ in range(10):
                f = random_member(n, rng)
                cert = certify(f)
                assert cert.validate() == f
                assert cert.top_rank() == n

    def test_random_roundtrip_rank_four(self):
        rng = random.Random(62)
        for _ in range(3):
            f = random_member(4, rng)
            cert = certify(f)
            assert cert.validate() == f
            assert [level.rank for level in cert.levels] == [4, 2]

    def test_determinism(self):
        rng = random.Random(63)
        f = random_member(3, rng)
        assert certify(f) == certify(f)

    def test_validate_detects_tampering(self):
        f = sch_thin_kac((0, 0))
        cert = certify(f)
        bad = Certificate(
            (CertificateLevel(2, LaurentPoly.one(2), cert.levels[0].kernel_coeffs),),
            cert.bottom,
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_rejects_non_member(self):
        with pytest.raises(NotMember):
            certify(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))


@st.composite
def window_members(draw):
    """Integer combinations of up to four window-basis members of J_n."""
    n, bound = draw(st.sampled_from([(2, 3), (3, 3), (4, 2)]))
    basis = membership_window_basis(n, bound)
    picks = draw(st.lists(st.tuples(st.integers(0, len(basis) - 1), st.integers(-3, 3)),
                          min_size=1, max_size=4))
    out = LaurentPoly.zero(n)
    for index, coef in picks:
        out = out + coef * basis[index]
    return out


class TestCertificateReplay:
    @settings(max_examples=40, deadline=None)
    @given(window_members())
    def test_element_is_lift_plus_thin_kac_sum(self, f):
        cert = certify(f)
        for level in cert.levels:
            expected = level.lift_part
            for lam, coef in level.kernel_coeffs.coeffs.items():
                expected = expected + coef * sch_thin_kac(lam)
            assert level.element() == expected
        assert cert.validate() == f

    @settings(max_examples=20, deadline=None)
    @given(window_members())
    def test_validate_leaves_cached_polynomials_alone(self, f):
        cert = certify(f)
        weights = {lam for level in cert.levels for lam in level.kernel_coeffs.coeffs}
        schur_before = {lam: dict(schur_poly(lam).terms) for lam in weights}
        factors_before = [dict(p.terms) for p in denominator_factors(f.arity)[0]]
        assert cert.validate() == f
        assert {lam: schur_poly(lam).terms for lam in weights} == schur_before
        assert [p.terms for p in denominator_factors(f.arity)[0]] == factors_before
        assert cert.validate() == f


class TestMembershipWindowBasis:
    def test_members_and_nontrivial(self):
        for n in (2, 3):
            basis = membership_window_basis(n, 2)
            assert basis
            for f in basis:
                assert membership(f).member

    def test_rank_one_window_is_everything(self):
        basis = membership_window_basis(1, 2)
        # every Laurent polynomial in one variable is supersymmetric
        assert len(basis) == 5

    def test_contains_diagonal_and_kernel_directions(self):
        basis = membership_window_basis(2, 2)
        span_checks = [LaurentPoly(2, {(1, 1): 1}), denominators(2)[0]]
        # crude containment check: both targets certify within the window
        for target in span_checks:
            cert = certify(target)
            assert cert.validate() == target
