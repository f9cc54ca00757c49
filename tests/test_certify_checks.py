"""certify checks its input once and trusts what it builds from it.

The independent side is the public API, which keeps every check:
``kernel_decompose`` of each level's remainder and ``ds_eval`` down the
rank chain.
"""

import pytest
from hypothesis import given, settings, strategies as st

from perisym import (
    LaurentPoly,
    NotMember,
    NotSymmetric,
    certify,
    ds_eval,
    kernel_decompose,
    lift_window,
    membership_window_basis,
)
from perisym import dsmap


@st.composite
def window_member(draw):
    """An integer combination of up to four window-basis members of J_n."""
    n = draw(st.integers(2, 4))
    basis = membership_window_basis(n, draw(st.integers(1, 2)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(basis) - 1), st.integers(-3, 3)),
                          min_size=1, max_size=4))
    out = LaurentPoly.zero(n)
    for index, coef in picks:
        out = out + coef * basis[index]
    return out


def rank_four_member():
    basis = membership_window_basis(4, 2)
    return basis[3] - 2 * basis[7] + basis[11] + 3 * basis[14]


@pytest.fixture
def membership_calls(monkeypatch):
    calls = []
    original = dsmap.membership

    def spy(f):
        calls.append(f.arity)
        return original(f)

    monkeypatch.setattr(dsmap, "membership", spy)
    return calls


class TestOneCheck:
    def test_certify_checks_membership_once(self, membership_calls):
        f = rank_four_member()
        assert len(f) > 100
        assert certify(f).validate() == f
        assert membership_calls == [4]

    def test_public_lift_and_decompose_still_check(self, membership_calls):
        f = rank_four_member()
        h = ds_eval(f)
        remainder = f - lift_window(h)
        assert membership_calls == [2]
        kernel_decompose(remainder)
        assert membership_calls == [2, 4]

    def test_non_symmetric_input_raises(self):
        with pytest.raises(NotSymmetric):
            certify(LaurentPoly(4, {(1, 0, 0, 0): 1}))

    def test_non_member_input_raises(self):
        with pytest.raises(NotMember):
            certify(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))
        with pytest.raises(NotMember):
            certify(rank_four_member() + LaurentPoly(4, {
                (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}))


class TestLevelsAgainstThePublicChecks:
    @settings(max_examples=40, deadline=None)
    @given(window_member())
    def test_kernel_coordinates_and_replay(self, f):
        cert = certify(f)
        value = f
        for level in cert.levels:
            assert level.rank == value.arity
            assert level.kernel_coeffs == kernel_decompose(value - level.lift_part)
            value = ds_eval(value)
        assert cert.bottom == value
        assert cert.validate() == f
