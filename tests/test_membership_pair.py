"""``membership`` of a symmetric f slices at the evaluation pair (n - 1, n);
by symmetry its report, witness included, is the one the pair (1, 2)
gives.  A non-symmetric f is still sliced at (1, 2)."""

import random

import pytest

from perisym import LaurentPoly, MembershipReport, membership, membership_window_basis

import util


def report_at_first_pair(f):
    witness = f.substitute_pair(1, 2).t_witness()
    return MembershipReport(f.is_symmetric(), witness is None, witness)


def window_member(n, rng, bound=2, picks=4):
    basis = membership_window_basis(n, bound)
    out = LaurentPoly.zero(n)
    for index in rng.sample(range(len(basis)), min(picks, len(basis))):
        out = out + rng.randint(-3, 3) * basis[index]
    return out


class TestMembershipPair:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetric_reports_match_the_first_pair(self, n):
        rng = random.Random(n)
        members = [window_member(n, rng, bound=1) for _ in range(10)]
        others = [util.random_symmetric(n, rng, terms=4) for _ in range(30)]
        kinds = set()
        for f in members + others:
            report = membership(f)
            assert report == report_at_first_pair(f), f
            kinds.add(report.member)
        assert kinds == {True, False}

    def test_non_symmetric_reports_are_unchanged(self):
        rng = random.Random(7)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                f = util.random_nonzero_poly(n, rng)
                if not f.is_symmetric():
                    assert membership(f) == report_at_first_pair(f), f
