"""Acceptance battery: every criterion is exact (integer arithmetic,
zero tolerance) and prints one pass/fail line."""

from perisym import verify
from perisym.laurent import LaurentPoly


def _check(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_thin_kac_formula():
    _check(verify.criterion_1_thin_kac_formula)


def test_criterion_2_kernel_theorem():
    _check(verify.criterion_2_kernel_theorem)


def test_criterion_3_euler_preimage():
    _check(verify.criterion_3_euler_preimage)


def test_criterion_4_tensor_identity():
    _check(verify.criterion_4_tensor_identity)


def test_criterion_5_certify():
    _check(verify.criterion_5_certify)


def test_criterion_6_homomorphism():
    _check(verify.criterion_6_homomorphism)


def test_criterion_7_denominator_identity():
    _check(verify.criterion_7_denominator_identity)


def test_criterion_8_quotient_reductions():
    _check(verify.criterion_8_quotient_reductions)


def test_criterion_9_euler_lift_identity():
    _check(verify.criterion_9_euler_lift_identity)


class TestFailureExits:
    """A criterion's own failure exit reports its number, name and the
    detail of its first mismatch."""

    def test_criterion_7_reports_first_mismatch(self, monkeypatch):
        monkeypatch.setattr(verify, "alternant", lambda lam: LaurentPoly.zero(len(lam)))
        result = verify.criterion_7_denominator_identity()
        assert (result.number, result.name, result.passed, result.detail) == (
            7, "denominator identity", False, "mismatch at m=0")

    def test_criterion_8_reports_first_mismatch(self, monkeypatch):
        monkeypatch.setattr(verify, "quotient_reduce", lambda f, which: f + 1)
        result = verify.criterion_8_quotient_reductions()
        assert (result.number, result.name, result.passed, result.detail) == (
            8, "quotient reductions", False, "not idempotent (n=2, sp)")
