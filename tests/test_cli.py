import json
import re
import sys

import pytest

from perisym import (
    KClass,
    LaurentPoly,
    certify,
    ds_eval,
    ds_power,
    euler_characteristic,
    kernel_decompose,
    lift_window,
    sch_thin_kac,
    theta_prime,
)
from perisym.cli import main
from perisym import serialize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out else None)


POLY_X1X2X3 = json.dumps(serialize.poly_to_dict(LaurentPoly(3, {(1, 1, 1): 1})))
POLY_X1_PLUS_X2 = json.dumps(
    serialize.poly_to_dict(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))
)


class TestCommands:
    def test_thinkac(self, capsys):
        code, data = run_json(capsys, "thinkac", "--n", "2", "--lambda", "0,0")
        assert code == 0
        assert data == {
            "n": 2,
            "terms": [
                {"exp": [1, 1], "coef": "-1"},
                {"exp": [0, 0], "coef": "1"},
            ],
        }
        assert serialize.poly_from_dict(data) == sch_thin_kac((0, 0))

    def test_schur(self, capsys):
        code, data = run_json(capsys, "schur", "--n", "2", "--lambda", "1,-1")
        assert code == 0
        assert serialize.poly_from_dict(data) == LaurentPoly(
            2, {(1, -1): 1, (0, 0): 1, (-1, 1): 1}
        )

    def test_ds(self, capsys):
        code, data = run_json(capsys, "ds", "--n", "3", "-f", POLY_X1X2X3)
        assert code == 0
        assert data == {"n": 1, "terms": [{"exp": [1], "coef": "1"}]}

    def test_ds_power_flag(self, capsys):
        code, data = run_json(capsys, "ds", "--n", "4", "--k", "2", "-f",
                              json.dumps(serialize.poly_to_dict(LaurentPoly.one(4))))
        assert code == 0
        assert serialize.poly_from_dict(data) == ds_power(LaurentPoly.one(4), 2)

    def test_member_negative_report_exits_zero(self, capsys):
        code, data = run_json(capsys, "member", "-f", POLY_X1_PLUS_X2)
        assert code == 0
        assert data == {
            "member": False,
            "symmetric": True,
            "t_independent": False,
            "witness": {"t_exp": 1, "exp": []},
        }

    def test_kernel_decompose(self, capsys):
        poly = json.dumps(serialize.poly_to_dict(sch_thin_kac((1, 0))))
        code, data = run_json(capsys, "kernel-decompose", "--n", "2", "-f", poly)
        assert code == 0
        assert data["basis"] == "thinkac"
        expansion = kernel_decompose(sch_thin_kac((1, 0)))
        assert serialize.schur_from_dict(data) == expansion

    def test_euler_with_symbol(self, capsys):
        code, data = run_json(
            capsys, "euler", "--n", "4", "--gamma", "0,0,-1,-1",
            "--lambda", "a,a,0,0", "--a", "1",
        )
        assert code == 0
        poly, expansion = euler_characteristic((1, 1, 0, 0), (0, 0, -1, -1))
        assert serialize.poly_from_dict(data["poly"]) == poly
        assert serialize.schur_from_dict(data["schur"]) == expansion

    def test_theta(self, capsys):
        payload = json.dumps(serialize.kclass_to_dict(KClass.basis((0, 0))))
        code, data = run_json(capsys, "theta", "--k", "0", "-f", payload)
        assert code == 0
        assert serialize.kclass_from_dict(data) == theta_prime(0, KClass.basis((0, 0)))

    def test_lift(self, capsys):
        target = json.dumps(serialize.poly_to_dict(LaurentPoly(1, {(1,): 1})))
        code, data = run_json(capsys, "lift", "--n", "3", "-h", target)
        assert code == 0
        assert serialize.poly_from_dict(data) == LaurentPoly(3, {(1, 1, 1): 1})

    def test_certify_roundtrip(self, capsys):
        f = sch_thin_kac((0, 0)) - 3
        payload = json.dumps(serialize.poly_to_dict(f))
        code, data = run_json(capsys, "certify", "--n", "2", "-f", payload)
        assert code == 0
        cert = serialize.certificate_from_dict(data)
        assert cert.validate() == f

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d["levels"][0].pop("kernel"), "missing key 'kernel'"),
        (lambda d: d["levels"][0].pop("rank"), "missing key 'rank'"),
        (lambda d: d["levels"][0].pop("lift"), "missing key 'lift'"),
        (lambda d: d["levels"][0]["kernel"].pop("n"), "missing key 'n'"),
        (lambda d: d["levels"][0]["kernel"].pop("coeffs"), "missing key 'coeffs'"),
        (lambda d: d.pop("bottom"), "missing key 'bottom'"),
        (lambda d: d.update(levels={"rank": 2}), "'levels' must be a list"),
        (lambda d: d.update(levels=None), "'levels' must be a list"),
        (lambda d: d["levels"].append([2]), "certificate level must be an object"),
        (lambda d: d["levels"][0].update(kernel=[]), "level 'kernel' must be an object"),
    ], ids=["no-kernel", "no-rank", "no-lift", "kernel-no-n", "kernel-no-coeffs",
            "no-bottom", "levels-dict", "levels-null", "level-list", "kernel-list"])
    def test_certificate_from_dict_fails_closed(self, damage, message):
        data = serialize.certificate_to_dict(certify(sch_thin_kac((0, 0)) - 3))
        damage(data)
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize.certificate_from_dict(data)

    @pytest.mark.parametrize("read, data, message", [
        (serialize.schur_from_dict, {"coeffs": []}, "missing key 'n'"),
        (serialize.schur_from_dict, {"n": 2}, "missing key 'coeffs'"),
        (serialize.kclass_from_dict, {"coeffs": []}, "missing key 'n'"),
        (serialize.kclass_from_dict, {"n": 2, "basis": "thinkac"}, "missing key 'coeffs'"),
        (serialize.kclass_from_dict, {"n": 1, "basis": "schur", "coeffs": []},
         "unsupported basis 'schur'"),
        (serialize.kclass_from_dict, [], "must be an object"),
    ], ids=["schur-no-n", "schur-no-coeffs", "class-no-n", "class-no-coeffs",
            "class-schur-basis", "class-list"])
    def test_coefficient_payloads_fail_closed(self, read, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            read(data)

    def test_certificate_kernel_in_schur_basis_rejected(self):
        data = serialize.certificate_to_dict(certify(sch_thin_kac((0, 0)) - 3))
        data["levels"][0]["kernel"]["basis"] = "schur"
        with pytest.raises(ValueError, match="unsupported basis 'schur'"):
            serialize.certificate_from_dict(data)

    def test_verify_suite_single_criterion(self, capsys):
        code, out = run(capsys, "verify-suite", "--criteria", "7")
        assert code == 0
        assert "criterion 7 [PASS]" in out
        assert "1/1 criteria passed" in out

    def test_verify_suite_json(self, capsys):
        code, data = run_json(capsys, "verify-suite", "--criteria", "7,8", "--json")
        assert code == 0
        assert [c["number"] for c in data["criteria"]] == [7, 8]
        for c in data["criteria"]:
            assert set(c) == {"number", "name", "passed", "detail", "seconds"}
            assert c["passed"] is True and isinstance(c["seconds"], float)
        assert (data["passed"], data["total"]) == (2, 2)

    @staticmethod
    def fail_criterion_7(monkeypatch):
        from perisym import verify
        failing = verify.CriterionResult(7, "denominator identity", False, "forced", 0.0)
        criteria = list(verify.ALL_CRITERIA)
        criteria[6] = lambda: failing
        monkeypatch.setattr(verify, "ALL_CRITERIA", tuple(criteria))

    def test_verify_suite_failure_exits_nonzero(self, capsys, monkeypatch):
        self.fail_criterion_7(monkeypatch)
        code, out = run(capsys, "verify-suite", "--criteria", "7")
        assert code == 1
        assert out.splitlines() == ["criterion 7 [FAIL] denominator identity: forced (0.0s)",
                                    "0/1 criteria passed"]

    def test_verify_suite_json_reports_failure(self, capsys, monkeypatch):
        self.fail_criterion_7(monkeypatch)
        code, data = run_json(capsys, "verify-suite", "--criteria", "7", "--json")
        assert code == 1
        assert data == {"criteria": [{"number": 7, "name": "denominator identity",
                                      "passed": False, "detail": "forced", "seconds": 0.0}],
                        "passed": 0, "total": 1}


class TestExitCodes:
    def test_usage_error_missing_flag(self, capsys):
        assert main(["thinkac", "--n", "2"]) == 1

    def test_usage_error_bad_json(self, capsys):
        assert main(["member", "-f", "{not json"]) == 1

    def test_usage_error_bad_weight(self, capsys):
        assert main(["thinkac", "--n", "2", "--lambda", "1,q"]) == 1

    def test_domain_error_not_member(self, capsys):
        code, data = run_json(capsys, "ds", "--n", "2", "-f", POLY_X1_PLUS_X2)
        assert code == 2
        assert data["error"] == "NotMember"

    def test_domain_error_arity(self, capsys):
        code, data = run_json(capsys, "ds", "--n", "2", "-f", POLY_X1X2X3)
        assert code == 2
        assert data["error"] == "ArityMismatch"

    def test_domain_error_weight_length(self, capsys):
        code, data = run_json(capsys, "thinkac", "--n", "3", "--lambda", "1,0")
        assert code == 2
        assert data["error"] == "ArityMismatch"

    def test_file_payload(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text(POLY_X1X2X3, encoding="utf-8")
        code, data = run_json(capsys, "ds", "--n", "3", "-f", str(path))
        assert code == 0
        assert data == {"n": 1, "terms": [{"exp": [1], "coef": "1"}]}

    def test_missing_file(self, capsys):
        assert main(["ds", "--n", "3", "-f", "no-such-file.json"]) == 1


class TestEmptyWeight:
    """Empty --lambda and --gamma text is the weight of arity 0."""

    @pytest.mark.parametrize("command, value", [
        ("schur", LaurentPoly(0, {(): 1})),
        ("thinkac", sch_thin_kac(())),
    ])
    def test_rank_zero_weight(self, capsys, command, value):
        code, data = run_json(capsys, command, "--n", "0", "--lambda", "")
        assert code == 0
        assert serialize.poly_from_dict(data) == value

    @pytest.mark.parametrize("text", ["", "  "])
    def test_rank_zero_euler(self, capsys, text):
        code, data = run_json(capsys, "euler", "--n", "0", "--gamma", text,
                              "--lambda", text)
        assert code == 0
        poly, expansion = euler_characteristic((), ())
        assert serialize.poly_from_dict(data["poly"]) == poly
        assert serialize.schur_from_dict(data["schur"]) == expansion

    def test_empty_weight_at_positive_rank_is_a_length_mismatch(self, capsys):
        code, data = run_json(capsys, "schur", "--n", "2", "--lambda", "")
        assert code == 2
        assert data["error"] == "ArityMismatch"


class TestSerializationRoundtrips:
    def test_poly_duplicate_exponent_rejected(self):
        with pytest.raises(ValueError):
            serialize.poly_from_dict(
                {"n": 1, "terms": [{"exp": [1], "coef": "1"},
                                   {"exp": [1], "coef": "2"}]}
            )

    def test_big_coefficients_survive(self):
        big = 10 ** 40
        f = LaurentPoly(2, {(1, 0): big, (0, 1): -big})
        data = json.loads(json.dumps(serialize.poly_to_dict(f)))
        assert serialize.poly_from_dict(data) == f

    def test_lift_preimage_roundtrip(self):
        h = sch_thin_kac((1, 0))
        f = lift_window(h)
        data = json.loads(json.dumps(serialize.poly_to_dict(f)))
        assert serialize.poly_from_dict(data) == f


class TestInputBoundary:
    """Malformed input exits 1 with a message and no traceback."""

    def check_usage_error(self, capsys, *argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("payload, message", [
        ({"n": 2, "terms": [{"exp": [1, 0], "coef": 2.9},
                            {"exp": [0, 1], "coef": "2"}]}, "'coef'"),
        ({"n": 2, "terms": [{"exp": [1, 0], "coef": True}]}, "'coef'"),
        ({"n": 2, "terms": [{"exp": [1.0, 0], "coef": "1"}]}, "'exp'"),
        ({"n": 2.0, "terms": []}, "'n'"),
        ({"n": False, "terms": []}, "'n'"),
        ({"n": 2, "terms": [{"exp": [1, 0], "coef": "2.9"}]}, "'coef'"),
        ({"n": 2, "terms": [{"coef": "1"}]}, "'terms'"),
    ])
    def test_member_rejects_non_integers(self, capsys, payload, message):
        self.check_usage_error(capsys, "member", "-f", json.dumps(payload),
                               message=message)

    def test_theta_rejects_float_weight(self, capsys):
        payload = {"n": 2, "basis": "thinkac",
                   "coeffs": [{"weight": [0.5, 0], "coef": "1"}]}
        self.check_usage_error(capsys, "theta", "--k", "0", "-f", json.dumps(payload),
                               message="'weight'")

    def test_integer_strings_still_accepted(self, capsys):
        payload = {"n": "2", "terms": [{"exp": ["1", 0], "coef": "-3"},
                                       {"exp": [0, "1"], "coef": -3}]}
        code, data = run_json(capsys, "member", "-f", json.dumps(payload))
        assert code == 0
        assert data["symmetric"] is True

    @pytest.mark.parametrize("criteria, message", [
        ("", "bad --criteria"),
        ("x", "bad --criteria"),
        ("1,,2", "bad --criteria"),
        ("10", "unknown criterion numbers [10]"),
        ("0,7", "unknown criterion numbers [0]"),
    ])
    def test_verify_suite_bad_criteria(self, capsys, criteria, message):
        self.check_usage_error(capsys, "verify-suite", "--criteria", criteria,
                               message=message)


class TestLiftRegressions:
    def test_lift_from_window_five_at_rank_four(self, capsys):
        # A target whose lift search starts at Window(5): reducing by the
        # kernel lattice used to divide by a stored zero entry.
        h = LaurentPoly(2, {(1, 0): -1, (0, 1): -1, (0, -1): 1, (-1, 0): 1})
        payload = json.dumps(serialize.poly_to_dict(h))
        code, data = run_json(capsys, "lift", "--n", "4", "-h", payload)
        assert code == 0
        assert ds_eval(serialize.poly_from_dict(data)) == h

    def test_lift_from_window_five_at_rank_four_on_the_window_route(self, capsys):
        # The same target through the window search, which reduces its
        # Window(5) lift by the kernel lattice.
        h = LaurentPoly(2, {(1, 0): -1, (0, 1): -1, (0, -1): 1, (-1, 0): 1})
        payload = json.dumps(serialize.poly_to_dict(h))
        code, data = run_json(capsys, "lift", "--n", "4", "--method", "window", "-h", payload)
        assert code == 0
        assert ds_eval(serialize.poly_from_dict(data)) == h


class TestWindowCap:
    TARGET = json.dumps(serialize.poly_to_dict(sch_thin_kac((1, 0))))

    def test_negative_max_window_is_usage_error(self, capsys):
        code = main(["lift", "--n", "4", "-h", self.TARGET, "--max-window", "-3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--max-window" in err and "Traceback" not in err

    def test_start_above_cap_is_domain_error(self, capsys, monkeypatch):
        from perisym import lift as lift_module

        built = []
        monkeypatch.setattr(lift_module, "_window_system", lambda *args: built.append(args))
        code, data = run_json(capsys, "lift", "--n", "4", "-h", self.TARGET, "--max-window", "0",
                              "--method", "window")
        assert code == 2
        assert data["error"] == "WindowTooSmall"
        assert "max_window=0" in data["message"]
        assert built == []

    @pytest.mark.parametrize("argv", [("lift", "--n", "4", "-h"), ("certify", "--n", "2", "-f")])
    def test_bad_env_cap_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("PERISYM_MAX_WINDOW", "abc")
        code = main([*argv, self.TARGET])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "PERISYM_MAX_WINDOW" in captured.err and "Traceback" not in captured.err


class TestLongCoefficients:
    """Coefficients past Python's default 4,300-digit cap on int <-> str
    conversion are read and printed exactly by the CLI, and an in-process
    caller keeps its own cap.  No int above the cap is converted here: the
    payloads and the expected output are written as strings."""

    def test_theta_prints_a_coefficient_past_the_cap(self, capsys):
        nines = "9" * 4300  # c; the output coefficient is -2c, 4,301 digits
        payload = json.dumps({"n": 2, "basis": "thinkac", "coeffs": [
            {"weight": [-1, -1], "coef": nines}, {"weight": [-2, -2], "coef": nines}]})
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, data = run_json(capsys, "theta", "--k", "-1", "-f", payload)
        assert code == 0
        assert data["coeffs"] == [{"weight": [-1, -2], "coef": "-1" + "9" * 4299 + "8"}]
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    def test_member_and_ds_read_a_six_thousand_digit_coefficient(self, capsys):
        coef = "7" * 6000
        payload = json.dumps({"n": 2, "terms": [{"exp": [1, 0], "coef": coef},
                                                {"exp": [0, 1], "coef": coef}]})
        code, data = run_json(capsys, "member", "-f", payload)
        assert code == 0
        assert data["symmetric"] is True and data["member"] is False
        code, data = run_json(capsys, "ds", "--n", "2", "--k", "0", "-f", payload)
        assert code == 0
        assert data == json.loads(payload)
