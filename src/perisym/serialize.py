"""JSON forms of the package's values.

Coefficients travel as decimal strings so arbitrary-precision integers
survive any JSON tooling; polynomial terms and expansion coefficients are
emitted in canonical (graded-lex descending) order, making serialization
a canonical form: equal values always produce identical JSON.
"""

from __future__ import annotations

import re
from typing import Any

from .laurent import LaurentPoly
from .lift import Certificate, CertificateLevel
from .dsmap import MembershipReport
from .schur import SchurExpansion
from .thinkac import KClass


def poly_to_dict(f: LaurentPoly) -> dict[str, Any]:
    return {
        "n": f.arity,
        "terms": [
            {"exp": list(exps), "coef": str(coef)} for exps, coef in f.sorted_terms()
        ],
    }


_DECIMAL = re.compile(r"[+-]?[0-9]+", re.ASCII)


def _int(value: Any, what: str) -> int:
    """A JSON integer or decimal string as an int; anything else, floats
    and booleans included, raises ValueError rather than being rounded."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(f"{what} must be an integer or a decimal string, got {value!r}")


def _int_list(value: Any, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(_int(v, what) for v in value)


def _entries(data: Any, what: str, keys: tuple[str, str]) -> list[dict]:
    if not isinstance(data, list) or not all(
            isinstance(item, dict) and all(k in item for k in keys) for item in data):
        raise ValueError(f"{what} must be a list of objects with keys "
                         f"{' and '.join(repr(k) for k in keys)}")
    return data


def poly_from_dict(data: Any) -> LaurentPoly:
    if not isinstance(data, dict) or "n" not in data or "terms" not in data:
        raise ValueError("polynomial JSON needs keys 'n' and 'terms'")
    arity = _int(data["n"], "'n'")
    terms: dict[tuple[int, ...], int] = {}
    for item in _entries(data["terms"], "'terms'", ("exp", "coef")):
        exps = _int_list(item["exp"], "'exp'")
        if exps in terms:
            raise ValueError(f"duplicate exponent vector {list(exps)}")
        terms[exps] = _int(item["coef"], "'coef'")
    return LaurentPoly(arity, terms)


def _coeffs_to_list(items) -> list[dict[str, Any]]:
    return [{"weight": list(lam), "coef": str(coef)} for lam, coef in items]


def schur_to_dict(expansion: SchurExpansion) -> dict[str, Any]:
    return {
        "n": expansion.arity,
        "coeffs": _coeffs_to_list(expansion.sorted_items()),
    }


def _coeffs_from_dict(data: Any, what: str, basis: str | None = None) -> tuple[int, dict]:
    """The arity and the weight -> coefficient map of a combination JSON
    object.  With ``basis`` given, a ``"basis"`` key must name it; an
    absent key means that basis."""
    n, items = _fields(data, what, ("n", "coeffs"))
    if basis is not None and data.get("basis", basis) != basis:
        raise ValueError(f"unsupported basis {data['basis']!r}")
    arity = _int(n, "'n'")
    coeffs: dict[tuple[int, ...], int] = {}
    for item in _entries(items, "'coeffs'", ("weight", "coef")):
        lam = _int_list(item["weight"], "'weight'")
        if lam in coeffs:
            raise ValueError(f"duplicate weight {list(lam)}")
        coeffs[lam] = _int(item["coef"], "'coef'")
    return arity, coeffs


def schur_from_dict(data: Any) -> SchurExpansion:
    return SchurExpansion(*_coeffs_from_dict(data, "Schur expansion JSON"))


def kclass_to_dict(cls: SchurExpansion | KClass) -> dict[str, Any]:
    return {
        "n": cls.arity,
        "basis": "thinkac",
        "coeffs": _coeffs_to_list(cls.sorted_items()),
    }


def kclass_from_dict(data: Any) -> KClass:
    return KClass(*_coeffs_from_dict(data, "class JSON", "thinkac"))


def membership_to_dict(report: MembershipReport) -> dict[str, Any]:
    witness = None
    if report.witness is not None:
        witness = {"t_exp": report.witness[0], "exp": list(report.witness[1])}
    return {
        "member": report.member,
        "symmetric": report.symmetric,
        "t_independent": report.t_independent,
        "witness": witness,
    }


def certificate_to_dict(cert: Certificate) -> dict[str, Any]:
    return {
        "levels": [
            {
                "rank": level.rank,
                "lift": poly_to_dict(level.lift_part),
                "kernel": kclass_to_dict(level.kernel_coeffs),
            }
            for level in cert.levels
        ],
        "bottom": poly_to_dict(cert.bottom),
    }


def _fields(data: Any, what: str, keys: tuple[str, ...]) -> list[Any]:
    """The values of ``data`` at ``keys``; ValueError names a missing key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing key {key!r}")
    return [data[key] for key in keys]


def certificate_from_dict(data: Any) -> Certificate:
    items, bottom = _fields(data, "certificate JSON", ("levels", "bottom"))
    if not isinstance(items, list):
        raise ValueError(f"'levels' must be a list, got {items!r}")
    levels = []
    for item in items:
        rank, lift, kernel = _fields(item, "certificate level", ("rank", "lift", "kernel"))
        levels.append(
            CertificateLevel(
                _int(rank, "'rank'"),
                poly_from_dict(lift),
                SchurExpansion(*_coeffs_from_dict(kernel, "level 'kernel'", "thinkac")),
            )
        )
    return Certificate(tuple(levels), poly_from_dict(bottom))
