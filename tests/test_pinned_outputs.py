"""Pinned outputs: SHA-256 digests of the canonical JSON of lifts,
certificates and membership window bases on seeded inputs.

The other tests check that a lift evaluates to its target; these pin
*which* preimage, certificate and basis the library returns, so a change
to the linear algebra that alters a pivot shows up here.  The digests
were recorded before the echelon heap and the orbit-column build were
reworked, and the outputs must stay bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import random

from perisym import LaurentPoly, certify, ds_eval, lift_window, membership_window_basis
from perisym import serialize


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def window_member(rng: random.Random, n: int, bound: int) -> LaurentPoly:
    """Four random window-basis elements with coefficients in [-3, 3]."""
    basis = membership_window_basis(n, bound)
    out = LaurentPoly.zero(n)
    for index in rng.sample(range(len(basis)), 4):
        out = out + rng.randint(-3, 3) * basis[index]
    return out


def is_diagonal(poly: LaurentPoly) -> bool:
    return all(len(set(exps)) <= 1 for exps in poly.terms)


def lift_targets(seed: str, count: int, max_abs: int, bound: int) -> list[LaurentPoly]:
    """Nonzero, non-diagonal J_2 members whose largest exponent magnitude
    is ``max_abs``: the default search starts at Window(max_abs + 4)."""
    rng = random.Random(seed)
    targets = []
    while len(targets) < count:
        h = window_member(rng, 2, bound)
        if h.is_zero() or is_diagonal(h) or h.max_abs_exponent() != max_abs:
            continue
        targets.append(h)
    return targets


def lift_digest(targets: list[LaurentPoly]) -> str:
    lifts = [lift_window(h) for h in targets]
    assert all(ds_eval(f) == h for f, h in zip(lifts, targets))
    return digest([serialize.poly_to_dict(f) for f in lifts])


def test_lifts_at_window_six():
    targets = lift_targets("pinned-lift-6", 12, 2, 2)
    assert lift_digest(targets) == (
        "75f67a382ef34bdd1b5f51ce325ea137eb169b27b6685acd54d34300c49c3741")


def test_lift_at_window_five():
    targets = lift_targets("pinned-lift-5", 1, 1, 1)
    assert lift_digest(targets) == (
        "c930df400c61199e2cc70b318499106fa92e67528cd9a37e11aa721f8d9be96c")


def test_certificates_of_rank_four_members():
    rng = random.Random("pinned-certify")
    members = []
    while len(members) < 5:
        f = window_member(rng, 4, 2)
        if not f.is_zero():
            members.append(f)
    certs = [certify(f) for f in members]
    assert all(cert.validate() == f for cert, f in zip(certs, members))
    assert digest([serialize.certificate_to_dict(c) for c in certs]) == (
        "e43bf59b369985399251468b655a4945bd169f3f5635796bca19e659f82f876e")


def test_membership_window_bases():
    bases = {
        f"{n},{bound}": [serialize.poly_to_dict(f)
                         for f in membership_window_basis(n, bound)]
        for n, bound in ((4, 2), (3, 4))
    }
    assert digest(bases) == (
        "b16c4422623f8c785877df388af44d5c1fa3bf4946dfbf028fd0592508acabf5")
