"""Pinned outputs: SHA-256 digests of the canonical JSON of lifts,
certificates and membership window bases on seeded inputs.

The other tests check that a lift evaluates to its target; these pin
*which* preimage, certificate and basis the library returns, so a change
to the linear algebra that alters a pivot shows up here.  The digests
were recorded before the echelon heap and the orbit-column build were
reworked, and the outputs must stay bit-identical.

The CLI pins hash the raw stdout bytes of one ``perisym`` process per
command on fixed payloads; they were recorded before the Schur and
thin-Kac combination types were merged.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import perisym
from perisym import (
    KClass,
    LaurentPoly,
    certify,
    ds_eval,
    lift_window,
    membership_window_basis,
    sch_standard,
    sch_thin_kac,
)
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
    certs = [certify(f, lift="window") for f in members]
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


def cli_stdout_digest(*argv: str) -> str:
    """SHA-256 of the stdout bytes of ``python -m perisym.cli ARGV``."""
    env = dict(os.environ, PYTHONPATH=str(Path(perisym.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "perisym.cli", *argv],
                          capture_output=True, env=env, check=True)
    return hashlib.sha256(proc.stdout).hexdigest()


def test_cli_euler_stdout():
    assert cli_stdout_digest(
        "euler", "--n", "4", "--gamma", "0,0,-1,-1", "--lambda", "a,a,0,0", "--a", "1",
    ) == "2c2487ccfa2e6eea9cec6d930a8bab09478e8664b18bd5a22071f55600770e47"


def test_cli_kernel_decompose_stdout():
    f = sch_thin_kac((1, 0, 0)) - 2 * sch_thin_kac((0, 0, -1)) + 3 * sch_thin_kac((2, 1, 1))
    payload = json.dumps(serialize.poly_to_dict(f))
    assert cli_stdout_digest("kernel-decompose", "--n", "3", "-f", payload) == (
        "7f04b07b20336583776ac3f09d4ae301d754a8c0956c6fcdf4ac825720cee4fd")


def test_cli_theta_stdout():
    cls = KClass(3, {(1, 0, 0): 2, (0, 0, -1): -1, (2, 1, 0): 3, (0, -1, -1): 1})
    payload = json.dumps(serialize.kclass_to_dict(cls))
    assert cli_stdout_digest("theta", "--k", "0", "-f", payload) == (
        "0d3b6c9fbc78cdded45eb48aae9e82308f21dd8ec46791c71941a6401b9d8ca1")


def test_cli_certify_stdout():
    f = sch_thin_kac((1, 0, 0, 0)) + sch_standard(4) - 2
    payload = json.dumps(serialize.poly_to_dict(f))
    assert cli_stdout_digest("certify", "--n", "4", "--lift", "window", "-f", payload) == (
        "506caaebe96edf5407a837f7d7e4a31f4b8f9fff89c5326de0f8d54acea13139")


def test_euler_certificates_of_rank_four_members():
    """The default route's certificates of the members above."""
    rng = random.Random("pinned-certify")
    members = []
    while len(members) < 5:
        f = window_member(rng, 4, 2)
        if not f.is_zero():
            members.append(f)
    certs = [certify(f) for f in members]
    assert certs == [certify(f, lift="euler") for f in members]
    assert all(cert.validate() == f for cert, f in zip(certs, members))
    assert digest([serialize.certificate_to_dict(c) for c in certs]) == (
        "2591807503c91cf1827e1df830775cda0d756fe11b95447c2fedbf4bdfe7e391")


def test_cli_certify_default_stdout():
    f = sch_thin_kac((1, 0, 0, 0)) + sch_standard(4) - 2
    payload = json.dumps(serialize.poly_to_dict(f))
    expected = "b7ecc17e1b7a9cef62969df676b3210ac1c42fb6865d357a763843a80bcc0bec"
    assert cli_stdout_digest("certify", "--n", "4", "-f", payload) == expected
    assert cli_stdout_digest("certify", "--n", "4", "--lift", "euler", "-f", payload) == expected
