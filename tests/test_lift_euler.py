"""The Euler-characteristic lift and the identities it rests on.

Notation: m = n - 2k, gamma_k = (0^2k, -1, ..., -m), and E_k(mu) at rank
n is the Euler characteristic for (0^2k, mu) and gamma_k.

- (A) ds^k E_k(mu) = R_m s_mu, checked against the bialternant oracle;
- (B) ds(E_{k+1}(mu) at rank n) = E_k(mu) at rank n - 2.

``lift_euler`` needs both: each round must lower the filtration level of
its target.  ``certify`` lifts through it by default and falls back to
the window search when a round stalls.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from perisym import (LaurentPoly, LiftStalled, SchurExpansion, certify, denominators, ds_eval,
                     ds_power, euler, euler_characteristic, euler_lift_element,
                     filtration_level, lift, lift_euler, lift_window, membership,
                     membership_window_basis, serialize)
from perisym.errors import ArityMismatch, NotDominant, NotMember
from perisym.verify import schur_bialternant_oracle

from test_change_of_basis import run_cli_limited


def dominant(m, low, high):
    return itertools.combinations_with_replacement(range(high, low - 1, -1), m)


def euler_element(n, k, mu):
    """E_k(mu) at rank n through the public Euler characteristic."""
    m = len(mu)
    return euler_characteristic((0,) * (2 * k) + mu,
                                (0,) * (2 * k) + tuple(range(-1, -m - 1, -1)))[0]


def seeded_member(m, seed, bound=2, picks=4):
    rng = random.Random(seed)
    basis = membership_window_basis(m, bound)
    out = LaurentPoly.zero(m)
    for index in rng.sample(range(len(basis)), min(picks, len(basis))):
        out = out + rng.randint(-3, 3) * basis[index]
    return out


CASES = [(n, k) for n in range(0, 6) for k in range(n // 2 + 1)]


@pytest.mark.parametrize("n, k", CASES)
def test_identity_a(n, k):
    for mu in dominant(n - 2 * k, -1, 2):
        expected = denominators(len(mu))[0] * schur_bialternant_oracle(mu)
        assert ds_power(euler_element(n, k, mu), k) == expected, (n, k, mu)


@pytest.mark.parametrize("n, k", [(n, k) for n, k in CASES if k >= 1])
def test_identity_b(n, k):
    for mu in dominant(n - 2 * k, -2, 2):
        assert ds_eval(euler_element(n, k, mu)) == euler_element(n - 2, k - 1, mu), (n, k, mu)


@pytest.mark.parametrize("n, k", CASES)
def test_lift_element_is_the_euler_characteristic(n, k):
    for mu in dominant(n - 2 * k, -1, 1):
        table = euler_lift_element(n, k, mu)
        assert SchurExpansion(n, table).to_poly() == euler_element(n, k, mu)
        assert euler_lift_element(n, k, list(mu)) is table
        with pytest.raises(TypeError):
            table[mu] = 1


def test_lift_element_guards():
    with pytest.raises(ArityMismatch):
        euler_lift_element(4, 1, (0,))
    with pytest.raises(ArityMismatch):
        euler_lift_element(2, -1, (0, 0, 0, 0))
    with pytest.raises(NotDominant):
        euler_lift_element(4, 1, (0, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2 ** 32))
def test_lift_is_a_member_preimage(m, seed):
    h = seeded_member(m, seed)
    preimage = lift_euler(h)
    assert preimage.arity == m + 2
    assert ds_eval(preimage) == h
    assert membership(preimage).member


def test_rank_six_lifts():
    for seed in range(3):
        h = seeded_member(4, seed)
        assert ds_eval(lift_euler(h)) == h


def test_lift_rejects_non_members():
    with pytest.raises(NotMember):
        lift_euler(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))


def test_stalled_round_names_the_round_and_level(monkeypatch):
    h = seeded_member(2, 5)
    level = filtration_level(h)
    monkeypatch.setattr(euler, "euler_lift_element", lambda n, k, mu: {})
    with pytest.raises(LiftStalled, match=f"round 1 .* level at {level}, not below {level}"):
        lift_euler(h)


class TestCertifyRoutes:
    def test_rejects_unknown_route(self):
        with pytest.raises(ValueError, match="lift route"):
            certify(LaurentPoly.one(2), lift="orbit")

    def test_falls_back_to_the_window_lift(self, monkeypatch):
        def stall(h):
            raise LiftStalled("round 1")

        members = [seeded_member(4, seed) for seed in range(4)]
        euler_certs = [certify(f) for f in members]
        monkeypatch.setattr(lift, "_lift_euler", stall)
        for f, cert in zip(members, euler_certs):
            fallback = certify(f)
            assert fallback == certify(f, lift="window")
            assert fallback != cert
            assert fallback.validate() == f

    def test_routes_agree_on_diagonal_targets(self):
        f = LaurentPoly(4, {(1, 1, 1, 1): 2, (0, 0, 0, 0): -1})
        assert certify(f) == certify(f, lift="window")

    def test_every_level_validates(self):
        for n in (2, 3, 4, 5):
            for seed in range(3):
                f = seeded_member(n, seed)
                cert = certify(f)
                assert cert.validate() == f
                assert [level.rank for level in cert.levels] == list(range(n, 1, -2))


def test_rank_six_certify_in_bounded_memory():
    f = seeded_member(6, 1)
    assert len(f) > 1000
    code, out = run_cli_limited("certify", "--n", "6", "-f",
                                json.dumps(serialize.poly_to_dict(f)))
    assert code == 0
    cert = serialize.certificate_from_dict(json.loads(out))
    assert cert.validate() == f
    assert cert.top_rank() == 6


def test_cli_lift_methods():
    h = seeded_member(2, 3)
    payload = json.dumps(serialize.poly_to_dict(h))
    code, out = run_cli_limited("lift", "--n", "4", "--method", "euler", "-h", payload)
    assert code == 0
    assert serialize.poly_from_dict(json.loads(out)) == lift_euler(h)
    code, out = run_cli_limited("lift", "--n", "4", "-h", payload)
    assert code == 0
    assert serialize.poly_from_dict(json.loads(out)) == lift_window(h)
