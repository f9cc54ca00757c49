import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perisym import (
    ArityMismatch,
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
from perisym import intlinalg
from perisym import lift as lift_module
from perisym.intlinalg import _axpy, _gcd_pair
from perisym.laurent import grlex_key
from perisym.lift import CertificateLevel, orbit_sum_combination
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

    def test_failure_names_the_window_and_its_sizes(self):
        h = sch_thin_kac((1, 0))
        columns = math.comb(3 + 4 - 1, 4)  # dominant weights of length 4 in [-1, 1]
        with pytest.raises(WindowTooSmall,
                           match=rf"in Window\(bound=1\) \({columns} columns, 0 kernel vectors\)"):
            lift_window(h, window=Window(1))

    def test_failed_search_names_every_window(self, monkeypatch):
        # The search for this target tries Window(6) and Window(8); both
        # are served by systems too small for it.
        h = sch_thin_kac((1, 0))
        small = {6: Window(0), 8: Window(1)}
        build = lift_module._window_system
        monkeypatch.setattr(lift_module, "_window_system",
                            lambda n, window: build(n, small[window.bound]))
        with pytest.raises(WindowTooSmall) as info:
            lift_window(h, max_window=8)
        message = str(info.value)
        for window in small.values():
            system = build(4, window)
            assert (f"{window} ({len(system.weights)} columns, "
                    f"{len(system.echelon.kernel)} kernel vectors)") in message
        assert message.count("no preimage") == 2

    def test_start_above_cap_raises_before_any_system(self, monkeypatch):
        # The search for this target starts at Window(6).
        h = sch_thin_kac((1, 0))
        built = []
        monkeypatch.setattr(lift_module, "_window_system",
                            lambda *args: built.append(args))
        for cap in (0, 5):
            with pytest.raises(WindowTooSmall, match=rf"Window\(bound=6\).*max_window={cap}"):
                lift_window(h, max_window=cap)
        assert built == []

    def test_explicit_window_ignores_cap(self):
        h = sch_thin_kac((1, 0))
        assert lift_window(h, window=Window(6), max_window=0) == lift_window(h)

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

    def test_cached_basis_cannot_be_changed_by_a_caller(self):
        first = membership_window_basis(2, 2)
        snapshot = [f.terms.copy() for f in first]
        with pytest.raises(AttributeError):
            first.append(LaurentPoly.one(2))
        with pytest.raises(TypeError):
            del first[0]
        second = membership_window_basis(2, 2)
        assert second is first
        assert [f.terms for f in second] == snapshot

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


def reference_orbit_sum_combination(n, coeffs):
    """sum_mu c_mu m_mu added key by key in one dict, each orbit sum
    built from the set of distinct permutations, zeros dropped at the
    end."""
    out = {}
    for mu, coef in coeffs.items():
        for exps in set(itertools.permutations(mu)):
            out[exps] = out.get(exps, 0) + coef
    return LaurentPoly(n, {e: c for e, c in out.items() if c})


@st.composite
def orbit_tables(draw):
    """Tables of n <= 6 with repeated entries, zero coefficients and, for
    some keys, a second key in the same orbit."""
    n = draw(st.integers(0, 6))
    coefs = st.integers(-3, 3)
    table = draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), coefs, max_size=5))
    for mu in list(table):
        if draw(st.booleans()):
            table[tuple(draw(st.permutations(mu)))] = draw(coefs)
    return n, table


class TestOrbitSumCombination:
    @settings(max_examples=200, deadline=None)
    @given(orbit_tables())
    @example((2, {(1, 0): 1, (0, 1): 1}))
    @example((3, {(1, 0, 0): 2, (0, 0, 1): -2, (0, 0, 0): 0}))
    @example((0, {(): 4}))
    def test_matches_key_by_key_sum(self, case):
        n, table = case
        assert orbit_sum_combination(n, table) == reference_orbit_sum_combination(n, table)

    def test_keys_in_one_orbit_add(self):
        assert orbit_sum_combination(2, {(1, 0): 1, (0, 1): 1}) == LaurentPoly(
            2, {(1, 0): 2, (0, 1): 2})
        assert orbit_sum_combination(2, {(1, 0): 1, (0, 1): -1}).is_zero()

    def test_rejects_wrong_arity(self):
        with pytest.raises(ArityMismatch):
            orbit_sum_combination(2, {(1, 0, 0): 1})

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            orbit_sum_combination(2, {(1, 0): 2.5})
        with pytest.raises(TypeError):
            orbit_sum_combination(2, {(1, 0): "2"})


def reference_reduce_by_lattice(x, basis, order_key):
    """The lattice reduction as first written: echelonize the basis on
    every call, then floor-reduce x at each leading unknown."""
    if not basis:
        return x
    rows = [(max(r, key=order_key), r) for r in map(dict, basis) if r]
    echelon = []
    while rows:
        lead = max((r_lead for r_lead, _ in rows), key=order_key)
        group = [r for r_lead, r in rows if r_lead == lead]
        rest = [(r_lead, r) for r_lead, r in rows if r_lead != lead]
        head = group[0]
        for other in group[1:]:
            a, b = head[lead], other[lead]
            if b % a == 0:
                _axpy(other, head, -(b // a))
            else:
                head, other = _gcd_pair(head, other, a, b)
            if other:
                rest.append((max(other, key=order_key), other))
        if head[lead] < 0:
            head = {k: -v for k, v in head.items()}
        echelon.append((lead, head))
        rows = rest
    x = dict(x)
    for lead, vec in sorted(echelon, key=lambda lv: order_key(lv[0]), reverse=True):
        q = x.get(lead, 0) // vec[lead]
        if q:
            _axpy(x, vec, -q)
    return {k: v for k, v in x.items() if v}


class TestWindowFiveReduction:
    def test_lifts_equal_the_uncached_reduction(self, monkeypatch):
        echelons = []
        lattice_echelon = intlinalg.lattice_echelon
        monkeypatch.setattr(intlinalg, "lattice_echelon",
                            lambda *args: echelons.append(args) or lattice_echelon(*args))
        system = lift_module._window_system.__wrapped__(4, Window(5))
        basis = system.echelon.kernel_vectors()
        assert 0 < len(basis) <= lift_module._REDUCTION_SIZE_LIMIT
        rng = random.Random("window-five")
        targets = []
        while len(targets) < 3:
            h = random_member(2, rng, bound=1, picks=3)
            if any(len(set(e)) > 1 for e in h.terms):
                targets.append(h)
        for h in targets:
            rhs = {system.row_index[(0, e)]: c for e, c in h.terms.items()
                   if list(e) == sorted(e, reverse=True)}
            x = reference_reduce_by_lattice(system.echelon.solve(rhs), basis,
                                            lambda i: grlex_key(system.weights[i]))
            assert system.solve(h) == {system.weights[i]: c for i, c in x.items()}
        assert len(echelons) == 1
