"""Polynomials written from monomial-orbit coordinates keep them, any
other symmetric polynomial records them on its first symmetry check, and
the evaluation map, the membership test, the symmetry test and the Schur
expansion read them.  The readers are checked against a reference built
from the term-by-term slice alone, on inputs written from orbits, built
with the constructor and read from JSON; values of unknown symmetry are
checked to carry none until they are checked."""

from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from perisym import (LaurentPoly, MembershipReport, NotMember, SchurExpansion, ds_eval,
                     ds_power, euler_characteristic, euler_lift_element, membership,
                     membership_window_basis, monomial_orbit_sum, orbit_sum_combination,
                     schur_poly, sch_thin_kac)
from perisym.laurent import _from_orbits, _read_only
from perisym.schur import _schur_coefficients, denominators
from perisym.serialize import poly_from_dict, poly_to_dict
from perisym.thinkac import thin_kac_combination


def term_copy(f):
    """The same terms with no orbit coordinates until its first symmetry
    check records them."""
    return LaurentPoly(f.arity, f.terms)


def check_orbits(f):
    """An orbit map that is set has weakly decreasing keys and nonzero
    values, and writes f back."""
    orbits = f._orbits
    assert orbits is not None
    for mu, c in orbits.items():
        assert list(mu) == sorted(mu, reverse=True) and len(mu) == f.arity
        assert c
    assert _from_orbits(f.arity, orbits) == f


def outcome(call, f):
    """call(f), or the witness of the NotMember it raises."""
    try:
        return "value", call(f)
    except NotMember as exc:
        return "not member", exc.witness


def weight(n, low=-2, high=3):
    return st.lists(st.integers(low, high), min_size=n, max_size=n).map(
        lambda entries: tuple(sorted(entries, reverse=True)))


@st.composite
def orbit_maps(draw, n):
    return draw(st.dictionaries(weight(n), st.integers(-3, 3), max_size=4))


@st.composite
def euler_elements(draw, n):
    """E_k(mu) for a dominant mu of length n - 2k, entries in [-1, 2];
    k >= 1 at n = 6, where E_0(mu) is the table of R_6 s_mu."""
    k = draw(st.integers(1 if n == 6 else 0, n // 2))
    mu = draw(weight(n - 2 * k, -1, 2))
    return SchurExpansion(n, euler_lift_element(n, k, mu)).to_poly()


@st.composite
def symmetric_polys(draw):
    """Orbit sums, members of J_n (Euler characteristics and thin-Kac
    combinations), and members plus orbit sums, which mostly are not."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["orbits", "euler", "thin kac", "member plus orbits"]))
    if kind == "thin kac" and n < 6:
        f = thin_kac_combination(n, draw(st.dictionaries(weight(n, -1, 1), st.integers(-3, 3),
                                                         max_size=2)))
    elif kind in ("euler", "member plus orbits"):
        f = draw(euler_elements(n))
        if kind == "member plus orbits":
            f = f + _from_orbits(n, draw(orbit_maps(n)))
    else:
        f = _from_orbits(n, draw(orbit_maps(n)))
    return f


class TestReadersAgainstTheTermRoute:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_polys())
    @example(_from_orbits(2, {(1, 0): 1}))
    @example(_from_orbits(2, {(1, 1): 2, (0, 0): -1}))
    @example(_from_orbits(3, {(1, 0, 0): 1, (0, 0, -1): -1}))
    @example(_from_orbits(3, {(2, 1, 0): 1, (1, 1, 1): -2}))
    def test_every_reader_matches(self, f):
        check_orbits(f)
        g = term_copy(f)
        assert g._orbits is None
        assert f.is_symmetric() and g.is_symmetric()
        assert membership(f) == membership(g)
        assert _schur_coefficients(f) == _schur_coefficients(g)
        got, want = outcome(ds_eval, f), outcome(ds_eval, g)
        assert got == want
        if got[0] == "value":
            check_orbits(got[1])
        else:
            assert membership(f).witness == got[1]
        for k in range(f.arity // 2 + 1):
            assert outcome(lambda p: ds_power(p, k), f) == outcome(lambda p: ds_power(p, k), g)

    @pytest.mark.parametrize("orbits, witness", [
        ({(1, 0): 1}, (1, ())),
        ({(1, -1): 3}, (2, ())),
        ({(1, 0, 0): 1}, (1, (0,))),
        ({(2, 1, 0): 1, (1, 1, 1): 4}, (2, (1,))),
    ])
    def test_small_arities_report_tuple_rests(self, orbits, witness):
        """At n = 2 and 3 the rest has no entry or one, which must still
        be a tuple."""
        f = _from_orbits(len(next(iter(orbits))), orbits)
        assert membership(f) == MembershipReport(True, False, witness)
        assert membership(term_copy(f)) == MembershipReport(True, False, witness)

    @pytest.mark.parametrize("orbits, image", [
        ({(1, 1): 2, (0, 0): -1}, {(): 1}),
        ({(1, 0, 0): 1, (0, 0, -1): -1, (1, 1, 1): 2}, {(1,): 3, (-1,): -1}),
    ])
    def test_small_arities_evaluate(self, orbits, image):
        f = _from_orbits(len(next(iter(orbits))), orbits)
        got = ds_eval(f)
        assert got == LaurentPoly(f.arity - 2, image) == ds_eval(term_copy(f))
        check_orbits(got)


class TestPropagation:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), orbit_maps(n), orbit_maps(n))), st.integers(-3, 3))
    def test_operations_keep_the_invariant(self, maps, k):
        n, a, b = maps
        f, g = _from_orbits(n, a), _from_orbits(n, b)
        for value, expected in [
            (f + g, term_copy(f) + term_copy(g)),
            (f - g, term_copy(f) - term_copy(g)),
            (-f, -term_copy(f)),
            (k * f, k * term_copy(f)),
            (f * k, term_copy(f) * k),
            (f + k, term_copy(f) + k),
            (k - f, k - term_copy(f)),
            (_read_only(f), f),
        ]:
            assert value == expected
            check_orbits(value)
        if membership(f).member:
            check_orbits(ds_eval(f))

    def test_constants_carry_orbits(self):
        for f in (LaurentPoly.zero(3), LaurentPoly.one(3), LaurentPoly.constant(3, -4),
                  LaurentPoly.constant(0, 5)):
            check_orbits(f)

    def test_writers_carry_orbits(self):
        n = 4
        for f in (schur_poly((2, 1, 0, -1)), sch_thin_kac((1, 0, 0, -1)),
                  SchurExpansion(n, {(1, 1, 0, 0): 2, (0, 0, 0, -1): -1}).to_poly(),
                  euler_characteristic((1, 1, 0, 0), (0, 0, -1, -1))[0],
                  orbit_sum_combination(n, {(0, 1, 0, 0): 1, (1, 0, 0, 0): 1}),
                  monomial_orbit_sum(n, (0, 2, -1, 0)),
                  membership_window_basis(n, 1)[0]):
            check_orbits(f)

    def test_cached_orbit_maps_are_read_only(self):
        f = schur_poly((2, 1, 0))
        with pytest.raises(TypeError):
            f._orbits[(2, 1, 0)] = 5
        g = f + f
        g._orbits[(2, 1, 0)] = 5  # a sum owns its own map
        assert f._orbits[(2, 1, 0)] == 1


class TestUnknownSymmetry:
    def test_no_orbit_map(self):
        f = _from_orbits(3, {(1, 0, 0): 1, (1, 1, -1): 2})
        for value in (LaurentPoly(3, f.terms),
                      poly_from_dict(poly_to_dict(f)),
                      f * f,
                      f.swap_variables(1, 3),
                      LaurentPoly.monomial(3, (1, 1, 1)),
                      f + LaurentPoly.monomial(3, (1, 0, 0))):
            assert value._orbits is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_symmetric_sum_keeps_the_first_pair_report(self, n):
        member = membership_window_basis(n, 1)[0]
        h = member + LaurentPoly.monomial(n, (1,) + (0,) * (n - 1))
        copy = term_copy(h)
        witness = copy.substitute_pair(1, 2).t_witness()
        assert membership(h) == MembershipReport(False, witness is None, witness)
        assert membership(h) == membership(copy)


class TestSlicesTaken:
    @pytest.fixture
    def slices(self, monkeypatch):
        calls = []
        original = LaurentPoly.substitute_pair

        def spy(self, i, j):
            calls.append((self.arity, i, j))
            return original(self, i, j)

        monkeypatch.setattr(LaurentPoly, "substitute_pair", spy)
        return calls

    def test_orbit_values_are_not_sliced_by_terms(self, slices):
        poly = euler_characteristic((2, 2, 2, 2, 0, 0), (0, 0, 0, 0, -1, -1))[0]
        ds_power(poly, 2)
        assert membership(poly).member
        assert slices == []

    def test_json_input_takes_the_orbit_route(self, slices):
        poly = euler_characteristic((1, 1, 0), (0, 0, -1))[0]
        json_poly = poly_from_dict(poly_to_dict(poly))
        assert membership(json_poly).member
        image = ds_eval(json_poly)
        assert slices == []
        check_orbits(image)
        assert dict(image._orbits) == dict(ds_eval(poly)._orbits)


def sliced(f):
    """The evaluation of f read from its term-by-term slice alone: the
    witness of a t-dependent term, or the t-free part as a polynomial."""
    tslice = f.substitute_pair(f.arity - 1, f.arity)
    witness = tslice.t_witness()
    if witness is not None:
        return "not member", witness
    return "value", LaurentPoly(f.arity - 2, tslice.constant_part())


def sliced_power(f, k):
    got = "value", f
    for _ in range(k):
        if got[0] == "value":
            got = sliced(got[1])
    return got


def input_kinds(f):
    """Fresh copies of f written from orbits, built with the constructor
    and read from JSON; the last two have no coordinates until checked."""
    return [lambda: f, lambda: LaurentPoly(f.arity, f.terms),
            lambda: poly_from_dict(poly_to_dict(f))]


class TestReadersAgainstTheSlice:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_polys())
    @example(_from_orbits(2, {(1, 0): 1}))
    @example(_from_orbits(3, {(2, 1, 0): 1, (1, 1, 1): -2}))
    @example(_from_orbits(4, {}))
    def test_readers_match_the_slice(self, f):
        n = f.arity
        witness = f.substitute_pair(1, 2).t_witness()
        for make in input_kinds(f):
            assert membership(make()) == MembershipReport(True, witness is None, witness)
            got = outcome(ds_eval, make())
            assert got == sliced(f)
            if got[0] == "value":
                check_orbits(got[1])
            for k in range(n // 2 + 1):
                assert outcome(lambda p: ds_power(p, k), make()) == sliced_power(f, k)


class TestRecordedCoordinates:
    def test_recorded_map_is_read_only(self):
        f = _from_orbits(3, {(1, 0, 0): 1, (1, 1, -1): 2})
        for g in (LaurentPoly(3, f.terms), poly_from_dict(poly_to_dict(f))):
            assert g._orbits is None
            assert g.is_symmetric()
            assert isinstance(g._orbits, MappingProxyType)
            with pytest.raises(TypeError):
                g._orbits[(1, 0, 0)] = 5
            check_orbits(g)

    def test_recording_changes_no_equality_hash_or_display(self):
        f = _from_orbits(4, {(2, 1, 0, 0): 3, (0, 0, 0, -1): -1})
        fresh, checked = LaurentPoly(4, f.terms), LaurentPoly(4, f.terms)
        assert checked.is_symmetric() and checked._orbits is not None
        assert fresh._orbits is None
        assert checked == fresh == f
        assert hash(checked) == hash(fresh) == hash(f)
        assert repr(checked) == repr(fresh) == repr(f)
        assert str(checked) == str(fresh)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cached_denominator_records_a_read_only_map(self, n):
        r = denominators(n)[0]
        assert r.is_symmetric()
        assert denominators(n)[0] is r
        assert isinstance(r._orbits, MappingProxyType)
        with pytest.raises(TypeError):
            r._orbits[(0,) * n] = 2
        check_orbits(r)

    def test_non_symmetric_values_record_nothing(self):
        f = _from_orbits(3, {(1, 0, 0): 1}) + LaurentPoly.monomial(3, (1, 0, 0))
        assert not f.is_symmetric()
        assert f._orbits is None
