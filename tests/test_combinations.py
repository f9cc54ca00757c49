"""Weight combinations in the Schur and thin-Kac bases: arithmetic,
basis separation, exact coefficients and JSON round trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perisym import (
    Certificate,
    CertificateLevel,
    KClass,
    LaurentPoly,
    SchurExpansion,
)
from perisym import serialize
from perisym.euler import euler_characteristic
from perisym.laurent import monomial_orbit_sum
from perisym.schur import alternant
from perisym.weights import check_dominant, from_diagram

BASES = [SchurExpansion, KClass]


@st.composite
def coefficient_maps(draw, n=None):
    """An arity n <= 4 and a weight -> coefficient map with weights in
    [-3, 3]^n, zero coefficients included."""
    if n is None:
        n = draw(st.integers(0, 4))
    weights = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda w: tuple(sorted(w, reverse=True)))
    return n, draw(st.dictionaries(weights, st.integers(-5, 5), max_size=5))


@st.composite
def combination_pairs(draw):
    """Two combinations of one basis and one arity."""
    cls = draw(st.sampled_from(BASES))
    n, first = draw(coefficient_maps())
    _, second = draw(coefficient_maps(n))
    return cls(n, first), cls(n, second)


@st.composite
def polys(draw, n):
    exps = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    return LaurentPoly(n, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=4)))


class TestArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(combination_pairs())
    def test_group_laws(self, pair):
        a, b = pair
        assert a + b - b == a
        assert 2 * a == a + a == a * 2
        assert -(-a) == a
        assert (a - a).is_zero()
        assert type(a + b) is type(a - b) is type(3 * a) is type(a)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(BASES), coefficient_maps())
    def test_zero_coefficients_dropped(self, cls, data):
        n, coeffs = data
        combination = cls(n, coeffs)
        assert combination.coeffs == {lam: c for lam, c in coeffs.items() if c}
        assert combination == cls(n, combination.coeffs)

    @settings(max_examples=100, deadline=None)
    @given(coefficient_maps())
    def test_bases_stay_apart(self, data):
        n, coeffs = data
        schur, thin_kac = SchurExpansion(n, coeffs), KClass(n, coeffs)
        assert schur != thin_kac and thin_kac != schur
        for left, right in ((schur, thin_kac), (thin_kac, schur)):
            with pytest.raises(TypeError):
                left + right
            with pytest.raises(TypeError):
                left - right

    def test_basis_symbol(self):
        assert KClass.basis((1, 0)) == KClass(2, {(1, 0): 1})
        assert SchurExpansion.basis((1, 0)) == SchurExpansion(2, {(1, 0): 1})
        assert type(SchurExpansion.basis((0,))) is SchurExpansion


def test_constructors_reject_inexact_coefficients():
    with pytest.raises(TypeError):
        LaurentPoly(1, {(1,): 2.9})
    with pytest.raises(TypeError):
        KClass(1, {(0,): 2.9})
    with pytest.raises(TypeError):
        SchurExpansion(1, {(0,): 2.0})
    assert LaurentPoly(1, {(1,): True}) == LaurentPoly(1, {(1,): 1})


@pytest.mark.parametrize("build", [
    lambda: LaurentPoly.monomial(1, (1,), 2.9),
    lambda: LaurentPoly.constant(1, 2.9),
    lambda: LaurentPoly.monomial(1, (1.7,)),
    lambda: LaurentPoly(1, {(1.7,): 1}),
    lambda: monomial_orbit_sum(2, (1.7, 0)),
    lambda: alternant((1.7, 0)),
    lambda: KClass(1, {(1.7,): 1}),
    lambda: check_dominant((1.7, 0)),
    lambda: from_diagram((2.5, 0)),
    lambda: euler_characteristic((1.7, 0), (0, 0)),
    lambda: euler_characteristic((0, 0), (1.7, 0)),
], ids=["monomial-coef", "constant", "monomial-exp", "init-exp", "orbit-sum",
        "alternant", "combination-weight", "dominant", "diagram",
        "euler-lam", "euler-gamma"])
def test_constructors_reject_inexact_exponents_and_weights(build):
    with pytest.raises(TypeError):
        build()


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(coefficient_maps())
    def test_combinations(self, data):
        n, coeffs = data
        cls = KClass(n, coeffs)
        assert serialize.kclass_from_dict(serialize.kclass_to_dict(cls)) == cls
        expansion = SchurExpansion(n, coeffs)
        assert serialize.schur_from_dict(serialize.schur_to_dict(expansion)) == expansion

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_certificates(self, data):
        """Certificate JSON read back and written again is unchanged.  The
        levels need not form a valid certificate: reading does not
        validate."""
        ranks = data.draw(st.lists(st.integers(2, 4), max_size=3))
        levels = []
        for rank in ranks:
            _, coeffs = data.draw(coefficient_maps(rank))
            levels.append(CertificateLevel(rank, data.draw(polys(rank)),
                                           SchurExpansion(rank, coeffs)))
        cert = Certificate(tuple(levels), data.draw(polys(data.draw(st.integers(0, 1)))))
        wire = json.loads(json.dumps(serialize.certificate_to_dict(cert)))
        assert serialize.certificate_to_dict(serialize.certificate_from_dict(wire)) == wire
