"""Supercharacters of thin Kac modules and the translation action.

The supercharacter of the thin Kac module with dominant highest weight
``lam`` is ``(-1)^parity(lam) * prod_{i<j}(1 - x_i x_j) * s_lam``.  Formal
integer combinations of these classes form :class:`KClass`; the
translation operators act on them by moving a single bead of the weight
diagram, with signs normalized so that summing over all positions
reproduces multiplication by the supercharacter of the standard module.

:func:`thin_kac_combination` and its inverse :func:`_thin_kac_coordinates`
are the two directions of the change of basis to polynomials.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .laurent import (LaurentPoly, _divide_by_binomials, _from_orbits,
                      _multiply_by_binomials, _read_only)
from .schur import (SchurExpansion, _WeightCombination, _alternant_coefficients,
                    denominator_factors)
from .weights import Weight, check_dominant, from_diagram, parity, to_diagram


class KClass(_WeightCombination):
    """An integer combination of thin-Kac basis symbols, keyed by
    dominant weight.  The parity-shifted module carries the negated
    symbol, so signs are part of the data."""


_thin_kac_cache: dict[Weight, LaurentPoly] = {}


def sch_thin_kac(lam: Iterable[int]) -> LaurentPoly:
    """Supercharacter of the thin Kac module with highest weight lam:
    the one-weight combination {lam: 1} (:func:`thin_kac_combination`).
    Results are cached by lam, with read-only terms."""
    lam = check_dominant(lam)
    cached = _thin_kac_cache.get(lam)
    if cached is None:
        cached = _thin_kac_cache[lam] = _read_only(thin_kac_combination(len(lam), {lam: 1}))
    return cached


def thin_kac_combination(arity: int, coeffs: Mapping[Weight, int]) -> LaurentPoly:
    """The polynomial sum_lam c_lam * sch_thin_kac(lam) for thin-Kac
    coordinates ``coeffs`` in ``arity`` variables: the Schur sum
    sum_lam (-1)^parity(lam) c_lam s_lam, written once
    (:meth:`schur.SchurExpansion.to_poly`) and multiplied by the factors
    of R on packed exponents (:func:`laurent._multiply_by_binomials`).
    No thin-Kac supercharacter or s_lam is built, and a zero sum is
    returned before the factors of R are.
    """
    out = SchurExpansion(arity, _parity_signed(coeffs)).to_poly()
    if out.is_zero():
        return out
    return _multiply_by_binomials(out, denominator_factors(arity)[0])


def _thin_kac_coordinates(f: LaurentPoly) -> SchurExpansion:
    """Thin-Kac coordinates of a symmetric f in the kernel of the
    evaluation map, unchecked: the inverse of :func:`thin_kac_combination`.
    Exact division by R (NotDivisible otherwise) implies a zero
    evaluation, as R has the factor 1 - x_{n-1} x_n.  The quotient is
    symmetric, so its alternant coefficients are its Schur coefficients.
    A zero f is answered before the factors of R are built.
    """
    if f.is_zero():
        return SchurExpansion(f.arity)
    quotient = _divide_by_binomials(f, denominator_factors(f.arity)[0])
    return SchurExpansion(f.arity, _parity_signed(_alternant_coefficients(quotient)))


def _parity_signed(coeffs: Mapping[Weight, int]) -> dict[Weight, int]:
    """c_lam -> (-1)^parity(lam) c_lam, the sign between thin-Kac
    coordinates and the Schur coordinates of f / R, in either direction."""
    return {lam: -coef if parity(lam) else coef for lam, coef in coeffs.items()}


def kclass_sch(cls: KClass) -> LaurentPoly:
    """Supercharacter of a formal combination of thin-Kac symbols."""
    return thin_kac_combination(cls.arity, cls.coeffs)


def sch_standard(n: int) -> LaurentPoly:
    """Supercharacter of the standard (n|n) module:
    sum_i x_i - sum_i x_i^{-1}, the orbit sums of (1, 0, ..., 0) and
    (0, ..., 0, -1); zero when n = 0."""
    if not n:
        return LaurentPoly.zero(0)
    zeros = (0,) * (n - 1)
    return _from_orbits(n, {(1,) + zeros: 1, zeros + (-1,): -1})


def theta_prime(k: int, cls: KClass, *, parity_twist: bool = False) -> KClass:
    """Translation operator at position ``k`` on thin-Kac combinations.

    On a basis symbol with diagram ``d``: if no bead sits at ``k`` the
    result is zero; otherwise the bead attempts a move to ``k + 1`` and to
    ``k - 1``, each legal when the target is free, producing

        (-1)^{p(lam)+p(mu_right)} [mu_right] - (-1)^{p(lam)+p(mu_left)} [mu_left]

    with only the legal moves included.  Signs are normalized so that the
    sum over all ``k`` equals tensoring with the standard supercharacter.

    With ``parity_twist=True`` the result is additionally multiplied by
    ``(-1)^k``, matching the convention that applies the parity shift k
    times on top of the plain operator.
    """
    out: dict[Weight, int] = {}
    for lam, coef in cls.coeffs.items():
        beads = to_diagram(lam)
        if k not in beads:
            continue
        p_lam = parity(lam)
        for target, step in ((k + 1, 1), (k - 1, -1)):
            if target not in beads:
                mu = from_diagram(tuple(sorted((b if b != k else target for b in beads),
                                               reverse=True)))
                sign = -step if (p_lam + parity(mu)) % 2 else step
                out[mu] = out.get(mu, 0) + sign * coef
    result = KClass(cls.arity, out)
    if parity_twist and k % 2:
        result = -result
    return result


def supertrace_twist(cls: KClass, a: int) -> KClass:
    """Tensor with the a-th power of the supertrace character: each basis
    symbol moves to its shift by a*(1,...,1), with the parity-difference
    sign.  The supercharacter picks up the factor (x_1...x_n)^a."""
    out: dict[Weight, int] = {}
    for lam, coef in cls.coeffs.items():
        mu = tuple(l + a for l in lam)
        sign = -1 if (parity(lam) + parity(mu)) % 2 else 1
        out[mu] = out.get(mu, 0) + sign * coef
    return KClass(cls.arity, out)
