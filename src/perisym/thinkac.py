"""Supercharacters of thin Kac modules and the translation action.

The supercharacter of the thin Kac module with dominant highest weight
``lam`` is ``(-1)^parity(lam) * prod_{i<j}(1 - x_i x_j) * s_lam``.  Formal
integer combinations of these classes form :class:`KClass`; the
translation operators act on them by moving a single bead of the weight
diagram, with signs normalized so that summing over all positions
reproduces multiplication by the supercharacter of the standard module.

:func:`thin_kac_combination` and its inverse :func:`_thin_kac_coordinates`
are the two directions of the change of basis to polynomials.  Both read
the cached Schur coordinates of R * s_lam (:func:`_brauer_klimyk`, the
product of R's terms with s_lam), and neither multiplies nor divides by
R: the first sums the tables of its weights and writes the sum once; the
second peels the Schur coefficients of its input by them, one weight at
a time.
The first is the zero-base case of :func:`_thin_kac_plus`, which adds
the tables to the Schur coefficients of a symmetric base, such as a
certificate level's lift, before writing anything.  The peel itself
(:func:`_peel`) takes Schur coordinates, not a polynomial, so a caller
that already holds coordinates, such as a certificate level subtracting
its lift's from those of its element, writes no polynomial to peel.
"""

from __future__ import annotations

import functools
import heapq
import operator
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NotDivisible, NotSymmetric
from .intlinalg import _axpy
from .laurent import LaurentPoly, _from_orbits, _read_only
from .schur import (SchurExpansion, _WeightCombination, _from_schur, _product,
                    _schur_coefficients, denominator_factors)
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
    coordinates ``coeffs`` in ``arity`` variables: the zero-base case of
    :func:`_thin_kac_plus`, so nothing is multiplied by R."""
    return _thin_kac_plus(LaurentPoly.zero(arity), coeffs)


def _thin_kac_plus(base: LaurentPoly, coeffs: Mapping[Weight, int]) -> LaurentPoly:
    """base + sum_lam c_lam * sch_thin_kac(lam) for a symmetric base and
    thin-Kac coordinates ``coeffs`` in its arity, written once.

    The sum is R q for the Schur sum q = sum_lam (-1)^parity(lam) c_lam
    s_lam, so its Schur coefficients are those of base
    (:func:`schur._schur_coefficients`) plus the Brauer-Klimyk tables of
    R s_lam (:func:`_brauer_klimyk`) weighted by q.  Only the weights
    that survive that sum are written out as a polynomial.  Raises
    NotSymmetric unless base is symmetric.  The coordinates and base are
    checked before any table is read, as the tables are cached by lam
    alone, and a zero q builds no factor of R.
    """
    n = base.arity
    q = SchurExpansion(n, _parity_signed(coeffs))
    if not base.is_symmetric():
        raise NotSymmetric("not a symmetric Laurent polynomial")
    g = _schur_coefficients(base)
    if n < 2 or q.is_zero():  # R = 1, or nothing to multiply
        _axpy(g, q.coeffs, 1)
    else:
        r_terms = _expanded(denominator_factors(n)[0])
        for lam, c in q.coeffs.items():
            _axpy(g, _brauer_klimyk(lam, r_terms), c)
    return _from_schur(n, g)


def _thin_kac_coordinates(f: LaurentPoly) -> SchurExpansion:
    """Thin-Kac coordinates of a symmetric f in the kernel of the
    evaluation map, unchecked: the inverse of :func:`thin_kac_combination`.
    The Schur coefficients of f (:func:`schur._schur_coefficients`),
    peeled by the tables of R s_lam (:func:`_peel`) and parity-signed.
    Raises NotDivisible exactly when R does not divide f.
    """
    n = f.arity
    return SchurExpansion(n, _parity_signed(_peel(n, _schur_coefficients(f))))


def _peel(n: int, g: dict[Weight, int]) -> dict[Weight, int]:
    """The Schur coefficients d of q with R q = sum_mu g_mu s_mu, for the
    nonzero Schur coefficients g of a symmetric f in n variables; g is
    consumed.  Raises NotDivisible unless R divides f.  No polynomial is
    divided, and none is read: the guard below needs only g.

    If f = R q with q = sum_lam d_lam s_lam, then g = sum_lam d_lam BK_lam,
    with BK_lam the expansion of R s_lam (:func:`_brauer_klimyk`).  The
    lex-largest weight of BK_lam is lam + (n - 1) * 1, with coefficient
    (-1)^C(n, 2), so the lex-largest weight mu of g gives the lex-largest
    lam = mu - (n - 1) * 1 of q and d_lam = g_mu / BK_lam[mu].  The peel
    subtracts d_lam BK_lam and repeats until g is zero.

    Termination: NotDivisible is raised unless every entry of lam lies in
    [a, b - (n - 1)], where a is the least last entry and b the largest
    first entry over the support of g.  These are the least and largest
    exponents of f.  The lex-largest weight lam* of g keeps its
    monomial: x^lam* occurs in s_lam only for lam dominating lam*, which
    are lex-larger and so not in g, hence f has the term g_lam* x^lam*.
    No term of any s_lam has an exponent above lam_1, and lam*_1 is the
    largest first entry, so b is the largest exponent of f; the least, a,
    follows by x -> 1/x, which sends s_lam to s_(-lam_n, ..., -lam_1).
    When f = R q, taking the part of largest x_1-degree of each factor
    shows that b is n - 1 plus the largest lam_1 over the support of q,
    by the same argument for q, and a is the least lam_n, since R has a
    constant term.  The peel meets exactly the support of q, so the guard
    passes on every such f.  On any input each step removes the top
    weight mu of g and adds only weights below it, so the tops strictly
    decrease in lex order; the guard keeps the lam, hence the mu, in a
    finite box, so the peel ends.  If it ends with g = 0, f and R q have
    the same Schur coefficients, so f = R q.  The peel therefore succeeds
    exactly when R divides f, and since R has the factor
    1 - x_{n-1} x_n, success implies a zero evaluation.

    A nonzero g reads the factors of R once (expanded once per arity); a
    zero g is answered before they are built.
    """
    if not g or n < 2:  # R = 1 below arity 2
        return g
    r_terms = _expanded(denominator_factors(n)[0])
    lowest = min(mu[-1] for mu in g)
    highest = max(mu[0] for mu in g) - (n - 1)
    tops = [tuple(map(operator.neg, mu)) for mu in g]
    heapq.heapify(tops)
    queued = set(g)  # a weight that sums to zero keeps its entry
    coords: dict[Weight, int] = {}
    while tops:
        mu = tuple(map(operator.neg, heapq.heappop(tops)))
        top = g.get(mu)
        if top is None:  # summed to zero after it was queued
            continue
        lam = tuple(e - (n - 1) for e in mu)
        if lam[-1] < lowest or lam[0] > highest:
            raise NotDivisible("not divisible by R")
        table = _brauer_klimyk(lam, r_terms)
        c, r = divmod(top, table[mu])
        if r:
            raise NotDivisible("not divisible by R")
        coords[lam] = c
        for nu in _axpy(g, table, -c)[0]:  # removes mu, adds only below it
            if nu not in queued:
                queued.add(nu)
                heapq.heappush(tops, tuple(map(operator.neg, nu)))
    return coords


@functools.cache
def _expanded(factors: tuple[LaurentPoly, ...]) -> tuple[tuple[Weight, int], ...]:
    """The terms of the product of nonempty ``factors``, such as the
    1 - x_i x_j of R, multiplied out by ``LaurentPoly.__mul__``, cached.
    The peel, :func:`_thin_kac_plus`, ``euler._tail_table`` and the tests
    read them as a tuple of (exponents, coefficient) pairs."""
    return tuple(functools.reduce(operator.mul, factors).terms.items())


_brauer_klimyk_cache: dict[Weight, Mapping[Weight, int]] = {}


def _brauer_klimyk(lam: Weight, r_terms: tuple[tuple[Weight, int], ...]) -> Mapping[Weight, int]:
    """The nonzero Schur coefficients of R s_lam, where ``r_terms`` are
    the terms R_beta x^beta of R: the product of those terms with s_lam
    (:func:`schur._product`).  Cached by lam, read-only."""
    table = _brauer_klimyk_cache.get(lam)
    if table is None:
        table = _brauer_klimyk_cache[lam] = MappingProxyType(_product(r_terms, {lam: 1}))
    return table


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
