"""Schur Laurent polynomials and expansion of symmetric polynomials.

``schur_poly`` computes the character s_lam of the gl(n)-irreducible with
a given dominant highest weight (negative entries allowed) from its
dominant coefficients: the coefficient of x^nu for weakly decreasing nu is
the Kostka number K(lam, nu), which the branching rule gives by restricting
to one variable fewer at a time, and symmetry copies it to every
permutation of nu.  No polynomial division is involved.  The Kostka
table of lam is the table of lam - lam_n shifted by lam_n, so one
read-only table per translation class is computed once and kept for the
life of the process; it is never evicted.
``SchurExpansion.to_poly`` sums before it expands: the Kostka tables of
all its weights are added into one table of dominant coefficients, and
only the nonzero entries of that sum are copied to their permutations,
so no s_lam is built on the way.  ``schur_poly`` is the one-weight case.
Every Schur-coordinate table in the package is one product, P times a
Schur combination, straightened by the Brauer-Klimyk rule (``_product``)
with no Schur polynomial built.  ``schur_expand`` inverts ``to_poly`` with
it: a symmetric q is a sum of orbit sums, so the expansion adds, by q's
orbit coordinates, the product of each orbit sum with s_0 = 1
(``_schur_coefficients``), computed once per process.
``alternant`` and ``denominators`` give the pieces of the bialternant
formula s_lam = a_{lam + rho} / a_rho, which other modules and the
checks in ``verify`` use.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NotDominant, NotSymmetric
from .intlinalg import _axpy
from .laurent import (
    LaurentPoly,
    _arrangements,
    _from_orbits,
    _orbit_coordinates,
    _read_only,
    grlex_key,
    permutations_with_signs,
    straighten_alternant,
)
from .weights import Weight, check_dominant, is_dominant, rho


@dataclass(frozen=True)
class _WeightCombination:
    """A finite integer combination of basis symbols keyed by dominant
    weight.  Zero coefficients are dropped on construction.  Subclasses
    name the basis; the generated ``__eq__`` compares exact classes, so
    combinations in different bases never compare equal, and arithmetic
    between them raises TypeError."""

    arity: int
    coeffs: Mapping[Weight, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for lam, coef in self.coeffs.items():
            lam = tuple(map(operator.index, lam))
            if len(lam) != self.arity:
                raise NotDominant(f"weight {lam} does not match arity {self.arity}")
            if not is_dominant(lam):
                raise NotDominant(f"{lam} is not weakly decreasing")
            coef = operator.index(coef)
            if coef:
                clean[lam] = coef
        object.__setattr__(self, "coeffs", clean)

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def _plus(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        if self.arity != other.arity:
            raise NotDominant("cannot add classes of different arities")
        out = dict(self.coeffs)
        _axpy(out, other.coeffs, sign)
        return type(self)(self.arity, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return type(self)(self.arity, {lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return type(self)(self.arity, {lam: c * scalar for lam, c in self.coeffs.items()})

    __rmul__ = __mul__

    @classmethod
    def basis(cls, lam: Iterable[int]):
        lam = check_dominant(lam)
        return cls(len(lam), {lam: 1})


class SchurExpansion(_WeightCombination):
    """An integer combination of Schur polynomials, keyed by dominant
    weight."""

    def to_poly(self) -> LaurentPoly:
        """The Laurent polynomial sum_lam c_lam s_lam this expansion
        represents.

        It is symmetric, so its coefficient at any exponent is its
        coefficient D[nu] at the sorted exponent nu, which
        :func:`_dominant_coefficients` sums over all the weights at once.
        Each nonzero D[nu] is then written at every permutation of nu
        (:func:`laurent._from_orbits`), once for the whole expansion; no
        s_lam is built or cached (:func:`_from_schur`).
        """
        return _from_schur(self.arity, self.coeffs)


def _from_schur(arity: int, coeffs: Mapping[Weight, int]) -> LaurentPoly:
    """The polynomial sum_lam c_lam s_lam, unchecked: the writer behind
    :meth:`SchurExpansion.to_poly` for coordinates whose weights are
    already known to be dominant, such as sums of cached tables."""
    return _from_orbits(arity, _dominant_coefficients(coeffs))


@functools.cache
def denominator_factors(n: int) -> tuple[tuple[LaurentPoly, ...], tuple[LaurentPoly, ...]]:
    """The binomial factors of the denominators in n variables: the
    ``1 - x_i x_j`` of R and the ``x_i - x_j`` of V, for i < j in
    lexicographic order.  Cached, with read-only terms."""
    r_factors, v_factors = [], []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        x_ij = LaurentPoly.monomial(n, (int(k in (i, j)) for k in range(1, n + 1)))
        r_factors.append(_read_only(LaurentPoly.one(n) - x_ij))
        v_factors.append(_read_only(LaurentPoly.variable(n, i) - LaurentPoly.variable(n, j)))
    return tuple(r_factors), tuple(v_factors)


@functools.cache
def denominators(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The pair (R, V) of denominator products in n variables:
    R = prod_{i<j} (1 - x_i x_j) and V = prod_{i<j} (x_i - x_j).

    R is symmetric; V (the Vandermonde) is alternating.  Both are the
    empty product 1 when n <= 1.  Cached, with read-only terms.
    """
    return tuple(_read_only(functools.reduce(operator.mul, factors, LaurentPoly.one(n)))
                 for factors in denominator_factors(n))


def alternant(nu: Iterable[int]) -> LaurentPoly:
    """The alternating sum over the symmetric group of signed monomials
    x^{w(nu)}.  Vanishes when nu has a repeated entry."""
    nu = tuple(map(operator.index, nu))
    n = len(nu)
    if len(set(nu)) < n:
        return LaurentPoly.zero(n)
    return LaurentPoly._raw(n, {
        tuple(nu[p] for p in perm): sign for perm, sign in permutations_with_signs(n)
    })


_schur_cache: dict[Weight, LaurentPoly] = {}
_kostka_cache: dict[Weight, Mapping[Weight, int]] = {}


def _dominant_coefficients(combination: Mapping[Weight, int]) -> dict[Weight, int]:
    """The coefficients of sum_lam c_lam s_lam at its weakly decreasing
    exponents nu: D[nu] = sum_lam c_lam K(lam, nu), with the Kostka
    numbers K(lam, nu) given by the branching rule.  Zero sums are
    dropped.

    s_{lam + c} = (x_1...x_n)^c s_lam, so K(lam + c, nu + c) = K(lam, nu):
    the table of lam is the table of lam - lam_n shifted by lam_n.  Tables
    are kept for the life of the process, keyed by the translate with
    least entry 0, and are read-only and never evicted; each is shifted
    back as it is added into the sum.

    In k variables the branching rule reads
    s_lam = sum_{lam'} x_k^{|lam| - |lam'|} s_{lam'}(x_1, ..., x_{k-1}) over
    the lam' interlacing lam (lam_{i+1} <= lam'_i <= lam_i), so
    K(lam, nu) = sum K(lam', nu[:-1]) over interlacing lam' with
    |lam'| = |lam| - nu_k; negative entries are allowed.  All nu of one
    lam are found together.  Their last entry nu_k is at least a floor
    (nu_{k+1}, as nu is weakly decreasing; lam_n at the top) and at most
    |lam| / k (it is the smallest entry).  The upper bound also makes the
    entry of a one-entry lam' at least its floor, so that base case needs
    no check.  The table of (lam', floor) depends on nothing else, so one
    memo, keyed by (lam', floor), serves every table this call has to
    compute, and is dropped when the call returns.
    """
    memo: dict[tuple[Weight, int], dict[Weight, int]] = {}

    def kostka(lam: Weight, floor: int) -> dict[Weight, int]:
        if len(lam) < 2:
            return {lam: 1}
        out = memo.get((lam, floor))
        if out is None:
            out = {}
            total = sum(lam)
            top = total // len(lam)
            for inner in itertools.product(*map(range, lam[1:], (a + 1 for a in lam))):
                last = total - sum(inner)
                if floor <= last <= top:
                    for nu, coef in kostka(inner, last).items():
                        nu += (last,)
                        out[nu] = out.get(nu, 0) + coef
            memo[lam, floor] = out
        return out

    summed: dict[Weight, int] = {}
    get = summed.get
    for lam, c_lam in combination.items():
        low = min(lam, default=0)
        base = tuple(e - low for e in lam)
        table = _kostka_cache.get(base)
        if table is None:
            table = _kostka_cache[base] = MappingProxyType(kostka(base, 0))
        shift = (low,) * len(lam)
        for nu, k in table.items():
            nu = tuple(map(operator.add, nu, shift))
            summed[nu] = get(nu, 0) + c_lam * k
    return {nu: coef for nu, coef in summed.items() if coef}


def schur_poly(lam: Iterable[int]) -> LaurentPoly:
    """The Schur Laurent polynomial s_lam for a dominant weight lam.

    Entries may be negative.  This is the one-weight expansion {lam: 1}
    (:meth:`SchurExpansion.to_poly`), whose dominant coefficients are the
    Kostka numbers K(lam, nu).  Results are cached by lam, with
    read-only terms.
    """
    lam = check_dominant(lam)
    cached = _schur_cache.get(lam)
    if cached is None:
        cached = _schur_cache[lam] = _read_only(SchurExpansion(len(lam), {lam: 1}).to_poly())
    return cached


def _straightened(alternants: Iterable[tuple[Iterable[int], int]]) -> dict[Weight, int]:
    """The c_lam with sum_(nu, c) c * a_nu = sum_lam c_lam a_{lam + rho},
    where a_nu is the alternant of nu: straightening turns each a_nu into
    zero or +-a_{lam + rho}.  Zero sums are dropped."""
    coeffs: dict[Weight, int] = {}
    for nu, coef in alternants:
        res = straighten_alternant(nu)
        if res is not None:
            sign, lam = res
            coeffs[lam] = coeffs.get(lam, 0) + sign * coef
    return {lam: c for lam, c in coeffs.items() if c}


def _product(terms: Iterable[tuple[Weight, int]],
             coeffs: Mapping[Weight, int]) -> dict[Weight, int]:
    """The nonzero Schur coefficients of P * sum_lam d_lam s_lam, where
    ``terms`` are the (beta, c) pairs of P = sum c x^beta: by the
    Brauer-Klimyk rule x^beta s_lam = a_{lam + rho + beta} / a_rho, each
    term and weight give c * d_lam a_{lam + rho + beta}, straightened
    (:func:`_straightened`) term by term, and by weight within a term."""
    shifted = [(tuple(map(operator.add, lam, rho(len(lam)))), d) for lam, d in coeffs.items()]
    return _straightened((map(operator.add, nu, beta), c * d)
                         for beta, c in terms for nu, d in shifted)


def _alternant_coefficients(f: LaurentPoly) -> dict[Weight, int]:
    """The c_lam with A(x^rho * f) = sum_lam c_lam a_{lam + rho}, where A
    antisymmetrizes: the product of f's terms with s_0 = 1
    (:func:`_product`), in time linear in their number."""
    return _product(f.terms.items(), {(0,) * f.arity: 1})


@functools.cache
def _orbit_schur(nu: Weight) -> Mapping[Weight, int]:
    """The nonzero Schur coefficients of the orbit sum m_nu: the product
    of the distinct arrangements of nu (:func:`laurent._arrangements`)
    with s_0 = 1 (:func:`_product`).  Multiplying by (x_1...x_n)^c adds c
    to every weight, so only a nu with least entry 0 is straightened; any
    other copies the table of its translate.  Cached by nu, read-only."""
    low = min(nu, default=0)
    if low:
        shift = (low,) * len(nu)
        coeffs = {tuple(map(operator.add, lam, shift)): c for lam, c in
                  _orbit_schur(tuple(e - low for e in nu)).items()}
    else:
        coeffs = _product(zip(_arrangements(nu), itertools.repeat(1)), {(0,) * len(nu): 1})
    return MappingProxyType(coeffs)


def _schur_coefficients(f: LaurentPoly) -> dict[Weight, int]:
    """The nonzero Schur coefficients of a symmetric f, unchecked.

    f is the sum of F[nu] m_nu over its weakly decreasing exponents nu,
    so its coefficients are sum_nu F[nu] A_nu, with A_nu the expansion of
    m_nu (:func:`_orbit_schur`).  The F[nu] are f's orbit coordinates,
    recorded when f is written from them or on its first symmetry check
    (:func:`laurent._orbit_coordinates`).
    """
    coeffs: dict[Weight, int] = {}
    for nu, c in _orbit_coordinates(f).items():
        _axpy(coeffs, _orbit_schur(nu), c)
    return coeffs


def schur_expand(f: LaurentPoly) -> SchurExpansion:
    """Expand a symmetric Laurent polynomial in the Schur basis.

    Symmetry of f gives f * a_rho = A(x^rho * f), and a_{lam + rho} =
    s_lam * a_rho, so the alternant coefficients of f are its Schur
    coefficients.  They are summed orbit by orbit from cached expansions
    of the orbit sums (:func:`_schur_coefficients`).
    """
    if not f.is_symmetric():
        raise NotSymmetric("Schur expansion needs a symmetric polynomial")
    return SchurExpansion(f.arity, _schur_coefficients(f))
