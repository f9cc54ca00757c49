"""Schur Laurent polynomials and expansion of symmetric polynomials.

``schur_poly`` computes the character of the gl(n)-irreducible with a
given dominant highest weight (negative entries allowed) as a bialternant:
the alternant sum for ``lam + rho`` divided exactly by the Vandermonde.
``schur_expand`` inverts this, peeling graded-lex leading monomials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import NotDominant, NotSymmetric
from .laurent import LaurentPoly, grlex_key, permutations_with_signs
from .weights import Weight, check_dominant


@dataclass(frozen=True)
class SchurExpansion:
    """A finite integer combination of Schur polynomials, keyed by
    dominant weight.  Zero coefficients are dropped on construction."""

    arity: int
    coeffs: Mapping[Weight, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for lam, coef in self.coeffs.items():
            lam = tuple(int(a) for a in lam)
            if len(lam) != self.arity:
                raise NotDominant(f"weight {lam} does not match arity {self.arity}")
            check_dominant(lam)
            if coef:
                clean[lam] = int(coef)
        object.__setattr__(self, "coeffs", clean)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self.arity == other.arity and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def to_poly(self) -> LaurentPoly:
        """The Laurent polynomial this expansion represents."""
        out = LaurentPoly.zero(self.arity)
        for lam, coef in self.sorted_items():
            out = out + coef * schur_poly(lam)
        return out


@functools.cache
def denominator_factors(n: int) -> tuple[tuple[LaurentPoly, ...], tuple[LaurentPoly, ...]]:
    """The binomial factors of the denominators in n variables: the
    ``1 - x_i x_j`` of R and the ``x_i - x_j`` of V, for i < j in
    lexicographic order."""
    r_factors = []
    v_factors = []
    for i in range(n):
        for j in range(i + 1, n):
            pair = [0] * n
            pair[i] = 1
            pair[j] = 1
            r_factors.append(LaurentPoly.one(n) - LaurentPoly.monomial(n, pair))
            v_factors.append(LaurentPoly.variable(n, i + 1) - LaurentPoly.variable(n, j + 1))
    return tuple(r_factors), tuple(v_factors)


_denominator_cache: dict[int, tuple[LaurentPoly, LaurentPoly]] = {}


def denominators(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The pair (R, V) of denominator products in n variables:
    R = prod_{i<j} (1 - x_i x_j) and V = prod_{i<j} (x_i - x_j).

    R is symmetric; V (the Vandermonde) is alternating.  Both are the
    empty product 1 when n <= 1.
    """
    if n not in _denominator_cache:
        products = []
        for factors in denominator_factors(n):
            out = LaurentPoly.one(n)
            for factor in factors:
                out = out * factor
            products.append(out)
        _denominator_cache[n] = tuple(products)
    return _denominator_cache[n]


def alternant(nu: Iterable[int]) -> LaurentPoly:
    """The alternating sum over the symmetric group of signed monomials
    x^{w(nu)}.  Vanishes when nu has a repeated entry."""
    nu = tuple(int(a) for a in nu)
    n = len(nu)
    terms: dict[tuple[int, ...], int] = {}
    for perm, sign in permutations_with_signs(n):
        exps = tuple(nu[p] for p in perm)
        new = terms.get(exps, 0) + sign
        if new:
            terms[exps] = new
        else:
            del terms[exps]
    return LaurentPoly._raw(n, terms)


_schur_cache: dict[Weight, LaurentPoly] = {}


def schur_poly(lam: Iterable[int]) -> LaurentPoly:
    """The Schur Laurent polynomial s_lam for a dominant weight lam.

    Entries may be negative: s_lam = (x_1...x_n)^{lam_n} * s_{lam - lam_n}
    reduces to a partition, whose bialternant numerator is divided exactly
    by the Vandermonde, factor by factor.
    """
    lam = check_dominant(lam)
    cached = _schur_cache.get(lam)
    if cached is not None:
        return cached
    n = len(lam)
    if n == 0:
        result = LaurentPoly.one(0)
    else:
        shift = lam[-1]
        mu = tuple(a - shift for a in lam)
        nu = tuple(mu[i] + (n - 1 - i) for i in range(n))
        result = alternant(nu)
        for binom in denominator_factors(n)[1]:
            result = result.exact_divide(binom)
        if shift:
            result = result * LaurentPoly.monomial(n, (shift,) * n)
    _schur_cache[lam] = result
    return result


def schur_expand(f: LaurentPoly) -> SchurExpansion:
    """Expand a symmetric Laurent polynomial in the Schur basis.

    Repeatedly peels the graded-lex leading monomial x^lam, which for a
    symmetric polynomial always has dominant lam and is the leading
    monomial of s_lam, so the leading term strictly decreases.
    """
    if not f.is_symmetric():
        raise NotSymmetric("Schur expansion needs a symmetric polynomial")
    coeffs: dict[Weight, int] = {}
    work = f
    while not work.is_zero():
        exps, coef = work.leading_term()
        lam = tuple(exps)
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise NotSymmetric(f"leading monomial {lam} of a symmetric polynomial "
                               "should be weakly decreasing")
        coeffs[lam] = coef
        work = work - coef * schur_poly(lam)
    return SchurExpansion(f.arity, coeffs)
