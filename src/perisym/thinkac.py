"""Supercharacters of thin Kac modules and the translation action.

The supercharacter of the thin Kac module with dominant highest weight
``lam`` is ``(-1)^parity(lam) * prod_{i<j}(1 - x_i x_j) * s_lam``.  Formal
integer combinations of these classes form :class:`KClass`; the
translation operators act on them by moving a single bead of the weight
diagram, with signs normalized so that summing over all positions
reproduces multiplication by the supercharacter of the standard module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import NotDominant
from .laurent import LaurentPoly, _linear_combination, grlex_key
from .schur import denominator_factors, denominators, schur_poly
from .weights import Weight, check_dominant, from_diagram, parity, to_diagram


@dataclass(frozen=True)
class KClass:
    """An integer combination of thin-Kac basis symbols, keyed by
    dominant weight.  The parity-shifted module carries the negated
    symbol, so signs are part of the data."""

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
        if not isinstance(other, KClass):
            return NotImplemented
        return self.arity == other.arity and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __add__(self, other: "KClass") -> "KClass":
        if self.arity != other.arity:
            raise NotDominant("cannot add classes of different arities")
        out = dict(self.coeffs)
        for lam, coef in other.coeffs.items():
            new = out.get(lam, 0) + coef
            if new:
                out[lam] = new
            else:
                del out[lam]
        return KClass(self.arity, out)

    def __neg__(self) -> "KClass":
        return KClass(self.arity, {lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)

    def __mul__(self, scalar: int) -> "KClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return KClass(self.arity, {lam: c * scalar for lam, c in self.coeffs.items()})

    __rmul__ = __mul__

    @classmethod
    def basis(cls, lam: Iterable[int]) -> "KClass":
        lam = check_dominant(lam)
        return cls(len(lam), {lam: 1})


_thin_kac_cache: dict[Weight, LaurentPoly] = {}


def sch_thin_kac(lam: Iterable[int]) -> LaurentPoly:
    """Supercharacter of the thin Kac module with highest weight lam."""
    lam = check_dominant(lam)
    cached = _thin_kac_cache.get(lam)
    if cached is None:
        n = len(lam)
        sign = -1 if parity(lam) else 1
        cached = sign * denominators(n)[0] * schur_poly(lam)
        _thin_kac_cache[lam] = cached
    return cached


def thin_kac_combination(arity: int, coeffs: Mapping[Weight, int]) -> LaurentPoly:
    """The polynomial sum_lam c_lam * sch_thin_kac(lam) for thin-Kac
    coordinates ``coeffs`` in ``arity`` variables.

    Computed as R * sum_lam (-1)^parity(lam) c_lam s_lam: the Schur
    polynomials are summed in one pass, then multiplied by the binomial
    factors of R, so no thin-Kac supercharacter is built or cached.
    """
    out = _linear_combination(arity, (
        (-coef if parity(lam) else coef, schur_poly(lam)) for lam, coef in coeffs.items()
    ))
    for factor in denominator_factors(arity)[0]:
        out = out * factor
    return out


def kclass_sch(cls: KClass) -> LaurentPoly:
    """Supercharacter of a formal combination of thin-Kac symbols."""
    return thin_kac_combination(cls.arity, cls.coeffs)


def sch_standard(n: int) -> LaurentPoly:
    """Supercharacter of the standard (n|n) module:
    sum_i x_i - sum_i x_i^{-1}."""
    terms: dict[tuple[int, ...], int] = {}
    for i in range(n):
        up = [0] * n
        up[i] = 1
        terms[tuple(up)] = 1
        down = [0] * n
        down[i] = -1
        terms[tuple(down)] = -1
    return LaurentPoly._raw(n, terms)


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
        bead_set = set(beads)
        p_lam = parity(lam)
        if k + 1 not in bead_set:
            mu = from_diagram(tuple(sorted((b if b != k else k + 1 for b in beads), reverse=True)))
            sign = -1 if (p_lam + parity(mu)) % 2 else 1
            new = out.get(mu, 0) + sign * coef
            if new:
                out[mu] = new
            else:
                del out[mu]
        if k - 1 not in bead_set:
            mu = from_diagram(tuple(sorted((b if b != k else k - 1 for b in beads), reverse=True)))
            sign = -1 if (p_lam + parity(mu)) % 2 else 1
            new = out.get(mu, 0) - sign * coef
            if new:
                out[mu] = new
            else:
                del out[mu]
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
