"""Euler characteristics of parabolically induced line bundles.

A weight ``gamma`` determines a parabolic subalgebra of the periplectic
superalgebra: the nilpotent radical collects the roots pairing positively
with gamma under the standard scalar product.  For a weight ``lam``
constant on the Levi blocks, the Euler characteristic of the associated
line bundle on the flag supervariety is computed by expanding

    x^(lam + rho) * prod_{alpha in odd radical} (1 - x^(-alpha))

and straightening every monomial to a signed Schur contribution.  The
result is symmetric and supersymmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ArityMismatch, LeviIncompatible, NotMember
from .laurent import LaurentPoly, permutations_with_signs, straighten_alternant
from .schur import SchurExpansion
from .weights import Weight, rho
from .dsmap import ds_eval

RootVector = tuple[int, ...]


@dataclass(frozen=True)
class ParabolicDatum:
    """Root data of the parabolic attached to a weight gamma.

    ``even_radical`` lists the gl-roots e_i - e_j with positive pairing;
    ``odd_radical`` the odd roots (e_i + e_j for i <= j, including the
    doubled ones, and -(e_i + e_j) for i < j) with positive pairing;
    ``blocks`` partitions the 1-based variable indices by equal gamma
    entries.
    """

    arity: int
    gamma: Weight
    even_radical: tuple[RootVector, ...]
    odd_radical: tuple[RootVector, ...]
    blocks: tuple[tuple[int, ...], ...]


def radical_roots(gamma: Iterable[int]) -> ParabolicDatum:
    """Compute the radical root sets and Levi blocks for gamma."""
    gamma = tuple(int(g) for g in gamma)
    n = len(gamma)
    even = []
    odd = []
    for i in range(n):
        for j in range(n):
            if i != j and gamma[i] - gamma[j] > 0:
                root = [0] * n
                root[i] = 1
                root[j] = -1
                even.append(tuple(root))
    for i in range(n):
        for j in range(i, n):
            if gamma[i] + gamma[j] > 0:
                root = [0] * n
                root[i] += 1
                root[j] += 1
                odd.append(tuple(root))
    for i in range(n):
        for j in range(i + 1, n):
            if -(gamma[i] + gamma[j]) > 0:
                root = [0] * n
                root[i] -= 1
                root[j] -= 1
                odd.append(tuple(root))
    values: dict[int, list[int]] = {}
    for idx, g in enumerate(gamma):
        values.setdefault(g, []).append(idx + 1)
    blocks = tuple(tuple(v) for _, v in sorted(values.items(), reverse=True))
    return ParabolicDatum(n, gamma, tuple(even), tuple(odd), blocks)


def _check_levi(lam: Weight, datum: ParabolicDatum) -> None:
    """The line-bundle weight must kill the semisimple part of the Levi.

    Equal gamma entries put gl-root pairs in the Levi, forcing equal lam
    entries on each block; additionally, whenever gamma_i + gamma_j = 0
    for i != j both odd roots +-(e_i + e_j) lie in the Levi and their
    bracket spans the e_i - e_j diagonal direction, forcing
    lam_i = lam_j across those indices as well.
    """
    for block in datum.blocks:
        entries = {lam[i - 1] for i in block}
        if len(entries) > 1:
            raise LeviIncompatible(
                f"weight {lam} is not constant on the block {block} of gamma {datum.gamma}"
            )
    gamma = datum.gamma
    for i in range(datum.arity):
        for j in range(i + 1, datum.arity):
            if gamma[i] + gamma[j] == 0 and lam[i] != lam[j]:
                raise LeviIncompatible(
                    f"weight {lam} must agree on positions {i + 1}, {j + 1}: "
                    f"gamma {gamma} pairs them by an odd Levi root"
                )


def _numerator(lam: Weight, datum: ParabolicDatum) -> LaurentPoly:
    n = datum.arity
    shifted = tuple(lam[i] + (n - 1 - i) for i in range(n))
    out = LaurentPoly.monomial(n, shifted)
    for alpha in datum.odd_radical:
        out = out * (LaurentPoly.one(n) - LaurentPoly.monomial(n, [-a for a in alpha]))
    return out


def _straightened(lam: Weight, datum: ParabolicDatum) -> SchurExpansion:
    coeffs: dict[Weight, int] = {}
    for exps, coef in _numerator(lam, datum).terms.items():
        res = straighten_alternant(exps)
        if res is None:
            continue
        sign, mu = res
        new = coeffs.get(mu, 0) + sign * coef
        if new:
            coeffs[mu] = new
        else:
            del coeffs[mu]
    return SchurExpansion(datum.arity, coeffs)


def euler_characteristic(
    lam: Iterable[int], gamma: Iterable[int]
) -> tuple[LaurentPoly, SchurExpansion]:
    """Euler characteristic of the line bundle for (lam, gamma).

    Returns both the Laurent polynomial and its Schur expansion.  Raises
    :class:`LeviIncompatible` when lam is not constant on the blocks of
    gamma.
    """
    lam = tuple(int(a) for a in lam)
    gamma = tuple(int(g) for g in gamma)
    if len(lam) != len(gamma):
        raise ArityMismatch("lam and gamma must have the same length")
    datum = radical_roots(gamma)
    _check_levi(lam, datum)
    expansion = _straightened(lam, datum)
    return expansion.to_poly(), expansion


def euler_ds_power(lam: Iterable[int], gamma: Iterable[int], k: int) -> LaurentPoly:
    """The k-fold evaluation image of the Euler characteristic.

    Computes the same polynomial as ``ds_power(euler_characteristic(lam,
    gamma)[0], k)`` but performs the first evaluation on the alternant
    numerator, dividing the sliced numerator by the sliced Vandermonde.
    This avoids materializing the full Euler characteristic, whose term
    count grows quickly with the arity, and is exact at every step.
    """
    lam = tuple(int(a) for a in lam)
    gamma = tuple(int(g) for g in gamma)
    if len(lam) != len(gamma):
        raise ArityMismatch("lam and gamma must have the same length")
    datum = radical_roots(gamma)
    _check_levi(lam, datum)
    n = datum.arity
    if k == 0:
        return euler_characteristic(lam, gamma)[0]
    if not 1 <= k <= n // 2:
        raise ArityMismatch(f"cannot apply the evaluation {k} times at arity {n}")

    expansion = _straightened(lam, datum)
    perms = permutations_with_signs(n)
    staircase = rho(n)
    # Slice of the antisymmetrized numerator, in variables
    # (y_1, ..., y_{n-2}, t): exponent of t is e_{n-1} - e_n.
    sliced: dict[tuple[int, ...], int] = {}
    for mu, coef in expansion.coeffs.items():
        nu = tuple(mu[i] + staircase[i] for i in range(n))
        for perm, sign in perms:
            e = tuple(nu[p] for p in perm)
            key = e[: n - 2] + (e[n - 2] - e[n - 1],)
            new = sliced.get(key, 0) + sign * coef
            if new:
                sliced[key] = new
            else:
                del sliced[key]
    numerator = LaurentPoly(n - 1, sliced)

    m = n - 1  # reduced ring: y_1..y_{n-2}, then t
    vandermonde = LaurentPoly.one(m)
    for i in range(n - 2):
        for j in range(i + 1, n - 2):
            yi = [0] * m
            yi[i] = 1
            yj = [0] * m
            yj[j] = 1
            vandermonde = vandermonde * (
                LaurentPoly.monomial(m, yi) - LaurentPoly.monomial(m, yj)
            )
    for i in range(n - 2):
        for t_pow in (1, -1):
            yi = [0] * m
            yi[i] = 1
            tv = [0] * m
            tv[m - 1] = t_pow
            vandermonde = vandermonde * (
                LaurentPoly.monomial(m, yi) - LaurentPoly.monomial(m, tv)
            )
    t_up = [0] * m
    t_up[m - 1] = 1
    t_down = [0] * m
    t_down[m - 1] = -1
    vandermonde = vandermonde * (
        LaurentPoly.monomial(m, t_up) - LaurentPoly.monomial(m, t_down)
    )

    quotient = numerator.exact_divide(vandermonde)
    reduced: dict[tuple[int, ...], int] = {}
    for exps, coef in quotient.terms.items():
        if exps[m - 1]:
            raise NotMember(
                f"t-dependent slice term with t-exponent {exps[m - 1]}",
                witness=(exps[m - 1], exps[: m - 1]),
            )
        reduced[exps[: m - 1]] = coef
    out = LaurentPoly(n - 2, reduced)
    for _ in range(k - 1):
        out = ds_eval(out)
    return out
