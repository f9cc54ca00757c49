"""Euler characteristics of parabolically induced line bundles.

A weight ``gamma`` determines a parabolic subalgebra of the periplectic
superalgebra: the nilpotent radical collects the roots pairing positively
with gamma under the standard scalar product.  For a weight ``lam``
constant on the Levi blocks, the Euler characteristic of the associated
line bundle on the flag supervariety is computed by expanding

    x^(lam + rho) * prod_{alpha in odd radical} (1 - x^(-alpha))

and straightening every monomial to a signed Schur contribution.  The
result is symmetric, and supersymmetric when gamma is weakly decreasing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .errors import ArityMismatch, LeviIncompatible
from .laurent import LaurentPoly
from .schur import SchurExpansion, _alternant_coefficients
from .weights import Weight
from .dsmap import ds_power

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
    gamma = tuple(map(operator.index, gamma))
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


def _expansion(lam: Iterable[int], gamma: Iterable[int]) -> SchurExpansion:
    """The Schur expansion of the Euler characteristic for (lam, gamma),
    after checking the lengths and the Levi condition."""
    lam = tuple(map(operator.index, lam))
    datum = radical_roots(gamma)
    n = datum.arity
    if len(lam) != n:
        raise ArityMismatch("lam and gamma must have the same length")
    _check_levi(lam, datum)
    numerator = LaurentPoly.monomial(n, lam)
    for alpha in datum.odd_radical:
        numerator = numerator * (LaurentPoly.one(n) - LaurentPoly.monomial(n, [-a for a in alpha]))
    return SchurExpansion(n, _alternant_coefficients(numerator))


def euler_characteristic(
    lam: Iterable[int], gamma: Iterable[int]
) -> tuple[LaurentPoly, SchurExpansion]:
    """Euler characteristic of the line bundle for (lam, gamma).

    Returns both the Laurent polynomial and its Schur expansion.  Raises
    :class:`LeviIncompatible` when lam is not constant on the blocks of
    gamma.  The result is supersymmetric when gamma is weakly
    decreasing; for other gamma it is symmetric but need not lie in J_n.
    """
    expansion = _expansion(lam, gamma)
    return expansion.to_poly(), expansion


def euler_ds_power(lam: Iterable[int], gamma: Iterable[int], k: int) -> LaurentPoly:
    """The k-fold evaluation image of the Euler characteristic:
    ``ds_power(euler_characteristic(lam, gamma)[0], k)``.

    Raises :class:`LeviIncompatible` as :func:`euler_characteristic` does,
    and :class:`ArityMismatch` unless 0 <= k <= n // 2.
    """
    return ds_power(_expansion(lam, gamma).to_poly(), k)
