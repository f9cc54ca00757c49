"""Euler characteristics of parabolically induced line bundles.

A weight ``gamma`` determines a parabolic subalgebra of the periplectic
superalgebra: the nilpotent radical collects the roots pairing positively
with gamma under the standard scalar product.  For a weight ``lam``
constant on the Levi blocks, the Euler characteristic of the associated
line bundle on the flag supervariety is the antisymmetrization of

    x^(lam + rho) * prod_{alpha in odd radical} (1 - x^(-alpha))

divided by a_rho.  Its Schur coordinates are found by one of two routes.

* When gamma is weakly decreasing with all entries <= 0, with b zeros,
  the odd radical is every pair i < j outside the zero block, so the
  product is C * R_m over the m = n - b tail variables, with
  C = prod_{i <= b < j} (1 - x_i x_j) factored by the dual Cauchy
  identity.  The coordinates are then read from small tables cached by
  translation class, and no polynomial is multiplied (see
  :func:`_factorized`).  b = 0 is the Brauer-Klimyk table of R s_mu.
* Every other gamma expands the product and straightens every monomial
  to a signed Schur contribution.

The result is symmetric, and supersymmetric when gamma is weakly
decreasing.

The elements E_k(mu) = Euler characteristic of ((0^2k, mu),
(0^2k, -1, ..., -m)), m = n - 2k, give a lift through the evaluation
map with no window and no linear system (:func:`lift_euler`): given
the identity (A) ds^k E_k(mu) = R_m s_mu and (B) ds E_{k+1}(mu) =
E_k(mu), a target of filtration level k + 1 is lowered one level by
the E_{k+1}(mu) weighted with the Schur coordinates of ds^k(h) / R.
Neither identity is assumed: every round is checked.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ArityMismatch, LeviIncompatible, LiftStalled
from .intlinalg import _axpy
from .laurent import LaurentPoly, straighten_alternant
from .schur import (SchurExpansion, _alternant_coefficients, _from_schur, _schur_coefficients,
                    _straightened, denominator_factors, schur_poly)
from .thinkac import _brauer_klimyk, _expanded, _peel
from .weights import Weight, check_dominant, rho
from .dsmap import _check_member, _nonzero_chain, ds_eval, ds_power

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
    after checking the lengths and the Levi condition.

    A weakly decreasing gamma with all entries <= 0 takes the factorized
    route (:func:`_factorized`); every other gamma multiplies out
    x^lam * prod_alpha (1 - x^-alpha) and straightens each term.
    """
    lam = tuple(map(operator.index, lam))
    datum = radical_roots(gamma)
    n = datum.arity
    if len(lam) != n:
        raise ArityMismatch("lam and gamma must have the same length")
    _check_levi(lam, datum)
    gamma = datum.gamma
    if all(0 >= g >= h for g, h in zip((0,) + gamma, gamma)):
        return SchurExpansion(n, _factorized(lam, gamma.count(0)))
    numerator = LaurentPoly.monomial(n, lam)
    for alpha in datum.odd_radical:
        numerator = numerator * (LaurentPoly.one(n) - LaurentPoly.monomial(n, [-a for a in alpha]))
    return SchurExpansion(n, _alternant_coefficients(numerator))


def _factorized(lam: Weight, b: int) -> dict[Weight, int]:
    """The Schur coefficients of the Euler characteristic for a weakly
    decreasing gamma with all entries <= 0 and b zeros, where lam passed
    the Levi check, so lam = (a^b, mu) with m = n - b tail entries mu.

    The product over the odd radical is C * R_m, with R_m the R of the
    tail variables y and, by the dual Cauchy identity,
    C = prod_{i <= b < j} (1 - x_i y_j)
      = sum_{kappa in (m^b)} (-1)^|kappa| s_kappa(x) s_kappa'(y).
    Antisymmetrizing each variable block on its own, x^(a + m + rho_b)
    s_kappa(x) gives the alternant of kappa + (a + m) * 1 + rho_b, and
    y^(mu + rho_m) s_kappa'(y) R_m(y) gives that of beta + rho_m with the
    Schur coefficient of beta in s_kappa' s_mu R_m, where mu + rho_m is
    straightened first (a repeated entry makes the whole result zero).
    The alternants of the concatenations are then straightened in n
    variables.  b = 0 leaves the one term kappa = () and the table of
    R s_mu; b = n leaves s_(a^n).
    """
    n = len(lam)
    m = n - b
    straightened = straighten_alternant(map(operator.add, lam[b:], rho(m)))
    if straightened is None:
        return {}
    sign, mu = straightened
    low = mu[-1] if m else 0
    mu = tuple(e - low for e in mu)
    tail_shift = tuple(e + low for e in rho(m))
    head_shift = tuple(e + lam[0] + m for e in rho(b))
    alternants = []
    for kappa, conjugate in _boxed_partitions(b, m):
        head = tuple(map(operator.add, kappa, head_shift))
        weight = -sign if sum(kappa) % 2 else sign
        alternants.extend((head + tuple(map(operator.add, beta, tail_shift)), weight * c)
                          for beta, c in _tail_table(conjugate, mu).items())
    return _straightened(alternants)


@functools.cache
def _boxed_partitions(b: int, m: int) -> tuple[tuple[Weight, Weight], ...]:
    """The partitions kappa in the b x m box, each with b entries, paired
    with its conjugate kappa', which has m entries."""
    return tuple((kappa, tuple(sum(part > j for part in kappa) for j in range(m)))
                 for kappa in itertools.combinations_with_replacement(range(m, -1, -1), b))


_tail_cache: dict[tuple[Weight, Weight], Mapping[Weight, int]] = {}


def _tail_table(kappa: Weight, mu: Weight) -> Mapping[Weight, int]:
    """The nonzero Schur coefficients of s_kappa s_mu R_m for partitions
    kappa and mu of length m, mu with least entry 0, from two
    Brauer-Klimyk passes: the table of R_m s_mu
    (:func:`thinkac._brauer_klimyk`), then the terms of s_kappa
    straightened onto nu + rho_m for each of its weights nu.  No
    polynomial is multiplied.  Every key is a translation-class
    representative, so this cache and the Brauer-Klimyk cache under it
    stay bounded however lam is shifted.  Cached by (kappa, mu),
    read-only."""
    table = _tail_cache.get((kappa, mu))
    if table is None:
        m = len(mu)
        r_terms = _expanded(denominator_factors(m)[0]) if m > 1 else (((0,) * m, 1),)
        staircase = rho(m)
        products = [(tuple(map(operator.add, nu, staircase)), d)
                    for nu, d in _brauer_klimyk(mu, r_terms).items()]
        coeffs = _straightened((map(operator.add, shifted, t), d * c)
                               for t, c in schur_poly(kappa).terms.items()
                               for shifted, d in products)
        table = _tail_cache[kappa, mu] = MappingProxyType(coeffs)
    return table


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


def euler_lift_element(n: int, k: int, mu: Iterable[int]) -> Mapping[Weight, int]:
    """The Schur coefficients of E_k(mu) at rank n: the Euler
    characteristic for lam = (0^2k, mu) and gamma = (0^2k, -1, ..., -m),
    where m = n - 2k is the length of the dominant weight mu.

    Given identity (A), ds^k E_k(mu) = R_m s_mu (x^mu at m = 1, 1 at
    m = 0), so these elements lift the Schur coordinates of ds^k(h) / R
    (:func:`lift_euler`).  Raises NotDominant unless mu is weakly
    decreasing, and ArityMismatch unless k >= 0 and 2k + m = n.  Cached by
    (k, mu), read-only.
    """
    mu = check_dominant(mu)
    if k < 0 or 2 * k + len(mu) != n:
        raise ArityMismatch(f"E_{k}{mu} has no rank {n}")
    return _euler_lift_element(k, mu)


@functools.cache
def _euler_lift_element(k: int, mu: Weight) -> Mapping[Weight, int]:
    zeros = (0,) * (2 * k)
    gamma = zeros + tuple(range(-1, -len(mu) - 1, -1))
    return MappingProxyType(_expansion(zeros + mu, gamma).coeffs)


def lift_euler(h: LaurentPoly) -> LaurentPoly:
    """A supersymmetric preimage of ``h`` in J_{n-2} under the evaluation
    map, summed from the elements E_k(mu) (:func:`euler_lift_element`),
    with no window and no linear system.

    Each round reads the filtration level L of its target, first h, from
    one evaluation chain, so that ds^(L-1) of it is nonzero and lies in
    the kernel (or has arity 0 or 1), and sets k = L - 1.  The Schur
    coordinates d of ds^k(target) / R are peeled from its Schur
    coefficients (:func:`thinkac._peel`; at arity 0 or 1, where R = 1,
    they are the Schur coefficients themselves).  The round's part
    X = sum_mu d_mu E_{k+1}(mu) is written once from its summed Schur
    coordinates and added to the lift, and the next target is this one
    minus the evaluation of X alone, never of the lift summed so far.
    Given identities (A) and (B), ds^(k+1)(X) = ds^k(target), so the
    level drops every round and the lift is done in at most
    (n - 2) // 2 + 1 rounds, when the target is zero; as ds is linear,
    that target is h - ds(lift), which is the postcondition
    ``ds_eval(lift) == h``.  Neither identity is assumed: a round that
    leaves the level where it was raises :class:`LiftStalled`, naming the
    round and the level.

    Raises NotSymmetric or NotMember unless h lies in J_{n-2}.
    """
    _check_member(h)
    return _lift_euler(h)[0]


def _lift_euler(h: LaurentPoly) -> tuple[LaurentPoly, dict[Weight, int]]:
    """:func:`lift_euler` for an h already known to lie in J_{n-2},
    returned with the lift's nonzero Schur coefficients, summed round by
    round.  The lift is added into each round's part, the larger one
    from the second round on."""
    n = h.arity + 2
    lift, coords, residual, level = LaurentPoly.zero(n), {}, h, None
    for round_ in itertools.count(1):
        chain = _nonzero_chain(residual)
        if level is not None and len(chain) >= level:
            raise LiftStalled(f"round {round_ - 1} left the filtration level at "
                              f"{len(chain)}, not below {level}")
        level = len(chain)
        if not level:
            return lift, coords
        bottom = chain[-1]
        part_coords: dict[Weight, int] = {}
        for mu, d in _peel(bottom.arity, _schur_coefficients(bottom)).items():
            _axpy(part_coords, euler_lift_element(n, level, mu), d)
        part = _from_schur(n, part_coords)
        lift = part + lift
        _axpy(coords, part_coords, 1)
        residual = residual - ds_eval(part)
