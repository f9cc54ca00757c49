"""The evaluation homomorphism on supersymmetric Laurent polynomials.

A symmetric Laurent polynomial ``f`` in ``n`` variables belongs to the
ring J_n when the evaluation ``x_i = t, x_j = t^{-1}`` is independent of
``t`` (one pair suffices by symmetry).  On J_n the evaluation at the last
pair, with the t-free part compressed to ``n - 2`` variables, is a ring
homomorphism ``J_n -> J_{n-2}`` whose kernel is spanned by the thin-Kac
supercharacters; :func:`kernel_decompose` checks that its argument lies
in that kernel, then reads its coordinates from :mod:`thinkac`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Literal, Mapping

from .errors import ArityMismatch, NotInKernel, NotMember, NotSymmetric
from .laurent import LaurentPoly, _from_orbits, _orbit_coordinates
from .schur import SchurExpansion
from .thinkac import _thin_kac_coordinates
from .weights import Weight


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the J_n test: symmetry plus t-independence, with the
    offending slice term (t-exponent, reduced exponents) when the latter
    fails."""

    symmetric: bool
    t_independent: bool
    witness: tuple[int, tuple[int, ...]] | None = None

    @property
    def member(self) -> bool:
        return self.symmetric and self.t_independent


def membership(f: LaurentPoly) -> MembershipReport:
    """Test membership of f in J_n.

    Checks S_n-invariance, then t-independence of the slice at the pair
    (1, 2), term by term.  A symmetric f is sliced instead on its orbit
    coordinates, recorded when it is written from them or on its first
    symmetry check, at the evaluation pair (n - 1, n)
    (:func:`_orbit_slice`): a permutation of the variables carries one
    slice's terms onto the other's, so the report and its witness are
    the same.  Rings with fewer than two variables have no pair condition.
    """
    n = f.arity
    symmetric = f.is_symmetric()
    if n < 2:
        return MembershipReport(symmetric, True, None)
    witness = (_orbit_slice(_orbit_coordinates(f))[0] if symmetric
               else f.substitute_pair(1, 2).t_witness())
    return MembershipReport(symmetric, witness is None, witness)


def _check_member(f: LaurentPoly) -> None:
    """Raise :class:`NotSymmetric` or :class:`NotMember` unless f is in J_n."""
    report = membership(f)
    if not report.symmetric:
        raise NotSymmetric("not a symmetric Laurent polynomial")
    if not report.t_independent:
        raise NotMember("not supersymmetric", witness=report.witness)


def ds_eval(f: LaurentPoly) -> LaurentPoly:
    """Evaluate x_{n-1} = t, x_n = t^{-1} and drop t.

    Raises :class:`NotMember` when the slice has a t-dependent term;
    the compressed result keeps the surviving variables in order.  A
    symmetric f is evaluated on its orbit coordinates, recorded when it
    is written from them or on its first symmetry check
    (:func:`_orbit_slice`), and the image is written from those of its
    t-free part; any other f is sliced term by term
    (:meth:`LaurentPoly.substitute_pair`).
    """
    n = f.arity
    if n < 2:
        raise ArityMismatch("the evaluation map needs at least two variables")
    orbits = _orbit_coordinates(f)
    if orbits is not None:
        return _from_orbits(n - 2, _evaluated_orbits(orbits))
    tslice = f.substitute_pair(n - 1, n)
    _check_t_free(tslice.t_witness())
    return LaurentPoly._raw(n - 2, tslice.constant_part())


def _check_t_free(witness: tuple[int, tuple[int, ...]] | None) -> None:
    """Raise :class:`NotMember` naming the witness, if there is one."""
    if witness is not None:
        raise NotMember(
            f"t-dependent slice term with t-exponent {witness[0]}", witness=witness
        )


def _evaluated_orbits(orbits: Mapping[Weight, int]) -> dict[Weight, int]:
    """The orbit coordinates of the evaluation of sum_nu c_nu m_nu;
    raises :class:`NotMember` as :func:`ds_eval` does."""
    witness, t_free = _orbit_slice(orbits)
    _check_t_free(witness)
    return t_free


def _orbit_slice(orbits: Mapping[Weight, int]
                 ) -> tuple[tuple[int, Weight] | None, dict[Weight, int]]:
    """The slice at x_{n-1} = t, x_n = t^{-1} of sum_nu c_nu m_nu, read
    from its orbit coordinates: the witness of
    :meth:`TSlice.t_witness <perisym.laurent.TSlice.t_witness>` for
    the slice term by term, and the orbit coordinates of the t-free part.

    m_nu becomes the sum, over the distinct ordered pairs (a, b) of
    values at two positions of nu, of t^(a-b) m_rest, with rest the
    weakly decreasing nu without one a and one b; two pairs with the
    same t-exponent and rest are the same pair.  Exchanging x_{n-1} and
    x_n sends t to t^{-1} and fixes a symmetric f, so the coefficient of
    t^-d m_rest is that of t^d m_rest, and only the pairs with a >= b
    (:func:`_value_pairs`) are read.  The term-by-term slice has the
    coefficient of t^d m_rest at (d, w) for every arrangement w of rest,
    and the decreasing one is the largest, so its witness is the largest
    (d, rest) with d > 0 and a nonzero coefficient.
    """
    slice_: dict[tuple[int, Weight], int] = {}
    get = slice_.get
    for nu, c in orbits.items():
        for i, j, rest in _value_pairs(tuple(map(operator.eq, nu, nu[1:]))):
            key = (nu[i] - nu[j], rest(nu))
            slice_[key] = get(key, 0) + c
    witness = max((key for key, c in slice_.items() if c and key[0]), default=None)
    return witness, {rest: c for (d, rest), c in slice_.items() if c and not d}


@functools.cache
def _value_pairs(ties: tuple[bool, ...]) -> tuple[tuple[int, int, Callable], ...]:
    """The pairs of values a >= b at two positions of a weakly decreasing
    weight nu whose entries k and k + 1 are equal exactly where
    ``ties[k]``: one (i, j, rest) per pair, where i is the first position
    of a, j the first position of b after i, and ``rest(nu)`` is nu
    without positions i and j, as a tuple.  Cached per pattern of ties,
    of which an arity n has 2^(n-1)."""
    n = len(ties) + 1
    firsts = [k for k in range(n) if not k or not ties[k - 1]]
    out = []
    for i in firsts:
        for j in ([i + 1] if i + 1 < n and ties[i] else []) + [j for j in firsts if j > i]:
            kept = tuple(k for k in range(n) if k != i and k != j)
            if len(kept) > 1:
                rest = operator.itemgetter(*kept)
            else:  # itemgetter of one index gives the entry, not a tuple
                rest = lambda nu, kept=kept: tuple(map(nu.__getitem__, kept))
            out.append((i, j, rest))
    return tuple(out)


def ds_power(f: LaurentPoly, k: int) -> LaurentPoly:
    """The k-fold composition of the evaluation map, landing in arity
    n - 2k.  ``k = 0`` is the identity.  A symmetric f is evaluated k
    times on its orbit coordinates, recorded when it is written from them
    or on its first symmetry check; only the last image is written."""
    n = f.arity
    if not 0 <= k <= n // 2:
        raise ArityMismatch(f"cannot apply the evaluation {k} times at arity {n}")
    orbits = _orbit_coordinates(f) if k else None
    if orbits is not None:
        for _ in range(k):
            orbits = _evaluated_orbits(orbits)
        return _from_orbits(n - 2 * k, orbits)
    out = f
    for _ in range(k):
        out = ds_eval(out)
    return out


def kernel_decompose(f: LaurentPoly) -> SchurExpansion:
    """Coordinates of a kernel element over thin-Kac supercharacters.

    Requires f in J_n with vanishing evaluation; then f = R q with
    R = prod_{i<j}(1 - x_i x_j) and q symmetric, and the Schur
    coefficients of q, parity-signed, satisfy
    ``f = sum_lam c_lam * sch_thin_kac(lam)``.  After the checks the
    coordinates come from :func:`thinkac._thin_kac_coordinates`, the
    inverse of :func:`thinkac.thin_kac_combination`, which reads them
    from the Schur coefficients of f without dividing by R.
    """
    if f.arity < 2:
        raise ArityMismatch("kernel decomposition needs at least two variables")
    _check_member(f)
    if not ds_eval(f).is_zero():
        raise NotInKernel("the evaluation image is nonzero")
    return _thin_kac_coordinates(f)


def filtration_level(f: LaurentPoly) -> int:
    """Least k with the k-fold evaluation of f equal to zero.

    Elements surviving down to arity 0 or 1 get level floor(n/2) + 1,
    the top graded piece of the kernel filtration.
    """
    report = membership(f)
    if not report.member:
        raise NotMember("filtration level is defined on J_n only",
                        witness=report.witness)
    return len(_nonzero_chain(f))


def _nonzero_chain(f: LaurentPoly) -> list[LaurentPoly]:
    """f, ds(f), ds^2(f), ... up to the last nonzero one, which lies in
    the kernel or has arity 0 or 1; empty for f = 0.  Its length is the
    filtration level of f, which is not checked for membership."""
    chain = []
    while not f.is_zero():
        chain.append(f)
        if f.arity < 2:
            break
        f = ds_eval(f)
    return chain


def quotient_reduce(f: LaurentPoly, which: Literal["sp", "SP"]) -> LaurentPoly:
    """Canonical representative modulo powers of e = x_1...x_n.

    For ``sp`` the relation is e = 1: every monomial orbit is shifted so
    its minimal entry becomes 0.  For ``SP`` the relation is e^2 = 1:
    orbits shift by even multiples only, leaving a residual entry of 0 or
    1.  The shift amount, being the orbit minimum, is constant on orbits,
    so the reduction of a symmetric polynomial is symmetric.
    """
    if which not in ("sp", "SP"):
        raise ValueError(f"unknown quotient {which!r}; expected 'sp' or 'SP'")
    if not f.is_symmetric():
        raise NotSymmetric("quotient reduction is defined on symmetric polynomials")
    if f.arity == 0:
        return f
    out: dict[tuple[int, ...], int] = {}
    for exps, coef in f.terms.items():
        low = min(exps)
        shift = low if which == "sp" else 2 * (low // 2)
        key = tuple(e - shift for e in exps)
        new = out.get(key, 0) + coef
        if new:
            out[key] = new
        else:
            del out[key]
    return LaurentPoly._raw(f.arity, out)
