"""Constructive preimages under the evaluation map, and certificates.

``lift_window`` finds, for a supersymmetric ``h`` in ``n - 2`` variables,
a supersymmetric preimage in ``n`` variables whose evaluation is exactly
``h``.  Preimages supported on diagonal monomials (powers of
``x_1...x_n``) are written down directly; otherwise the coefficients of
monomial orbit sums inside an exponent window are solved for as a sparse
integer linear system (t-dependent slice coefficients must vanish, the
t-free part must equal ``h``), using a Hermite-style column echelon that
is factored once per window and reused across targets.  The window
route stays as the reference lift; :func:`euler.lift_euler` needs no
window.

``certify`` repeats a lift down the rank chain, recording at each rank
the chosen lift together with the thin-Kac coordinates of the kernel
remainder.  Its lifts and those of ``perisym lift`` take one route
(:func:`_route_lift`): by default a non-diagonal target is lifted by
:func:`euler.lift_euler`, falling back to the window search when a round
of it stalls; the ``"window"`` route searches windows for every target.
Replaying the records reconstructs the input exactly: a rank's element
is summed in Schur coordinates, the lift's plus the Brauer-Klimyk tables
of its kernel coordinates, and written as a polynomial once, and
``Certificate.validate`` checks its evaluation against the rank below.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass

from . import intlinalg
from .errors import (ArityMismatch, LiftStalled, NoIntegerSolution, NotMember, NotSymmetric,
                     WindowTooSmall)
from .dsmap import _check_member, ds_eval
from .euler import _lift_euler
from .laurent import LaurentPoly, _from_orbits, _read_only, grlex_key
from .schur import SchurExpansion
from .thinkac import _thin_kac_coordinates, _thin_kac_plus
from .weights import Weight

DEFAULT_MAX_WINDOW = 12
# Kernels with more vectors are not used to reduce lifts.  A window's
# lattice is echelonized once per process, on its first reduced lift:
# ~1 s for the 330 vectors of (4, Window(5)), but ~7 s for the 715 of
# (4, Window(6)) on a 2-vCPU VM, more than a cold lift takes.  So no
# Window(6) lift is reduced; it is an exact preimage, but not the
# canonical residue modulo the lattice.
_REDUCTION_SIZE_LIMIT = 600


@dataclass(frozen=True)
class Window:
    """Search window for lift unknowns: orbit sums of dominant weights
    with entries in [-bound, bound]."""

    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("window bound must be non-negative")


def default_max_window() -> int:
    """The lift search cap: PERISYM_MAX_WINDOW when set, else 12.

    Raises ValueError when the variable is not a non-negative integer.
    """
    value = os.environ.get("PERISYM_MAX_WINDOW")
    if not value:
        return DEFAULT_MAX_WINDOW
    message = f"PERISYM_MAX_WINDOW must be a non-negative integer, got {value!r}"
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(message) from None
    if cap < 0:
        raise ValueError(message)
    return cap


def _window_weights(n: int, window: Window) -> list[Weight]:
    """Dominant weights with entries in the window, graded-lex descending."""
    values = range(window.bound, -window.bound - 1, -1)
    out = list(itertools.combinations_with_replacement(values, n))
    out.sort(key=grlex_key, reverse=True)
    return out


def _orbit_column(mu: Weight, include_t_zero: bool) -> dict:
    """Slice coefficients of the orbit sum of dominant mu at the last pair.

    Under x_{n-1} = t, x_n = 1/t the orbit sum m_mu becomes
    sum t^(a-b) * m_rest over the distinct ordered value pairs (a, b)
    drawn from mu, where rest is mu with one a and one b removed (still
    sorted decreasing).  The column maps each key (a - b, rest) to the
    coefficient of t^(a-b) * m_rest: distinct pairs give distinct keys,
    so every coefficient is 1, and the loop over positions may meet a
    key more than once.  Pairs with a == b are left out unless
    ``include_t_zero``.
    """
    column = {}
    for i, a in enumerate(mu):
        others = mu[:i] + mu[i + 1:]
        for j, b in enumerate(others):
            if a != b or include_t_zero:
                column[(a - b, others[:j] + others[j + 1:])] = 1
    return column


class _WindowSystem:
    """Factored lift system for one (target arity, window) pair.

    The slice rows (t_exp, rest) are numbered in sorted order, so the
    echelon's row order, and with it every pivot, is that of the tuples.
    """

    def __init__(self, n: int, window: Window):
        self.n = n
        self.window = window
        self.weights = _window_weights(n, window)
        columns = [_orbit_column(mu, True) for mu in self.weights]
        self.row_names = sorted({row for col in columns for row in col})
        self.row_index = {row: i for i, row in enumerate(self.row_names)}
        index = self.row_index
        self.echelon = intlinalg.EchelonSystem(
            [{index[row]: v for row, v in col.items()} for col in columns]
        )

    def __str__(self) -> str:
        return (f"{self.window} ({len(self.weights)} columns, "
                f"{len(self.echelon.kernel)} kernel vectors)")

    def solve(self, h: LaurentPoly) -> dict[Weight, int]:
        rhs = {}
        for exps, coef in h.terms.items():
            r = tuple(sorted(exps, reverse=True))
            if exps == r:
                row = (0, r)
                if row not in self.row_index:
                    raise intlinalg.Infeasible(f"target row {row!r} unreachable")
                rhs[self.row_index[row]] = coef
        x = self.echelon.solve(rhs, self.row_names.__getitem__)
        x = intlinalg.reduce_by_lattice(x, self._lattice)
        return {self.weights[i]: c for i, c in x.items() if c}

    @functools.cached_property
    def _lattice(self) -> list[tuple[int, dict[int, int]]]:
        """The kernel lattice in echelon form, or nothing for a kernel
        above ``_REDUCTION_SIZE_LIMIT``."""
        if len(self.echelon.kernel) > _REDUCTION_SIZE_LIMIT:
            return []
        return intlinalg.lattice_echelon(
            self.echelon.kernel_vectors(), lambda i: grlex_key(self.weights[i])
        )


@functools.cache
def _window_system(n: int, window: Window) -> _WindowSystem:
    return _WindowSystem(n, window)


def _diagonal_lift(h: LaurentPoly, n: int) -> LaurentPoly | None:
    """Exact preimage for targets supported on powers of x_1...x_m:
    the same integer combination of powers of x_1...x_n.  Covers every
    target of arity 0 or 1."""
    terms: dict[tuple[int, ...], int] = {}
    for exps, coef in h.terms.items():
        c = exps[0] if exps else 0
        if any(e != c for e in exps):
            return None
        terms[(c,) * n] = coef
    return LaurentPoly(n, terms)


def orbit_sum_combination(n: int, coeffs: dict[Weight, int]) -> LaurentPoly:
    """The symmetric polynomial sum_mu c_mu m_mu with the given orbit-sum
    coordinates.  Keys in one orbit name the same m_mu: their
    coefficients add."""
    merged: dict[Weight, int] = {}
    for mu, coef in coeffs.items():
        mu = tuple(sorted(map(operator.index, mu), reverse=True))
        if len(mu) != n:
            raise ArityMismatch(f"weight {mu} does not match arity {n}")
        merged[mu] = merged.get(mu, 0) + operator.index(coef)
    return _from_orbits(n, merged)


def lift_window(
    h: LaurentPoly,
    window: Window | None = None,
    *,
    max_window: int | None = None,
) -> LaurentPoly:
    """A supersymmetric preimage of ``h`` under the evaluation map.

    With an explicit ``window`` only that window is searched; otherwise
    the bound starts at (largest exponent magnitude in h) + n and grows
    by 2 up to ``max_window`` (default 12, overridable through the
    PERISYM_MAX_WINDOW environment variable).  Raises
    :class:`WindowTooSmall` when the start is above the cap (before any
    system is built), and it or :class:`NoIntegerSolution` when the
    search is exhausted; its message names every window tried, with its
    column count and kernel size, and why it failed.  A lift is reduced
    modulo the kernel lattice only from windows whose kernel has at most
    600 vectors: from (4, Window(6)), with 715, it is exact but not the
    canonical residue.
    """
    _check_member(h)
    return _lift(h, window, max_window)


def _lift(h: LaurentPoly, window: Window | None, max_window: int | None) -> LaurentPoly:
    """:func:`lift_window` for an h already known to lie in J_{n-2}; the
    postcondition ``ds_eval(lift) == h`` is still checked."""
    n = h.arity + 2
    direct = _diagonal_lift(h, n)
    if direct is not None:
        return direct
    if window is not None:
        attempts = [window]
    else:
        cap = max_window if max_window is not None else default_max_window()
        start = h.max_abs_exponent() + n
        if start > cap:
            raise WindowTooSmall(
                f"the search would start at {Window(start)}, above the cap max_window={cap}"
            )
        attempts = [Window(b) for b in range(start, cap + 1, 2)]
    tried = []
    for attempt in attempts:
        system = _window_system(n, attempt)
        try:
            coeffs = system.solve(h)
        except intlinalg.Infeasible as exc:
            error = WindowTooSmall
            tried.append(f"no preimage with orbit support in {system}: {exc}")
            continue
        except intlinalg.NonIntegral as exc:
            error = NoIntegerSolution
            tried.append(f"only non-integral preimages in {system}: {exc}")
            continue
        result = orbit_sum_combination(n, coeffs)
        if ds_eval(result) != h:
            raise AssertionError("lift postcondition failed; please report")
        return result
    raise error("; ".join(tried))


class _RankMismatch(ArityMismatch, ValueError):
    """A certificate level whose polynomials do not have its rank as arity."""


@dataclass(frozen=True)
class CertificateLevel:
    """One rank of a certificate: the chosen lift of the next element
    down, plus thin-Kac coordinates of the kernel remainder."""

    rank: int
    lift_part: LaurentPoly
    kernel_coeffs: SchurExpansion

    def element(self) -> LaurentPoly:
        """The rank's element: the lift plus the kernel combination
        sum_lam c_lam * sch_thin_kac(lam), summed in Schur coordinates and
        written as a polynomial once (:func:`thinkac._thin_kac_plus`).

        Raises ArityMismatch when the lift and the coordinates have
        different arities, and ValueError naming the rank when the lift
        is not symmetric; both before any Brauer-Klimyk table is read.
        """
        lift, kernel = self.lift_part, self.kernel_coeffs
        if kernel.arity != lift.arity:
            raise ArityMismatch(f"arity {lift.arity} vs {kernel.arity}")
        try:
            return _thin_kac_plus(lift, kernel.coeffs)
        except NotSymmetric:
            raise ValueError(f"the lift at rank {self.rank} is not symmetric") from None


@dataclass(frozen=True)
class Certificate:
    """Per-rank expression of a supersymmetric polynomial as a lifted
    lower-rank element plus an explicit kernel combination, down to the
    base rings in 0 or 1 variables."""

    levels: tuple[CertificateLevel, ...]
    bottom: LaurentPoly

    def top_rank(self) -> int:
        return self.levels[0].rank if self.levels else self.bottom.arity

    def reconstruct(self) -> LaurentPoly:
        """The polynomial the certificate encodes."""
        return self.levels[0].element() if self.levels else self.bottom

    def validate(self) -> LaurentPoly:
        """Reconstruct while checking the evaluation chain at every rank,
        bottom-up: the ranks must step down by 2 to the arity of
        ``bottom``, each level's lift and kernel coordinates must have its
        rank as arity, and each level's element
        (:meth:`CertificateLevel.element`) must evaluate
        (:func:`dsmap.ds_eval`) to the element below it.  Returns the top
        polynomial.  Raises ValueError naming the rank of a level out of
        step, of a broken link or of a lift that is not symmetric; an
        arity other than the rank raises a ValueError that is also an
        ArityMismatch, as :meth:`CertificateLevel.element` raises for
        the same record.  The check evaluates polynomials, so it does not
        rest on the peel that built the certificate, although both read
        the Brauer-Klimyk tables."""
        value = self.bottom
        for level in reversed(self.levels):
            if level.rank != value.arity + 2:
                raise ValueError(f"rank {level.rank} does not step down by 2 to "
                                 f"arity {value.arity} below it")
            if level.rank != level.lift_part.arity or level.rank != level.kernel_coeffs.arity:
                raise _RankMismatch(
                    f"rank {level.rank} holds a lift of arity {level.lift_part.arity} and "
                    f"kernel coordinates of arity {level.kernel_coeffs.arity}")
            up = level.element()
            if ds_eval(up) != value:
                raise ValueError(f"broken certificate chain at rank {level.rank}")
            value = up
        return value


LIFT_ROUTES = ("euler", "window")


def certify(f: LaurentPoly, *, max_window: int | None = None,
            lift: str = "euler") -> Certificate:
    """Peel-and-lift certificate for an element of J_n.

    At each rank the evaluation image is certified first, then lifted
    back; the remainder lies in the kernel and is decomposed over thin-Kac
    supercharacters.  The certificate reconstructs ``f`` exactly.

    ``lift`` picks the route for targets that are not diagonal:
    ``"euler"`` (the default) lifts through :func:`euler.lift_euler` and
    falls back to the window search at a rank where a round leaves the
    level where it was (:class:`LiftStalled`) or the lift leaves J_n
    (:class:`NotMember`), as would happen if an identity behind the Euler
    route failed; ``"window"`` searches windows at every rank, so
    ``max_window`` and :class:`WindowTooSmall` bear on the Euler route
    only through that fallback.  Raises ValueError for any other route.

    Only ``f`` is checked for membership.  The images, lift targets and
    remainders below it are in J by construction, so they are not checked
    again; the lift postcondition ``ds_eval(lift) == h`` still is, and so
    is the divisibility of each remainder by R, which fails unless its
    evaluation vanishes: the thin-Kac peel
    (:func:`thinkac._thin_kac_coordinates`) raises NotDivisible on a
    symmetric remainder exactly when R does not divide it.
    """
    if lift not in LIFT_ROUTES:
        raise ValueError(f"unknown lift route {lift!r}; expected one of {LIFT_ROUTES}")
    _check_member(f)
    return _certify(f, max_window, lift)


def _certify(f: LaurentPoly, max_window: int | None, route: str) -> Certificate:
    """Walk the rank chain in two loops: every evaluation image top-down,
    then the lifts and kernel coordinates bottom-up."""
    chain = [f]
    while chain[-1].arity > 1:
        chain.append(ds_eval(chain[-1]))
    levels = []
    for upper, h in reversed(list(zip(chain, chain[1:]))):
        lift_part = _route_lift(h, max_window, route)
        levels.append(CertificateLevel(upper.arity, lift_part,
                                       _thin_kac_coordinates(upper - lift_part)))
    return Certificate(tuple(reversed(levels)), chain[-1])


def _route_lift(h: LaurentPoly, max_window: int | None, route: str) -> LaurentPoly:
    """The lift of an h known to lie in J_{n-2}, as a certificate level
    and ``perisym lift`` take it: the Euler lift for a target that is not
    diagonal on the Euler route, else (or when it stalls) the window
    lift, which lifts a diagonal target directly."""
    if route == "euler" and _diagonal_lift(h, h.arity + 2) is None:
        try:
            return _lift_euler(h)
        except (LiftStalled, NotMember):
            pass
    return _lift(h, None, max_window)


@functools.cache
def membership_window_basis(n: int, bound: int) -> tuple[LaurentPoly, ...]:
    """A lattice basis of the supersymmetric polynomials in n variables
    whose orbit support lies in the window: the integer nullspace of the
    t-dependent slice coefficients.  The basis is cached, hence a tuple
    of polynomials with read-only terms."""
    weights = _window_weights(n, Window(bound))
    echelon = intlinalg.EchelonSystem([_orbit_column(mu, False) for mu in weights])
    return tuple(
        _read_only(orbit_sum_combination(n, {weights[i]: c for i, c in vec.items()}))
        for vec in echelon.kernel_vectors()
    )
