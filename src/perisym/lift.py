"""Constructive preimages under the evaluation map, and certificates.

``lift_window`` finds, for a supersymmetric ``h`` in ``n - 2`` variables,
a supersymmetric preimage in ``n`` variables whose evaluation is exactly
``h``.  Preimages supported on diagonal monomials (powers of
``x_1...x_n``) are written down directly; otherwise the coefficients of
monomial orbit sums inside an exponent window are solved for as a sparse
integer linear system (t-dependent slice coefficients must vanish, the
t-free part must equal ``h``), using a Hermite-style column echelon that
is factored once per window and reused across targets.

``certify`` recurses this construction down the rank chain, recording at
each rank the chosen lift together with the thin-Kac coordinates of the
kernel remainder.  Replaying the records reconstructs the input exactly.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

from . import intlinalg
from .errors import (
    NoIntegerSolution,
    NotMember,
    NotSymmetric,
    WindowTooSmall,
)
from .dsmap import ds_eval, kernel_decompose, membership
from .laurent import LaurentPoly, grlex_key
from .schur import SchurExpansion
from .thinkac import thin_kac_combination
from .weights import Weight

DEFAULT_MAX_WINDOW = 12
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


def _orbit_size(weight: tuple[int, ...]) -> int:
    size = math.factorial(len(weight))
    for value in set(weight):
        size //= math.factorial(weight.count(value))
    return size


def _orbit_column(mu: Weight, include_t_zero: bool) -> dict:
    """Slice coefficients of the orbit sum of mu at the last pair,
    with the reduced part canonicalized (sorted decreasing)."""
    n = len(mu)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for e in set(itertools.permutations(mu)):
        t_exp = e[n - 2] - e[n - 1]
        if t_exp == 0 and not include_t_zero:
            continue
        key = (t_exp, tuple(sorted(e[: n - 2], reverse=True)))
        counts[key] = counts.get(key, 0) + 1
    return {
        (t_exp, r): c // _orbit_size(r)
        for (t_exp, r), c in counts.items()
    }


class _WindowSystem:
    """Factored lift system for one (target arity, window) pair."""

    def __init__(self, n: int, window: Window):
        self.n = n
        self.window = window
        self.weights = _window_weights(n, window)
        columns = [_orbit_column(mu, True) for mu in self.weights]
        self.rows = set()
        for col in columns:
            self.rows.update(col)
        self.echelon = intlinalg.EchelonSystem(columns)

    def solve(self, h: LaurentPoly) -> dict[Weight, int]:
        rhs = {}
        for exps, coef in h.terms.items():
            r = tuple(sorted(exps, reverse=True))
            if exps == r:
                row = (0, r)
                if row not in self.rows:
                    raise intlinalg.Infeasible(f"target row {row!r} unreachable")
                rhs[row] = coef
        x = self.echelon.solve(rhs)
        x = intlinalg.reduce_by_lattice(
            x, self._reduction_basis(), lambda i: grlex_key(self.weights[i])
        )
        return {self.weights[i]: c for i, c in x.items() if c}

    def _reduction_basis(self) -> list[dict[int, int]]:
        kernel = self.echelon.kernel_vectors()
        if len(kernel) > _REDUCTION_SIZE_LIMIT:
            return []
        return kernel


_system_cache: dict[tuple[int, Window], _WindowSystem] = {}


def _window_system(n: int, window: Window) -> _WindowSystem:
    key = (n, window)
    if key not in _system_cache:
        _system_cache[key] = _WindowSystem(n, window)
    return _system_cache[key]


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


def _check_member(f: LaurentPoly) -> None:
    report = membership(f)
    if not report.symmetric:
        raise NotSymmetric("not a symmetric Laurent polynomial")
    if not report.t_independent:
        raise NotMember("not supersymmetric", witness=report.witness)


def orbit_sum_combination(n: int, coeffs: dict[Weight, int]) -> LaurentPoly:
    """The symmetric polynomial with the given orbit-sum coordinates."""
    terms: dict[tuple[int, ...], int] = {}
    for mu, coef in coeffs.items():
        if not coef:
            continue
        for e in set(itertools.permutations(mu)):
            terms[e] = terms.get(e, 0) + coef
    return LaurentPoly(n, terms)


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
    :class:`WindowTooSmall` or :class:`NoIntegerSolution` when the search
    is exhausted.
    """
    _check_member(h)
    n = h.arity + 2
    direct = _diagonal_lift(h, n)
    if direct is not None:
        return direct
    if window is not None:
        attempts = [window]
    else:
        cap = max_window if max_window is not None else default_max_window()
        start = h.max_abs_exponent() + n
        attempts = [Window(b) for b in range(start, max(start, cap) + 1, 2)]
    failure: Exception = WindowTooSmall("no window attempted")
    for attempt in attempts:
        system = _window_system(n, attempt)
        try:
            coeffs = system.solve(h)
        except intlinalg.Infeasible as exc:
            failure = WindowTooSmall(
                f"no preimage with orbit support in {attempt}: {exc}"
            )
            continue
        except intlinalg.NonIntegral as exc:
            failure = NoIntegerSolution(
                f"only non-integral preimages in {attempt}: {exc}"
            )
            continue
        result = orbit_sum_combination(n, coeffs)
        if ds_eval(result) != h:
            raise AssertionError("lift postcondition failed; please report")
        return result
    raise failure


@dataclass(frozen=True)
class CertificateLevel:
    """One rank of a certificate: the chosen lift of the next element
    down, plus thin-Kac coordinates of the kernel remainder."""

    rank: int
    lift_part: LaurentPoly
    kernel_coeffs: SchurExpansion

    def element(self) -> LaurentPoly:
        """The rank's element: the lift plus the kernel combination
        sum_lam c_lam * sch_thin_kac(lam), replayed as one Schur sum
        multiplied by R (see :func:`thinkac.thin_kac_combination`)."""
        return self.lift_part + thin_kac_combination(
            self.kernel_coeffs.arity, self.kernel_coeffs.coeffs
        )


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
        """Reconstruct while checking the evaluation chain at every rank."""
        value = self.bottom
        for level in reversed(self.levels):
            up = level.element()
            if ds_eval(up) != value:
                raise ValueError(f"broken certificate chain at rank {level.rank}")
            value = up
        return value


def certify(f: LaurentPoly, *, max_window: int | None = None) -> Certificate:
    """Recursive peel-and-lift certificate for an element of J_n.

    At each rank the evaluation image is certified first, then lifted
    back; the remainder lies in the kernel and is decomposed over thin-Kac
    supercharacters.  The certificate reconstructs ``f`` exactly.
    """
    _check_member(f)
    if f.arity <= 1:
        return Certificate((), f)
    h = ds_eval(f)
    below = certify(h, max_window=max_window)
    lift_part = lift_window(h, max_window=max_window)
    remainder = f - lift_part
    coeffs = kernel_decompose(remainder)
    level = CertificateLevel(f.arity, lift_part, coeffs)
    return Certificate((level,) + below.levels, below.bottom)


_membership_cache: dict[tuple[int, Window], list[LaurentPoly]] = {}


def membership_window_basis(n: int, bound: int) -> list[LaurentPoly]:
    """A lattice basis of the supersymmetric polynomials in n variables
    whose orbit support lies in the window: the integer nullspace of the
    t-dependent slice coefficients."""
    window = Window(bound)
    key = (n, window)
    if key not in _membership_cache:
        weights = _window_weights(n, window)
        columns = [_orbit_column(mu, False) for mu in weights]
        echelon = intlinalg.EchelonSystem(columns)
        basis = []
        for vec in echelon.kernel_vectors():
            coeffs = {weights[i]: c for i, c in vec.items() if c}
            basis.append(orbit_sum_combination(n, coeffs))
        _membership_cache[key] = basis
    return _membership_cache[key]
