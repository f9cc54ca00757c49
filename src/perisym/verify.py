"""The acceptance battery: exact, seeded, self-contained checks.

A criterion is written once, as a check decorated with its number and
name: ``@_criterion(9, "name")``.  The check returns its pass detail, or
raises ``_Mismatch(detail)`` at its first mismatch.  The decorator makes
it a zero-argument callable that times the check and builds its one
:class:`CriterionResult`; any other exception propagates.  ``run_all``
executes ``ALL_CRITERIA`` in order.  All checks are exact integer
identities (zero tolerance).  The battery is deterministic: random inputs
come from fixed-seed generators.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .dsmap import ds_eval, ds_power, kernel_decompose, quotient_reduce
from .euler import euler_characteristic
from .laurent import LaurentPoly, _divide_by_heap, monomial_orbit_sum
from .lift import certify, membership_window_basis
from .schur import alternant, denominators
from .thinkac import KClass, kclass_sch, sch_standard, sch_thin_kac, theta_prime
from .weights import dominant_weights_with_beads_in, parity, rho


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number} [{status}] {self.name}: "
                f"{self.detail} ({self.seconds:.1f}s)")


class _Mismatch(Exception):
    """Raised by a check at its first mismatch; its message is the detail."""


def _criterion(number: int, name: str):
    """Make a check into criterion ``number``: a zero-argument callable
    that times the check and returns its :class:`CriterionResult`."""
    def decorate(check: Callable[[], str]) -> Callable[[], CriterionResult]:
        def run() -> CriterionResult:
            start = time.time()
            try:
                passed, detail = True, check()
            except _Mismatch as mismatch:
                passed, detail = False, str(mismatch)
            return CriterionResult(number, name, passed, detail, time.time() - start)
        # Not functools.wraps: its __wrapped__ would give run the check's signature.
        run.__name__ = run.__qualname__ = check.__name__
        run.__doc__ = check.__doc__
        return run
    return decorate


def _det(mat: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by Laplace expansion along the first row."""
    size = len(mat)
    if size == 1:
        return mat[0][0]
    out = LaurentPoly.zero(mat[0][0].arity)
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def schur_bialternant_oracle(lam: tuple[int, ...]) -> LaurentPoly:
    """Independent Schur computation: the n x n bead-power determinant
    divided by the Vandermonde determinant, both expanded by cofactors.

    The division is the general heap division, even where the Vandermonde
    is a single binomial (n = 2).  ``schur_poly`` divides by nothing: it
    writes Kostka numbers from the branching rule, so the two share no
    Schur code.  They do share the product: the cofactor expansion
    multiplies with ``LaurentPoly.__mul__``, as does every check that
    compares R * oracle with a thin-Kac supercharacter."""
    n = len(lam)
    if n == 0:
        return LaurentPoly.one(0)
    beads = [lam[i] + n - 1 - i for i in range(n)]
    num = _det([[LaurentPoly.variable(n, i + 1, b) for b in beads] for i in range(n)])
    den = _det([[LaurentPoly.variable(n, i + 1, n - 1 - j) for j in range(n)]
                for i in range(n)])
    return _divide_by_heap(num, den)


def _random_symmetric(n: int, rng: random.Random, bound: int = 2,
                      terms: int = 3, coef: int = 4) -> LaurentPoly:
    out = LaurentPoly.zero(n)
    for _ in range(terms):
        mu = tuple(sorted((rng.randint(-bound, bound) for _ in range(n)), reverse=True))
        out = out + rng.randint(-coef, coef) * monomial_orbit_sum(n, mu)
    return out


def _random_member(n: int, rng: random.Random, bound: int = 3,
                   picks: int = 4, coef: int = 3) -> LaurentPoly:
    basis = membership_window_basis(n, bound)
    out = LaurentPoly.zero(n)
    for index in rng.sample(range(len(basis)), min(picks, len(basis))):
        out = out + rng.randint(-coef, coef) * basis[index]
    return out


@_criterion(1, "thin-Kac supercharacter formula")
def criterion_1_thin_kac_formula() -> str:
    """Thin-Kac supercharacters against the independent bialternant."""
    checked = 0
    for n in (1, 2, 3, 4):
        r_minus = denominators(n)[0]
        for lam in dominant_weights_with_beads_in(n, -4, n + 3):
            sign = -1 if parity(lam) else 1
            expected = sign * r_minus * schur_bialternant_oracle(lam)
            if sch_thin_kac(lam) != expected:
                raise _Mismatch(f"mismatch at {lam}")
            checked += 1
    return f"{checked} weights exact"


@_criterion(2, "kernel decomposition")
def criterion_2_kernel_theorem() -> str:
    """Kernel of the evaluation map: thin-Kac spans in, decompositions out."""
    rng = random.Random(20260811)
    combos = decomposed = 0
    for n in (2, 3, 4):
        weights = list(dominant_weights_with_beads_in(n, -3, n + 2))
        r_minus = denominators(n)[0]
        for _ in range(100):
            coeffs = {}
            for lam in rng.sample(weights, 4):
                coeffs[lam] = rng.randint(-4, 4)
            f = kclass_sch(KClass(n, coeffs))
            if not ds_eval(f).is_zero():
                raise _Mismatch(f"thin-Kac combination escapes the kernel (n={n})")
            combos += 1
        for _ in range(100):
            f = r_minus * _random_symmetric(n, rng)
            expansion = kernel_decompose(f)
            rebuilt = LaurentPoly.zero(n)
            for lam, coef in expansion.sorted_items():
                rebuilt = rebuilt + coef * sch_thin_kac(lam)
            if rebuilt != f:
                raise _Mismatch(f"reconstruction failed (n={n})")
            decomposed += 1
    return f"{combos} combinations to zero, {decomposed} decompositions exact"


@_criterion(3, "Euler preimage")
def criterion_3_euler_preimage() -> str:
    """Evaluation images of parabolic-induction Euler characteristics."""
    checked = 0
    for n in range(2, 7):
        for k in range(1, n // 2 + 1):
            gamma = tuple(0 if i < 2 * k else -1 for i in range(n))
            target = denominators(n - 2 * k)[0]
            for a in (0, 1, 2):
                lam = tuple(a if i < 2 * k else 0 for i in range(n))
                image = ds_power(euler_characteristic(lam, gamma)[0], k)
                if image != target:
                    raise _Mismatch(f"mismatch at n={n} k={k} a={a}")
                checked += 1
    return f"{checked} (n,k,a) triples exact"


@_criterion(4, "translation tensor identity")
def criterion_4_tensor_identity() -> str:
    """Translation operators sum to tensoring with the standard module."""
    checked = 0
    for n in (1, 2, 3):
        std = sch_standard(n)
        for lam in dominant_weights_with_beads_in(n, -4, n + 3):
            beads = [lam[i] + n - 1 - i for i in range(n)]
            total = LaurentPoly.zero(n)
            for k in beads:
                total = total + kclass_sch(theta_prime(k, KClass.basis(lam)))
            if total != sch_thin_kac(lam) * std:
                raise _Mismatch(f"mismatch at {lam}")
            checked += 1
    return f"{checked} weights exact"


@_criterion(5, "constructive certify")
def criterion_5_certify() -> str:
    """Constructive surjectivity: certify random window elements."""
    rng = random.Random(20260811)
    certified = 0
    for n in (2, 3, 4):
        for _ in range(50):
            f = _random_member(n, rng, bound=4, picks=5)
            cert = certify(f)
            if cert.validate() != f:
                raise _Mismatch(f"reconstruction failed (n={n})")
            certified += 1
    return f"{certified} random elements certified and replayed exactly"


@_criterion(6, "homomorphism and pair independence")
def criterion_6_homomorphism() -> str:
    """Evaluation is a ring map; the pair choice does not matter."""
    rng = random.Random(20260811)
    pairs = 0
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        f = _random_member(n, rng)
        g = _random_member(n, rng)
        if ds_eval(f * g) != ds_eval(f) * ds_eval(g):
            raise _Mismatch(f"multiplicativity failed (n={n})")
        if ds_eval(f + g) != ds_eval(f) + ds_eval(g):
            raise _Mismatch(f"additivity failed (n={n})")
        pairs += 1
    independence = 0
    for _ in range(20):
        n = rng.choice((3, 4))
        f = _random_member(n, rng)
        reference = ds_eval(f)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                tslice = f.substitute_pair(i, j)
                if tslice.t_witness() is not None:
                    raise _Mismatch(f"pair ({i},{j}) t-dependent (n={n})")
                if LaurentPoly(n - 2, tslice.constant_part()) != reference:
                    raise _Mismatch(f"pair ({i},{j}) disagrees (n={n})")
        independence += 1
    return f"{pairs} member pairs, {independence} pair-independence checks"


@_criterion(7, "denominator identity")
def criterion_7_denominator_identity() -> str:
    """Signed staircase orbit equals the Vandermonde product."""
    for m in range(0, 7):
        if alternant(rho(m)) != denominators(m)[1]:
            raise _Mismatch(f"mismatch at m={m}")
    return "m <= 6 exact"


@_criterion(8, "quotient reductions")
def criterion_8_quotient_reductions() -> str:
    """Quotient reductions are idempotent and multiplicative up to reduction."""
    rng = random.Random(20260811)
    checked = 0
    for n in (2, 3):
        for _ in range(100):
            f = _random_symmetric(n, rng)
            g = _random_symmetric(n, rng)
            for which in ("sp", "SP"):
                rf = quotient_reduce(f, which)
                if quotient_reduce(rf, which) != rf:
                    raise _Mismatch(f"not idempotent (n={n}, {which})")
                lhs = quotient_reduce(f * g, which)
                rhs = quotient_reduce(rf * quotient_reduce(g, which), which)
                if lhs != rhs:
                    raise _Mismatch(f"not multiplicative (n={n}, {which})")
            checked += 1
    return f"{checked} random symmetric inputs"


@_criterion(9, "Euler lift identity (A)")
def criterion_9_euler_lift_identity() -> str:
    """ds^k E_k(mu) = R_m s_mu for E_k(mu) the Euler characteristic of
    ((0^2k, mu), (0^2k, -1, ..., -m)), m = n - 2k, against the bialternant
    oracle: the identity behind ``lift_euler``."""
    rng = random.Random(20260811)
    checked = 0
    for n in range(2, 7):
        for k in range(1, n // 2 + 1):
            m = n - 2 * k
            gamma = (0,) * (2 * k) + tuple(range(-1, -m - 1, -1))
            for _ in range(3):
                mu = tuple(sorted((rng.randint(-2, 2) for _ in range(m)), reverse=True))
                image = ds_power(euler_characteristic((0,) * (2 * k) + mu, gamma)[0], k)
                if image != denominators(m)[0] * schur_bialternant_oracle(mu):
                    raise _Mismatch(f"mismatch at n={n} k={k} mu={mu}")
                checked += 1
    return f"{checked} (n,k,mu) triples exact"


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1_thin_kac_formula,
    criterion_2_kernel_theorem,
    criterion_3_euler_preimage,
    criterion_4_tensor_identity,
    criterion_5_certify,
    criterion_6_homomorphism,
    criterion_7_denominator_identity,
    criterion_8_quotient_reductions,
    criterion_9_euler_lift_identity,
)


def run_all(report: Callable[[str], None] | None = None,
            numbers: Iterable[int] | None = None) -> list[CriterionResult]:
    wanted = set(numbers) if numbers is not None else None
    results = []
    for index, criterion in enumerate(ALL_CRITERIA, start=1):
        if wanted is not None and index not in wanted:
            continue
        result = criterion()
        results.append(result)
        if report is not None:
            report(result.line())
    return results
