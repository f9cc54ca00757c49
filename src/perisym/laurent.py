"""Sparse exact Laurent polynomials over the integers.

A polynomial in ``n`` variables is a finite map from exponent vectors
(length-``n`` tuples of ints, negative entries allowed) to nonzero Python
ints.  All arithmetic is exact; there is no floating point anywhere.

The canonical term order is graded-lexicographic, compared on the pair
``(total degree, exponent tuple)``.  Serialization lists terms in
descending graded-lex order, so equal polynomials always serialize
identically.

Values are immutable by convention: no method mutates ``self`` or its
arguments, so instances may be shared freely (including across threads).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from typing import Iterable, Mapping

from .errors import ArityMismatch, BadIndices, NotDivisible


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key realizing the graded-lexicographic order."""
    return (sum(exps), exps)


def _neg_key(exps: tuple[int, ...]) -> tuple:
    # Min-heap entry whose minimum is the graded-lex maximum.
    return (-sum(exps), tuple(-e for e in exps), exps)


class LaurentPoly:
    """An element of ZZ[x_1^{+-1}, ..., x_n^{+-1}], stored sparsely.

    ``arity`` may be zero, in which case the ring is ZZ and the only
    exponent vector is the empty tuple.
    """

    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if arity < 0:
            raise ArityMismatch("arity must be non-negative")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != arity:
                    raise ArityMismatch(
                        f"exponent vector {exps} has length {len(exps)}, expected {arity}"
                    )
                coef = int(coef)
                if coef:
                    clean[exps] = clean.get(exps, 0) + coef
                    if not clean[exps]:
                        del clean[exps]
        self.arity = arity
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, arity: int, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        # Trusted fast path: terms must already be normalized.
        self = object.__new__(cls)
        self.arity = arity
        self.terms = terms
        self._hash = None
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "LaurentPoly":
        return cls._raw(arity, {})

    @classmethod
    def one(cls, arity: int) -> "LaurentPoly":
        return cls._raw(arity, {(0,) * arity: 1})

    @classmethod
    def constant(cls, arity: int, value: int) -> "LaurentPoly":
        value = int(value)
        return cls._raw(arity, {(0,) * arity: value} if value else {})

    @classmethod
    def monomial(cls, arity: int, exps: Iterable[int], coef: int = 1) -> "LaurentPoly":
        exps = tuple(int(e) for e in exps)
        if len(exps) != arity:
            raise ArityMismatch(f"exponent vector {exps} does not match arity {arity}")
        coef = int(coef)
        return cls._raw(arity, {exps: coef} if coef else {})

    @classmethod
    def variable(cls, arity: int, index: int, power: int = 1) -> "LaurentPoly":
        """The monomial x_index**power with 1-based index."""
        if not 1 <= index <= arity:
            raise BadIndices(f"variable index {index} not in 1..{arity}")
        exps = [0] * arity
        exps[index - 1] = power
        return cls.monomial(arity, exps)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def constant_value(self) -> int:
        """The coefficient of x^0 (the whole value when arity is 0)."""
        return self.terms.get((0,) * self.arity, 0)

    def max_abs_exponent(self) -> int:
        """Largest |e_i| over all stored exponents; 0 for constants."""
        best = 0
        for exps in self.terms:
            for e in exps:
                if -e > best:
                    best = -e
                elif e > best:
                    best = e
        return best

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == LaurentPoly.constant(self.arity, other).terms
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.terms.items())))
        return self._hash

    # -- ring operations -----------------------------------------------

    def _check_arity(self, other: "LaurentPoly") -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(self.arity, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            new = out.get(exps, 0) + coef
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        return LaurentPoly._raw(self.arity, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(self.arity, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.arity)
            return LaurentPoly._raw(self.arity, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_arity(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(operator.add, ea, eb))
                new = get(e, 0) + ca * cb
                if new:
                    out[e] = new
                else:
                    del out[e]
        return LaurentPoly._raw(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if len(self.terms) == 1:
                ((exps, coef),) = self.terms.items()
                if coef in (1, -1):
                    inv = LaurentPoly.monomial(self.arity, [-e for e in exps], coef)
                    return inv ** (-k)
            raise NotDivisible("only unit monomials have negative powers")
        result = LaurentPoly.one(self.arity)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- symmetric-group machinery --------------------------------------

    def swap_variables(self, i: int, j: int) -> "LaurentPoly":
        """The polynomial with variables x_i and x_j exchanged (1-based)."""
        if i == j:
            return self
        a, b = i - 1, j - 1
        out = {}
        for exps, coef in self.terms.items():
            lst = list(exps)
            lst[a], lst[b] = lst[b], lst[a]
            out[tuple(lst)] = coef
        return LaurentPoly._raw(self.arity, out)

    def is_symmetric(self) -> bool:
        """True when invariant under every adjacent transposition
        (equivalently, under the full symmetric group)."""
        for k in range(self.arity - 1):
            for exps, coef in self.terms.items():
                if exps[k] != exps[k + 1]:
                    swapped = exps[:k] + (exps[k + 1], exps[k]) + exps[k + 2:]
                    if self.terms.get(swapped, 0) != coef:
                        return False
        return True

    # -- pair substitution ----------------------------------------------

    def substitute_pair(self, i: int, j: int) -> "TSlice":
        """Evaluate x_i = t, x_j = t^{-1} (1-based indices).

        The result records, for each term, the t-exponent
        ``e_i - e_j`` together with the remaining exponents in their
        original variable order.
        """
        n = self.arity
        if n < 2:
            raise ArityMismatch("pair substitution needs at least two variables")
        if i == j or not (1 <= i <= n) or not (1 <= j <= n):
            raise BadIndices(f"bad substitution pair ({i}, {j}) for arity {n}")
        a, b = i - 1, j - 1
        terms: dict[tuple[int, tuple[int, ...]], int] = {}
        for exps, coef in self.terms.items():
            t_exp = exps[a] - exps[b]
            reduced = tuple(e for k, e in enumerate(exps) if k != a and k != b)
            key = (t_exp, reduced)
            new = terms.get(key, 0) + coef
            if new:
                terms[key] = new
            else:
                del terms[key]
        return TSlice(n, (i, j), terms)

    # -- exact division ---------------------------------------------------

    def exact_divide(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return ``q`` with ``self == q * divisor``, exactly.

        A two-term divisor, such as a factor ``x_i - x_j`` of the
        Vandermonde or ``1 - x_i x_j`` of R, is divided line by line in
        time linear in the terms (:func:`_divide_by_binomial`).  Any other
        divisor goes through sparse division by leading terms
        (:func:`_divide_by_heap`).  Either way a nonzero remainder or a
        non-integral coefficient raises :class:`NotDivisible`.
        """
        self._check_arity(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.arity)
        if len(divisor.terms) == 2:
            return _divide_by_binomial(self, divisor)
        return _divide_by_heap(self, divisor)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = [f"x{k + 1}^{e}" if e != 1 else f"x{k + 1}"
                       for k, e in enumerate(exps) if e]
            body = "*".join(factors)
            if not body:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coef}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self.arity}, {dict(self.sorted_terms())!r})"


def _linear_combination(arity: int, items: Iterable[tuple[int, LaurentPoly]]) -> LaurentPoly:
    """The sum of ``coef * poly`` over ``(coef, poly)`` pairs of the given
    arity, accumulated in one dict, with zero coefficients dropped once at
    the end: linear in the total number of terms, where repeated ``+``
    copies the running sum at every step."""
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for coef, poly in items:
        if coef:
            for exps, c in poly.terms.items():
                out[exps] = get(exps, 0) + coef * c
    return LaurentPoly._raw(arity, {e: c for e, c in out.items() if c})


def _divide_by_heap(f: LaurentPoly, divisor: LaurentPoly) -> LaurentPoly:
    """Exact quotient of nonzero ``f`` by a nonzero divisor of any length.

    Negative exponents are cleared by a monomial shift on both operands,
    after which ordinary sparse division by leading terms runs, taking
    the leading remainder term from a heap.
    """
    n = f.arity
    fmin = [min(e[k] for e in f.terms) for k in range(n)]
    gmin = [min(e[k] for e in divisor.terms) for k in range(n)]
    rem = {tuple(e[k] - fmin[k] for k in range(n)): c for e, c in f.terms.items()}
    g = {tuple(e[k] - gmin[k] for k in range(n)): c for e, c in divisor.terms.items()}
    g_lead = max(g, key=grlex_key)
    g_lc = g[g_lead]
    g_rest = [(e, c) for e, c in g.items() if e != g_lead]

    quot: dict[tuple[int, ...], int] = {}
    heap = [_neg_key(e) for e in rem]
    heapq.heapify(heap)
    while rem:
        while heap:
            lead = heap[0][2]
            if lead in rem:
                break
            heapq.heappop(heap)
        coef = rem.pop(lead)
        q_exps = tuple(map(operator.sub, lead, g_lead))
        if any(e < 0 for e in q_exps):
            raise NotDivisible("leading monomial not divisible")
        q_coef, r = divmod(coef, g_lc)
        if r:
            raise NotDivisible("leading coefficient not divisible")
        quot[q_exps] = q_coef
        for ge, gc in g_rest:
            e = tuple(map(operator.add, q_exps, ge))
            new = rem.get(e, 0) - q_coef * gc
            if new:
                if e not in rem:
                    heapq.heappush(heap, _neg_key(e))
                rem[e] = new
            else:
                rem.pop(e, None)
    shift = tuple(fmin[k] - gmin[k] for k in range(n))
    if any(shift):
        quot = {tuple(map(operator.add, e, shift)): c for e, c in quot.items()}
    return LaurentPoly._raw(n, quot)


def _divide_by_binomial(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient of nonzero ``f`` by ``g = c1 x^u + c2 x^v``.

    With ``d = u - v``, the terms of ``q * g`` that a term of q touches
    lie on one line ``key + Z d``, so the division splits into
    independent lines.  Writing ``F_k`` for f's coefficient at
    ``key + k d`` and ``Q_k`` for q's at ``key + k d - u``,
    ``F_k = c1 Q_k + c2 Q_{k+1}``: sweeping a line downward from its top
    term solves for ``Q_k`` one step at a time, through the gaps between
    f's terms, and the carry past the line's lowest term must vanish.
    For ``x_i - x_j`` and ``1 - x_i x_j`` the sweep is a running sum.
    """
    (u, c1), (v, c2) = g.terms.items()
    d = [a - b for a, b in zip(u, v)]
    p = next(k for k, a in enumerate(d) if a)
    if d[p] < 0:
        u, c1, c2 = v, c2, c1
        d = [-a for a in d]
    step = d[p]
    # Exponents change only where d (or u) is nonzero: two coordinates
    # for the library's binomials, so only those are touched.
    d_moved = [(k, a) for k, a in enumerate(d) if a]
    u_moved = [(k, a) for k, a in enumerate(u) if a]

    # Lines keyed by their point with 0 <= key[p] < step.
    lines: dict[tuple[int, ...], list[tuple[int, tuple[int, ...], int]]] = {}
    for e, c in f.terms.items():
        k = e[p] // step
        if k:
            key = list(e)
            for idx, a in d_moved:
                key[idx] -= k * a
            key = tuple(key)
        else:
            key = e
        line = lines.get(key)
        if line is None:
            lines[key] = [(k, e, c)]
        else:
            line.append((k, e, c))

    quot: dict[tuple[int, ...], int] = {}
    for line in lines.values():
        line.sort(reverse=True)
        carry = 0
        for k, e, c in line:
            if carry:
                # f has no terms strictly between the previous position
                # and k; the quotient runs on through them.
                for _ in range(above - 1 - k):
                    for idx, a in d_moved:
                        q_exps[idx] -= a
                    carry, r = divmod(-c2 * carry, c1)
                    if r:
                        raise NotDivisible("coefficient not divisible")
                    quot[tuple(q_exps)] = carry
            carry, r = divmod(c - c2 * carry, c1)
            if r:
                raise NotDivisible("coefficient not divisible")
            if carry:
                q_exps = list(e)
                for idx, a in u_moved:
                    q_exps[idx] -= a
                quot[tuple(q_exps)] = carry
            above = k
        if carry:
            raise NotDivisible("nonzero remainder at the end of a line")
    return LaurentPoly._raw(f.arity, quot)


class TSlice:
    """A polynomial with one variable pair evaluated at (t, t^{-1}).

    Terms map ``(t_exponent, reduced exponent vector)`` to nonzero ints,
    where the reduced vector lists the surviving variables in their
    original order.  Slices of polynomials with the same base arity and
    substituted pair form a ring.
    """

    __slots__ = ("base_arity", "pair", "terms")

    def __init__(self, base_arity: int, pair: tuple[int, int],
                 terms: dict[tuple[int, tuple[int, ...]], int]):
        self.base_arity = base_arity
        self.pair = pair
        self.terms = terms

    def _check_compatible(self, other: "TSlice") -> None:
        if self.base_arity != other.base_arity or self.pair != other.pair:
            raise ArityMismatch("slices come from different substitutions")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSlice):
            return NotImplemented
        return (self.base_arity == other.base_arity
                and self.pair == other.pair
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.base_arity, self.pair, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TSlice") -> "TSlice":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            new = out.get(key, 0) + coef
            if new:
                out[key] = new
            else:
                del out[key]
        return TSlice(self.base_arity, self.pair, out)

    def __neg__(self) -> "TSlice":
        return TSlice(self.base_arity, self.pair, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TSlice") -> "TSlice":
        return self + (-other)

    def __mul__(self, other) -> "TSlice":
        if isinstance(other, int):
            if not other:
                return TSlice(self.base_arity, self.pair, {})
            return TSlice(self.base_arity, self.pair,
                          {k: c * other for k, c in self.terms.items()})
        self._check_compatible(other)
        out: dict[tuple[int, tuple[int, ...]], int] = {}
        for (ta, ea), ca in self.terms.items():
            for (tb, eb), cb in other.terms.items():
                key = (ta + tb, tuple(map(operator.add, ea, eb)))
                new = out.get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]
        return TSlice(self.base_arity, self.pair, out)

    __rmul__ = __mul__

    def t_witness(self) -> tuple[int, tuple[int, ...]] | None:
        """A t-dependent term, or None when the slice is t-independent.

        The witness with the largest (t-exponent, reduced vector) is
        returned so repeated runs report the same term.
        """
        worst = None
        for (t_exp, reduced) in self.terms:
            if t_exp and (worst is None or (t_exp, reduced) > worst):
                worst = (t_exp, reduced)
        return worst

    def constant_part(self) -> dict[tuple[int, ...], int]:
        """Coefficients of the t-degree-zero part, keyed by reduced vector."""
        return {reduced: coef for (t_exp, reduced), coef in self.terms.items() if not t_exp}

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"TSlice({self.base_arity}, {self.pair}, {dict(items)!r})"


# -- alternants and orbit sums ------------------------------------------


def sort_sign(values: Iterable[int]) -> tuple[int, tuple[int, ...]] | None:
    """Sign of the permutation sorting ``values`` strictly decreasing.

    Returns ``(sign, sorted_tuple)``, or None when two entries collide
    (the alternant vanishes).
    """
    vals = tuple(values)
    sign = 1
    for a in range(len(vals)):
        for b in range(a + 1, len(vals)):
            if vals[a] == vals[b]:
                return None
            if vals[a] < vals[b]:
                sign = -sign
    return sign, tuple(sorted(vals, reverse=True))


def straighten_alternant(nu: Iterable[int]) -> tuple[int, tuple[int, ...]] | None:
    """Reduce the alternant indexed by ``nu`` to its dominant normal form.

    Returns None when ``nu`` has a repeated entry, else ``(sign, lam)``
    where ``lam = sorted(nu, desc) - rho`` is dominant and ``sign`` is the
    signature of the sorting permutation, so that the alternant of ``nu``
    equals ``sign`` times the alternant of ``lam + rho``.
    """
    res = sort_sign(nu)
    if res is None:
        return None
    sign, sorted_desc = res
    n = len(sorted_desc)
    lam = tuple(sorted_desc[i] - (n - 1 - i) for i in range(n))
    return sign, lam


@functools.cache
def permutations_with_signs(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All permutations of 0..n-1 as index tuples, with their signatures.

    Computed once per n; the result is an immutable tuple.
    """
    out = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        out.append((perm, sign))
    return tuple(out)


def monomial_orbit_sum(arity: int, weight: Iterable[int]) -> LaurentPoly:
    """The monomial symmetric Laurent polynomial m_weight: the sum of
    x^mu over the distinct permutations mu of ``weight``."""
    weight = tuple(int(w) for w in weight)
    if len(weight) != arity:
        raise ArityMismatch(f"weight {weight} does not match arity {arity}")
    terms = {exps: 1 for exps in set(itertools.permutations(weight))}
    return LaurentPoly._raw(arity, terms)
