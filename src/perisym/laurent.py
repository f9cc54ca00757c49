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
Values that a cache hands out have read-only terms (:func:`_read_only`),
so no caller can change what later calls return.

A symmetric polynomial keeps its monomial-orbit coordinates in the
private slot ``_orbits``: its weakly decreasing orbit representatives
mapped to their nonzero coefficients, so that it is sum_mu c_mu m_mu.
They are recorded when it is written from them (:func:`_from_orbits`)
or on its first symmetry check (:func:`_orbit_coordinates`, through
which the evaluation map, the membership test and the Schur expansion
read them); ``+``, ``-``, negation, integer multiples and the constants
carry them.  They take no part in equality, hashing or display.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ArityMismatch, BadIndices, NotDivisible
from .intlinalg import _axpy


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

    __slots__ = ("arity", "terms", "_hash", "_orbits")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if arity < 0:
            raise ArityMismatch("arity must be non-negative")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(map(operator.index, exps))
                if len(exps) != arity:
                    raise ArityMismatch(
                        f"exponent vector {exps} has length {len(exps)}, expected {arity}"
                    )
                coef = operator.index(coef)
                if coef:
                    clean[exps] = clean.get(exps, 0) + coef
                    if not clean[exps]:
                        del clean[exps]
        self.arity = arity
        self.terms = clean
        self._hash = None
        self._orbits = None

    @classmethod
    def _raw(cls, arity: int, terms: dict[tuple[int, ...], int],
             orbits: dict[tuple[int, ...], int] | None = None) -> "LaurentPoly":
        # Trusted fast path: terms must already be normalized, and orbits,
        # when given, must be the orbit coordinates of the terms.
        self = object.__new__(cls)
        self.arity = arity
        self.terms = terms
        self._hash = None
        self._orbits = orbits
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "LaurentPoly":
        return cls._raw(arity, {}, {})

    @classmethod
    def one(cls, arity: int) -> "LaurentPoly":
        return cls.constant(arity, 1)

    @classmethod
    def constant(cls, arity: int, value: int) -> "LaurentPoly":
        value = operator.index(value)
        terms = {(0,) * arity: value} if value else {}
        return cls._raw(arity, terms, dict(terms))

    @classmethod
    def monomial(cls, arity: int, exps: Iterable[int], coef: int = 1) -> "LaurentPoly":
        exps = tuple(map(operator.index, exps))
        if len(exps) != arity:
            raise ArityMismatch(f"exponent vector {exps} does not match arity {arity}")
        coef = operator.index(coef)
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

    def _plus(self, other, sign: int) -> "LaurentPoly":
        """self + sign * other, with no negated copy of other."""
        if isinstance(other, int):
            other = LaurentPoly.constant(self.arity, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        _axpy(out, other.terms, sign)
        orbits = None
        if self._orbits is not None and other._orbits is not None:
            orbits = dict(self._orbits)
            _axpy(orbits, other._orbits, sign)
        return LaurentPoly._raw(self.arity, out, orbits)

    def _scaled(self, k: int) -> "LaurentPoly":
        """k * self for a nonzero int k, orbit coordinates included."""
        orbits = self._orbits
        if orbits is not None:
            orbits = {mu: c * k for mu, c in orbits.items()}
        return LaurentPoly._raw(self.arity, {e: c * k for e, c in self.terms.items()}, orbits)

    def __add__(self, other) -> "LaurentPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return self._scaled(-1)

    def __sub__(self, other) -> "LaurentPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return self._scaled(other) if other else LaurentPoly.zero(self.arity)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_arity(other)
        # Each term of the larger operand is copied once per term u of the
        # smaller one, and only the coordinates where u is nonzero are
        # adjusted: none or two for the 1 - x_i x_j of R, one for each term
        # of the x_i - x_j of the Vandermonde.  A sum that reaches zero is
        # deleted at once, so no zero is ever held.
        f, g = self.terms, other.terms
        if len(f) < len(g):
            f, g = g, f
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for u, cu in g.items():
            moved = [(k, a) for k, a in enumerate(u) if a]
            for e, c in f.items():
                if moved:
                    e = list(e)
                    for k, a in moved:
                        e[k] += a
                    e = tuple(e)
                new = get(e, 0) + cu * c
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
        """The polynomial with x_i and x_j exchanged (1-based, in 1..arity)."""
        if not (1 <= i <= self.arity and 1 <= j <= self.arity):
            raise BadIndices(f"bad swap ({i}, {j}) for arity {self.arity}")
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
        """True when invariant under the full symmetric group, that is,
        when it has orbit coordinates: recorded when it is written from
        them or on its first symmetry check (:func:`_orbit_coordinates`)."""
        return _orbit_coordinates(self) is not None

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
        lo, hi = min(a, b), max(a, b)
        terms: dict[tuple[int, tuple[int, ...]], int] = {}
        get = terms.get
        for exps, coef in self.terms.items():
            key = (exps[a] - exps[b], exps[:lo] + exps[lo + 1:hi] + exps[hi + 1:])
            terms[key] = get(key, 0) + coef
        return TSlice(n, (i, j), {key: c for key, c in terms.items() if c})

    # -- exact division ---------------------------------------------------

    def exact_divide(self, divisor: "LaurentPoly | int") -> "LaurentPoly":
        """Return ``q`` with ``self == q * divisor``, exactly.

        Every divisor, an int included, goes through one algorithm:
        sparse division by leading terms (:func:`_divide_by_heap`).  A
        nonzero remainder or a non-integral coefficient raises
        :class:`NotDivisible`.  Any other divisor type raises TypeError,
        as the ring operations do.
        """
        if isinstance(divisor, int):
            divisor = LaurentPoly.constant(self.arity, divisor)
        elif not isinstance(divisor, LaurentPoly):
            raise TypeError(f"cannot divide by {type(divisor).__name__}")
        self._check_arity(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.arity)
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


def _read_only(poly: LaurentPoly) -> LaurentPoly:
    """``poly`` with its terms, and its orbit coordinates if it has them,
    behind read-only views (not copies)."""
    orbits = poly._orbits
    return LaurentPoly._raw(poly.arity, MappingProxyType(poly.terms),
                            None if orbits is None else MappingProxyType(orbits))


def _orbit_coordinates(f: LaurentPoly) -> Mapping[tuple[int, ...], int] | None:
    """The orbit coordinates of f, or None when f is not symmetric: the
    ``_orbits`` of a value written from them, else the weakly decreasing
    terms of a value that passes a check term by term, recorded on it as
    a read-only map (a memo, like its hash).  The symmetric group is
    generated by the transposition of the first two variables and the
    cycle through all of them, so each term is compared with its two
    images: a permutation g that maps every term w to a term with the
    same coefficient fixes f, as w, g(w), g(g(w)), ... stays among the
    terms and returns to w.  A zero polynomial has the empty map at once.
    """
    if f._orbits is None:
        n, terms = f.arity, f.terms
        dominant = list(terms)
        if dominant and n > 1:
            if not all(all(map(operator.eq, map(terms.get, map(image, terms)), terms.values()))
                       for image in (operator.itemgetter(*range(1, n), 0),
                                     operator.itemgetter(1, 0, *range(2, n)))):
                return None
            for k in range(n - 1):
                dominant = [nu for nu in dominant if nu[k] >= nu[k + 1]]
        f._orbits = MappingProxyType({nu: terms[nu] for nu in dominant})
    return f._orbits


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


def _divide_by_binomials(f: LaurentPoly, factors: Iterable[LaurentPoly]) -> LaurentPoly:
    """Exact quotient of ``f`` by the product of ``factors``, one at a time."""
    return functools.reduce(LaurentPoly.exact_divide, factors, f)


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

    def _plus(self, other, sign: int) -> "TSlice":
        if not isinstance(other, TSlice):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        _axpy(out, other.terms, sign)
        return TSlice(self.base_arity, self.pair, out)

    def __add__(self, other: "TSlice") -> "TSlice":
        return self._plus(other, 1)

    def __neg__(self) -> "TSlice":
        return TSlice(self.base_arity, self.pair, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TSlice") -> "TSlice":
        return self._plus(other, -1)

    def __mul__(self, other) -> "TSlice":
        if isinstance(other, int):
            if not other:
                return TSlice(self.base_arity, self.pair, {})
            return TSlice(self.base_arity, self.pair,
                          {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, TSlice):
            return NotImplemented
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
    (the alternant vanishes).  The sign is looked up by the sorting
    permutation (:func:`_permutation_sign`).
    """
    vals = tuple(values)
    n = len(vals)
    if len(set(vals)) < n:
        return None
    order = tuple(sorted(range(n), key=vals.__getitem__, reverse=True))
    return _permutation_sign(order), tuple(map(vals.__getitem__, order))


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
    return sign, tuple(map(operator.sub, sorted_desc, range(len(sorted_desc) - 1, -1, -1)))


@functools.cache
def permutations_with_signs(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All permutations of 0..n-1 as index tuples, with their signatures
    (:func:`_cycle_sign`), computed once per n as an immutable tuple."""
    return tuple((perm, _cycle_sign(perm)) for perm in itertools.permutations(range(n)))


def _cycle_sign(perm: tuple[int, ...]) -> int:
    """The signature of a permutation of 0..n-1 given as an index tuple:
    -1 to the number of its entries minus the number of its cycles."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if not seen[start]:
            seen[start] = True
            at = perm[start]
            while at != start:
                seen[at] = True
                at = perm[at]
                sign = -sign
    return sign


# Arities up to this one read permutation signs and orbit arrangements
# from tables built once per arity or label word (at most 720 entries
# each); longer ones count cycles and build the arrangements uncached.
_TABLE_ARITY = 6


@functools.cache
def _sign_table(n: int) -> dict[tuple[int, ...], int]:
    return dict(permutations_with_signs(n))


def _permutation_sign(perm: tuple[int, ...]) -> int:
    """The signature of a permutation of 0..n-1 given as an index tuple."""
    n = len(perm)
    return _sign_table(n)[perm] if n <= _TABLE_ARITY else _cycle_sign(perm)


@functools.cache
def _arrangement_getters(labels: tuple[int, ...]) -> tuple[operator.itemgetter, ...]:
    """One getter per distinct arrangement of a weight whose entry at
    position j first occurs at position ``labels[j]``: applied to the
    weight, the getters return its distinct permutations, in the order in
    which ``itertools.permutations`` first yields them.  Cached per label
    word: a weakly decreasing weight of arity n has one of 2^(n-1)."""
    return tuple(operator.itemgetter(*word)
                 for word in dict.fromkeys(itertools.permutations(labels)))


def _arrangements(mu: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    """The distinct permutations of mu, in the order in which
    ``itertools.permutations(mu)`` first yields them.

    A mu with distinct entries has n! of them, which
    ``itertools.permutations`` yields directly.  A mu that repeats an
    entry has fewer, often far fewer (6 of 720 for (a, a, a, a, b, b)).
    Up to arity ``_TABLE_ARITY`` they are read through the getters of its
    label word (:func:`_arrangement_getters`).  Above it they are built
    one position at a time, uncached: the first appearance of an
    arrangement takes, at each position, the first unused occurrence of
    its entry, so the arrangements that agree up to a position continue
    with the distinct entries left, in the order of their first
    remaining occurrence.
    """
    n = len(mu)
    if len(set(mu)) == n:
        return itertools.permutations(mu)
    if n <= _TABLE_ARITY:
        return [get(mu) for get in _arrangement_getters(tuple(map(mu.index, mu)))]
    layer = [((), mu)]
    for _ in range(n):
        layer = [(head + (v,), rest[:i] + rest[i + 1:])
                 for head, rest in layer
                 for v in dict.fromkeys(rest)
                 for i in (rest.index(v),)]
    return [head for head, _ in layer]


def _from_orbits(arity: int, coeffs: Mapping[tuple[int, ...], int]) -> LaurentPoly:
    """The symmetric polynomial sum_mu c_mu m_mu: each nonzero c_mu is
    written at every distinct permutation of mu (:func:`_arrangements`),
    so the keys must lie in distinct orbits.  Terms are inserted in the
    order of first appearance in ``itertools.permutations(mu)``.  The
    result keeps the nonzero c_mu as its orbit coordinates, each keyed by
    mu sorted decreasing.
    """
    terms: dict[tuple[int, ...], int] = {}
    orbits: dict[tuple[int, ...], int] = {}
    for mu, coef in coeffs.items():
        if coef:
            terms.update(dict.fromkeys(_arrangements(mu), coef))
            orbits[tuple(sorted(mu, reverse=True))] = coef
    return LaurentPoly._raw(arity, terms, orbits)


def monomial_orbit_sum(arity: int, weight: Iterable[int]) -> LaurentPoly:
    """The monomial symmetric Laurent polynomial m_weight: the sum of
    x^mu over the distinct permutations mu of ``weight``."""
    weight = tuple(map(operator.index, weight))
    if len(weight) != arity:
        raise ArityMismatch(f"weight {weight} does not match arity {arity}")
    return _from_orbits(arity, {weight: 1})
