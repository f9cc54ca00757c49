"""Sparse exact linear algebra over the integers.

Systems are stored column-wise as dicts mapping row keys (any sortable
hashable) to nonzero ints.  :class:`EchelonSystem` brings the matrix to
column echelon form by unimodular column operations, tracking the
transformation, so one factorization serves many right-hand sides:
solving is forward substitution through the pivot columns, with exact
divisions certifying integrality.
"""

from __future__ import annotations

import heapq


class Infeasible(Exception):
    """The system has no rational solution."""


class NonIntegral(Exception):
    """The system has a rational solution but no integer one."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _axpy(dst: dict, src: dict, q: int) -> tuple[list, list]:
    """dst += q * src; returns (keys added, keys removed).

    Stores no zero entries: ``q == 0`` leaves dst as it is.
    """
    added, removed = [], []
    if not q:
        return added, removed
    for key, val in src.items():
        cur = dst.get(key)
        if cur is None:
            dst[key] = q * val
            added.append(key)
        else:
            new = cur + q * val
            if new:
                dst[key] = new
            else:
                del dst[key]
                removed.append(key)
    return added, removed


def _gcd_pair(x: dict, y: dict, a: int, b: int) -> tuple[dict, dict]:
    """The unimodular pair (u x + v y, (a y - b x) / g) for
    g = gcd(a, b) = u a + v b.  Where x and y hold a and b at one key,
    the first holds g there and the second 0."""
    g, u, v = xgcd(a, b)
    first: dict = {}
    _axpy(first, x, u)
    _axpy(first, y, v)
    second: dict = {}
    _axpy(second, x, -(b // g))
    _axpy(second, y, a // g)
    return first, second


class EchelonSystem:
    """Column echelon factorization of a sparse integer matrix.

    ``columns`` is a list of sparse columns; the constructor consumes it.
    Rows are eliminated in a fill-reducing order: each step takes the
    row with the least (number of occupied non-pivot columns, row key).
    Each elimination is a unimodular combination of columns, so the
    tracked matrix V satisfies  A_original * V = A_echelon.

    The order comes from a lazy heap of (count, row) entries.  An entry
    is pushed when a row enters the occupied set and whenever its count
    falls, but not when it grows, so every occupied row keeps an entry
    whose key is at most (current count, row).  A popped entry whose
    count is out of date is pushed again with the current count; one
    that matches is the least occupied row, exactly as if every change
    had been pushed.
    """

    def __init__(self, columns: list[dict]):
        self.cols = columns
        ncols = len(columns)
        self.V: list[dict[int, int]] = [{i: 1} for i in range(ncols)]
        occ: dict = {}
        for ci, col in enumerate(columns):
            for row in col:
                occ.setdefault(row, set()).add(ci)
        self._occ = occ
        self.pivots: list[tuple[object, int]] = []
        active = set(range(ncols))
        heap = [(len(cs), row) for row, cs in occ.items()]
        heapq.heapify(heap)
        while heap:
            size, row = heapq.heappop(heap)
            cands = occ.get(row)
            if not cands:
                continue
            if size != len(cands):  # the count grew after this push
                heapq.heappush(heap, (len(cands), row))
                continue
            pivot = self._eliminate_row(row, sorted(cands), heap)
            self.pivots.append((row, pivot))
            active.discard(pivot)
            for r in self.cols[pivot]:
                s = occ.get(r)
                if s is not None:
                    s.discard(pivot)
                    if not s:
                        del occ[r]
                    else:
                        heapq.heappush(heap, (len(s), r))
        self.kernel = sorted(c for c in active if not self.cols[c])

    def _touch(self, ci: int, added, removed, heap) -> None:
        occ = self._occ
        for row in added:
            s = occ.get(row)
            if s is None:
                occ[row] = {ci}
                heapq.heappush(heap, (1, row))
            else:
                s.add(ci)
        for row in removed:
            s = occ.get(row)
            if s is not None:
                s.discard(ci)
                if not s:
                    del occ[row]
                else:
                    heapq.heappush(heap, (len(s), row))

    def _eliminate_row(self, row, cands: list[int], heap) -> int:
        """Zero the row in all candidate columns but one; return it."""
        cols, V = self.cols, self.V

        def pivot_key(c):
            a = abs(cols[c][row])
            return (a != 1, len(cols[c]), a, c)

        pivot = min(cands, key=pivot_key)
        for c in cands:
            if c == pivot:
                continue
            a = cols[pivot][row]
            b = cols[c][row]
            if b % a == 0:
                q = -(b // a)
                added, removed = _axpy(cols[c], cols[pivot], q)
                _axpy(V[c], V[pivot], q)
                self._touch(c, added, removed, heap)
            else:
                new_p, new_c = _gcd_pair(cols[pivot], cols[c], a, b)
                newV_p, newV_c = _gcd_pair(V[pivot], V[c], a, b)
                self._replace(pivot, new_p, newV_p, heap)
                self._replace(c, new_c, newV_c, heap)
        entry = cols[pivot][row]
        if entry < 0:
            cols[pivot] = {r: -v for r, v in cols[pivot].items()}
            V[pivot] = {k: -v for k, v in V[pivot].items()}
        return pivot

    def _replace(self, ci: int, new_col: dict, new_v: dict, heap) -> None:
        old = self.cols[ci]
        added = [r for r in new_col if r not in old]
        removed = [r for r in old if r not in new_col]
        self.cols[ci] = new_col
        self.V[ci] = new_v
        self._touch(ci, added, removed, heap)

    def solve(self, rhs: dict) -> dict[int, int]:
        """An integer solution of A x = rhs in original coordinates.

        Raises :class:`Infeasible` when no rational solution exists and
        :class:`NonIntegral` when the unique pivot coordinates are not
        integers.
        """
        b = {k: v for k, v in rhs.items() if v}
        d: dict[int, int] = {}
        for row, ci in self.pivots:
            cur = b.get(row)
            if not cur:
                continue
            q, rem = divmod(cur, self.cols[ci][row])
            if rem:
                raise NonIntegral(f"pivot at row {row!r} does not divide")
            d[ci] = q
            _axpy(b, self.cols[ci], -q)
        if b:
            row = sorted(b)[0]
            raise Infeasible(f"residual at row {row!r}")
        x: dict[int, int] = {}
        for ci, q in d.items():
            if q:
                _axpy(x, self.V[ci], q)
        return x

    def kernel_vectors(self) -> list[dict[int, int]]:
        """Transformation columns spanning the integer nullspace."""
        return [self.V[c] for c in self.kernel]


def reduce_by_lattice(x: dict[int, int], basis: list[dict[int, int]],
                      order_key) -> dict[int, int]:
    """Deterministically shrink x modulo the lattice spanned by basis.

    The basis is first echelonized (Hermite style) over the unknowns
    sorted by ``order_key`` descending, then x's coordinate at each
    leading unknown is floor-reduced into the canonical residue range.
    """
    if not basis:
        return x
    # Each row travels with its lead, recomputed only after _axpy
    # changes the row.
    rows = [(max(r, key=order_key), r) for r in map(dict, basis) if r]
    echelon: list[tuple[object, dict[int, int]]] = []
    while rows:
        lead = max((r_lead for r_lead, _ in rows), key=order_key)
        group = [r for r_lead, r in rows if r_lead == lead]
        rest = [(r_lead, r) for r_lead, r in rows if r_lead != lead]
        head = group[0]
        for other in group[1:]:
            a, b = head[lead], other[lead]
            if b % a == 0:
                _axpy(other, head, -(b // a))
            else:
                head, other = _gcd_pair(head, other, a, b)
            if other:
                rest.append((max(other, key=order_key), other))
        if head[lead] < 0:
            head = {k: -v for k, v in head.items()}
        echelon.append((lead, head))
        rows = rest
    x = dict(x)
    for lead, vec in sorted(echelon, key=lambda lv: order_key(lv[0]), reverse=True):
        cur = x.get(lead, 0)
        q = cur // vec[lead]
        if q:
            _axpy(x, vec, -q)
    return {k: v for k, v in x.items() if v}
