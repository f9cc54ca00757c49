"""Sparse exact linear algebra over the integers.

Systems are stored column-wise as dicts mapping row keys (any sortable
hashable) to nonzero ints.  :class:`EchelonSystem` brings the matrix to
column echelon form by unimodular column operations, so one
factorization serves many right-hand sides: solving is forward
substitution through the pivot columns, with exact divisions certifying
integrality.  The transformation is not built during the elimination:
the column operations are logged, and the transformation columns are
replayed from the log when needed.  The pivot columns, which solving
reads, are replayed at the end of the factorization; the kernel columns
on the first request for them.  :func:`lattice_echelon` and
:func:`reduce_by_lattice` reduce a solution modulo a kernel lattice,
echelonized once and reused.
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
    """dst += q * src; returns (keys added, keys removed), each in the
    order src yields them.  Stores no zero: a key that sums to zero is
    deleted, and ``q == 0`` leaves dst as it is.  The one "add, drop if
    zero" loop, for the solver here, ``+`` and ``-`` of polynomials,
    t-slices and combinations, Schur sums and the thin-Kac peel.  The
    elimination reads both lists to keep its occupancy sets; the peel
    reads ``added`` to queue new weights.
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


def _join(occ: dict, row, ci: int) -> None:
    """Column ci gained an entry at row: add it to the row's set, which
    is never empty here (see :class:`EchelonSystem`).  A growing count
    pushes nothing."""
    occ[row].add(ci)


def _leave(occ: dict, heap: list, row, ci: int) -> None:
    """Column ci lost its entry at row, or became a pivot: drop it
    from the row's set and push the row's smaller count."""
    s = occ.get(row)
    if s is not None:
        s.discard(ci)
        if not s:
            del occ[row]
        else:
            heapq.heappush(heap, (len(s), row))


class EchelonSystem:
    """Column echelon factorization of a sparse integer matrix.

    ``columns`` is a list of sparse columns; the constructor consumes it.
    Rows are eliminated in a fill-reducing order: each step takes the
    row with the least (number of occupied non-pivot columns, row key).
    Each elimination is a unimodular combination of columns, so the
    transformation V, which starts as the identity and takes the same
    column operations, satisfies  A_original * V = A_echelon.

    The order comes from a lazy heap of (count, row) entries.  An entry
    is pushed for every row at the start and whenever a row's count
    falls, but not when it grows, so every occupied row keeps an entry
    whose key is at most (current count, row).  A popped entry whose
    count is out of date is pushed again with the current count; one
    that matches is the least occupied row, exactly as if every change
    had been pushed.

    A row never enters the occupied set after the start, so no entry is
    pushed for that.  Every row of a non-pivot column holds that column
    in its set.  The divisible update adds rows of the pivot column, and
    the gcd pair's new pivot column rows of the pivot and candidate
    columns, so both add occupied rows only.  The pair's second column
    may also take a row r of the old pivot column that the new pivot
    column has just dropped.  r's set is empty then only if no column
    but the candidates of the eliminated row held r at the step's start,
    and the candidate being paired did not: then r had fewer columns
    than that row, which the heap order rules out.

    V is not updated during the elimination.  Each column operation is
    logged instead: ``(c, p, q)`` for c += q p, ``(p, c, a, b)`` for the
    gcd pair of p and c at entries a and b, and ``(p,)`` for the sign
    flip of a pivot.  The constructor replays only the operations that
    reach the pivot columns, which are all :meth:`solve` reads.
    :meth:`kernel_vectors` replays those that reach the kernel columns
    on its first call.  A replay does the same arithmetic in the same
    order as updating V would.
    """

    def __init__(self, columns: list[dict]):
        self.cols = columns
        ncols = len(columns)
        self._log: list[tuple] = []
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
                _leave(occ, heap, r, pivot)
        self.kernel = sorted(c for c in active if not self.cols[c])
        self._pivot_V = self._replay([ci for _, ci in self.pivots])
        self._kernel_V: list[dict[int, int]] | None = None

    def _eliminate_row(self, row, cands: list[int], heap) -> int:
        """Zero the row in all candidate columns but one; return it."""
        cols, occ, log = self.cols, self._occ, self._log

        def pivot_key(c):
            a = abs(cols[c][row])
            return (a != 1, len(cols[c]), a, c)

        pivot = min(cands, key=pivot_key)
        for c in cands:
            if c == pivot:
                continue
            src = cols[pivot]
            a = src[row]
            b = cols[c][row]
            if b % a == 0:
                q = -(b // a)
                log.append((c, pivot, q))
                added, removed = _axpy(cols[c], src, q)
                for r in added:
                    _join(occ, r, c)
                for r in removed:
                    _leave(occ, heap, r, c)
            else:
                log.append((pivot, c, a, b))
                new_p, new_c = _gcd_pair(src, cols[c], a, b)
                self._replace(pivot, new_p, heap)
                self._replace(c, new_c, heap)
        if cols[pivot][row] < 0:
            log.append((pivot,))
            cols[pivot] = {r: -v for r, v in cols[pivot].items()}
        return pivot

    def _replace(self, ci: int, new_col: dict, heap) -> None:
        occ, old = self._occ, self.cols[ci]
        self.cols[ci] = new_col
        for row in new_col:
            if row not in old:
                _join(occ, row, ci)
        for row in old:
            if row not in new_col:
                _leave(occ, heap, row, ci)

    def _replay(self, targets) -> dict[int, dict[int, int]]:
        """Columns ``targets`` of V, from the logged operations that reach
        them.  A backward pass marks the needed operations: one that
        writes a live column is needed, and its operands become live."""
        live = set(targets)
        needed = []
        for op in reversed(self._log):
            if len(op) == 3:
                if op[0] in live:
                    needed.append(op)
                    live.add(op[1])
            elif op[0] in live or (len(op) == 4 and op[1] in live):
                needed.append(op)
                live.update(op[:2])
        V = {i: {i: 1} for i in live}
        for op in reversed(needed):
            if len(op) == 3:
                c, p, q = op
                _axpy(V[c], V[p], q)
            elif len(op) == 4:
                p, c, a, b = op
                V[p], V[c] = _gcd_pair(V[p], V[c], a, b)
            else:
                p = op[0]
                V[p] = {k: -v for k, v in V[p].items()}
        return {i: V[i] for i in targets}

    def solve(self, rhs: dict, row_name=lambda row: row) -> dict[int, int]:
        """An integer solution of A x = rhs in original coordinates.

        Raises :class:`Infeasible` when no rational solution exists and
        :class:`NonIntegral` when the unique pivot coordinates are not
        integers; their messages show a row as ``row_name(row)``.
        """
        b = {k: v for k, v in rhs.items() if v}
        d: dict[int, int] = {}
        for row, ci in self.pivots:
            cur = b.get(row)
            if not cur:
                continue
            q, rem = divmod(cur, self.cols[ci][row])
            if rem:
                raise NonIntegral(f"pivot at row {row_name(row)!r} does not divide")
            d[ci] = q
            _axpy(b, self.cols[ci], -q)
        if b:
            row = sorted(b)[0]
            raise Infeasible(f"residual at row {row_name(row)!r}")
        x: dict[int, int] = {}
        for ci, q in d.items():
            if q:
                _axpy(x, self._pivot_V[ci], q)
        return x

    def kernel_vectors(self) -> list[dict[int, int]]:
        """Transformation columns spanning the integer nullspace."""
        if self._kernel_V is None:
            self._kernel_V = list(self._replay(self.kernel).values())
        return self._kernel_V


def lattice_echelon(basis: list[dict[int, int]],
                    order_key) -> list[tuple[object, dict[int, int]]]:
    """The lattice spanned by basis in Hermite style echelon form, as
    (leading unknown, vector) pairs with leads descending by
    ``order_key`` and positive leading entries."""
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
    echelon.sort(key=lambda lv: order_key(lv[0]), reverse=True)
    return echelon


def reduce_by_lattice(x: dict[int, int],
                      echelon: list[tuple[object, dict[int, int]]]) -> dict[int, int]:
    """Deterministically shrink x modulo a lattice given by its
    :func:`lattice_echelon`: x's coordinate at each leading unknown, in
    descending order, is floor-reduced into the canonical residue range.
    """
    if not echelon:
        return x
    x = dict(x)
    for lead, vec in echelon:
        q = x.get(lead, 0) // vec[lead]
        if q:
            _axpy(x, vec, -q)
    return {k: v for k, v in x.items() if v}
