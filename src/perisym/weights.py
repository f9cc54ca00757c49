"""Dominant integral weights, parity, and bead diagrams.

Weights are plain tuples of ints, weakly decreasing when dominant.  The
diagram of a dominant weight ``lam`` places ``n`` beads on the integer
line at the rho-shifted positions ``lam[i] + n - 1 - i`` (0-based ``i``),
which are strictly decreasing; conversely any strictly decreasing bead
tuple determines a dominant weight.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator

from .errors import BeadCollision, NotDominant

Weight = tuple[int, ...]


def rho(n: int) -> Weight:
    """The staircase weight (n-1, n-2, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


def is_dominant(lam: Iterable[int]) -> bool:
    lam = tuple(lam)
    return all(map(operator.ge, lam, lam[1:]))


def check_dominant(lam: Iterable[int]) -> Weight:
    lam = tuple(map(operator.index, lam))
    if not is_dominant(lam):
        raise NotDominant(f"{lam} is not weakly decreasing")
    return lam


def parity(lam: Iterable[int]) -> int:
    """Normalized Z_2-degree of the highest weight vector.

    Half the entry sum, rounded up when the sum is odd, taken mod 2.
    """
    s = sum(lam)
    return (-(s // -2)) % 2


def to_diagram(lam: Iterable[int]) -> Weight:
    """Bead positions of a dominant weight, strictly decreasing."""
    lam = check_dominant(lam)
    n = len(lam)
    return tuple(lam[i] + n - 1 - i for i in range(n))


def from_diagram(beads: Iterable[int]) -> Weight:
    """Dominant weight whose diagram has the given bead positions."""
    beads = tuple(map(operator.index, beads))
    for i in range(len(beads) - 1):
        if beads[i] <= beads[i + 1]:
            raise BeadCollision(f"bead positions {beads} are not strictly decreasing")
    n = len(beads)
    return tuple(beads[i] - (n - 1 - i) for i in range(n))


def dominance_leq(lam: Iterable[int], mu: Iterable[int]) -> bool:
    """lam <= mu in the order where lower weights have entrywise larger
    coordinates (the i-th bead of the smaller weight sits further right)."""
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) != len(mu):
        raise NotDominant("weights of different lengths are incomparable")
    return all(a >= b for a, b in zip(lam, mu))


def dominant_weights_with_beads_in(n: int, lo: int, hi: int) -> Iterator[Weight]:
    """All dominant weights of length n whose beads lie in [lo, hi]."""
    if n == 0:
        yield ()
        return
    for beads in itertools.combinations(range(hi, lo - 1, -1), n):
        yield from_diagram(beads)
