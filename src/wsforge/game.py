"""Win-lose bimatrix games as bipartite digraphs.

A game (A, B) maps to a digraph on row vertices r_0..r_{m-1} (ids 0..m-1)
followed by column vertices c_0..c_{n-1} (ids m..m+n-1): arc r_i -> c_j iff
A[i][j] = 1, arc c_j -> r_i iff B[i][j] = 1. The reverse direction embeds an
arbitrary digraph into a square game by duplicating its vertex set, doubling
each arc across the bipartition, and adding the diagonal arcs r_i -> c_i.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

from .digraph import Digraph, _circulant, _first_undominated, _rot, _shortest_cycle, _transpose

__all__ = [
    "WinLoseGame",
    "CycleWitness",
    "UndominatedWitness",
    "to_bipartite_digraph",
    "bipartify",
    "char_decision",
    "out_degree_offenders",
]


class WinLoseGame:
    """0-1 payoff matrices stored as row bitmasks: bit j of ``a_rows[i]`` is
    the row player's payoff A[i][j], likewise ``b_rows`` for the column
    player. Equal by ``m``, ``n``, ``a_rows`` and ``b_rows``, and unhashable."""

    def __init__(self, m: int, n: int, a_rows: tuple[int, ...], b_rows: tuple[int, ...]) -> None:
        if m < 0 or n < 0:
            raise ValueError("matrix dimensions must be >= 0")
        if len(a_rows) != m or len(b_rows) != m:
            raise ValueError("payoff matrices must have m rows each")
        limit = 1 << n
        for name, rows in (("A", a_rows), ("B", b_rows)):
            for i, mask in enumerate(rows):
                if mask < 0 or mask >= limit:
                    raise ValueError(f"{name} row {i} has entries outside column range")
        self.m = m
        self.n = n
        self.a_rows = a_rows
        self.b_rows = b_rows

    def __repr__(self) -> str:
        return f"WinLoseGame(m={self.m!r}, n={self.n!r}, a_rows={self.a_rows!r}, b_rows={self.b_rows!r})"

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.n, self.a_rows, self.b_rows) == (other.m, other.n, other.a_rows, other.b_rows)

    __hash__ = None

    @classmethod
    def from_matrices(
        cls, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
    ) -> "WinLoseGame":
        if len(a) != len(b):
            raise ValueError("A and B must have the same number of rows")
        m = len(a)
        n = len(a[0]) if m else 0
        a_rows = []
        b_rows = []
        for name, src, dst in (("A", a, a_rows), ("B", b, b_rows)):
            for i, row in enumerate(src):
                if len(row) != n:
                    raise ValueError(f"{name} row {i} has length {len(row)}, expected {n}")
                mask = 0
                for j, entry in enumerate(row):
                    if entry not in (0, 1):
                        raise ValueError(f"{name}[{i}][{j}] = {entry!r} is not 0 or 1")
                    if entry:
                        mask |= 1 << j
                dst.append(mask)
        return cls(m, n, tuple(a_rows), tuple(b_rows))

    def a(self, i: int, j: int) -> int:
        return self.a_rows[i] >> j & 1

    def b(self, i: int, j: int) -> int:
        return self.b_rows[i] >> j & 1

    def a_matrix(self) -> list[list[int]]:
        return [[self.a(i, j) for j in range(self.n)] for i in range(self.m)]

    def b_matrix(self) -> list[list[int]]:
        return [[self.b(i, j) for j in range(self.n)] for i in range(self.m)]

    @cached_property
    def shift_invariant(self) -> bool:
        """Whether the shift (i, j) -> (i + 1, j + 1) mod n of rows and
        columns maps both payoff matrices to themselves, as on a bipartified
        Cayley digraph: A and B are square, n >= 2, and circulant."""
        return self.m == self.n >= 2 and _circulant(self.a_rows) and _circulant(self.b_rows)

    @cached_property
    def a_col_masks(self) -> tuple[int, ...]:
        """Bitmask over rows per column: bit i of entry j is A[i][j]."""
        return self._columns(self.a_rows)

    @cached_property
    def b_col_masks(self) -> tuple[int, ...]:
        """Bitmask over rows per column: bit i of entry j is B[i][j]."""
        return self._columns(self.b_rows)

    def _columns(self, rows: tuple[int, ...]) -> tuple[int, ...]:
        """The row bitmasks ``rows`` of one payoff matrix, transposed. On a
        shift-invariant game column j is column 0 rotated by j, so only
        column 0 is read from the rows."""
        if self.shift_invariant:
            first = sum((mask & 1) << i for i, mask in enumerate(rows))
            return tuple(_rot(first, j, self.n) for j in range(self.n))
        return _transpose(rows, self.n)

    @cached_property
    def bipartite_cycle(self) -> Optional[tuple[int, ...]]:
        """``digraph.shortest_cycle`` of the game's bipartite digraph, or
        None if it is acyclic, searched for once per game.

        On a shift-invariant game the shift by one maps the bipartite
        digraph to itself, and every cycle, which visits some row r_i, has a
        translate of the same length through r_0, vertex 0. So vertex 0's
        backward search, the first of the full search, finds the girth, and
        it is the only one made."""
        cycle = _shortest_cycle(to_bipartite_digraph(self), self.shift_invariant)
        return None if cycle is None else tuple(cycle)


class CycleWitness(NamedTuple):
    """Directed cycle in the bipartite digraph, as vertex ids (rows are
    0..m-1, columns m..m+n-1); consecutive arcs exist and the length is even."""

    vertices: tuple[int, ...]


class UndominatedWitness(NamedTuple):
    """One-sided undominated set: ``side`` is "row" or "col" and ``indices``
    are matrix indices on that side."""

    side: str
    indices: tuple[int, ...]


def to_bipartite_digraph(g: WinLoseGame) -> Digraph:
    """Digraph on m + n vertices, rows first: r_i -> c_j iff A[i][j] = 1 and
    c_j -> r_i iff B[i][j] = 1."""
    rows = [mask << g.m for mask in g.a_rows]
    rows.extend(g.b_col_masks)
    return Digraph(g.m + g.n, tuple(rows))


def bipartify(d: Digraph) -> WinLoseGame:
    """Square game whose bipartite digraph mirrors ``d`` on both sides.

    A[i][j] = 1 iff i = j or (v_i, v_j) is an arc; B[i][j] = 1 iff
    (v_j, v_i) is an arc, i.e. the bipartite arc c_j -> r_i exists.
    """
    a_rows = tuple(d.out[i] | (1 << i) for i in range(d.n))
    b_rows = d.in_masks
    return WinLoseGame(d.n, d.n, a_rows, b_rows)


def out_degree_offenders(g: WinLoseGame) -> list[str]:
    """Labels of bipartite vertices with out-degree zero (empty A rows and
    empty B columns)."""
    offenders = [f"r{i}" for i in range(g.m) if g.a_rows[i] == 0]
    offenders.extend(f"c{j}" for j, mask in enumerate(g.b_col_masks) if mask == 0)
    return offenders


def _require_out_degree(g: WinLoseGame) -> None:
    offenders = out_degree_offenders(g)
    if offenders:
        raise ValueError(
            "bipartite digraph has vertices with out-degree 0: " + ", ".join(offenders)
        )


def char_decision(
    g: WinLoseGame, k: int
) -> Union[CycleWitness, UndominatedWitness, None]:
    """Decide whether the game's bipartite digraph has a cycle of length at
    most 2k or a one-sided undominated set of cardinality k.

    Prefers the cycle witness, returning the shortest cycle with
    deterministic tie-breaking (the game's ``bipartite_cycle``, which does
    not depend on k); the undominated search scans row-side index sets
    lexicographically, then column-side. Requires minimum out-degree at
    least one and rejects other games with a diagnostic.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _require_out_degree(g)
    cyc = g.bipartite_cycle
    if cyc is not None and len(cyc) <= 2 * k:
        return CycleWitness(cyc)
    return _first_undominated_side(g, k)


def _first_undominated_side(g: WinLoseGame, k: int) -> Union[UndominatedWitness, None]:
    """The first one-sided k-set with no common in-neighbour in the game's
    bipartite digraph: row-side index sets lexicographically, then
    column-side; None when every such set is dominated.

    Row i's in-mask is B's row i (the digraph shifts it past the row ids,
    which changes no intersection's emptiness) and column j's is A's column
    j. On a shift-invariant game both are circulant, so each side tries only
    the sets through index 0 (``digraph._first_undominated``).
    """
    circulant = g.shift_invariant
    combo = _first_undominated(g.b_rows, k, circulant)
    if combo is not None:
        return UndominatedWitness("row", combo)
    combo = _first_undominated(g.a_col_masks, k, circulant)
    return None if combo is None else UndominatedWitness("col", combo)
