"""Directed graphs on {0..n-1} with bitset adjacency rows: Cayley
construction from a residue set, girth by a backward search for shortest
return paths whose layers also give the shortest cycle, domination checks,
bounded-walk powers, and girth/domination certification.

Digraph values are immutable by convention; every operation returns a new
value or a plain result.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from . import residues

__all__ = [
    "Digraph",
    "KLCertificate",
    "KLFailure",
    "cayley",
    "girth",
    "shortest_cycle",
    "is_dominated",
    "all_subsets_dominated",
    "find_undominated_set",
    "power",
    "certify_kl",
]


class Digraph:
    """``out[v]`` is the bitmask of v's out-neighbors; self-loops permitted.

    Equal by ``n`` and ``out``, and unhashable."""

    def __init__(self, n: int, out: tuple[int, ...]) -> None:
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        if len(out) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(out)}")
        limit = 1 << n
        for v, mask in enumerate(out):
            if mask < 0 or mask >= limit:
                raise ValueError(f"adjacency row of vertex {v} has out-of-range neighbors")
        self.n = n
        self.out = out

    def __repr__(self) -> str:
        return f"Digraph(n={self.n!r}, out={self.out!r})"

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.out) == (other.n, other.out)

    __hash__ = None

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) outside vertex range [0, {n})")
            rows[u] |= 1 << v
        return cls(n, tuple(rows))

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs in lexicographic order."""
        arcs = []
        for u, mask in enumerate(self.out):
            while mask:
                arcs.append((u, (mask & -mask).bit_length() - 1))
                mask &= mask - 1
        return arcs

    def arc_count(self) -> int:
        return sum(mask.bit_count() for mask in self.out)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out[v].bit_count()

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        return _transpose(self.out, self.n)


def _transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Bitmask rows over ``width`` columns, transposed: bit i of entry j is
    bit j of ``rows[i]``."""
    cols = [0] * width
    for i, mask in enumerate(rows):
        while mask:
            j = (mask & -mask).bit_length() - 1
            cols[j] |= 1 << i
            mask &= mask - 1
    return tuple(cols)


def _rot(bits: int, shift: int, q: int) -> int:
    """Rotate a q-bit vector left by ``shift``: bit r moves to r + shift mod q."""
    shift %= q
    if shift == 0:
        return bits
    mask = (1 << q) - 1
    return ((bits << shift) | (bits >> (q - shift))) & mask


def _circulant(rows: Sequence[int]) -> bool:
    """Whether each bitmask row is its predecessor rotated by one over
    n = len(rows) bits, i.e. the matrix is invariant under the shift
    (i, j) -> (i + 1, j + 1) mod n. Row 0 then follows from row n - 1, since
    n rotations are the identity, and the first mismatch ends the test."""
    n = len(rows)
    return all(rows[i + 1] == _rot(rows[i], 1, n) for i in range(n - 1))


class KLCertificate(NamedTuple):
    """Witnessed claim that every cycle has length >= k (``girth_found`` is
    None when the digraph is acyclic) and that every l-subset of vertices
    was exhaustively confirmed dominated."""

    k: int
    l: int
    girth_found: Optional[int]


class KLFailure(NamedTuple):
    """Concrete refutation: a directed cycle shorter than k, or an
    undominated vertex set of cardinality l."""

    k: int
    l: int
    short_cycle: Optional[tuple[int, ...]] = None
    undominated: Optional[tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def cayley(q: int, y: residues.ResidueSet) -> Digraph:
    """Digraph on Z_q with an arc z1 -> z2 iff (z1 - z2) mod q is in Y.

    Every vertex has out-degree and in-degree |Y|.
    """
    if y.modulus != q:
        raise ValueError(f"generator set has modulus {y.modulus}, expected {q}")
    # Row z is -Y rotated by z: the arcs z -> z - r for r in Y.
    neg = residues._scale_bits(y.bits, q - 1, q)
    return Digraph(q, tuple(_rot(neg, z, q) for z in range(q)))


# ---------------------------------------------------------------------------
# Girth
# ---------------------------------------------------------------------------


def _image(masks: Sequence[int], frontier: int) -> int:
    """Union of ``masks[u]`` over the members u of the bitmask ``frontier``."""
    out = 0
    while frontier:
        out |= masks[(frontier & -frontier).bit_length() - 1]
        frontier &= frontier - 1
    return out


def _shortest_return(d: Digraph, v: int, bound: int, alive: int) -> Optional[list[int]]:
    """Backward search from v inside the vertex mask ``alive``: its frontier
    layers up to the shortest closed walk through v, or None if none has
    length < bound (bound >= 2). Layer s - 1 holds the vertices whose
    shortest path to v is s arcs long; the last layer holds v, so the walk
    has one arc per layer. A shortest closed walk is always a simple cycle."""
    layers = []
    frontier = d.in_masks[v] & alive
    while frontier:
        layers.append(frontier)
        if frontier >> v & 1:
            return layers
        if len(layers) + 1 == bound:
            return None
        alive &= ~frontier
        frontier = _image(d.in_masks, frontier) & alive
    return None


def girth(d: Digraph) -> Optional[int]:
    """Length of the shortest directed cycle (self-loop = 1), or None if
    the digraph is acyclic: the length of :func:`shortest_cycle`."""
    cycle = shortest_cycle(d)
    return None if cycle is None else len(cycle)


def shortest_cycle(d: Digraph) -> Optional[list[int]]:
    """A shortest directed cycle as a vertex list, or None if acyclic.

    Searches backward for the shortest return path to each vertex v in turn,
    inside the vertices not yet dropped, and only up to the girth found so
    far. After v's search, v is dropped, and so is every vertex left with no
    out-arc or no in-arc among the rest (a worklist peels them). Every
    shortest cycle through the least vertex on any shortest cycle avoids
    smaller vertices, so the girth, the start vertex and its search's layers
    are those of a search over all vertices, while a long path or cycle is
    walked once instead of once per vertex. Once a 2-cycle is found nothing
    more is peeled: each later search then stops after its first step.

    Deterministic: starts at the smallest vertex achieving the girth g and
    greedily takes the smallest next vertex that stays on a shortest route:
    after t arcs, a vertex of the start's layer g - t - 1.

    On a circulant digraph (row i + 1 is row i rotated by one, as on every
    Cayley digraph) only vertex 0 is searched. Translating a cycle by t is a
    cycle of the same length, so every shortest cycle has a translate
    through 0; the girth is that of vertex 0's search, and 0, the least
    vertex, is the start the full search would keep, with the same layers
    since nothing has been dropped before it.
    """
    return _shortest_cycle(d, d.n > 0 and _circulant(d.out))


def _shortest_cycle(d: Digraph, symmetric: bool) -> Optional[list[int]]:
    """:func:`shortest_cycle`. ``symmetric`` says that every cycle has a
    translate of the same length through vertex 0, as on a nonempty
    circulant digraph. Then vertex 0's search, the first one, finds the
    girth, and it is the only one made."""
    alive = (1 << d.n) - 1
    best: Optional[tuple[int, int, list[int]]] = None  # (girth, start, layers)
    for v in range(d.n):
        if not alive >> v & 1:
            continue
        layers = _shortest_return(d, v, d.n + 1 if best is None else best[0], alive)
        if layers is not None:
            best = (len(layers), v, layers)
            if best[0] == 1:
                break
        if symmetric:
            break
        if best is not None and best[0] == 2:
            continue  # each later search stops after its first step
        # Drop v, then peel each vertex left with no out-arc or no in-arc
        # inside ``alive``: no cycle through it avoids the dropped vertices.
        alive &= ~(1 << v)
        work = [v]
        while work:
            x = work.pop()
            m = (d.out[x] | d.in_masks[x]) & alive
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not d.out[u] & alive or not d.in_masks[u] & alive:
                    alive &= ~(1 << u)
                    work.append(u)
    if best is None:
        return None
    g, v, layers = best
    cycle = [v]
    for t in range(1, g):
        m = d.out[cycle[-1]] & layers[g - t - 1]
        cycle.append((m & -m).bit_length() - 1)
    return cycle


# ---------------------------------------------------------------------------
# Domination
# ---------------------------------------------------------------------------


def is_dominated(d: Digraph, s: Iterable[int]) -> Optional[int]:
    """Smallest vertex with an arc to every member of ``s``, else None.

    The dominator may itself belong to ``s``. Empty sets are rejected:
    the vacuous case is meaningless here.
    """
    verts = sorted(set(s))
    if not verts:
        raise ValueError("cannot test domination of the empty set")
    mask = -1
    for x in verts:
        if not 0 <= x < d.n:
            raise ValueError(f"vertex {x} outside [0, {d.n})")
        mask &= d.in_masks[x]
    if mask == 0:
        return None
    return (mask & -mask).bit_length() - 1


def _first_undominated(
    in_masks: Sequence[int], l: int, circulant: bool
) -> Optional[tuple[int, ...]]:
    """Lexicographically first l-combination of the indices of ``in_masks``
    whose masks have an empty intersection, i.e. no vertex dominates it;
    else None.

    ``circulant`` says that mask i + 1 is mask i rotated by one, so that the
    shift by t maps the intersection over S to that over S + t: S is then
    undominated iff S - min(S) is. Only the sets through 0 are tried. The
    full scan's answer is unchanged: if S is the first undominated set,
    S - min(S) is undominated too, contains 0 and is lexicographically <= S,
    so S contains 0; and the sets through 0 come first in ``combinations``
    order, so none of them before S is undominated either.
    """
    head, rest, start = (), range(len(in_masks)), -1
    if circulant:
        head, rest, start, l = (0,), rest[1:], in_masks[0], l - 1
    for combo in combinations(rest, l):
        mask = start
        for x in combo:
            mask &= in_masks[x]
        if not mask:
            return head + combo
    return None


def all_subsets_dominated(d: Digraph, l: int) -> bool:
    """True iff every vertex subset of cardinality exactly l is dominated.

    Covers "at most l" as well: a smaller set extends to an l-set whose
    dominator also dominates it (hence the l <= n precondition).
    """
    return find_undominated_set(d, l) is None


def find_undominated_set(d: Digraph, l: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first undominated set of cardinality l, else None.

    On a circulant digraph, whose in-masks are then circulant too, only the
    sets through vertex 0 are tried (``_first_undominated``)."""
    if not 1 <= l <= d.n:
        raise ValueError(f"need 1 <= l <= {d.n}, got {l}")
    return _first_undominated(d.in_masks, l, _circulant(d.out))


# ---------------------------------------------------------------------------
# Powers and certification
# ---------------------------------------------------------------------------


def power(d: Digraph, t: int) -> Digraph:
    """Arc v -> w iff v != w and some directed walk of length 1..t joins them.

    Length-0 walks are excluded, so the power of a loop-free digraph stays
    loop-free. A breadth-first search from each vertex, one level per walk
    length, expands each vertex at most once and stops at the first level
    that adds nothing, so any t costs at most n expansions per vertex.

    On a circulant digraph (row i + 1 is row i rotated by one, as on every
    Cayley digraph and every power of one) only vertex 0 is searched: the
    shift by v maps walks from 0 to walks from v, so row v is row 0 rotated
    by v.
    """
    if t < 1:
        raise ValueError(f"power exponent must be >= 1, got {t}")
    circulant = d.n > 0 and _circulant(d.out)
    rows = []
    for v in range(1 if circulant else d.n):
        reach = frontier = d.out[v]
        for _ in range(t - 1):
            frontier = _image(d.out, frontier) & ~reach
            if not frontier:
                break
            reach |= frontier
        rows.append(reach & ~(1 << v))
    if circulant:
        rows = [_rot(rows[0], v, d.n) for v in range(d.n)]
    return Digraph(d.n, tuple(rows))


def certify_kl(d: Digraph, k: int, l: int) -> Union[KLCertificate, KLFailure]:
    """Certify girth >= k (acyclic passes vacuously) and every l-subset
    dominated, or return a concrete witness of failure."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= l <= d.n:
        raise ValueError(f"need 1 <= l <= {d.n}, got {l}")
    cyc = shortest_cycle(d)
    if cyc is not None and len(cyc) < k:
        return KLFailure(k, l, short_cycle=tuple(cyc))
    witness = find_undominated_set(d, l)
    if witness is not None:
        return KLFailure(k, l, undominated=witness)
    return KLCertificate(k, l, None if cyc is None else len(cyc))
