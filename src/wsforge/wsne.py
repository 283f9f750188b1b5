"""Exact-rational verification of well-supported equilibria in win-lose
games, uniform strategy constructions from undominated sets and from even
cycles, and an exhaustive support-enumeration oracle.

All arithmetic is exact: payoffs and the eps test run on integers over each
strategy's common denominator, feasibility systems on integers scaled by
eps's denominator, so verdicts at the boundary (payoff equal to best response
minus epsilon) are accepted. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import _Frozen, digraph, feasibility
from .game import (
    CycleWitness,
    UndominatedWitness,
    WinLoseGame,
    _first_undominated_side,
    _require_out_degree,
    char_decision,
    to_bipartite_digraph,
)

__all__ = [
    "MixedStrategy",
    "Violation",
    "WsneVerdict",
    "NoWitness",
    "CrosscheckPoint",
    "CrosscheckReport",
    "as_exact",
    "check_wsne",
    "wsne_from_undominated",
    "wsne_from_cycle",
    "exhaustive_search",
    "crosscheck_characterization",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def as_exact(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce to an exact rational; floats are rejected, never rounded."""
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: exact rationals only")
    return value if type(value) is Fraction else Fraction(value)


def _exact_eps(eps: Union[int, str, Fraction]) -> Fraction:
    eps = as_exact(eps)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return eps


def _scaled(probs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The entries as integer numerators over their common denominator, the
    lcm of theirs: ``probs[i] == nums[i] / den``."""
    ratios = [p.as_integer_ratio() for p in probs]
    den = 1
    for _, d in ratios:
        if den % d:
            den = lcm(den, d)
    return [x * (den // d) for x, d in ratios], den


class MixedStrategy(_Frozen):
    """Probability vector with exact entries; sums to exactly 1.

    Vectors that fail the simplex invariants are rejected at construction,
    never normalized.
    """

    __slots__ = ("probs",)

    def __init__(self, probs: tuple[Fraction, ...]) -> None:
        if not probs:
            raise ValueError("strategy over zero pure strategies")
        total, den = 0, 1  # the sum so far is total / den
        for i, p in enumerate(probs):
            if not isinstance(p, Fraction):
                raise TypeError(f"entry {i} is {type(p).__name__}, expected Fraction")
            x, d = p.as_integer_ratio()
            if x < 0:
                raise ValueError(f"entry {i} is negative: {p}")
            if x:
                if den % d:
                    grown = lcm(den, d)
                    total, den = total * (grown // den), grown
                total += x * (den // d)
        if total != den:
            try:
                wrong = f"entries sum to {Fraction(total, den)}"
            except ValueError:  # str() of an int past int()'s digit limit
                bits = den.bit_length()
                wrong = f"entries sum to a fraction too long to print (common denominator {bits} bits)"
            raise ValueError(f"{wrong}, expected exactly 1")
        super().__init__(probs)

    @classmethod
    def from_probs(cls, values: Iterable[Union[int, str, Fraction]]) -> "MixedStrategy":
        return cls(tuple(map(as_exact, values)))

    @classmethod
    def uniform_on(cls, indices: Iterable[int], length: int) -> "MixedStrategy":
        chosen = sorted(set(indices))
        if not chosen:
            raise ValueError("uniform strategy needs a nonempty index set")
        if chosen[0] < 0 or chosen[-1] >= length:
            raise ValueError(f"indices outside [0, {length})")
        share = Fraction(1, len(chosen))
        probs = [_ZERO] * length
        for i in chosen:
            probs[i] = share
        return cls(tuple(probs))

    @classmethod
    def point_mass(cls, index: int, length: int) -> "MixedStrategy":
        return cls.uniform_on([index], length)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)


class Violation(NamedTuple):
    player: str
    index: int
    payoff: Fraction
    shortfall: Fraction


class WsneVerdict(NamedTuple):
    valid: bool
    epsilon: Fraction
    row_best: Fraction
    col_best: Fraction
    violations: tuple[Violation, ...]


class NoWitness(_Frozen):
    """Exhaustive refutation: every support pair, by the lemma or by the
    scan, is infeasible.

    Not a tuple, so that a witness pair of strategies tells itself apart
    from a refutation by ``isinstance(result, tuple)``."""

    __slots__ = ("pairs_refuted",)

    def __init__(self, pairs_refuted: int) -> None:
        super().__init__(pairs_refuted)


class CrosscheckPoint(NamedTuple):
    eps: Fraction
    char_witness: Union[CycleWitness, UndominatedWitness, None]
    search_result: Union[tuple[MixedStrategy, MixedStrategy], NoWitness]
    agree: bool


class CrosscheckReport(NamedTuple):
    k: int
    agree: bool
    points: tuple[CrosscheckPoint, ...]


# ---------------------------------------------------------------------------
# Payoffs and the checker
# ---------------------------------------------------------------------------


def _scaled_payoffs(
    g: WinLoseGame, p: MixedStrategy, q: MixedStrategy
) -> tuple[tuple[list[int], list[int], int], tuple[list[int], list[int], int]]:
    """For the row player, then the column player: its own strategy's
    numerators, its payoff numerators (Aq, then p^T B) and their common
    denominator, the opponent's. All integers."""
    if len(p.probs) != g.m:
        raise ValueError(f"row strategy has {len(p.probs)} entries, game has {g.m} rows")
    if len(q.probs) != g.n:
        raise ValueError(f"column strategy has {len(q.probs)} entries, game has {g.n} columns")
    p_nums, p_den = _scaled(p.probs)
    q_nums, q_den = _scaled(q.probs)
    q_bits = sum(1 << j for j, x in enumerate(q_nums) if x)
    row_pay = []
    for mask in g.a_rows:
        total = 0
        mask &= q_bits
        while mask:
            low = mask & -mask
            total += q_nums[low.bit_length() - 1]
            mask ^= low
        row_pay.append(total)
    col_pay = [0] * g.n
    for x, mask in zip(p_nums, g.b_rows):
        if not x:
            continue
        while mask:
            low = mask & -mask
            col_pay[low.bit_length() - 1] += x
            mask ^= low
    return (p_nums, row_pay, q_den), (q_nums, col_pay, p_den)


def check_wsne(
    g: WinLoseGame,
    p: MixedStrategy,
    q: MixedStrategy,
    eps: Union[int, str, Fraction],
) -> WsneVerdict:
    """Exact verdict: every supported pure strategy must earn within eps of
    the best pure response. Boundary cases (payoff == best - eps) pass.

    With eps = a / b and payoffs pay / den, a supported strategy fails when
    b (best - pay) > a den; only the bests and the failures become
    Fractions."""
    eps = _exact_eps(eps)
    a, b = eps.as_integer_ratio()
    bests = []
    violations = []
    for player, (own, pay, den) in zip(("row", "col"), _scaled_payoffs(g, p, q)):
        best = max(pay)
        bests.append(Fraction(best, den))
        bar = b * best - a * den  # best - eps, in units of 1 / (b den)
        for i, x in enumerate(own):
            if x and b * pay[i] < bar:
                violations.append(
                    Violation(player, i, Fraction(pay[i], den), Fraction(bar - b * pay[i], b * den))
                )
    return WsneVerdict(not violations, eps, *bests, tuple(violations))


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def wsne_from_undominated(
    g: WinLoseGame, side: str, indices: Iterable[int]
) -> tuple[MixedStrategy, MixedStrategy, Fraction]:
    """Uniform strategies from a one-sided undominated set U: play uniformly
    on U, and uniformly on the least-index out-neighbors of its members.

    Returns (p, q, eps) with eps = 1 - 1/|U|; the output passes
    :func:`check_wsne` at that eps.
    """
    if side not in ("row", "col"):
        raise ValueError(f"side must be 'row' or 'col', got {side!r}")
    chosen = sorted(set(indices))
    if not chosen:
        raise ValueError("undominated set must be nonempty")
    count, other = (g.m, g.n) if side == "row" else (g.n, g.m)
    if chosen[0] < 0 or chosen[-1] >= count:
        raise ValueError(f"indices outside [0, {count})")
    _require_out_degree(g)
    # The members' in-masks in the bipartite digraph, as in
    # game._first_undominated_side: B's rows for rows, whose dominators are
    # the columns (ids from m), and A's columns for columns.
    in_masks, offset = (g.b_rows, g.m) if side == "row" else (g.a_col_masks, 0)
    common = -1
    for i in chosen:
        common &= in_masks[i]
    if common:
        dominator = offset + (common & -common).bit_length() - 1
        raise ValueError(f"set is dominated (by bipartite vertex {dominator})")
    k = len(chosen)
    eps = _ONE - Fraction(1, k)
    # least-index out-neighbor on the other side of each member of U
    masks = g.a_rows if side == "row" else g.b_col_masks
    image = sorted({(masks[i] & -masks[i]).bit_length() - 1 for i in chosen})
    own = MixedStrategy.uniform_on(chosen, count)
    reply = MixedStrategy.uniform_on(image, other)
    p, q = (own, reply) if side == "row" else (reply, own)
    return p, q, eps


def wsne_from_cycle(
    g: WinLoseGame, cycle: Sequence[int]
) -> tuple[MixedStrategy, MixedStrategy, Fraction]:
    """Uniform strategies on the rows and columns of a directed cycle of
    even length 2k in the game's bipartite digraph; eps = 1 - 1/k."""
    verts = list(cycle)
    if len(verts) < 2 or len(verts) % 2 != 0:
        raise ValueError(f"need a cycle of even length >= 2, got length {len(verts)}")
    if len(set(verts)) != len(verts):
        raise ValueError("cycle repeats a vertex")
    h = to_bipartite_digraph(g)
    for t, u in enumerate(verts):
        if not 0 <= u < h.n:
            raise ValueError(f"vertex {u} outside bipartite digraph")
        v = verts[(t + 1) % len(verts)]
        if not h.has_arc(u, v):
            raise ValueError(f"missing arc {u} -> {v}: input is not a directed cycle")
    rows = sorted(u for u in verts if u < g.m)
    cols = sorted(u - g.m for u in verts if u >= g.m)
    k = len(verts) // 2
    if len(rows) != k or len(cols) != k:
        raise AssertionError("bipartite cycle must alternate sides")
    p = MixedStrategy.uniform_on(rows, g.m)
    q = MixedStrategy.uniform_on(cols, g.n)
    return p, q, _ONE - Fraction(1, k)


# ---------------------------------------------------------------------------
# Support feasibility oracle
# ---------------------------------------------------------------------------


def _maximal_patterns(payers: Sequence[int], width: int, support: tuple[int, ...]) -> frozenset[int]:
    """The pointwise-maximal payoff patterns of the ``width`` opponent
    strategies on ``support``. Independent of eps. Bit idx of opponent t's
    pattern is bit t of the payer mask ``payers[support[idx]]``.

    Each payer mask in turn splits the mask of all opponents into classes
    of one pattern, at most 2^|support| of them, and the maximal patterns are
    read from the classes."""
    classes = {0: (1 << width) - 1}
    for idx, s in enumerate(support):
        paid, bit = payers[s], 1 << idx
        split = {}
        for pat, members in classes.items():
            hit = members & paid
            if hit:
                split[pat | bit] = hit
            if hit != members:
                split[pat] = members ^ hit
        classes = split
    return frozenset(p for p in classes if not any(q != p and p & ~q == 0 for q in classes))


# The patterns of the opponents that no supported strategy pays: all zero.
_UNPAID = frozenset({0})


class _PlayerSystem:
    """The support systems on one player's mixture in one game, at any eps.

    ``payers[s]`` is the bitmask of the ``width`` opponent strategies that
    this player's pure strategy s pays 1: the rows of B for the row player,
    the columns of A for the column player. On a support S, opponent t's
    payoff pattern has bit idx set when S[idx] pays t. Each system is exact
    feasibility over the support's simplex, reduced to distinct support
    patterns against pointwise-maximal opponent patterns, then solved in
    closed form on supports of size <= 2 and by Fourier-Motzkin on larger
    ones, both on integers scaled by eps's denominator.

    Only the solving depends on eps, an argument of every solving call, as
    its integer ratio (a, b) with eps = a / b; scans at several eps share
    the pattern tables. A support's table is its set of maximal patterns
    (:func:`_maximal_patterns`), built once and shared by every support
    with the same set; only a pair test's :meth:`point` builds the
    per-opponent pattern list, the transpose of the payer masks. Below
    eps = 1 a support with a common payer needs no table for
    :meth:`singletons`. The solved systems are cached by eps and system
    (size, patterns, maximal patterns), not by support, since both
    solvers' points depend on the rows' half-spaces alone.
    """

    def __init__(self, payers: Sequence[int], width: int):
        self.payers = payers
        self.width = width
        self.size = len(payers)
        self._tables: dict[tuple[int, ...], frozenset[int]] = {}
        self._pats: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._maximal: dict[frozenset[int], frozenset[int]] = {}
        self._solved: dict[tuple, Optional[tuple[Fraction, ...]]] = {}

    def _table(self, support: tuple[int, ...]) -> frozenset[int]:
        hit = self._tables.get(support)
        if hit is None:
            maximal = _maximal_patterns(self.payers, self.width, support)
            # many supports share one maximal set: keep one copy of it
            hit = self._tables[support] = self._maximal.setdefault(maximal, maximal)
        return hit

    def _patterns(self, support: tuple[int, ...]) -> tuple[int, ...]:
        hit = self._pats.get(support)
        if hit is None:
            rows = [self.payers[s] for s in support]
            hit = self._pats[support] = digraph._transpose(rows, self.width)
        return hit

    def _system_point(
        self, support: tuple[int, ...], support_pats: frozenset[int], eps: tuple[int, int]
    ) -> Optional[tuple[Fraction, ...]]:
        """The point of the system of ``support`` with the opponents'
        patterns ``support_pats``, solved once per system and eps."""
        maximal = self._table(support)
        key = (eps, len(support), support_pats, maximal)
        if key not in self._solved:
            self._solved[key] = self._solve_system(len(support), support_pats, maximal, eps)
        return self._solved[key]

    def point(
        self, support: tuple[int, ...], opp_support: tuple[int, ...], eps: tuple[int, int]
    ) -> Optional[tuple[Fraction, ...]]:
        """Probabilities on ``support``, in its order, that make every
        opponent strategy in ``opp_support`` an eps-best response; None if
        infeasible. Cached per system and eps."""
        pats = self._patterns(support)
        return self._system_point(support, frozenset(pats[t] for t in opp_support), eps)

    def strategy(self, support: tuple[int, ...], point: tuple[Fraction, ...]) -> MixedStrategy:
        """``point`` on ``support`` as a strategy over all of this player's
        strategies, checked by the simplex test of :class:`MixedStrategy`."""
        probs = [_ZERO] * self.size
        for s, x in zip(support, point):
            probs[s] = x
        return MixedStrategy(tuple(probs))

    def _solve_system(
        self, dim: int, support_pats: frozenset[int], maximal: frozenset[int], eps: tuple[int, int]
    ) -> Optional[tuple[Fraction, ...]]:
        # Each opponent pattern mp that pays off outside a supported pattern sp
        # gives a row: sum of x over mp \ sp minus sum over sp \ mp <= eps.
        rows = [(mp & ~sp, sp & ~mp) for sp in support_pats for mp in maximal if mp & ~sp]
        if dim <= 2:
            return self._solve_interval(dim, rows, eps)
        # In y = b x, with eps = a / b, every entry is an integer: sum y = b,
        # y >= 0, and each row's difference of y-sums <= a. FM's point scales
        # with the bounds, so y / b is the point it picks for x.
        a, b = eps
        cons = [((1,) * dim, b), ((-1,) * dim, -b)]
        cons += [(tuple(-(i == idx) for i in range(dim)), 0) for idx in range(dim)]
        for plus, minus in rows:
            cons.append((tuple((plus >> i & 1) - (minus >> i & 1) for i in range(dim)), a))
        point = feasibility.feasible_point(cons, dim)
        return None if point is None else tuple(y / b for y in point)

    def _solve_interval(
        self, dim: int, rows: list[tuple[int, int]], eps: tuple[int, int]
    ) -> Optional[tuple[Fraction, ...]]:
        """The systems of one or two variables in closed form, with the point
        Fourier-Motzkin would pick: on x0 + x1 = 1 each row c.x <= eps reads
        (c0 - c1) x0 <= eps - c1, and x0 is the midpoint of the interval
        these leave of [0, 1]. With one variable, x1 = 0 and x0 = 1. In units
        of 1/(2b), with eps = a / b, each end is the integer 2 (a - c1 b) /
        (c0 - c1), as |c0 - c1| <= 2, and x0 = (lo + hi) / 4b."""
        a, b = eps
        lo, hi = (2 * b if dim == 1 else 0), 2 * b
        for plus, minus in rows:
            c0 = (plus & 1) - (minus & 1)
            c1 = (plus >> 1 & 1) - (minus >> 1 & 1)
            slope, room = c0 - c1, 2 * (a - c1 * b)
            if slope > 0:
                hi = min(hi, room // slope)
            elif slope < 0:
                lo = max(lo, room // slope)
            elif room < 0:
                return None
        if lo > hi:
            return None
        x0 = Fraction(lo + hi, 4 * b)
        return (x0,) if dim == 1 else (x0, Fraction(4 * b - lo - hi, 4 * b))

    def singletons(self, support: tuple[int, ...], eps: tuple[int, int]) -> int:
        """Bitmask of the opponent strategies t for which
        ``point(support, (t,), eps)`` is feasible.

        Every t that some s in ``support`` pays 1 is: with all mass on s, t
        earns 1, the most any strategy earns. The others earn 0 against any
        distribution on the support, so one system, on the maximal patterns
        alone, decides them all. Below eps = 1, when the support has a
        common payer u, that system is infeasible with no solve: u earns
        1 > 0 + eps.
        """
        covered, common = 0, -1
        for s in support:
            covered |= self.payers[s]
            common &= self.payers[s]
        uncovered = ((1 << self.width) - 1) & ~covered
        if uncovered and not (common and eps[0] < eps[1]):
            if self._system_point(support, _UNPAID, eps) is not None:
                covered |= uncovered
        return covered


def _systems(g: WinLoseGame) -> tuple[_PlayerSystem, _PlayerSystem]:
    """The row player's and the column player's support systems for one
    game, at every eps. The well-supported conditions split: supported rows
    constrain only the column strategy and vice versa."""
    return _PlayerSystem(g.b_rows, g.n), _PlayerSystem(g.a_col_masks, g.m)


def _witness(
    p_system: _PlayerSystem,
    q_system: _PlayerSystem,
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    eps: tuple[int, int],
) -> Optional[tuple[MixedStrategy, MixedStrategy]]:
    """Strategies (p, q) on ``rows`` and ``cols`` that form an eps-WSNE, or
    None if the pair is infeasible: the pair test of the support oracle.
    Only the pair returned becomes strategies."""
    y = q_system.point(cols, rows, eps)
    if y is None:
        return None
    x = p_system.point(rows, cols, eps)
    if x is None:
        return None
    return p_system.strategy(rows, x), q_system.strategy(cols, y)


def _supports(indices: Iterable[int], k: int, masks: Sequence[int] = ()) -> Iterator[tuple]:
    """Nonempty sets of at most k of the increasing ``indices``, in
    lexicographic tuple order, generated lazily: each set, then its
    extensions by later indices. A scan that stops early builds only the
    sets it reaches. Given ``masks``, each comes as (set, or, and) of its
    members' masks, carried from the set it extends."""
    items = [((i,), masks[i] if masks else 0) for i in indices]
    tops = [((), 0, -1)]  # (set, or, and) of each open set, under the empty set
    ends = []  # the position of each open set's last index
    nxt = 0
    while True:
        if nxt < len(items) and len(ends) < k:
            support, covered, common = tops[-1]
            single, mask = items[nxt]
            top = (support + single, covered | mask, common & mask)
            yield top if masks else top[0]
            tops.append(top)
            ends.append(nxt)
            nxt += 1
        elif ends:
            tops.pop()
            nxt = ends.pop() + 1
        else:
            return


def _least_rotation(support: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """The lexicographically least rotation of the increasing ``support`` in
    Z_n, and the least x with support = rotation + x, read from the gaps
    between cyclically consecutive members.

    The rotation by x = support[j] is 0 followed by the partial sums of the
    gaps from j on; the gaps are positive, so those tuples compare as the
    rotated gap tuples do: the least rotation is the min of the |S| rotated
    gap tuples, ties to the least j, with no sort and no reduction mod n.
    Two members a < b with d = b - a give ((0, d), a) if d <= n - d and
    ((0, n - d), b) otherwise."""
    if len(support) == 1:
        return (0,), support[0]
    if len(support) == 2:
        a, b = support
        d = b - a
        return ((0, d), a) if 2 * d <= n else ((0, n - d), b)
    gaps = [b - a for a, b in zip(support, support[1:])]
    gaps.append(n - support[-1] + support[0])
    j = min(range(len(gaps)), key=lambda i: gaps[i:] + gaps[:i])
    rotated = gaps[j:] + gaps[:j]
    return tuple(accumulate(rotated[:-1], initial=0)), support[j]


def _require_k(g: WinLoseGame, k: int) -> None:
    if not 1 <= k <= min(g.m, g.n):
        raise ValueError(f"need 1 <= k <= min(m, n) = {min(g.m, g.n)}, got {k}")


def _pair_count(g: WinLoseGame, k: int) -> int:
    """Support pairs with both sides of size <= k."""
    return sum(comb(g.m, s) for s in range(1, k + 1)) * sum(
        comb(g.n, s) for s in range(1, k + 1)
    )


def _below_half(g: WinLoseGame, k: int) -> bool:
    """The constant-sum lemma's premise: A & B = 0, and every set of <= k
    rows and every set of <= k columns has a common in-neighbour in the
    bipartite digraph. Then no eps-WSNE with supports <= k exists for any
    eps < 1/2. Proof: let (p, q) be one, with supports R and C. A row
    dominating C earns 1 against q, so every row of R earns >= 1 - eps and
    p.Aq > 1/2; likewise a column dominating R gives p.Bq > 1/2. But
    A + B <= 1 in every cell, so p.Aq + p.Bq <= 1, a contradiction.
    (Testing the k-sets suffices: a subset of a dominated set is dominated.)

    The in-masks come from the game, with no bipartite digraph built. On a
    shift-invariant game the shift by t maps a k-set S of one side and its
    dominators to S + t and theirs, so S is dominated iff S - min(S) is, and
    only the k-sets through index 0 are tested; the lexicographically first
    undominated set, if any, is one of them (``game._first_undominated_side``).
    """
    if any(a & b for a, b in zip(g.a_rows, g.b_rows)):
        return False
    return _first_undominated_side(g, k) is None


def exhaustive_search(
    g: WinLoseGame, k: int, eps: Union[int, str, Fraction]
) -> Union[tuple[MixedStrategy, MixedStrategy], NoWitness]:
    """First feasible eps-WSNE over all support pairs with sizes <= k, in
    lexicographic pair order, or the count of pairs refuted: every support
    pair, by the lemma or by the scan. Below eps = 1/2 the constant-sum
    lemma (:func:`_below_half`) refutes all pairs at once when it applies;
    otherwise :func:`_scan` decides each pair.
    """
    _require_k(g, k)
    eps = _exact_eps(eps)
    if eps < _HALF and _below_half(g, k):
        return NoWitness(_pair_count(g, k))
    return _scan(g, k, eps)


def _scan(
    g: WinLoseGame, k: int, eps: Fraction
) -> Union[tuple[MixedStrategy, MixedStrategy], NoWitness]:
    """:func:`exhaustive_search` by the support oracle alone, without the
    constant-sum lemma. Its callers have checked k and eps. It builds the
    game's support systems (:func:`_systems`) and scans them at ``eps``;
    :func:`crosscheck_characterization` scans one game's systems at two eps.

    A pair (R, C) reaches the full systems only if every column of C is an
    eps-best response to some distribution on R, and every row of R to some
    distribution on C (:meth:`_PlayerSystem.singletons`). The column side
    is read from C's payer masks, their or and their and carried along
    :func:`_supports`: R inside the or passes, and below eps = 1 a nonzero
    and refutes; only the rest solve C's all-zero system.

    On a shift-invariant game (each row of A and of B its predecessor
    rotated by one, as in every bipartified Cayley digraph) the pair
    (R + t, C + t) mod n is feasible exactly when (R, C) is. So the scan
    visits only the row supports R that are least among their rotations,
    and solves that all-zero system once per rotation orbit, on C's
    representative (:func:`_least_rotation`). The first feasible pair in
    lexicographic order has such an R, so the witness is the same;
    ``pairs_refuted`` still counts every pair.
    """
    return _scan_systems(g, k, eps.as_integer_ratio(), _systems(g))


def _scan_systems(
    g: WinLoseGame, k: int, eps: tuple[int, int], systems: tuple[_PlayerSystem, _PlayerSystem]
) -> Union[tuple[MixedStrategy, MixedStrategy], NoWitness]:
    """The scan of :func:`_scan` on the game's ``systems`` at ``eps``, given
    as its integer ratio: the one scan loop."""
    p_system, q_system = systems
    n = g.n
    symmetric = g.shift_invariant
    below_one = eps[0] < eps[1]
    unpaid_ok: dict[tuple[int, ...], bool] = {}  # one entry per orbit
    for rows in _supports(range(g.m), k):
        if symmetric:
            if rows[0]:
                break  # every later support misses 0, so none is least
            if _least_rotation(rows, n)[0] != rows:
                continue
        row_mask = sum(1 << i for i in rows)
        ok_cols = p_system.singletons(rows, eps)
        for cols, covered, common in _supports(
            [j for j in range(n) if ok_cols >> j & 1], k, q_system.payers
        ):
            if row_mask & ~covered:
                if common and below_one:
                    continue
                rep = _least_rotation(cols, n)[0] if symmetric else cols
                ok = unpaid_ok.get(rep)
                if ok is None:
                    ok = unpaid_ok[rep] = q_system._system_point(rep, _UNPAID, eps) is not None
                if not ok:
                    continue
            found = _witness(p_system, q_system, rows, cols, eps)
            if found is not None:
                return found
    return NoWitness(_pair_count(g, k))


def crosscheck_characterization(g: WinLoseGame, k: int) -> CrosscheckReport:
    """Cross-check the graph characterization against the enumeration oracle.

    Runs :func:`char_decision` once and the scan of :func:`_scan` at
    eps1 = 1 - 1/k and eps2 = 1 - 1/(2k); agreement means a witness exists
    exactly when the characterization finds a structure, at both points,
    reported in that order. The scan, not the lemma, which shares the
    characterization's domination scan.

    Neither the characterization nor the game's support systems
    (:func:`_systems`) depend on eps: both points scan one pair of
    systems, which share the pattern tables and cache solves per eps.
    """
    _require_k(g, k)
    witness = char_decision(g, k)  # raises on out-degree violations
    systems = _systems(g)
    points = []
    for eps in (_ONE - Fraction(1, k), _ONE - Fraction(1, 2 * k)):
        result = _scan_systems(g, k, eps.as_integer_ratio(), systems)
        ok = isinstance(result, NoWitness) == (witness is None)
        points.append(CrosscheckPoint(eps, witness, result, ok))
    return CrosscheckReport(k, all(pt.agree for pt in points), tuple(points))
