"""Seeded generators, pinned search results, the previous Haight search
kernel, Python-set sumsets and differences, the full undominated-set and
shortest-cycle scans, the cell-by-cell shift test, the projected pattern
tables, the support-keyed system cache, Fraction references for the
equilibrium check, the two-scan cross-check and a fresh-interpreter runner
shared across the suite."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import wsforge
from wsforge import (
    Digraph,
    MixedStrategy,
    NoWitness,
    ResidueSet,
    WinLoseGame,
    WsneVerdict,
    bipartify,
    cayley,
    char_decision,
    crosscheck_characterization,
    girth,
    to_bipartite_digraph,
)
from wsforge.digraph import _rot, _shortest_return
from wsforge.game import UndominatedWitness
from wsforge.wsne import (
    CrosscheckPoint,
    CrosscheckReport,
    Violation,
    _PlayerSystem,
    _require_k,
    _scan,
)

SRC = str(Path(wsforge.__file__).resolve().parents[1])


def run_python(*args: str, cwd=None, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args``, with this wsforge on its path;
    stdout and stderr are captured as text."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=timeout,
    )

# Haight searches with budget 10**6, keyed by (kappa, q_min, q_max, mode,
# seed), and their results (q, Y, candidates_evaluated). They are the jobs of
# the benchmark's `search` workload, so any change to the search's trajectory
# shows here first.
SEARCH_PINS = {
    (3, 24, 24, "exhaustive", 0): (24, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13), 12),
    (3, 25, 25, "exhaustive", 0): (25, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13), 13),
    (3, 26, 26, "exhaustive", 0): (26, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14), 13),
    (3, 27, 27, "exhaustive", 0): (27, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14), 14),
    (3, 28, 28, "exhaustive", 0): (28, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15), 14),
    (4, 20, 45, "randomized", 0): (45, (5, 7, 8, 11, 14, 16, 25, 28, 43, 44), 27338),
    (4, 29, 29, "randomized", 5): (29, (8, 10, 12, 15, 18, 26, 27), 17390),
    (4, 38, 38, "randomized", 3): (38, (1, 12, 15, 16, 17, 24, 29, 33, 34), 876),
    (4, 28, 40, "randomized", 0): (39, (4, 7, 14, 15, 19, 23, 27, 29, 33), 28259),
}


def reference_dfs(q: int, kappa: int, members: list[int], limit: int) -> tuple[int | None, int]:
    """The Haight search kernel as ``residues._dfs`` was before its stack
    kept one entry per open branch: every sibling tried pops its parent and
    pushes it back. The reference for the kernel's (bits, candidates)."""
    most = (q - 1) // (kappa - 1)
    mask = (1 << q) - 1
    evaluated = 0
    stack = [(0, 0, 1, (0,) * (kappa - 2), 0)]
    while stack:
        bits, neg, diffs, levels, i = stack.pop()
        if i == len(members):
            continue
        stack.append((bits, neg, diffs, levels, i + 1))
        if evaluated >= limit:
            return None, evaluated
        evaluated += 1
        y = members[i]
        grown, prev = [], 1
        for lev in levels:
            prev = lev | (prev << y | prev >> (q - y)) & mask
            if prev >> (q - y) & 1:
                break
            grown.append(prev)
        else:
            bits |= 1 << y
            neg |= 1 << (q - y)
            diffs |= (bits << (q - y) | bits >> y | neg << y | neg >> (q - y)) & mask
            missing = q - diffs.bit_count()
            if not missing:
                return bits, evaluated
            size = bits.bit_count()
            left = most - size
            if missing <= left * (2 * size + left - 1):
                stack.append((bits, neg, diffs, grown, i + 1))
    return 0, evaluated


def reference_first_undominated(in_masks, vertices, l: int):
    """Lexicographically first l-combination of ``vertices`` whose in-masks
    meet in nothing, trying every combination: the reference for
    ``digraph._first_undominated``, which tries only the sets through 0 on
    circulant masks."""
    for combo in combinations(vertices, l):
        mask = -1
        for x in combo:
            mask &= in_masks[x]
            if mask == 0:
                return combo
    return None


@pytest.fixture()
def sets_tried(monkeypatch):
    """A one-entry list counting the combinations that the domination scan,
    ``digraph._first_undominated``, draws."""
    import wsforge.digraph as digraph

    tried = [0]

    def counted(items, r):
        for combo in combinations(items, r):
            tried[0] += 1
            yield combo

    monkeypatch.setattr(digraph, "combinations", counted)
    return tried


@pytest.fixture()
def int_digit_limit():
    """``sys.set_int_max_str_digits``, with the limit that int() had before
    the test put back after it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def reference_first_undominated_side(g: WinLoseGame, k: int):
    """``game._first_undominated_side`` on the in-masks of the game's
    bipartite digraph, over every k-set of each side."""
    h = to_bipartite_digraph(g)
    for side, count, offset in (("row", g.m, 0), ("col", g.n, g.m)):
        combo = reference_first_undominated(h.in_masks, range(offset, offset + count), k)
        if combo is not None:
            return UndominatedWitness(side, tuple(x - offset for x in combo))
    return None


def reference_shortest_cycle(d: Digraph):
    """The shortest cycle, or None if acyclic, by a search from every vertex
    not yet peeled, circulant or not, walked as ``shortest_cycle`` walks the
    start's layers: the reference for ``digraph._shortest_cycle``, which
    searches from vertex 0 alone on circulant digraphs and on the bipartite
    digraphs of shift-invariant games."""
    best = None
    alive = (1 << d.n) - 1
    for v in range(d.n):
        if not alive >> v & 1:
            continue
        layers = _shortest_return(d, v, d.n + 1 if best is None else len(best[1]), alive)
        if layers is not None:
            best = (v, layers)
            if len(layers) == 1:
                break
        if best is not None and len(best[1]) == 2:
            continue
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
    v, layers = best
    cycle = [v]
    for layer in reversed(layers[:-1]):
        m = d.out[cycle[-1]] & layer
        cycle.append((m & -m).bit_length() - 1)
    return cycle


def reference_power(d: Digraph, t: int) -> Digraph:
    """``digraph.power`` as it was before its circulant path: a breadth-first
    search from every vertex, one level per walk length, on any digraph."""
    rows = []
    for v in range(d.n):
        reach = frontier = d.out[v]
        for _ in range(t - 1):
            step = 0
            for u in range(d.n):
                if frontier >> u & 1:
                    step |= d.out[u]
            frontier = step & ~reach
            if not frontier:
                break
            reach |= frontier
        rows.append(reach & ~(1 << v))
    return Digraph(d.n, tuple(rows))


def sumset(q: int, members, s: int) -> set[int]:
    """(s)Y as a Python set: every sum of s members of Y, with repetition,
    mod q, one level at a time."""
    level = set(members)
    for _ in range(s - 1):
        level = {(a + y) % q for a in level for y in members}
    return level


def difference(q: int, members) -> set[int]:
    """Y - Y as a Python set: every (a - b) mod q for a, b in Y."""
    return {(a - b) % q for a in members for b in members}


def random_digraph(
    rng: random.Random, n: int, p: float = 0.3, ensure_min_out: bool = False
) -> Digraph:
    """Loop-free digraph with iid arcs; optionally patch empty out-rows."""
    rows = []
    for v in range(n):
        mask = 0
        for w in range(n):
            if v != w and rng.random() < p:
                mask |= 1 << w
        rows.append(mask)
    if ensure_min_out:
        for v in range(n):
            if rows[v] == 0:
                w = rng.randrange(n - 1)
                if w >= v:
                    w += 1
                rows[v] |= 1 << w
    return Digraph(n, tuple(rows))


def random_digraph_with_cycle(rng: random.Random, n: int, p: float = 0.3) -> Digraph:
    while True:
        d = random_digraph(rng, n, p)
        if girth(d) is not None:
            return d


def random_game(
    rng: random.Random, m: int, n: int, p: float = 0.35, ensure_out_degree: bool = True
) -> WinLoseGame:
    """Random 0-1 game; optionally patch empty A rows and empty B columns so
    the bipartite digraph has minimum out-degree at least one."""
    a_rows = [sum(1 << j for j in range(n) if rng.random() < p) for _ in range(m)]
    b_rows = [sum(1 << j for j in range(n) if rng.random() < p) for _ in range(m)]
    if ensure_out_degree:
        for i in range(m):
            if a_rows[i] == 0:
                a_rows[i] |= 1 << rng.randrange(n)
        for j in range(n):
            if not any(b_rows[i] >> j & 1 for i in range(m)):
                b_rows[rng.randrange(m)] |= 1 << j
    return WinLoseGame(m, n, tuple(a_rows), tuple(b_rows))


def random_circulant_game(rng: random.Random, n: int) -> WinLoseGame:
    """A seeded shift-invariant n x n game: random first rows of A and B
    rotated, or a bipartified Cayley digraph of a random generator set."""
    if rng.random() < 0.5:
        a0, b0 = rng.getrandbits(n), rng.getrandbits(n)
        rotated = [tuple(_rot(first, i, n) for i in range(n)) for first in (a0, b0)]
        return WinLoseGame(n, n, *rotated)
    ys = [y for y in range(1, n) if rng.random() < 0.4]
    return bipartify(cayley(n, ResidueSet.from_members(n, ys)))


def reference_shift_invariant(g: WinLoseGame) -> bool:
    """Whether A and B are square, n >= 2, and A[i][j] = A[i + 1][j + 1] and
    B[i][j] = B[i + 1][j + 1] mod n in every cell: the reference for
    ``WinLoseGame.shift_invariant``, which compares each row with its
    predecessor rotated."""
    n = g.n
    if g.m != n or n < 2:
        return False
    return all(
        matrix[i][j] == matrix[(i + 1) % n][(j + 1) % n]
        for matrix in (g.a_matrix(), g.b_matrix())
        for i in range(n)
        for j in range(n)
    )


def reference_pattern_table(masks, support):
    """Each opponent strategy's payoff pattern on ``support``, projected
    from its mask over this player's strategies one position at a time
    (bit idx is bit ``support[idx]`` of the mask), and the pointwise-maximal
    patterns among them: the reference for ``wsne._support_table``, which
    splits the opponents by this player's payer masks."""
    pats = []
    for mask in masks:
        pat = 0
        for idx, j in enumerate(support):
            if mask >> j & 1:
                pat |= 1 << idx
        pats.append(pat)
    distinct = set(pats)
    maximal = {p for p in distinct if not any(q != p and p & ~q == 0 for q in distinct)}
    return pats, maximal


class SupportKeyedSystem(_PlayerSystem):
    """A player's support systems with the solved systems cached by eps,
    support and the opponent support's patterns, so that no two supports
    share a solve: the reference for ``wsne._PlayerSystem.point``, which
    caches by eps and the system (size, patterns and maximal patterns)."""

    def point(self, support, opp_support, eps):
        pats, maximal = self._table(support)
        support_pats = frozenset(pats[t] for t in opp_support)
        key = (eps, support, support_pats)
        if key not in self._solved:
            self._solved[key] = self._solve_system(len(support), support_pats, maximal, eps)
        return self._solved[key]


def fraction_payoffs(g: WinLoseGame, p: MixedStrategy, q: MixedStrategy):
    """(Aq, p^T B) by adding Fractions one entry at a time: the reference
    for the payoffs behind ``check_wsne``, which sums integer numerators."""
    row_pay = []
    for i in range(g.m):
        total = Fraction(0)
        mask = g.a_rows[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            total += q.probs[j]
            mask &= mask - 1
        row_pay.append(total)
    col_pay = [Fraction(0)] * g.n
    for i in range(g.m):
        pi = p.probs[i]
        if pi == 0:
            continue
        mask = g.b_rows[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            col_pay[j] += pi
            mask &= mask - 1
    return tuple(row_pay), tuple(col_pay)


def fraction_check_wsne(g: WinLoseGame, p: MixedStrategy, q: MixedStrategy, eps) -> WsneVerdict:
    """wsne.check_wsne with every comparison made in Fractions: the
    reference for its integer test b (best - pay) > a den."""
    eps = Fraction(eps)
    row_pay, col_pay = fraction_payoffs(g, p, q)
    row_best = max(row_pay)
    col_best = max(col_pay)
    violations = []
    for player, strategy, pay, best in (
        ("row", p, row_pay, row_best),
        ("col", q, col_pay, col_best),
    ):
        for i in strategy.support:
            if pay[i] < best - eps:
                violations.append(Violation(player, i, pay[i], best - eps - pay[i]))
    return WsneVerdict(not violations, eps, row_best, col_best, tuple(violations))


def _crosscheck_point_line(idx, k, point) -> str:
    result = point.search_result
    if isinstance(result, NoWitness):
        tail = f"refuted {result.pairs_refuted}"
    else:
        p, q = result
        tail = "p " + ",".join(map(str, p.probs)) + " q " + ",".join(map(str, q.probs))
    return f"{idx} {k} {point.eps} {tail}\n"


def criterion7_games(count: int):
    """The first ``count`` seeded square games of the acceptance suite's
    criterion 7, which the benchmark's crosscheck workload runs too."""
    rng = random.Random(700)
    for _ in range(count):
        m = rng.randrange(3, 9)
        yield random_game(rng, m, m, p=rng.choice([0.2, 0.35, 0.5]))


def criterion7_reports(count: int):
    """(idx, game, k, report) of crosscheck_characterization at k = 1, 2, 3
    over :func:`criterion7_games`."""
    for idx, g in enumerate(criterion7_games(count)):
        for k in (1, 2, 3):
            yield idx, g, k, crosscheck_characterization(g, k)


def crosscheck_digest(count: int) -> str:
    """sha256 of every cross-check point of :func:`criterion7_reports`,
    asserting that each report agrees. A change to the support oracle that
    moves a witness probability or a refuted-pair count moves the digest."""
    digest = hashlib.sha256()
    for idx, _, k, report in criterion7_reports(count):
        assert report.agree, (idx, k, report)
        assert report.points[0].eps == 1 - Fraction(1, k)
        assert report.points[1].eps == 1 - Fraction(1, 2 * k)
        for point in report.points:
            digest.update(_crosscheck_point_line(idx, k, point).encode())
    return digest.hexdigest()


def reference_crosscheck(g: WinLoseGame, k: int) -> CrosscheckReport:
    """crosscheck_characterization as two independent scans, at eps1 and
    then at eps2, each building the game's systems from nothing: the
    reference for the cross-check, which builds the systems once per game
    and scans them at each eps."""
    _require_k(g, k)
    witness = char_decision(g, k)
    points = []
    for eps in (1 - Fraction(1, k), 1 - Fraction(1, 2 * k)):
        result = _scan(g, k, eps)
        agree = isinstance(result, NoWitness) == (witness is None)
        points.append(CrosscheckPoint(eps, witness, result, agree))
    return CrosscheckReport(k, all(point.agree for point in points), tuple(points))
