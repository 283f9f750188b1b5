"""Independent output checks shared by every workload.

Nothing here calls wsforge: each check recomputes its claim from plain
Python sets, lists and Fractions, so a fault in the code under test cannot
hide itself by also breaking its own checker.

Payoff matrices are lists of 0/1 rows. In the bipartite digraph of a game
with m rows, row i is vertex i and column j is vertex m + j; r_i -> c_j iff
A[i][j] = 1 and c_j -> r_i iff B[i][j] = 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def matrix(rows_bits: tuple[int, ...], n: int) -> list[list[int]]:
    """0/1 rows from row bitmasks (bit j of entry i is entry [i][j])."""
    return [[bits >> j & 1 for j in range(n)] for bits in rows_bits]


def parse_wl(text: str) -> tuple[list[list[int]], list[list[int]]]:
    """A and B from a `.wl` game file: header "m n", m rows, a blank line, m rows."""
    lines = text.splitlines()
    m, n = (int(x) for x in lines[0].split())
    a = [[int(ch) for ch in line] for line in lines[1 : 1 + m]]
    b = [[int(ch) for ch in line] for line in lines[2 + m : 2 + 2 * m]]
    require(lines[1 + m] == "" and all(len(r) == n for r in a + b), "malformed game file")
    return a, b


def haight_ok(q: int, members, kappa: int) -> bool:
    """Y - Y = Z_q and 0 is not in sY for every 1 <= s < kappa."""
    ys = set(members)
    if not ys or any(not 0 <= y < q for y in ys):
        return False
    if {(a - b) % q for a in ys for b in ys} != set(range(q)):
        return False
    level = set(ys)
    for _ in range(1, kappa):
        if 0 in level:
            return False
        level = {(x + y) % q for x in level for y in ys}
    return True


def support_pairs(m: int, n: int, k: int) -> int:
    """Number of support pairs with both sides of size 1..k."""
    return sum(comb(m, s) for s in range(1, k + 1)) * sum(comb(n, s) for s in range(1, k + 1))


def pure_pairs_refuted(a: list[list[int]], b: list[list[int]], eps: Fraction) -> bool:
    """True iff no pure strategy pair is an eps-WSNE, by direct payoff arithmetic."""
    m, n = len(a), len(a[0])
    best_vs_col = [max(a[r][j] for r in range(m)) for j in range(n)]
    best_vs_row = [max(b[i][c] for c in range(n)) for i in range(m)]
    return not any(
        a[i][j] >= best_vs_col[j] - eps and b[i][j] >= best_vs_row[i] - eps
        for i in range(m)
        for j in range(n)
    )


def check_witness(a, b, p, q, eps: Fraction, k: int) -> None:
    """p and q are distributions with supports of size <= k forming an
    eps-WSNE: every supported pure strategy earns within eps of the best."""
    m, n = len(a), len(a[0])
    require(len(p) == m and len(q) == n, "witness has the wrong dimensions")
    for name, vec in (("p", p), ("q", q)):
        require(all(isinstance(x, Fraction) and x >= 0 for x in vec), f"{name} is not exact and nonnegative")
        require(sum(vec) == 1, f"{name} does not sum to 1")
        size = sum(1 for x in vec if x > 0)
        require(1 <= size <= k, f"{name} has support size {size}, limit {k}")
    row_pay = [sum(q[j] for j in range(n) if a[i][j]) for i in range(m)]
    col_pay = [sum(p[i] for i in range(m) if b[i][j]) for j in range(n)]
    row_best, col_best = max(row_pay), max(col_pay)
    require(all(row_pay[i] >= row_best - eps for i in range(m) if p[i] > 0), "a supported row is not an eps-best response")
    require(all(col_pay[j] >= col_best - eps for j in range(n) if q[j] > 0), "a supported column is not an eps-best response")


def check_cycle(a, b, vertices, k: int) -> None:
    """A directed cycle of even length <= 2k in the game's bipartite digraph."""
    m = len(a)
    size = len(vertices)
    require(2 <= size <= 2 * k and size % 2 == 0, f"cycle length {size} is not even and <= {2 * k}")
    require(len(set(vertices)) == size, "cycle repeats a vertex")
    for t, u in enumerate(vertices):
        v = vertices[(t + 1) % size]
        if u < m:
            require(v >= m and a[u][v - m] == 1, f"no arc r{u} -> {v}")
        else:
            require(v < m and b[v][u - m] == 1, f"no arc c{u - m} -> {v}")


def check_undominated(a, b, side: str, indices, k: int) -> None:
    """No vertex of the other side has an arc to every member of the set."""
    require(len(indices) == k and len(set(indices)) == k, f"undominated set {indices} is not a {k}-set")
    m, n = len(a), len(a[0])
    if side == "row":
        dominated = any(all(b[i][j] for i in indices) for j in range(n))
    else:
        dominated = any(all(a[i][j] for j in indices) for i in range(m))
    require(not dominated, f"{side} set {indices} is dominated")


def girth(n: int, arcs) -> int | None:
    """Shortest directed cycle length by breadth-first search from every vertex."""
    out = {v: set() for v in range(n)}
    for u, v in arcs:
        out[u].add(v)
    best = None
    for start in range(n):
        seen = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in out[u]:
                    if v == start:
                        length = seen[u] + 1
                        best = length if best is None else min(best, length)
                    elif v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
    return best


def check_kl(n: int, arcs, k: int, l: int, claimed_girth) -> None:
    """The claimed girth is the digraph's girth, it is >= k, and every l-set of
    vertices has a common in-neighbour."""
    found = girth(n, arcs)
    require(found == claimed_girth, f"girth {found}, certificate claims {claimed_girth}")
    require(found is None or found >= k, f"girth {found} below k={k}")
    into = {v: set() for v in range(n)}
    for u, v in arcs:
        into[v].add(u)
    for combo in combinations(range(n), l):
        require(set.intersection(*(into[v] for v in combo)), f"{combo} is undominated")
