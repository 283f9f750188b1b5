"""Bipartite mapping laws and the cycle/undominated-set decision."""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations

import pytest

from conftest import (
    random_circulant_game,
    random_digraph,
    random_digraph_with_cycle,
    random_game,
    reference_shortest_cycle,
    reference_shift_invariant,
)
from test_acceptance import K3_POOL, K4_POOL
from wsforge import (
    CycleWitness,
    Digraph,
    ResidueSet,
    UndominatedWitness,
    WinLoseGame,
    bipartify,
    cayley,
    char_decision,
    girth,
    is_dominated,
    shortest_cycle,
    to_bipartite_digraph,
)
from wsforge.digraph import _shortest_cycle, _transpose

TRIANGLE = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


# ---------------------------------------------------------------------------
# WinLoseGame type
# ---------------------------------------------------------------------------


def test_from_matrices_roundtrip():
    g = WinLoseGame.from_matrices([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    assert g.a_matrix() == [[1, 0], [0, 1]]
    assert g.b_matrix() == [[0, 1], [1, 0]]
    assert g.a(0, 0) == 1 and g.b(0, 0) == 0


def test_from_matrices_rejects_bad_entries():
    with pytest.raises(ValueError):
        WinLoseGame.from_matrices([[2]], [[0]])
    with pytest.raises(ValueError):
        WinLoseGame.from_matrices([[1, 0]], [[1]])
    with pytest.raises(ValueError):
        WinLoseGame.from_matrices([[1]], [[1], [0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WinLoseGame(-1, 1, (), ()), "matrix dimensions must be >= 0"),
        (lambda: WinLoseGame(1, -1, (0,), (0,)), "matrix dimensions must be >= 0"),
        (lambda: WinLoseGame(2, 2, (0,), (0, 0)), "payoff matrices must have m rows each"),
        (lambda: WinLoseGame(2, 2, (0, 0), (0, 0, 0)), "payoff matrices must have m rows each"),
        (lambda: WinLoseGame(1, 2, (4,), (0,)), "A row 0 has entries outside column range"),
        (lambda: WinLoseGame(2, 2, (0, 0), (0, -1)), "B row 1 has entries outside column range"),
        (lambda: char_decision(bipartify(TRIANGLE), 0), "k must be >= 1, got 0"),
    ],
    ids=["negative-m", "negative-n", "short-a", "long-b", "a-row-past-n", "negative-b-row", "char-k-0"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_non_square_games_accepted():
    g = WinLoseGame.from_matrices([[1, 0, 1]], [[0, 1, 0]])
    assert (g.m, g.n) == (1, 3)
    h = to_bipartite_digraph(g)
    assert h.n == 4


# ---------------------------------------------------------------------------
# to_bipartite_digraph
# ---------------------------------------------------------------------------


def test_bipartite_digraph_mutual_ones():
    g = WinLoseGame.from_matrices([[1]], [[1]])
    h = to_bipartite_digraph(g)
    assert h.arcs() == [(0, 1), (1, 0)]
    assert girth(h) == 2


def test_bipartite_digraph_single_arc():
    g = WinLoseGame.from_matrices([[1]], [[0]])
    h = to_bipartite_digraph(g)
    assert h.arcs() == [(0, 1)]


def test_bipartite_digraph_of_bipartified_triangle():
    h = to_bipartite_digraph(bipartify(TRIANGLE))
    assert h.n == 6
    assert h.arc_count() == 9  # 3 doubled arcs + 3 diagonal arcs


def test_bipartite_arc_rule():
    rng = random.Random(31)
    for _ in range(30):
        g = random_game(rng, rng.randrange(1, 6), rng.randrange(1, 6), ensure_out_degree=False)
        h = to_bipartite_digraph(g)
        for i in range(g.m):
            for j in range(g.n):
                assert h.has_arc(i, g.m + j) == (g.a(i, j) == 1)
                assert h.has_arc(g.m + j, i) == (g.b(i, j) == 1)


# ---------------------------------------------------------------------------
# bipartify
# ---------------------------------------------------------------------------


def test_bipartify_triangle_matrices():
    g = bipartify(TRIANGLE)
    assert g.a_matrix() == [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert g.b_matrix() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_bipartify_single_vertex():
    g = bipartify(Digraph(1, (0,)))
    assert g.a_matrix() == [[1]]
    assert g.b_matrix() == [[0]]


def test_bipartify_cayley_degree_counts():
    g = bipartify(cayley(7, ResidueSet.from_members(7, [1, 2, 4])))
    assert all(g.a_rows[i].bit_count() == 4 for i in range(7))
    assert all(g.b_rows[i].bit_count() == 3 for i in range(7))


def test_bipartify_out_degrees():
    rng = random.Random(32)
    for _ in range(30):
        d = random_digraph(rng, rng.randrange(1, 8))
        g = bipartify(d)
        h = to_bipartite_digraph(g)
        for i in range(d.n):
            assert h.out_degree(i) >= 1  # diagonal arc
            assert h.out_degree(d.n + i) == d.out_degree(i)


def test_bipartify_girth_bracket():
    rng = random.Random(33)
    for _ in range(100):
        d = random_digraph_with_cycle(rng, rng.randrange(2, 9))
        g = girth(d)
        gp = girth(to_bipartite_digraph(bipartify(d)))
        assert gp is not None and gp % 2 == 0
        assert g <= gp <= 2 * ((g + 1) // 2)


def test_bipartify_undominated_transfer():
    rng = random.Random(34)
    for _ in range(60):
        n = rng.randrange(2, 8)
        d = random_digraph(rng, n, p=rng.choice([0.25, 0.5]))
        h = to_bipartite_digraph(bipartify(d))
        for l in range(1, min(3, n) + 1):
            for combo in combinations(range(n), l):
                in_d = is_dominated(d, combo) is None
                row_side = is_dominated(h, combo) is None
                col_side = is_dominated(h, [n + x for x in combo]) is None
                # row side is equivalent; column side only transfers back
                assert row_side == in_d
                if col_side:
                    assert in_d


def _games_with_and_without_shift(rng: random.Random) -> list[WinLoseGame]:
    """The K3 and K4 pools' bipartified Cayley games, seeded shift-invariant
    games of order 1..13, each with a copy that has one bit of B flipped
    (not shift-invariant), and seeded non-square and square random games."""
    games = [
        bipartify(cayley(q, ResidueSet.from_members(q, ys)))
        for pool in (K3_POOL, K4_POOL) for q, ys in pool.items()
    ]
    for _ in range(200):
        g = random_circulant_game(rng, rng.randrange(1, 14))
        b_rows = list(g.b_rows)
        b_rows[rng.randrange(g.n)] ^= 1 << rng.randrange(g.n)
        games += [g, WinLoseGame(g.n, g.n, g.a_rows, tuple(b_rows))]
    for _ in range(100):
        m, n = rng.randrange(1, 10), rng.randrange(1, 10)
        games.append(random_game(rng, m, n, p=rng.choice([0.2, 0.35, 0.5])))
    return games


def test_column_masks_and_shift_invariance_match_the_references():
    # A shift-invariant game rotates column 0 to get each column; every
    # other game transposes its rows.
    seen = Counter()
    for g in _games_with_and_without_shift(random.Random(37)):
        assert g.a_col_masks == _transpose(g.a_rows, g.n), g
        assert g.b_col_masks == _transpose(g.b_rows, g.n), g
        assert g.shift_invariant == reference_shift_invariant(g), g
        seen[g.shift_invariant, g.m == g.n, min(g.n, 3)] += 1
    assert seen[True, True, 2] > 10 and seen[True, True, 3] > 100, seen
    assert seen[False, True, 1] > 10 and seen[False, True, 3] > 100 and seen[False, False, 3] > 50, seen


def test_bipartite_cycle_matches_the_full_girth_search():
    # On a shift-invariant game the shortest-cycle search behind
    # char_decision runs from r_0 alone; the reference searches from every
    # vertex. The cycles agree, and so does the game's cached one.
    seen = Counter()
    for g in _games_with_and_without_shift(random.Random(38)):
        h = to_bipartite_digraph(g)
        want = reference_shortest_cycle(h)
        assert _shortest_cycle(h, g.shift_invariant) == want == shortest_cycle(h), g
        assert g.bipartite_cycle == (None if want is None else tuple(want)), g
        seen[g.shift_invariant, want is None] += 1
    assert min(seen.values()) > 10 and len(seen) == 4, seen


def test_char_decision_on_a_long_shift_invariant_game_searches_from_r0():
    # Girth 512 on 2048 bipartite vertices: one backward search, where the
    # full search takes 0.4-0.5 s.
    g = bipartify(cayley(1024, ResidueSet.from_members(1024, [1, 513])))
    start = time.perf_counter()
    witness = char_decision(g, 2)
    assert time.perf_counter() - start < 0.1
    assert witness == UndominatedWitness("row", (0, 1))
    h = to_bipartite_digraph(g)
    assert _shortest_cycle(h, True) == reference_shortest_cycle(h)
    assert len(g.bipartite_cycle) == 512


# ---------------------------------------------------------------------------
# char_decision
# ---------------------------------------------------------------------------


def test_char_triangle_k1_negative():
    assert char_decision(bipartify(TRIANGLE), 1) is None


def test_char_triangle_k2_cycle():
    witness = char_decision(bipartify(TRIANGLE), 2)
    assert isinstance(witness, CycleWitness)
    assert len(witness.vertices) == 4
    h = to_bipartite_digraph(bipartify(TRIANGLE))
    verts = witness.vertices
    for t, u in enumerate(verts):
        assert h.has_arc(u, verts[(t + 1) % len(verts)])


def test_char_mutual_ones_k1():
    witness = char_decision(WinLoseGame.from_matrices([[1]], [[1]]), 1)
    assert isinstance(witness, CycleWitness)
    assert len(witness.vertices) == 2


def test_char_undominated_witness():
    # no entry has A[i][j] = B[i][j] = 1 (so no 2-cycle), and row 0 of B is
    # all zero, leaving r0 an undominated singleton
    g = WinLoseGame.from_matrices(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 0], [1, 0, 1], [0, 1, 0]],
    )
    witness = char_decision(g, 1)
    assert isinstance(witness, UndominatedWitness)
    assert witness.side == "row"
    assert witness.indices == (0,)
    h = to_bipartite_digraph(g)
    assert is_dominated(h, witness.indices) is None


def test_char_rejects_out_degree_violation():
    g = WinLoseGame.from_matrices([[0, 1], [0, 0]], [[1, 0], [1, 0]])
    with pytest.raises(ValueError, match="r1"):
        char_decision(g, 1)
    g2 = WinLoseGame.from_matrices([[1, 1], [1, 0]], [[1, 0], [1, 0]])
    with pytest.raises(ValueError, match="c1"):
        char_decision(g2, 1)


def test_char_prefers_shortest_cycle():
    rng = random.Random(35)
    for _ in range(40):
        g = random_game(rng, rng.randrange(2, 7), rng.randrange(2, 7))
        for k in (1, 2, 3):
            witness = char_decision(g, k)
            if isinstance(witness, CycleWitness):
                h = to_bipartite_digraph(g)
                assert len(witness.vertices) == girth(h)
                assert len(witness.vertices) <= 2 * k


def test_char_large_k_always_finds_structure():
    # with min out-degree >= 1 a cycle always exists, so k >= (m + n) / 2
    # can never return None
    rng = random.Random(36)
    for _ in range(25):
        m = rng.randrange(2, 6)
        g = random_game(rng, m, m)
        assert char_decision(g, m) is not None
