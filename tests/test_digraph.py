"""Cayley construction, girth, domination, powers, and certification.

The girth oracle enumerates all simple cycles by DFS, rooted at their
minimum vertex; the sumset bridge ties Cayley girth to the residue module.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from conftest import (
    random_digraph,
    reference_first_undominated,
    reference_power,
    reference_shortest_cycle,
    sumset,
)
from test_acceptance import K3_POOL, K4_POOL
from wsforge import (
    Digraph,
    KLCertificate,
    KLFailure,
    ResidueSet,
    all_subsets_dominated,
    cayley,
    certify_kl,
    find_undominated_set,
    girth,
    is_complete_difference_set,
    is_dominated,
    power,
    shortest_cycle,
)
from wsforge.digraph import _circulant, _shortest_cycle

TRIANGLE = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
FIVE_CYCLE = Digraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])
PALEY7 = cayley(7, ResidueSet.from_members(7, [1, 2, 4]))


def brute_girth(d: Digraph) -> list[int] | None:
    """A shortest cycle over all simple cycles, each rooted at its least
    vertex: it starts at the least vertex that lies on a shortest cycle, and
    is the lexicographically least shortest cycle from there."""
    best: list[int] | None = None

    def dfs(path: list[int]) -> None:
        nonlocal best
        if best is not None and len(path) >= len(best):
            return
        for w in range(d.n):
            if not d.has_arc(path[-1], w):
                continue
            if w == path[0]:
                # Paths are tried in lexicographic order, so the first cycle
                # of each length is the least one.
                best = list(path)
            elif w > path[0] and w not in path:
                dfs(path + [w])

    for start in range(d.n):
        dfs([start])
    return best


# ---------------------------------------------------------------------------
# cayley
# ---------------------------------------------------------------------------


def test_cayley_single_generator_is_cycle():
    d = cayley(3, ResidueSet.from_members(3, [1]))
    assert d.arcs() == [(0, 2), (1, 0), (2, 1)]


def test_cayley_is_regular():
    assert [PALEY7.out_degree(v) for v in range(7)] == [3] * 7
    assert [PALEY7.in_masks[v].bit_count() for v in range(7)] == [3] * 7


def test_cayley_empty_generator():
    d = cayley(2, ResidueSet(2, 0))
    assert d.n == 2 and d.arc_count() == 0


def test_cayley_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        cayley(5, ResidueSet.from_members(7, [1]))


def test_cayley_arc_rule():
    rng = random.Random(21)
    for _ in range(30):
        q = rng.randrange(2, 10)
        y = ResidueSet.from_members(q, rng.sample(range(q), rng.randrange(0, q + 1)))
        d = cayley(q, y)
        for z1 in range(q):
            for z2 in range(q):
                assert d.has_arc(z1, z2) == ((z1 - z2) % q in y)


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------


def test_girth_examples():
    assert girth(TRIANGLE) == 3
    assert girth(Digraph.from_arcs(2, [(0, 1)])) is None
    assert girth(Digraph.from_arcs(1, [(0, 0)])) == 1
    assert girth(PALEY7) == 3


def test_shortest_cycle_is_a_cycle():
    cyc = shortest_cycle(PALEY7)
    assert cyc is not None and len(cyc) == 3
    for t, u in enumerate(cyc):
        assert PALEY7.has_arc(u, cyc[(t + 1) % len(cyc)])


def test_girth_matches_brute_force():
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randrange(1, 8)
        d = random_digraph(rng, n, p=rng.choice([0.15, 0.3, 0.5]))
        assert_girth_and_start(d)
    # Sparse digraphs leave vertices with no in-arc or out-arc among the
    # later ones, which girth peels without searching from them.
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randrange(6, 13)
        d = random_digraph(rng, n, p=rng.choice([0.08, 0.12, 0.18]))
        assert_girth_and_start(d)


def assert_girth_and_start(d: Digraph) -> None:
    expected = brute_girth(d)
    assert girth(d) == (None if expected is None else len(expected))
    assert shortest_cycle(d) == expected


def test_girth_with_self_loops():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 7)
        d = random_digraph(rng, n, p=0.3)
        v = rng.randrange(n)
        looped = Digraph(n, tuple(m | (1 << v) if u == v else m for u, m in enumerate(d.out)))
        assert girth(looped) == 1
        assert shortest_cycle(looped) == [v]


def test_long_girth_cycles_are_fast():
    # One 4096-cycle, and a 512-vertex Cayley digraph of girth 256 with a
    # shortest cycle through every vertex.
    start = time.perf_counter()
    ring = cayley(4096, ResidueSet.from_members(4096, [1]))
    assert shortest_cycle(ring) == [0, *range(4095, 0, -1)]
    twisted = cayley(512, ResidueSet.from_members(512, [1, 257]))
    assert shortest_cycle(twisted) == [0, *range(255, 0, -1)]
    assert time.perf_counter() - start < 2


def test_girth_of_a_long_circulant_searches_from_vertex_0_only():
    # Girth 2048 on 4096 vertices: one backward search, not one per vertex.
    start = time.perf_counter()
    assert girth(cayley(4096, ResidueSet.from_members(4096, [1, 2049]))) == 2048
    assert time.perf_counter() - start < 0.5


def circulant_digraphs(rng: random.Random) -> list[Digraph]:
    """The K3 and K4 pools' Cayley digraphs, Paley-7, Paley-19, and seeded
    Cayley digraphs of random generator sets on Z_n, n = 1..14, which may
    hold 0 (a loop at every vertex) or nothing (no arc at all)."""
    ds = [cayley(q, ResidueSet.from_members(q, ys)) for pool in (K3_POOL, K4_POOL) for q, ys in pool.items()]
    ds += [PALEY7, cayley(19, ResidueSet.from_members(19, [1, 4, 5, 6, 7, 9, 11, 16, 17]))]
    for _ in range(120):
        n = rng.randrange(1, 15)
        p = rng.choice([0.1, 0.25, 0.4])
        ds.append(cayley(n, ResidueSet.from_members(n, [y for y in range(n) if rng.random() < p])))
    return ds


def test_circulant_scans_match_the_full_scans(sets_tried):
    # On a circulant digraph the shortest-cycle search runs from vertex 0
    # alone and the domination scan tries only the sets through 0,
    # C(n - 1, l - 1) of them when all are dominated. A copy with one arc
    # flipped is not circulant and takes the full scans. Both must return
    # what the full scans return: the same cycle, walked from the same
    # start's layers.
    rng = random.Random(25)
    seen = Counter()
    for d in circulant_digraphs(rng):
        cases = [(d, True)]
        if d.n >= 2:
            out = list(d.out)
            out[rng.randrange(d.n)] ^= 1 << rng.randrange(d.n)
            cases.append((Digraph(d.n, tuple(out)), False))
        for h, circulant in cases:
            assert _circulant(h.out) is circulant
            found = _shortest_cycle(h, circulant)
            assert found == reference_shortest_cycle(h), h
            seen[circulant, "girth", found is None] += 1
            for l in range(1, min(h.n, 3) + 1):
                want = reference_first_undominated(h.in_masks, range(h.n), l)
                sets_tried[0] = 0
                assert find_undominated_set(h, l) == want, (h, l)
                if want is None:
                    assert sets_tried[0] == (comb(h.n - 1, l - 1) if circulant else comb(h.n, l))
                seen[circulant, "set", want is None] += 1
    assert min(seen.values()) >= 10 and len(seen) == 8, seen


def test_cayley_sumset_bridge_small():
    # girth(cayley(q, Y)) equals the first sumset level containing zero
    for q in range(1, 7):
        for bits in range(1, 1 << q):
            y = ResidueSet(q, bits)
            d = cayley(q, y)
            expected = next(
                (s for s in range(1, q * len(y) + 1) if 0 in sumset(q, y.members(), s)), None
            )
            assert girth(d) == expected


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------


def test_is_dominated_examples():
    d = cayley(3, ResidueSet.from_members(3, [1]))  # arcs z -> z-1
    assert is_dominated(d, {1}) == 2
    assert is_dominated(TRIANGLE, {1}) == 0
    assert is_dominated(TRIANGLE, {0, 1}) is None


def test_is_dominated_rejects_bad_input():
    with pytest.raises(ValueError):
        is_dominated(TRIANGLE, set())
    with pytest.raises(ValueError):
        is_dominated(TRIANGLE, {0, 3})


def test_all_pairs_dominated_in_paley():
    assert all_subsets_dominated(PALEY7, 2)
    for pair in combinations(range(7), 2):
        assert is_dominated(PALEY7, pair) is not None


def test_complete_difference_dominator_formula():
    # complete differences give a pair dominator x = z1 + y2 = z2 + y1
    rng = random.Random(24)
    tested = 0
    while tested < 20:
        q = rng.randrange(3, 10)
        y = ResidueSet.from_members(q, rng.sample(range(q), rng.randrange(2, q + 1)))
        if not is_complete_difference_set(y):
            continue
        tested += 1
        d = cayley(q, y)
        assert all_subsets_dominated(d, 2)
        for z1, z2 in combinations(range(q), 2):
            hits = [
                (z1 + y2) % q
                for y1 in y
                for y2 in y
                if (z1 - z2) % q == (y1 - y2) % q
            ]
            assert hits
            for x in hits:
                assert d.has_arc(x, z1) and d.has_arc(x, z2)


def test_domination_counterexamples():
    assert all_subsets_dominated(TRIANGLE, 1)
    assert not all_subsets_dominated(TRIANGLE, 2)
    assert find_undominated_set(TRIANGLE, 2) == (0, 1)
    assert find_undominated_set(PALEY7, 2) is None
    loop = Digraph.from_arcs(1, [(0, 0)])
    assert find_undominated_set(loop, 1) is None


def test_find_undominated_agrees_with_all_subsets():
    rng = random.Random(25)
    for _ in range(100):
        n = rng.randrange(1, 8)
        d = random_digraph(rng, n, p=rng.choice([0.2, 0.5]))
        l = rng.randrange(1, n + 1)
        assert (find_undominated_set(d, l) is None) == all_subsets_dominated(d, l)


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


def test_power_identity_on_loop_free():
    assert power(FIVE_CYCLE, 1) == FIVE_CYCLE


def test_power_two_of_five_cycle():
    d = power(FIVE_CYCLE, 2)
    for v in range(5):
        assert sorted(
            w for w in range(5) if d.has_arc(v, w)
        ) == sorted([(v + 1) % 5, (v + 2) % 5])
    assert girth(d) == 3


def test_power_single_arc_saturates():
    arc = Digraph.from_arcs(2, [(0, 1)])
    assert power(arc, 3) == arc


def test_power_stops_at_its_fixed_point():
    start = time.perf_counter()
    assert power(PALEY7, 10**9) == power(PALEY7, 6)
    # A directed n-cycle closes at exactly t = n - 1, the most any digraph
    # needs. Expanding every reached vertex again at each walk length took
    # about 3 s per power of this cycle.
    cycle = cayley(300, ResidueSet.from_members(300, [1]))
    assert power(cycle, 298) != power(cycle, 299) == power(cycle, 10**9)
    assert power(cycle, 299).arc_count() == 300 * 299
    assert time.perf_counter() - start < 1


def test_power_rejects_zero():
    with pytest.raises(ValueError):
        power(TRIANGLE, 0)


def test_power_drops_self_loops_keeps_other_arcs():
    looped = Digraph.from_arcs(3, [(0, 0), (0, 1), (1, 2)])
    p = power(looped, 2)
    assert not p.has_arc(0, 0)
    for u, v in looped.arcs():
        if u != v:
            assert p.has_arc(u, v)


def test_power_monotone_and_loop_free():
    rng = random.Random(26)
    for _ in range(50):
        n = rng.randrange(1, 9)
        d = random_digraph(rng, n, p=0.3)
        prev = power(d, 1)
        for t in range(2, 5):
            cur = power(d, t)
            for v in range(n):
                assert prev.out[v] & ~cur.out[v] == 0  # arcs only accumulate
                assert not cur.has_arc(v, v)
            prev = cur


def test_power_matches_walk_definition():
    rng = random.Random(27)
    for _ in range(30):
        n = rng.randrange(2, 7)
        d = random_digraph(rng, n, p=0.3)
        t = rng.randrange(1, 4)
        p = power(d, t)
        # walks of length <= t by repeated squaring of the reachability sets
        reach = [[False] * n for _ in range(n)]
        for u in range(n):
            frontier = {u}
            for _ in range(t):
                frontier = {w for x in frontier for w in range(n) if d.has_arc(x, w)}
                for w in frontier:
                    reach[u][w] = True
        for u in range(n):
            for w in range(n):
                assert p.has_arc(u, w) == (u != w and reach[u][w])


def test_power_matches_the_all_vertices_reference():
    # On a circulant digraph only vertex 0 is searched and its row rotated to
    # every vertex; a copy with one arc flipped, a random digraph and the
    # empty digraph take the search from every vertex. Both must match it.
    rng = random.Random(32)
    seen = Counter()
    cases = [Digraph(0, ())] + [random_digraph(rng, rng.randrange(1, 12), p=0.2) for _ in range(40)]
    for d in circulant_digraphs(rng):
        cases.append(d)
        if d.n >= 2:
            out = list(d.out)
            out[rng.randrange(d.n)] ^= 1 << rng.randrange(d.n)
            cases.append(Digraph(d.n, tuple(out)))
    for d in cases:
        circulant = d.n > 0 and _circulant(d.out)
        for t in {1, 2, 3, rng.randrange(1, d.n + 2), 10**9}:
            assert power(d, t) == reference_power(d, t), (d, t)
        seen[circulant] += 1
    assert min(seen.values()) >= 40, seen


def test_power_of_a_long_circulant_searches_from_vertex_0_only():
    # The 4096-cycle closes at t = 4095. A search from every vertex took
    # about 21 s on a 2-core host, and 7-12 s for Cay(Z_4096, {1, 5, 77})
    # at t = 50.
    cycle = cayley(4096, ResidueSet.from_members(4096, [1]))
    spread = cayley(4096, ResidueSet.from_members(4096, [1, 5, 77]))
    start = time.perf_counter()
    closed, fifty = power(cycle, 10**9), power(spread, 50)
    assert time.perf_counter() - start < 1
    full = (1 << 4096) - 1
    assert closed.out == tuple(full & ~(1 << v) for v in range(4096))
    # Vertex 0 reaches -r for every sum r of 1 to 50 generators.
    sums = set().union(*(sumset(4096, [1, 5, 77], s) for s in range(1, 51)))
    assert fifty.out[0] == sum(1 << (-r % 4096) for r in sums if r)
    assert _circulant(fifty.out)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Digraph(-1, ()), "vertex count must be >= 0"),
        (lambda: Digraph(2, (0,)), "expected 2 adjacency rows, got 1"),
        (lambda: Digraph(2, (0, 0, 0)), "expected 2 adjacency rows, got 3"),
        (lambda: Digraph(2, (0, 4)), "adjacency row of vertex 1 has out-of-range neighbors"),
        (lambda: Digraph(2, (-1, 0)), "adjacency row of vertex 0 has out-of-range neighbors"),
        (lambda: Digraph.from_arcs(3, [(0, 1), (0, 3)]), "arc (0, 3) outside vertex range [0, 3)"),
        (lambda: Digraph.from_arcs(3, [(-1, 0)]), "arc (-1, 0) outside vertex range [0, 3)"),
        (lambda: find_undominated_set(TRIANGLE, 0), "need 1 <= l <= 3, got 0"),
        (lambda: find_undominated_set(TRIANGLE, 4), "need 1 <= l <= 3, got 4"),
        (lambda: certify_kl(TRIANGLE, 0, 1), "k must be >= 1, got 0"),
        (lambda: certify_kl(TRIANGLE, 3, 0), "need 1 <= l <= 3, got 0"),
        (lambda: certify_kl(TRIANGLE, 3, 4), "need 1 <= l <= 3, got 4"),
    ],
    ids=[
        "negative-n", "too-few-rows", "too-many-rows", "row-past-n", "negative-row",
        "arc-past-n", "negative-arc", "undominated-l-0", "undominated-l-past-n",
        "certify-k-0", "certify-l-0", "certify-l-past-n",
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_certify_triangle():
    result = certify_kl(TRIANGLE, 3, 1)
    assert isinstance(result, KLCertificate)
    assert result.girth_found == 3


def test_certify_paley_3_2():
    result = certify_kl(PALEY7, 3, 2)
    assert isinstance(result, KLCertificate)
    assert result.girth_found == 3


def test_certify_paley_4_2_fails_with_cycle():
    result = certify_kl(PALEY7, 4, 2)
    assert isinstance(result, KLFailure)
    assert result.short_cycle is not None and len(result.short_cycle) == 3
    cyc = result.short_cycle
    for t, u in enumerate(cyc):
        assert PALEY7.has_arc(u, cyc[(t + 1) % 3])


def test_certify_acyclic_passes_any_girth():
    # every DAG has an undominated source, so the failure must come from
    # domination; the girth bound is vacuously satisfied at any k
    chain = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert girth(chain) is None
    result = certify_kl(chain, 10, 1)
    assert isinstance(result, KLFailure)
    assert result.short_cycle is None
    assert result.undominated == (0,)


def test_certify_undominated_failure_carries_witness():
    result = certify_kl(TRIANGLE, 3, 2)
    assert isinstance(result, KLFailure)
    assert result.undominated == (0, 1)
    assert is_dominated(TRIANGLE, result.undominated) is None


def test_power_transfer_small():
    # base girth >= 5 with pairs dominated would be needed for stronger
    # targets; at this scale the (3,2) base transfers to (2,3) via squaring
    base = PALEY7
    target = power(base, 2)
    result = certify_kl(target, 2, 3)
    assert isinstance(result, KLCertificate)
