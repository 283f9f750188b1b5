"""Exact WSNE checking, the two uniform constructions, the support
feasibility oracle, exhaustive enumeration, and the characterization
cross-check."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import crosscheck_digest, random_digraph, random_game
from wsforge import (
    Digraph,
    MixedStrategy,
    NoWitness,
    ResidueSet,
    SupportPair,
    WinLoseGame,
    bipartify,
    cayley,
    check_wsne,
    crosscheck_characterization,
    exhaustive_search,
    feasible_on_supports,
    payoffs,
    shortest_cycle,
    to_bipartite_digraph,
    wsne_from_cycle,
    wsne_from_undominated,
)
from wsforge.feasibility import feasible_point
from wsforge.residues import _rot
from wsforge.wsne import _below_half, _scan, _shift_invariant

F = Fraction
TRIANGLE = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
TRI_GAME = bipartify(TRIANGLE)
ONES = bipartify(Digraph.from_arcs(1, [(0, 0)]))  # A = B = [[1]]


# ---------------------------------------------------------------------------
# MixedStrategy
# ---------------------------------------------------------------------------


def test_strategy_simplex_enforced():
    MixedStrategy.from_probs(["1/2", "1/2", 0])
    with pytest.raises(ValueError):
        MixedStrategy.from_probs(["1/2", "1/4", 0])
    with pytest.raises(ValueError):
        MixedStrategy.from_probs(["3/2", "-1/2"])
    with pytest.raises(TypeError):
        MixedStrategy.from_probs([0.5, 0.5])
    with pytest.raises(ValueError):
        MixedStrategy(())
    with pytest.raises(ValueError, match=r"^entries sum to 2, expected exactly 1$"):
        MixedStrategy((F(1), F(1)))


def _simplex_error_by_fraction_sum(probs):
    """The exception type and message of the simplex check that sums the
    entries as Fractions; None if the vector passes."""
    if not probs:
        return ValueError, "strategy over zero pure strategies"
    total = F(0)
    for i, p in enumerate(probs):
        if not isinstance(p, Fraction):
            return TypeError, f"entry {i} is {type(p).__name__}, expected Fraction"
        if p < 0:
            return ValueError, f"entry {i} is negative: {p}"
        total += p
    if total != 1:
        return ValueError, f"entries sum to {total}, expected exactly 1"
    return None


def _assert_simplex_check_matches_fraction_sum(probs):
    want = _simplex_error_by_fraction_sum(probs)
    if want is None:
        assert MixedStrategy(probs).probs == probs
        return
    with pytest.raises(want[0]) as exc:
        MixedStrategy(probs)
    assert (type(exc.value), str(exc.value)) == want


@pytest.mark.parametrize(
    "probs",
    [
        (),
        (F(1, 2), 1),
        (F(1, 2), 0.5),
        (F(3, 2), F(-1, 2)),
        (F(-1, 2), "x"),
        (F(0), F(0)),
        (F(1), F(1)),
        (F(2, 3), F(4, 3)),
        (F(1), F(1, 10**30)),
        (F(1, 2), F(1, 2), F(-1, 10**30)),
        (F(1, 3), F(1, 6), F(1, 2)),
        (F(0), F(1), F(0)),
    ],
)
def test_strategy_errors_match_fraction_sum(probs):
    _assert_simplex_check_matches_fraction_sum(probs)


def test_strategy_errors_match_fraction_sum_seeded():
    rng = random.Random(31)
    rejected = 0
    for _ in range(2000):
        dens = [rng.choice([1, 2, 3, 6, 7, 10**30 + 1]) for _ in range(rng.randrange(1, 6))]
        probs = [F(rng.randrange(-1, 3), den) for den in dens]
        if rng.random() < 0.5:  # repair the last entry so that the sum is 1
            probs[-1] = 1 - sum(probs[:-1], F(0))
        _assert_simplex_check_matches_fraction_sum(tuple(probs))
        rejected += _simplex_error_by_fraction_sum(tuple(probs)) is not None
    assert 300 < rejected < 1900


def test_strategy_support():
    s = MixedStrategy.from_probs(["1/2", 0, "1/2"])
    assert s.support == (0, 2)
    assert MixedStrategy.point_mass(1, 3).support == (1,)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MixedStrategy.uniform_on([], 3), "uniform strategy needs a nonempty index set"),
        (lambda: MixedStrategy.uniform_on([0, 3], 3), "indices outside [0, 3)"),
        (lambda: MixedStrategy.uniform_on([-1], 3), "indices outside [0, 3)"),
        (lambda: SupportPair((), (0,)), "rows must be nonempty"),
        (lambda: SupportPair((0,), ()), "cols must be nonempty"),
        (lambda: SupportPair((-1, 0), (0,)), "rows contains a negative index"),
        (lambda: payoffs(TRI_GAME, MixedStrategy.point_mass(0, 3), MixedStrategy.point_mass(0, 2)),
         "column strategy has 2 entries, game has 3 columns"),
        (lambda: wsne_from_undominated(TRI_GAME, "both", [0]), "side must be 'row' or 'col', got 'both'"),
        (lambda: wsne_from_undominated(TRI_GAME, "row", []), "undominated set must be nonempty"),
        (lambda: wsne_from_undominated(TRI_GAME, "col", [0, 3]), "indices outside [0, 3)"),
        (lambda: wsne_from_undominated(TRI_GAME, "row", [-1]), "indices outside [0, 3)"),
        (lambda: wsne_from_cycle(TRI_GAME, [6, 0]), "vertex 6 outside bipartite digraph"),
        (lambda: wsne_from_cycle(TRI_GAME, [-1, 0]), "vertex -1 outside bipartite digraph"),
        (lambda: feasible_on_supports(TRI_GAME, SupportPair((3,), (0,)), 0),
         "support pair exceeds game dimensions"),
        (lambda: feasible_on_supports(TRI_GAME, SupportPair((0,), (0, 3)), 0),
         "support pair exceeds game dimensions"),
    ],
)
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------


def test_payoffs_pure_1x1():
    row, col = payoffs(ONES, MixedStrategy.point_mass(0, 1), MixedStrategy.point_mass(0, 1))
    assert row == (F(1),) and col == (F(1),)


def test_payoffs_triangle_example():
    p = MixedStrategy.uniform_on([0, 2], 3)
    q = MixedStrategy.uniform_on([1, 2], 3)
    row, col = payoffs(TRI_GAME, p, q)
    assert row == (F(1, 2), F(1), F(1, 2))
    assert col == (F(0), F(1, 2), F(1, 2))


def test_payoffs_point_mass_reads_column():
    rng = random.Random(51)
    for _ in range(25):
        g = random_game(rng, rng.randrange(1, 6), rng.randrange(1, 6), ensure_out_degree=False)
        j = rng.randrange(g.n)
        q = MixedStrategy.point_mass(j, g.n)
        p = MixedStrategy.uniform_on(range(g.m), g.m)
        row, _ = payoffs(g, p, q)
        assert row == tuple(F(g.a(i, j)) for i in range(g.m))


def test_payoffs_dimension_mismatch():
    with pytest.raises(ValueError):
        payoffs(TRI_GAME, MixedStrategy.point_mass(0, 2), MixedStrategy.point_mass(0, 3))


# ---------------------------------------------------------------------------
# check_wsne
# ---------------------------------------------------------------------------


def test_check_uniform_full_support_exact():
    u = MixedStrategy.uniform_on([0, 1, 2], 3)
    verdict = check_wsne(TRI_GAME, u, u, 0)
    assert verdict.valid
    assert verdict.row_best == F(2, 3) and verdict.col_best == F(1, 3)


def test_check_boundary_accepted():
    p = MixedStrategy.uniform_on([0, 2], 3)
    q = MixedStrategy.uniform_on([1, 2], 3)
    verdict = check_wsne(TRI_GAME, p, q, F(1, 2))
    assert verdict.valid  # r0 pays exactly row_best - eps


def test_check_shortfall_reported():
    p = MixedStrategy.uniform_on([0, 2], 3)
    q = MixedStrategy.uniform_on([1, 2], 3)
    verdict = check_wsne(TRI_GAME, p, q, F(1, 4))
    assert not verdict.valid
    first = verdict.violations[0]
    assert (first.player, first.index) == ("row", 0)
    assert first.payoff == F(1, 2) and first.shortfall == F(1, 4)


def test_check_rejects_negative_eps():
    u = MixedStrategy.uniform_on([0, 1, 2], 3)
    with pytest.raises(ValueError):
        check_wsne(TRI_GAME, u, u, F(-1, 2))


def test_check_monotone_in_eps():
    rng = random.Random(52)
    for _ in range(60):
        g = random_game(rng, rng.randrange(1, 6), rng.randrange(1, 6), ensure_out_degree=False)
        p = MixedStrategy.uniform_on(
            rng.sample(range(g.m), rng.randrange(1, g.m + 1)), g.m
        )
        q = MixedStrategy.uniform_on(
            rng.sample(range(g.n), rng.randrange(1, g.n + 1)), g.n
        )
        eps = F(rng.randrange(0, 5), 4)
        if check_wsne(g, p, q, eps).valid:
            assert check_wsne(g, p, q, eps + F(1, 4)).valid


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def test_undominated_construction_example():
    p, q, eps = wsne_from_undominated(TRI_GAME, "row", [0, 1])
    assert p.probs == (F(1, 2), F(1, 2), F(0))
    assert q.support == (0, 1)  # least-index out-neighbors: c0 (diag), c1 (diag)
    assert eps == F(1, 2)
    assert check_wsne(TRI_GAME, p, q, eps).valid


def test_undominated_singleton_gives_exact_equilibrium():
    from wsforge import WinLoseGame

    # B row 0 is all zero, so r0 has no in-arcs and is undominated; every
    # B column is still nonzero, keeping the out-degree precondition
    g = WinLoseGame.from_matrices(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 0], [1, 0, 1], [0, 1, 0]],
    )
    h = to_bipartite_digraph(g)
    assert all(h.out_degree(v) >= 1 for v in range(h.n))
    p, q, eps = wsne_from_undominated(g, "row", [0])
    assert eps == F(0)
    assert p.support == (0,) and q.support == (0,)
    assert check_wsne(g, p, q, 0).valid


def test_undominated_rejects_dominated_set():
    with pytest.raises(ValueError, match="dominated"):
        wsne_from_undominated(TRI_GAME, "row", [0])  # singleton rows are dominated


def test_undominated_column_side_mirror():
    from wsforge import WinLoseGame

    # no A row covers both columns, so {c0, c1} is undominated
    g = WinLoseGame.from_matrices([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    p, q, eps = wsne_from_undominated(g, "col", (0, 1))
    assert eps == F(1, 2)
    assert q.support == (0, 1)
    assert p.support == (0, 1)  # least-index in-rows of c0, c1 are r1, r0
    assert check_wsne(g, p, q, eps).valid


def test_cycle_construction_2cycle():
    p, q, eps = wsne_from_cycle(ONES, [0, 1])
    assert eps == F(0)
    assert p.probs == (F(1),) and q.probs == (F(1),)
    assert check_wsne(ONES, p, q, 0).valid


def test_cycle_construction_4cycle():
    h = to_bipartite_digraph(TRI_GAME)
    cyc = shortest_cycle(h)
    assert len(cyc) == 4
    p, q, eps = wsne_from_cycle(TRI_GAME, cyc)
    assert eps == F(1, 2)
    assert check_wsne(TRI_GAME, p, q, eps).valid


def test_cycle_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        wsne_from_cycle(TRI_GAME, [0, 3, 1])  # odd length
    with pytest.raises(ValueError):
        wsne_from_cycle(TRI_GAME, [0, 4])  # not an arc pair
    with pytest.raises(ValueError):
        wsne_from_cycle(TRI_GAME, [0, 3, 0, 3])  # repeats


def test_undominated_uniform_guarantee_seeded():
    rng = random.Random(53)
    checked = 0
    while checked < 60:
        n = rng.randrange(2, 11)
        d = random_digraph(rng, n, p=rng.choice([0.2, 0.4]), ensure_min_out=True)
        g = bipartify(d)
        h = to_bipartite_digraph(g)
        found = None
        for size in (1, 2, 3):
            for offset, side, count in ((0, "row", g.m), (g.m, "col", g.n)):
                if size > count:
                    continue
                for combo in combinations(range(count), size):
                    mask = -1
                    for x in combo:
                        mask &= h.in_masks[offset + x]
                    if mask == 0:
                        found = (side, combo)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            continue
        checked += 1
        side, combo = found
        p, q, eps = wsne_from_undominated(g, side, combo)
        assert eps == F(1) - F(1, len(combo))
        assert check_wsne(g, p, q, eps).valid


def test_cycle_uniform_guarantee_seeded():
    rng = random.Random(54)
    checked = 0
    while checked < 60:
        g = random_game(rng, rng.randrange(2, 9), rng.randrange(2, 9))
        cyc = shortest_cycle(to_bipartite_digraph(g))
        if cyc is None or len(cyc) > 8:
            continue
        checked += 1
        k = len(cyc) // 2
        p, q, eps = wsne_from_cycle(g, cyc)
        assert eps == F(1) - F(1, k)
        assert check_wsne(g, p, q, eps).valid


# ---------------------------------------------------------------------------
# feasible_on_supports
# ---------------------------------------------------------------------------


def test_feasibility_pure_pair_infeasible():
    assert feasible_on_supports(TRI_GAME, SupportPair((0,), (0,)), F(99, 100)) is None


def test_feasibility_cycle_supports_feasible():
    found = feasible_on_supports(TRI_GAME, SupportPair((0, 2), (1, 2)), F(1, 2))
    assert found is not None
    p, q = found
    assert set(p.support) <= {0, 2} and set(q.support) <= {1, 2}
    assert check_wsne(TRI_GAME, p, q, F(1, 2)).valid


def test_feasibility_trivial_at_eps_one():
    rng = random.Random(55)
    for _ in range(20):
        g = random_game(rng, rng.randrange(1, 6), rng.randrange(1, 6), ensure_out_degree=False)
        pair = SupportPair(
            tuple(sorted(rng.sample(range(g.m), rng.randrange(1, min(g.m, 3) + 1)))),
            tuple(sorted(rng.sample(range(g.n), rng.randrange(1, min(g.n, 3) + 1)))),
        )
        found = feasible_on_supports(g, pair, 1)
        assert found is not None
        p, q = found
        assert check_wsne(g, p, q, 1).valid


def test_feasibility_monotone_in_eps():
    rng = random.Random(56)
    for _ in range(60):
        g = random_game(rng, rng.randrange(2, 7), rng.randrange(2, 7), ensure_out_degree=False)
        pair = SupportPair(
            tuple(sorted(rng.sample(range(g.m), rng.randrange(1, 3)))),
            tuple(sorted(rng.sample(range(g.n), rng.randrange(1, 3)))),
        )
        eps = F(rng.randrange(0, 4), 4)
        if feasible_on_supports(g, pair, eps) is not None:
            assert feasible_on_supports(g, pair, eps + F(1, 4)) is not None


def test_feasibility_witness_is_valid_wsne():
    rng = random.Random(57)
    for _ in range(80):
        g = random_game(rng, rng.randrange(2, 7), rng.randrange(2, 7), ensure_out_degree=False)
        pair = SupportPair(
            tuple(sorted(rng.sample(range(g.m), rng.randrange(1, min(g.m, 3) + 1)))),
            tuple(sorted(rng.sample(range(g.n), rng.randrange(1, min(g.n, 3) + 1)))),
        )
        eps = F(rng.randrange(0, 5), 6)
        found = feasible_on_supports(g, pair, eps)
        if found is not None:
            p, q = found
            assert set(p.support) <= set(pair.rows)
            assert set(q.support) <= set(pair.cols)
            assert check_wsne(g, p, q, eps).valid


# ---------------------------------------------------------------------------
# exhaustive_search
# ---------------------------------------------------------------------------


def test_exhaustive_refutes_triangle_k1():
    result = exhaustive_search(TRI_GAME, 1, F(99, 100))
    assert result == NoWitness(pairs_refuted=9)


def test_exhaustive_finds_triangle_k2():
    result = exhaustive_search(TRI_GAME, 2, F(1, 2))
    assert not isinstance(result, NoWitness)
    p, q = result
    assert check_wsne(TRI_GAME, p, q, F(1, 2)).valid


def test_exhaustive_pure_equilibrium():
    result = exhaustive_search(ONES, 1, 0)
    assert not isinstance(result, NoWitness)
    p, q = result
    assert p.probs == (F(1),) and q.probs == (F(1),)


def test_exhaustive_rejects_oversized_k():
    with pytest.raises(ValueError):
        exhaustive_search(TRI_GAME, 4, 0)


def test_exhaustive_monotone_in_k():
    rng = random.Random(58)
    for _ in range(25):
        g = random_game(rng, rng.randrange(2, 7), rng.randrange(2, 7), ensure_out_degree=False)
        eps = F(rng.randrange(0, 4), 4)
        k = rng.randrange(1, min(g.m, g.n))
        if not isinstance(exhaustive_search(g, k, eps), NoWitness):
            assert not isinstance(exhaustive_search(g, k + 1, eps), NoWitness)


def test_exhaustive_witness_validates():
    rng = random.Random(59)
    for _ in range(40):
        g = random_game(rng, rng.randrange(2, 7), rng.randrange(2, 7), ensure_out_degree=False)
        eps = F(rng.randrange(0, 6), 6)
        k = rng.randrange(1, min(g.m, g.n) + 1)
        result = exhaustive_search(g, k, eps)
        if not isinstance(result, NoWitness):
            p, q = result
            assert len(p.support) <= k and len(q.support) <= k
            assert check_wsne(g, p, q, eps).valid


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------


def test_crosscheck_triangle_k1_agrees_negative():
    report = crosscheck_characterization(TRI_GAME, 1)
    assert report.agree
    assert all(isinstance(pt.search_result, NoWitness) for pt in report.points)
    assert all(pt.char_witness is None for pt in report.points)


def test_crosscheck_triangle_k2_agrees_positive():
    report = crosscheck_characterization(TRI_GAME, 2)
    assert report.agree
    assert all(not isinstance(pt.search_result, NoWitness) for pt in report.points)


def test_crosscheck_1x1_agrees_positive():
    report = crosscheck_characterization(ONES, 1)
    assert report.agree
    assert report.points[0].eps == F(0)
    assert report.points[1].eps == F(1, 2)


def test_crosscheck_propagates_out_degree_failure():
    from wsforge import WinLoseGame

    g = WinLoseGame.from_matrices([[0]], [[1]])
    with pytest.raises(ValueError):
        crosscheck_characterization(g, 1)


def test_crosscheck_seeded_games():
    rng = random.Random(60)
    for _ in range(40):
        m = rng.randrange(3, 9)
        g = random_game(rng, m, m)
        for k in (1, 2, 3):
            assert crosscheck_characterization(g, k).agree


def test_paley_game_refutes_k1():
    g = bipartify(cayley(7, ResidueSet.from_members(7, [1, 2, 4])))
    report = crosscheck_characterization(g, 1)
    assert report.agree
    assert all(isinstance(pt.search_result, NoWitness) for pt in report.points)


PALEY7 = bipartify(cayley(7, ResidueSet.from_members(7, [1, 2, 4])))
K4_Q29 = bipartify(cayley(29, ResidueSet.from_members(29, [1, 7, 16, 20, 23, 24, 25])))


def _swap_labels_0_1(g):
    """``g`` with rows 0, 1 and columns 0, 1 swapped: the same game up to
    relabelling, but no longer invariant under the shift by one, so
    :func:`exhaustive_search` scans every row support. (Reversing the labels
    would keep a circulant game circulant.)"""

    def swap_bits(mask):
        return mask & ~3 | (mask & 1) << 1 | mask >> 1 & 1

    def swap_rows(rows):
        rows = [swap_bits(r) for r in rows]
        rows[0], rows[1] = rows[1], rows[0]
        return tuple(rows)

    return WinLoseGame(g.m, g.n, swap_rows(g.a_rows), swap_rows(g.b_rows))


PALEY7_SWAPPED = _swap_labels_0_1(PALEY7)
K4_Q29_SWAPPED = _swap_labels_0_1(K4_Q29)


@pytest.fixture()
def oracle_counts(monkeypatch):
    """Counts of support systems solved (cache misses of either player's
    system, by either solver), of those solved by Fourier-Motzkin, and of
    pairs that reach the full pair test."""
    import wsforge.wsne as wsne

    counts = {"systems": 0, "fm": 0, "pairs": 0}

    def count(holder, attr, key):
        original = getattr(holder, attr)

        def counted(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(holder, attr, counted)

    count(wsne._PlayerSystem, "_solve_system", "systems")
    count(wsne.feasibility, "feasible_point", "fm")
    count(wsne, "_witness", "pairs")
    return counts


def test_shift_invariance_detection():
    assert _shift_invariant(PALEY7) and _shift_invariant(K4_Q29)
    assert not _shift_invariant(PALEY7_SWAPPED) and not _shift_invariant(K4_Q29_SWAPPED)
    assert not _shift_invariant(ONES)  # n = 1: no orbit to reduce


def test_oracle_solves_each_cached_system_once(oracle_counts):
    # Pins the support oracle's cache keys on the full scan of a game that is
    # not shift-invariant: a key that stops matching shows here as extra
    # solved systems, not only as a slower benchmark. The scan itself, since
    # exhaustive_search refutes these games by the constant-sum lemma below 1/2.
    g = PALEY7_SWAPPED
    assert _scan(g, 2, F(1, 4)) == NoWitness(784)
    assert oracle_counts == {"systems": 77, "fm": 0, "pairs": 84}
    oracle_counts.update(systems=0, fm=0, pairs=0)
    p, q = _scan(g, 2, F(1, 2))
    assert check_wsne(g, p, q, F(1, 2)).valid
    assert oracle_counts == {"systems": 13, "fm": 0, "pairs": 1}
    oracle_counts.update(systems=0, fm=0, pairs=0)
    assert _scan(g, 3, F(1, 4)) == NoWitness(63**2)
    assert oracle_counts == {"systems": 987, "fm": 889, "pairs": 1204}


def test_orbit_scan_solves_one_row_support_per_orbit(oracle_counts):
    # Paley-7 itself is shift-invariant: 4 of its 28 row supports of size
    # <= 2 are least in their orbit, and a column table is built once per
    # orbit, for the same verdicts as the full scan above.
    assert _scan(PALEY7, 2, F(1, 4)) == NoWitness(784)
    assert oracle_counts == {"systems": 18, "fm": 0, "pairs": 12}
    oracle_counts.update(systems=0, fm=0, pairs=0)
    p, q = _scan(PALEY7, 2, F(1, 2))
    assert (p.support, q.support) == ((0, 1), (1, 3))
    assert check_wsne(PALEY7, p, q, F(1, 2)).valid
    assert oracle_counts == {"systems": 8, "fm": 0, "pairs": 1}
    oracle_counts.update(systems=0, fm=0, pairs=0)
    assert _scan(PALEY7, 3, F(1, 4)) == NoWitness(63**2)
    assert oracle_counts == {"systems": 164, "fm": 131, "pairs": 172}


def test_k4_pool_game_refutes_k2(oracle_counts):
    # The paper's k = 2 instance: the q = 29 Haight set of kappa 4, bipartified,
    # first relabelled so that the full scan runs, then as built.
    assert _scan(K4_Q29_SWAPPED, 2, F(1, 4)) == NoWitness(435**2)
    assert oracle_counts["pairs"] == 1218  # pairs passing every singleton condition
    p, q = _scan(K4_Q29_SWAPPED, 2, F(1, 2))
    assert check_wsne(K4_Q29_SWAPPED, p, q, F(1, 2)).valid
    oracle_counts.update(systems=0, fm=0, pairs=0)
    assert _scan(K4_Q29, 2, F(1, 4)) == NoWitness(435**2)
    assert oracle_counts == {"systems": 59, "fm": 0, "pairs": 42}
    p, q = _scan(K4_Q29, 2, F(1, 2))
    assert check_wsne(K4_Q29, p, q, F(1, 2)).valid


@pytest.mark.parametrize(
    "g, refuted",
    [(PALEY7, 784), (PALEY7_SWAPPED, 784), (K4_Q29, 435**2), (K4_Q29_SWAPPED, 435**2)],
    ids=["paley7", "paley7-swapped", "k4-q29", "k4-q29-swapped"],
)
def test_lemma_refutes_without_the_oracle(oracle_counts, g, refuted):
    # A & B = 0 and every pair of rows or columns is dominated, so below 1/2
    # the constant-sum lemma answers what the scan answers, solving nothing.
    assert _below_half(g, 2)
    assert _scan(g, 2, F(1, 4)) == NoWitness(refuted)
    oracle_counts.update(systems=0, fm=0, pairs=0)
    assert exhaustive_search(g, 2, F(1, 4)) == NoWitness(refuted)
    assert oracle_counts == {"systems": 0, "fm": 0, "pairs": 0}


def test_lemma_is_never_taken_at_one_half(oracle_counts):
    # At eps = 1/2 the lemma proves nothing: Paley-7's bipartite 4-cycle
    # gives a 1/2-WSNE, found by the scan.
    p, q = exhaustive_search(PALEY7, 2, F(1, 2))
    assert (p.support, q.support) == ((0, 1), (1, 3))
    assert check_wsne(PALEY7, p, q, F(1, 2)).valid
    assert oracle_counts["systems"] > 0


def test_crosscheck_solves_systems_where_the_lemma_holds(oracle_counts):
    # The characterization is checked against the exact systems, never
    # against the domination scan the lemma shares with it.
    assert _below_half(PALEY7, 1)
    report = crosscheck_characterization(PALEY7, 1)
    assert report.agree
    assert oracle_counts["systems"] > 0


def test_crosscheck_points_pinned():
    # Criterion 7's first 100 games, fast enough for every run: both solvers
    # of the support oracle (closed form and Fourier-Motzkin) feed it.
    assert crosscheck_digest(100) == (
        "fb3005e049add4e3ddec3ef2d38377dfddb02b13bb518ea931d3a77401e5cfbf"
    )


PALEY19 = bipartify(cayley(19, ResidueSet.from_members(19, [1, 4, 5, 6, 7, 9, 11, 16, 17])))


def test_paley19_scan_refutes_k3_at_49_100(oracle_counts):
    # No 49/100-WSNE with supports <= 3 on the 3-paradoxical Paley-19, decided
    # by the scan alone (exhaustive_search would apply the constant-sum
    # lemma), with most systems solved by Fourier-Motzkin.
    assert _scan(PALEY19, 3, F(49, 100)) == NoWitness(1343281)
    assert oracle_counts == {"systems": 8589, "fm": 8344, "pairs": 24375}


def _random_tournament_game(rng, n):
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in combinations(range(n), 2)]
    return bipartify(Digraph.from_arcs(n, arcs))


def _with_overlap(g, rng):
    """``g`` with one cell set in both A and B, so that A & B != 0."""
    i, j = rng.randrange(g.m), rng.randrange(g.n)
    a_rows, b_rows = list(g.a_rows), list(g.b_rows)
    a_rows[i] |= 1 << j
    b_rows[i] |= 1 << j
    return WinLoseGame(g.m, g.n, tuple(a_rows), tuple(b_rows))


# Paley-7 with an eighth row, A on columns 3..6 and B on columns 0..2, so
# A & B = 0 still. The in-neighbour sets of Paley-7's rows are the lines of
# a Fano plane; {0, 1, 2}, not a line, misses one of them (row 2's), so the
# row pair (2, 7) is undominated and the lemma does not apply at k = 2.
PALEY7_PLUS_ROW = WinLoseGame(8, 7, PALEY7.a_rows + (0b1111000,), PALEY7.b_rows + (0b0000111,))


def test_exhaustive_search_matches_the_scan():
    rng = random.Random(160)
    games = [PALEY7, bipartify(cayley(11, ResidueSet.from_members(11, [1, 3, 4, 5, 9]))), K4_Q29]
    games += [_random_tournament_game(rng, rng.randrange(3, 8)) for _ in range(150)]
    games += [
        _with_overlap(random_game(rng, m, m, ensure_out_degree=False), rng)
        for m in (rng.randrange(3, 7) for _ in range(20))
    ]
    games.append(PALEY7_PLUS_ROW)
    assert not _below_half(PALEY7_PLUS_ROW, 2) and _below_half(PALEY7_PLUS_ROW, 1)
    cases = Counter()
    for g in games:
        for k in (1, 2):
            lemma = _below_half(g, k)
            for eps in (F(0), F(1, 4), F(49, 100), F(1, 2)):
                got = exhaustive_search(g, k, eps)
                assert got == _scan(g, k, eps), (g, k, eps)
                cases[isinstance(got, NoWitness), lemma and eps < F(1, 2)] += 1
    # every lemma refutation is a refutation, and both routes are exercised
    assert cases[False, True] == 0
    assert cases[True, True] > 100 and cases[True, False] > 50 and cases[False, False] > 100


def _singletons_one_system_per_pattern(system, support):
    """The singleton table with one solved system per distinct opponent
    pattern, the rule the payoff-coverage shortcut replaces."""
    pats, _ = system._table(support)
    verdicts = {}
    mask = 0
    for t, pat in enumerate(pats):
        if pat not in verdicts:
            verdicts[pat] = system.strategy(support, (t,)) is not None
        if verdicts[pat]:
            mask |= 1 << t
    return mask


def test_singletons_match_one_system_per_pattern():
    from wsforge.wsne import _PlayerSystem, _supports, _systems

    rng = random.Random(93)
    decided = Counter()
    for _ in range(16):
        m, n = rng.randrange(2, 8), rng.randrange(2, 8)
        g = random_game(rng, m, n, p=rng.choice([0.2, 0.35, 0.5]), ensure_out_degree=False)
        for eps in (F(0), F(1, 4), F(1, 2), F(2, 3), F(1)):
            for system in _systems(g, eps):
                reference = _PlayerSystem(system.masks, system.size, eps)
                for support in _supports(range(system.size), 3):
                    got = system.singletons(support)
                    assert got == _singletons_one_system_per_pattern(reference, support), (
                        g, eps, support
                    )
                    bits = sum(1 << s for s in support)
                    uncovered = [t for t, mask in enumerate(system.masks) if not mask & bits]
                    if uncovered:
                        decided[all(got >> t & 1 for t in uncovered)] += 1
    # the one system per support decides both ways
    assert decided[True] > 1000 and decided[False] > 500


def _fm_system(dim, support_pats, maximal, eps):
    """The support system of _PlayerSystem written out row by row and solved
    by Fourier-Motzkin alone."""
    cons = [((F(1),) * dim, F(1)), ((F(-1),) * dim, F(-1))]
    cons += [(tuple(F(-(i == idx)) for i in range(dim)), F(0)) for idx in range(dim)]
    for sp in support_pats:
        for mp in maximal:
            if mp & ~sp:
                coeffs = tuple(F((mp >> i & 1) - (sp >> i & 1)) for i in range(dim))
                cons.append((coeffs, eps))
    return feasible_point(cons, dim)


def _nonempty_sets(items):
    return [s for size in range(1, len(items) + 1) for s in combinations(items, size)]


def test_closed_form_matches_fourier_motzkin_up_to_two_variables():
    from wsforge.wsne import _PlayerSystem

    # the closed form works in units of 1/(2b), so large denominators b too
    epsilons = sorted(
        {F(a, b) for b in range(1, 9) for a in range(2 * b + 1)}
        | {F(49, 100), F(99, 100), F(101, 100)}
    )
    checked = infeasible = 0
    for dim in (1, 2):
        patterns = range(1 << dim)
        for support_pats in _nonempty_sets(patterns):
            for maximal in _nonempty_sets(patterns):
                for eps in epsilons:
                    system = _PlayerSystem((), dim, eps)
                    got = system._solve_system(dim, frozenset(support_pats), maximal)
                    want = _fm_system(dim, support_pats, maximal, eps)
                    assert got == want, (dim, support_pats, maximal, eps)
                    if got is None:
                        infeasible += 1
                    else:
                        assert all(type(x) is Fraction for x in got)
                    checked += 1
    assert checked == 234 * len(epsilons)
    assert 0 < infeasible < checked


def _lexicographic_scan(g, k, eps):
    """Every support pair in lexicographic order through the full pair test,
    with no singleton tables."""
    from wsforge.wsne import _systems, _witness

    def supports(count):
        return sorted(s for size in range(1, k + 1) for s in combinations(range(count), size))

    systems = _systems(g, eps)
    col_supports = supports(g.n)
    refuted = 0
    for rows in supports(g.m):
        for cols in col_supports:
            found = _witness(*systems, rows, cols)
            if found is not None:
                return found
            refuted += 1
    return NoWitness(refuted)


def _found_as_lexicographic_scan(g, k, eps):
    """Assert that :func:`exhaustive_search` returns what the reference scan
    returns; True if that is a witness."""
    want = _lexicographic_scan(g, k, eps)
    got = exhaustive_search(g, k, eps)
    if isinstance(want, NoWitness):
        assert got == want, (g, k, eps)
        return False
    assert got == want, (g, k, eps)
    return True


def test_table_scan_matches_lexicographic_scan():
    rng = random.Random(62)
    witnesses = refuted = 0
    for _ in range(200):
        m = rng.randrange(1, 8)
        n = rng.choice([x for x in range(1, 8) if x != m])
        g = random_game(rng, m, n, p=rng.choice([0.2, 0.35, 0.5]), ensure_out_degree=False)
        if rng.random() < 0.6:  # (near) zero-sum: B the complement of A, maybe perturbed
            full = (1 << n) - 1
            flip = rng.choice([0, 0.1])
            flips = [sum(1 << j for j in range(n) if rng.random() < flip) for _ in range(m)]
            g = WinLoseGame(m, n, g.a_rows, tuple(~a & full ^ f for a, f in zip(g.a_rows, flips)))
        k = rng.randrange(1, min(m, n, 3) + 1)
        for eps in (F(0), F(1, 4), F(1, 2), F(2, 3), F(1)):
            if _found_as_lexicographic_scan(g, k, eps):
                witnesses += 1
            else:
                refuted += 1
    assert witnesses > 500 and refuted > 30


def _circulant_game(rng, n):
    """A seeded shift-invariant n x n game: random first rows of A and B
    rotated, or a bipartified Cayley digraph of a random generator set."""
    if rng.random() < 0.5:
        a0, b0 = rng.getrandbits(n), rng.getrandbits(n)
        rotated = [tuple(_rot(first, i, n) for i in range(n)) for first in (a0, b0)]
        return WinLoseGame(n, n, *rotated)
    ys = [y for y in range(1, n) if rng.random() < 0.4]
    return bipartify(cayley(n, ResidueSet.from_members(n, ys)))


def test_orbit_scan_matches_lexicographic_scan():
    # Shift-invariant games, and copies with one bit of B's last row flipped,
    # which must take the full scan. Even n gives supports such as (0, n/2)
    # that a nontrivial rotation fixes. k = 3 stops at n = 6: above it the
    # reference solves thousands of Fourier-Motzkin systems per refutation.
    rng = random.Random(71)
    witnesses = refuted = 0
    for n in range(2, 10):
        for _ in range(6):
            g = _circulant_game(rng, n)
            b_rows = list(g.b_rows)
            b_rows[-1] ^= 1 << rng.randrange(n)
            near = WinLoseGame(n, n, g.a_rows, tuple(b_rows))
            assert _shift_invariant(g) and not _shift_invariant(near)
            k = rng.randrange(1, min(n, 3 if n <= 6 else 2) + 1)
            for game in (g, near):
                for eps in (F(0), F(1, 4), F(1, 2), F(2, 3), F(1)):
                    if _found_as_lexicographic_scan(game, k, eps):
                        witnesses += 1
                    else:
                        refuted += 1
    assert witnesses > 400 and refuted > 40
