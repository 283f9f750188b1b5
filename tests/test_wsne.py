"""Exact WSNE checking, the two uniform constructions, the support
feasibility oracle, exhaustive enumeration, and the characterization
cross-check."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest

from conftest import (
    criterion7_games,
    crosscheck_digest,
    fraction_check_wsne,
    fraction_payoffs,
    random_digraph,
    random_circulant_game,
    random_game,
    reference_crosscheck,
    reference_first_undominated_side,
    reference_pattern_table,
    SupportKeyedSystem,
)
from test_acceptance import K3_POOL, K4_POOL
from wsforge import (
    Digraph,
    MixedStrategy,
    NoWitness,
    ResidueSet,
    WinLoseGame,
    bipartify,
    cayley,
    check_wsne,
    crosscheck_characterization,
    exhaustive_search,
    shortest_cycle,
    to_bipartite_digraph,
    wsne_from_cycle,
    wsne_from_undominated,
)
from wsforge.feasibility import feasible_point
from wsforge.game import _first_undominated_side
from wsforge.wsne import (
    _below_half,
    _scaled,
    _scaled_payoffs,
    _scan,
    _scan_systems,
    _supports,
    _systems,
    _witness,
)

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


def test_strategy_built_directly_has_no_denominator_cap():
    # Only strategies read from a certificate are capped: a caller may pass
    # exhaustive_search an eps of any length, and its strategies with it.
    half = F(1, 2**300_000)
    assert MixedStrategy((1 - half, half)).probs == (1 - half, half)


def test_wrong_sum_too_long_to_print_names_its_denominator_size(int_digit_limit):
    int_digit_limit(4300)
    d1, d2 = 10**3000 + 1, 10**3000 + 3
    with pytest.raises(ValueError) as info:
        MixedStrategy((F(1, d1), F(1, d2)))
    assert str(info.value) == (
        "entries sum to a fraction too long to print"
        f" (common denominator {(d1 * d2).bit_length()} bits), expected exactly 1"
    )


def test_scaled_is_numerators_over_the_lcm():
    rng = random.Random(37)
    for _ in range(500):
        probs = [F(rng.randrange(0, 5), rng.choice([1, 2, 3, 4, 6, 9, 10**20, 10**20 + 1]))
                 for _ in range(rng.randrange(1, 9))]
        den = lcm(*[x.denominator for x in probs])
        assert _scaled(probs) == ([x.numerator * (den // x.denominator) for x in probs], den)


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
        (lambda: check_wsne(TRI_GAME, MixedStrategy.point_mass(0, 3), MixedStrategy.point_mass(0, 2), 0),
         "column strategy has 2 entries, game has 3 columns"),
        (lambda: wsne_from_undominated(TRI_GAME, "both", [0]), "side must be 'row' or 'col', got 'both'"),
        (lambda: wsne_from_undominated(TRI_GAME, "row", []), "undominated set must be nonempty"),
        (lambda: wsne_from_undominated(TRI_GAME, "col", [0, 3]), "indices outside [0, 3)"),
        (lambda: wsne_from_undominated(TRI_GAME, "row", [-1]), "indices outside [0, 3)"),
        (lambda: wsne_from_cycle(TRI_GAME, [6, 0]), "vertex 6 outside bipartite digraph"),
        (lambda: wsne_from_cycle(TRI_GAME, [-1, 0]), "vertex -1 outside bipartite digraph"),
    ],
)
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------


def exact_payoffs(g: WinLoseGame, p: MixedStrategy, q: MixedStrategy):
    """(Aq, p^T B) as Fractions, from the integer numerators and common
    denominators that check_wsne computes."""
    return tuple(tuple(F(x, den) for x in pay) for _, pay, den in _scaled_payoffs(g, p, q))


def test_payoffs_pure_1x1():
    row, col = exact_payoffs(ONES, MixedStrategy.point_mass(0, 1), MixedStrategy.point_mass(0, 1))
    assert row == (F(1),) and col == (F(1),)


def test_payoffs_triangle_example():
    p = MixedStrategy.uniform_on([0, 2], 3)
    q = MixedStrategy.uniform_on([1, 2], 3)
    row, col = exact_payoffs(TRI_GAME, p, q)
    assert row == (F(1, 2), F(1), F(1, 2))
    assert col == (F(0), F(1, 2), F(1, 2))


def test_payoffs_point_mass_reads_column():
    rng = random.Random(51)
    for _ in range(25):
        g = random_game(rng, rng.randrange(1, 6), rng.randrange(1, 6), ensure_out_degree=False)
        j = rng.randrange(g.n)
        q = MixedStrategy.point_mass(j, g.n)
        p = MixedStrategy.uniform_on(range(g.m), g.m)
        row, _ = exact_payoffs(g, p, q)
        assert row == tuple(F(g.a(i, j)) for i in range(g.m))


def test_payoffs_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^row strategy has 2 entries, game has 3 rows$"):
        check_wsne(TRI_GAME, MixedStrategy.point_mass(0, 2), MixedStrategy.point_mass(0, 3), 0)


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


def _mixed_denominator_strategy(rng: random.Random, size: int) -> MixedStrategy:
    """Random weights over a random support, some with large denominators,
    normalized: the entries keep different denominators, and some are 0."""
    support = rng.sample(range(size), rng.randrange(1, size + 1))
    weights = [F(rng.randrange(1, 9), rng.choice([1, 2, 3, 5, 7, 12, 10**20 + 1])) for _ in support]
    total = sum(weights)
    probs = [F(0)] * size
    for i, w in zip(support, weights):
        probs[i] = w / total
    return MixedStrategy(tuple(probs))


def _assert_exact_fields(verdict):
    numbers = [verdict.epsilon, verdict.row_best, verdict.col_best]
    for v in verdict.violations:
        numbers += [v.payoff, v.shortfall]
    assert all(type(x) is F for x in numbers), verdict


def test_check_matches_fraction_reference_seeded():
    # eps = 0, eps on a supported strategy's boundary (best - eps == its
    # payoff, which must pass), just below that boundary, and at random.
    rng = random.Random(53)
    boundaries = 0
    for _ in range(600):
        g = random_game(rng, rng.randrange(1, 9), rng.randrange(1, 9), ensure_out_degree=False)
        p = _mixed_denominator_strategy(rng, g.m)
        q = _mixed_denominator_strategy(rng, g.n)
        ref_row, ref_col = fraction_payoffs(g, p, q)
        row, col = exact_payoffs(g, p, q)
        assert (row, col) == (ref_row, ref_col)
        assert all(type(x) is F for x in row + col)
        gaps = [max(ref_row) - ref_row[i] for i in p.support]
        gaps += [max(ref_col) - ref_col[j] for j in q.support]
        edge = rng.choice(gaps)
        below = edge * (1 - F(1, rng.choice([2, 10**9 + 7, 10**30])))
        for eps in (0, edge, below, F(rng.randrange(0, 13), 12)):
            verdict = check_wsne(g, p, q, eps)
            assert verdict == fraction_check_wsne(g, p, q, eps)
            _assert_exact_fields(verdict)
        if edge > 0:
            boundaries += 1
            assert check_wsne(g, p, q, edge).valid == (edge == max(gaps))
            assert not check_wsne(g, p, q, below).valid
    assert boundaries > 200


def test_check_wall_clock_on_512_square():
    n = 512
    ones = (1 << n) - 1
    g = WinLoseGame(n, n, (ones,) * n, (ones,) * n)
    u = MixedStrategy.uniform_on(range(n), n)
    start = time.perf_counter()
    verdict = check_wsne(g, u, u, 0)
    assert time.perf_counter() - start < 1
    assert verdict == (True, F(0), F(1), F(1), ())


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


@pytest.mark.parametrize("side, indices, dominator", [("row", [0], 8), ("col", [0], 0), ("col", [1, 3], 3)])
def test_undominated_names_the_least_dominator(side, indices, dominator):
    # Bipartified Paley-7: r_i's in-neighbours are the columns c_j with
    # B[i][j] = 1 (ids 7 + j), c_j's the rows r_i with A[i][j] = 1.
    g = bipartify(cayley(7, ResidueSet.from_members(7, [1, 2, 4])))
    with pytest.raises(ValueError) as info:
        wsne_from_undominated(g, side, indices)
    assert str(info.value) == f"set is dominated (by bipartite vertex {dominator})"


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
# the support-pair test
# ---------------------------------------------------------------------------


def pair_witness(g: WinLoseGame, rows: tuple[int, ...], cols: tuple[int, ...], eps):
    """The scan's test of one support pair at eps: a witness pair of
    strategies, or None."""
    return _witness(*_systems(g), rows, cols, F(eps).as_integer_ratio())


def random_support(rng: random.Random, count: int, most: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(count), rng.randrange(1, min(count, most) + 1))))


def test_feasibility_pure_pair_infeasible():
    assert pair_witness(TRI_GAME, (0,), (0,), F(99, 100)) is None


def test_feasibility_cycle_supports_feasible():
    found = pair_witness(TRI_GAME, (0, 2), (1, 2), F(1, 2))
    assert found is not None
    p, q = found
    assert set(p.support) <= {0, 2} and set(q.support) <= {1, 2}
    assert check_wsne(TRI_GAME, p, q, F(1, 2)).valid


def test_feasibility_trivial_at_eps_one():
    rng = random.Random(55)
    for _ in range(20):
        g = random_game(rng, rng.randrange(1, 6), rng.randrange(1, 6), ensure_out_degree=False)
        found = pair_witness(g, random_support(rng, g.m, 3), random_support(rng, g.n, 3), 1)
        assert found is not None
        p, q = found
        assert check_wsne(g, p, q, 1).valid


def test_feasibility_monotone_in_eps():
    rng = random.Random(56)
    for _ in range(60):
        g = random_game(rng, rng.randrange(2, 7), rng.randrange(2, 7), ensure_out_degree=False)
        rows = tuple(sorted(rng.sample(range(g.m), rng.randrange(1, 3))))
        cols = tuple(sorted(rng.sample(range(g.n), rng.randrange(1, 3))))
        eps = F(rng.randrange(0, 4), 4)
        if pair_witness(g, rows, cols, eps) is not None:
            assert pair_witness(g, rows, cols, eps + F(1, 4)) is not None


def test_feasibility_witness_is_valid_wsne():
    rng = random.Random(57)
    for _ in range(80):
        g = random_game(rng, rng.randrange(2, 7), rng.randrange(2, 7), ensure_out_degree=False)
        rows, cols = random_support(rng, g.m, 3), random_support(rng, g.n, 3)
        eps = F(rng.randrange(0, 5), 6)
        found = pair_witness(g, rows, cols, eps)
        if found is not None:
            p, q = found
            assert set(p.support) <= set(rows)
            assert set(q.support) <= set(cols)
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
    assert PALEY7.shift_invariant and K4_Q29.shift_invariant
    assert not PALEY7_SWAPPED.shift_invariant and not K4_Q29_SWAPPED.shift_invariant
    assert not ONES.shift_invariant  # n = 1: no orbit to reduce


def test_oracle_solves_each_cached_system_once(oracle_counts):
    # Pins the support oracle's cache keys on the full scan of a game that is
    # not shift-invariant: a key that stops matching shows here as extra
    # solved systems, not only as a slower benchmark. The solved systems are
    # keyed by the system (size, patterns, maximal patterns), not by the
    # support, so the many supports of one system solve it once. The scan
    # itself, since exhaustive_search refutes these games by the
    # constant-sum lemma below 1/2.
    g = PALEY7_SWAPPED
    assert _scan(g, 2, F(1, 4)) == NoWitness(784)
    assert oracle_counts == {"systems": 5, "fm": 0, "pairs": 84}
    oracle_counts.update(systems=0, fm=0, pairs=0)
    p, q = _scan(g, 2, F(1, 2))
    assert check_wsne(g, p, q, F(1, 2)).valid
    assert oracle_counts == {"systems": 6, "fm": 0, "pairs": 1}
    oracle_counts.update(systems=0, fm=0, pairs=0)
    assert _scan(g, 3, F(1, 4)) == NoWitness(63**2)
    assert oracle_counts == {"systems": 40, "fm": 34, "pairs": 1204}


def test_orbit_scan_solves_one_row_support_per_orbit(oracle_counts):
    # Paley-7 itself is shift-invariant: 4 of its 28 row supports of size
    # <= 2 are least in their orbit, and a column table is built once per
    # orbit, for the same verdicts as the full scan above. The orbit cuts
    # the pairs tested, not the systems solved: both scans meet as many
    # distinct systems.
    assert _scan(PALEY7, 2, F(1, 4)) == NoWitness(784)
    assert oracle_counts == {"systems": 5, "fm": 0, "pairs": 12}
    oracle_counts.update(systems=0, fm=0, pairs=0)
    p, q = _scan(PALEY7, 2, F(1, 2))
    assert (p.support, q.support) == ((0, 1), (1, 3))
    assert check_wsne(PALEY7, p, q, F(1, 2)).valid
    assert oracle_counts == {"systems": 6, "fm": 0, "pairs": 1}
    oracle_counts.update(systems=0, fm=0, pairs=0)
    assert _scan(PALEY7, 3, F(1, 4)) == NoWitness(63**2)
    assert oracle_counts == {"systems": 40, "fm": 34, "pairs": 172}


def test_k4_pool_game_refutes_k2(oracle_counts):
    # The paper's k = 2 instance: the q = 29 Haight set of kappa 4, bipartified,
    # first relabelled so that the full scan runs, then as built. The orbit
    # scan's pair tests meet 5 distinct systems; keyed by the support, they
    # would be 59.
    assert _scan(K4_Q29_SWAPPED, 2, F(1, 4)) == NoWitness(435**2)
    assert oracle_counts["pairs"] == 1218  # pairs passing every singleton condition
    p, q = _scan(K4_Q29_SWAPPED, 2, F(1, 2))
    assert check_wsne(K4_Q29_SWAPPED, p, q, F(1, 2)).valid
    oracle_counts.update(systems=0, fm=0, pairs=0)
    assert _scan(K4_Q29, 2, F(1, 4)) == NoWitness(435**2)
    assert oracle_counts == {"systems": 5, "fm": 0, "pairs": 42}
    p, q = _scan(K4_Q29, 2, F(1, 2))
    assert check_wsne(K4_Q29, p, q, F(1, 2)).valid


def test_point_matches_the_support_keyed_cache():
    # Each player's points, cached by the system, against a cache keyed by
    # the support, which solves every support's system afresh: random games,
    # Paley-7 and the K4-pool games, at several eps. Supports are visited in
    # a random order, so that a point is often read from the cache after a
    # different support of the same system put it there.
    rng = random.Random(30)
    games = [random_game(rng, rng.randrange(1, 8), rng.randrange(1, 8), ensure_out_degree=False)
             for _ in range(30)]
    games += [random_circulant_game(rng, rng.randrange(2, 9)) for _ in range(10)]
    games += [PALEY7, PALEY7_SWAPPED]
    games += [bipartify(cayley(q, ResidueSet.from_members(q, ys))) for q, ys in K4_POOL.items()]
    shared = compared = 0
    for g in games:
        for system, (payers, width) in zip(_systems(g), ((g.b_rows, g.n), (g.a_col_masks, g.m))):
            reference = SupportKeyedSystem(payers, width)
            own = list(_supports(range(system.size), 3))
            opp = list(_supports(range(width), 3))
            pairs = [(rng.choice(own), rng.choice(opp)) for _ in range(100)]
            for eps in (F(0), F(1, 4), F(49, 100), F(1, 2), F(2, 3), F(1)):
                key = eps.as_integer_ratio()
                for support, opp_support in pairs:
                    got = system.point(support, opp_support, key)
                    assert got == reference.point(support, opp_support, key), (
                        g, support, opp_support, eps
                    )
                    compared += 1
            shared += len(reference._solved) - len(system._solved)
    # the reference solved more than ten thousand systems that point shared
    assert compared == 55_200 and shared > 10_000, (compared, shared)


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


def test_crosscheck_matches_two_independent_scans():
    # The cross-check against its two-scan reference, report for
    # report: criterion 7's first 100 games, then the K3/K4-pool Cayley
    # games (Paley-7 among them), whose scans are orbit-reduced.
    games = list(criterion7_games(100))
    games += [
        bipartify(cayley(q, ResidueSet.from_members(q, ys)))
        for pool in (K3_POOL, K4_POOL) for q, ys in pool.items()
    ]
    assert PALEY7 in games
    seen = Counter()
    for g in games:
        for k in (1, 2, 3):
            got, want = crosscheck_characterization(g, k), reference_crosscheck(g, k)
            assert got == want and repr(got) == repr(want), (g, k)
            refuted = tuple(isinstance(pt.search_result, NoWitness) for pt in got.points)
            seen[g.shift_invariant, refuted] += 1
    # the characterization holds at both points, so they never differ here
    assert set(seen) == {(s, (r, r)) for s in (False, True) for r in (False, True)}, seen


def test_two_eps_scan_matches_two_scans(oracle_counts):
    # One game's systems scanned at low < high, in both orders, against two
    # independent scans on random and circulant games: a witness at both
    # points, at high alone and at neither. Zero-sum games (B the complement
    # of A, both circulant when A is) refute often. The solved systems are
    # cached per eps: a scan at a new eps solves what an independent scan
    # solves, and a second scan at the same eps solves nothing.
    rng = random.Random(27)
    epsilons = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
    seen = Counter()
    resolved = 0
    for _ in range(400):
        if rng.random() < 0.4:
            g = random_circulant_game(rng, rng.randrange(2, 9))
        else:
            m, n = rng.randrange(1, 8), rng.randrange(1, 8)
            g = random_game(rng, m, n, p=rng.choice([0.2, 0.35, 0.5]), ensure_out_degree=False)
        if rng.random() < 0.6:
            full = (1 << g.n) - 1
            g = WinLoseGame(g.m, g.n, g.a_rows, tuple(~a & full for a in g.a_rows))
        k = rng.randrange(1, min(g.m, g.n, 3) + 1)
        low, high = sorted(rng.sample(epsilons, 2))
        want, solved = {}, {}
        for eps in (low, high):
            oracle_counts["systems"] = 0
            want[eps] = _scan(g, k, eps)
            solved[eps] = oracle_counts["systems"]
        for order in ((low, high), (high, low)):
            systems = _systems(g)
            for eps in order:
                for again in (False, True):
                    oracle_counts["systems"] = 0
                    got = _scan_systems(g, k, eps.as_integer_ratio(), systems)
                    assert got == want[eps] and repr(got) == repr(want[eps]), (g, k, order, eps)
                    assert oracle_counts["systems"] == (0 if again else solved[eps]), (
                        g, k, order, eps, again
                    )
            resolved += solved[order[1]] > 0
        seen[g.shift_invariant, tuple(isinstance(want[eps], NoWitness) for eps in (low, high))] += 1
    assert not any(refuted == (False, True) for _, refuted in seen)
    assert min(seen.values()) >= 5 and len(seen) == 6, seen
    # the second eps of a pair solves systems of its own, in every order
    assert resolved == 2 * 400, resolved


def test_crosscheck_builds_each_pattern_table_once(monkeypatch):
    # The two eps points share the pattern tables: in one call, each
    # player's table on a support is built at most once, where the two
    # independent scans of the reference build many of them twice.
    import wsforge.wsne as wsne

    builds = Counter()
    original = wsne._support_table

    def counted(payers, width, support):
        builds[id(payers), support] += 1
        return original(payers, width, support)

    monkeypatch.setattr(wsne, "_support_table", counted)
    one_pass = two_scans = 0
    for g in criterion7_games(30):
        for k in (1, 2, 3):
            builds.clear()
            crosscheck_characterization(g, k)
            assert set(builds.values()) == {1}, (g, k)
            one_pass += builds.total()
            builds.clear()
            reference_crosscheck(g, k)
            two_scans += builds.total()
    assert two_scans > 1.3 * one_pass, (one_pass, two_scans)


def test_crosscheck_searches_for_the_cycle_once_per_game(monkeypatch):
    # char_decision's shortest bipartite cycle does not depend on k: the
    # cross-checks of one game at k = 1, 2, 3 search for it once.
    import wsforge.game as game

    searches = [0]
    original = game._shortest_cycle

    def counted(d, symmetric):
        searches[0] += 1
        return original(d, symmetric)

    monkeypatch.setattr(game, "_shortest_cycle", counted)
    for g in criterion7_games(20):
        searches[0] = 0
        for k in (1, 2, 3):
            crosscheck_characterization(g, k)
        assert searches[0] == 1, g


def test_supports_are_the_sorted_combinations():
    rng = random.Random(29)
    index_lists = [range(size) for size in range(10)]
    index_lists += [sorted(rng.sample(range(20), size)) for size in range(10) for _ in range(3)]
    for indices in index_lists:
        for k in range(1, 5):
            want = sorted(s for size in range(1, k + 1) for s in combinations(indices, size))
            assert list(_supports(indices, k)) == want, (indices, k)


PALEY107 = bipartify(cayley(107, ResidueSet.from_members(107, {x * x % 107 for x in range(1, 107)})))


def test_paley107_witness_scan_builds_few_supports():
    # The scan stops at its witness, row support (0, 1), having generated
    # only the supports it reached. The tracemalloc peak reads 6.3 MiB;
    # building and sorting all 198,485 row supports of size <= 3 first
    # read 26-27 MiB.
    tracemalloc.start()
    try:
        p, q = exhaustive_search(PALEY107, 3, F(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.support == (0, 1) and check_wsne(PALEY107, p, q, F(1, 2)).valid
    assert peak < 10 * 2**20, peak


PALEY19 = bipartify(cayley(19, ResidueSet.from_members(19, [1, 4, 5, 6, 7, 9, 11, 16, 17])))


def test_paley19_scan_refutes_k3_at_49_100(oracle_counts):
    # No 49/100-WSNE with supports <= 3 on the 3-paradoxical Paley-19, decided
    # by the scan alone (exhaustive_search would apply the constant-sum
    # lemma). Its 24,375 pair tests meet 38 distinct systems, 32 of them
    # solved by Fourier-Motzkin; keyed by the support, they would be 8,589.
    assert _scan(PALEY19, 3, F(49, 100)) == NoWitness(1343281)
    assert oracle_counts == {"systems": 38, "fm": 32, "pairs": 24375}


PALEY23 = bipartify(cayley(23, ResidueSet.from_members(23, {x * x % 23 for x in range(1, 23)})))


def test_paley23_scan_refutes_k3_at_49_100(oracle_counts):
    # The same claim on Paley-23, a larger orbit scan: a cache key that
    # missed would solve thousands of systems here (16,825 keyed by the
    # support), not 38.
    assert _scan(PALEY23, 3, F(49, 100)) == NoWitness(4190209)
    assert oracle_counts == {"systems": 38, "fm": 32, "pairs": 62964}


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


def _opponent_masks(g):
    """For the row player, then the column player: each opponent strategy's
    payoffs over this player's strategies, read from the game's matrices
    (B's columns, then A's rows)."""
    a, b = g.a_matrix(), g.b_matrix()
    return (
        [sum(b[i][j] << i for i in range(g.m)) for j in range(g.n)],
        [sum(a[i][j] << j for j in range(g.n)) for i in range(g.m)],
    )


def _singletons_one_system_per_pattern(system, masks, support, eps):
    """The singleton table with one solved system per distinct opponent
    pattern, the rule the payoff-coverage shortcut replaces; the patterns
    are projected from the opponent's payoff ``masks``."""
    pats, _ = reference_pattern_table(masks, support)
    verdicts = {}
    mask = 0
    for t, pat in enumerate(pats):
        if pat not in verdicts:
            verdicts[pat] = system.point(support, (t,), eps) is not None
        if verdicts[pat]:
            mask |= 1 << t
    return mask


def test_singletons_match_one_system_per_pattern():
    from wsforge.wsne import _PlayerSystem

    rng = random.Random(93)
    decided = Counter()
    for _ in range(16):
        m, n = rng.randrange(2, 8), rng.randrange(2, 8)
        g = random_game(rng, m, n, p=rng.choice([0.2, 0.35, 0.5]), ensure_out_degree=False)
        for system, masks in zip(_systems(g), _opponent_masks(g)):
            for eps in ((0, 1), (1, 4), (1, 2), (2, 3), (1, 1)):  # as integer ratios
                reference = _PlayerSystem(system.payers, system.width)
                for support in _supports(range(system.size), 3):
                    got = system.singletons(support, eps)
                    assert got == _singletons_one_system_per_pattern(reference, masks, support, eps), (
                        g, eps, support
                    )
                    bits = sum(1 << s for s in support)
                    uncovered = [t for t, mask in enumerate(masks) if not mask & bits]
                    if uncovered:
                        decided[all(got >> t & 1 for t in uncovered)] += 1
    # the one system per support decides both ways
    assert decided[True] > 1000 and decided[False] > 500


def test_support_tables_match_the_projected_tables():
    # Each player's table on every support of size <= 3, split from its
    # payer masks, against the projections of the opponent's payoff masks
    # read from the game's matrices: every opponent strategy's pattern and
    # the maximal set. Non-square games, with rows of A and B all zero or
    # all one, so that some payer masks are empty or cover every opponent.
    rng = random.Random(94)
    seen = Counter()
    for _ in range(60):
        m = rng.randrange(1, 10)
        n = rng.choice([x for x in range(1, 10) if x != m])
        g = random_game(rng, m, n, p=rng.choice([0.2, 0.35, 0.5]), ensure_out_degree=False)
        full = (1 << n) - 1
        a_rows, b_rows = (
            tuple(rng.choice([0, full, row, row]) for row in rows) for rows in (g.a_rows, g.b_rows)
        )
        g = WinLoseGame(m, n, a_rows, b_rows)
        for player, system, masks in zip(("row", "col"), _systems(g), _opponent_masks(g)):
            for support in _supports(range(system.size), 3):
                pats, maximal = system._table(support)
                want_pats, want_maximal = reference_pattern_table(masks, support)
                assert pats == want_pats, (g, player, support)
                assert sorted(maximal) == sorted(want_maximal), (g, player, support)
                seen[player, len(support)] += 1
                seen[player, "several maximal"] += len(maximal) > 1
        seen["zero rows"] += 0 in a_rows + b_rows
        seen["full rows"] += full in a_rows + b_rows
    assert seen["zero rows"] > 20 and seen["full rows"] > 20, seen
    assert min(seen[player, size] for player in ("row", "col") for size in (1, 2, 3)) > 100, seen
    assert min(seen[player, "several maximal"] for player in ("row", "col")) > 50, seen


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
        system = _PlayerSystem((), dim)
        patterns = range(1 << dim)
        for support_pats in _nonempty_sets(patterns):
            for maximal in _nonempty_sets(patterns):
                for eps in epsilons:
                    pats = frozenset(support_pats)
                    got = system._solve_system(dim, pats, maximal, eps.as_integer_ratio())
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
    from wsforge.wsne import _witness

    def supports(count):
        return sorted(s for size in range(1, k + 1) for s in combinations(range(count), size))

    systems, ratio = _systems(g), eps.as_integer_ratio()
    col_supports = supports(g.n)
    refuted = 0
    for rows in supports(g.m):
        for cols in col_supports:
            found = _witness(*systems, rows, cols, ratio)
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


def test_orbit_scan_matches_lexicographic_scan():
    # Shift-invariant games, and copies with one bit of B's last row flipped,
    # which must take the full scan. Even n gives supports such as (0, n/2)
    # that a nontrivial rotation fixes. k = 3 stops at n = 6: above it the
    # reference solves thousands of Fourier-Motzkin systems per refutation.
    rng = random.Random(71)
    witnesses = refuted = 0
    for n in range(2, 10):
        for _ in range(6):
            g = random_circulant_game(rng, n)
            b_rows = list(g.b_rows)
            b_rows[-1] ^= 1 << rng.randrange(n)
            near = WinLoseGame(n, n, g.a_rows, tuple(b_rows))
            assert g.shift_invariant and not near.shift_invariant
            k = rng.randrange(1, min(n, 3 if n <= 6 else 2) + 1)
            for game in (g, near):
                for eps in (F(0), F(1, 4), F(1, 2), F(2, 3), F(1)):
                    if _found_as_lexicographic_scan(game, k, eps):
                        witnesses += 1
                    else:
                        refuted += 1
    assert witnesses > 400 and refuted > 40


def test_game_domination_scan_matches_the_full_scan():
    # _first_undominated_side reads the in-masks from the game and, on a
    # shift-invariant game, tries only each side's k-sets through index 0;
    # the reference scans every k-set in the bipartite digraph. The lemma
    # rests on that scan.
    rng = random.Random(26)
    games = [PALEY7, PALEY19, K4_Q29, PALEY7_SWAPPED, K4_Q29_SWAPPED]
    games += [
        bipartify(cayley(q, ResidueSet.from_members(q, ys)))
        for pool in (K3_POOL, K4_POOL) for q, ys in pool.items()
    ]
    for _ in range(80):
        g = random_circulant_game(rng, rng.randrange(2, 13))
        b_rows = list(g.b_rows)
        b_rows[-1] ^= 1 << rng.randrange(g.n)
        games += [g, WinLoseGame(g.n, g.n, g.a_rows, tuple(b_rows))]
    seen = Counter()
    for g in games:
        invariant = g.shift_invariant
        disjoint = not any(a & b for a, b in zip(g.a_rows, g.b_rows))
        for k in range(1, min(g.n, 3) + 1):
            want = reference_first_undominated_side(g, k)
            assert _first_undominated_side(g, k) == want, (g, k)
            assert _below_half(g, k) == (disjoint and want is None), (g, k)
            seen[invariant, None if want is None else want.side] += 1
    assert not PALEY7_SWAPPED.shift_invariant and not K4_Q29_SWAPPED.shift_invariant
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


PALEY67 = bipartify(cayley(67, ResidueSet.from_members(67, {x * x % 67 for x in range(1, 67)})))


def test_lemma_on_paley67_at_k4_tries_the_sets_through_0(sets_tried):
    # C(66, 3) sets per side, not C(67, 4): the lemma's premise holds at
    # k = 4, although the game has 6.7 * 10**11 support pairs of size <= 4.
    start = time.perf_counter()
    assert _below_half(PALEY67, 4)
    assert time.perf_counter() - start < 0.3
    assert sets_tried[0] == 2 * comb(66, 3)
