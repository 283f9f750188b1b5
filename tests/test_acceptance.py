"""Acceptance suite: one test per criterion, each printing a pass/fail line
and asserting its stated tolerance and time budget.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

The residue-set pools below were produced by this package's own searcher;
every entry is re-verified from scratch here before use, so the pools are
starting points, never trusted facts.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from conftest import (
    crosscheck_digest,
    fraction_payoffs,
    random_digraph,
    random_digraph_with_cycle,
    random_game,
    sumset,
)
from wsforge import (
    Digraph,
    KLCertificate,
    ResidueSet,
    bipartify,
    cayley,
    certify_kl,
    check_wsne,
    girth,
    is_complete_difference_set,
    is_dominated,
    power,
    satisfies_haight,
    shortest_cycle,
    to_bipartite_digraph,
    wsne_from_cycle,
    wsne_from_undominated,
)
from wsforge.cli import main
from wsforge.formats import read_certificate, read_game, reverify

F = Fraction

# Complete-difference sets with zero-free sumsets up to the named level,
# found by earlier versions of `wsforge search`: by a randomized hill climb
# above q = 20, and at q <= 20 by an exhaustive mode that returned the least
# bit-vector. Today's depth-first search returns supersets of the sets at
# q = 11 to 19, and its seeded restarts return other sets above q = 20.
K3_POOL = {
    7: (1, 2, 4),
    9: (1, 2, 3, 5),
    10: (1, 2, 3, 6),
    11: (1, 2, 3, 6),
    13: (1, 2, 3, 4, 7),
    15: (1, 2, 3, 4, 8),
    17: (1, 2, 3, 4, 5, 9),
    19: (1, 2, 3, 4, 5, 10),
    23: (6, 13, 14, 18, 19, 20, 22),
    31: (1, 7, 8, 9, 11, 16, 26, 27),
    41: (7, 12, 15, 19, 21, 31, 32, 37, 38),
    53: (2, 5, 18, 19, 23, 25, 29, 38, 50),
}
K4_POOL = {
    29: (1, 7, 16, 20, 23, 24, 25),
    36: (1, 3, 4, 10, 15, 19, 27),
    38: (5, 6, 7, 8, 12, 17, 29, 36, 37),
    39: (9, 12, 19, 24, 28, 34, 36, 37),
}


def _criterion(cid: int, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        print(f"criterion {cid}: FAIL [{time.perf_counter() - start:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {cid}: PASS [{elapsed:.2f}s / {budget:g}s] {detail}")
    assert elapsed < budget, f"criterion {cid} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------
# 1. Haight toolchain
# ---------------------------------------------------------------------------


def test_criterion_1_haight_toolchain(tmp_path):
    def body():
        for kappa, q_max, want_q, want_y in (
            (2, 3, 3, (1, 2)),
            (3, 7, 7, (1, 2, 4)),
        ):
            out = tmp_path / f"k{kappa}.json"
            code = main(
                ["search", "--kappa", str(kappa), "--q-min", "1",
                 "--q-max", str(q_max), "--out", str(out)]
            )
            assert code == 0
            env = read_certificate(out)
            assert env.payload["q"] == want_q
            assert tuple(env.payload["y"]) == want_y
            result = reverify(env)
            assert result.ok, result.detail
        return "kappa=2 at q=3 and kappa=3 at q=7, both re-verified from file"

    _criterion(1, 5.0, body)


# ---------------------------------------------------------------------------
# 2. Cayley-sumset bridge
# ---------------------------------------------------------------------------


def test_criterion_2_cayley_sumset_bridge():
    def body():
        cases = 0
        for q in range(1, 10):
            for bits in range(1, 1 << q):
                y = ResidueSet(q, bits)
                expected = next(
                    s for s in range(1, q + 1) if 0 in sumset(q, y.members(), s)
                )
                assert girth(cayley(q, y)) == expected
                cases += 1
        return f"{cases} nonempty generator sets, girth == first zero sumset level"

    _criterion(2, 60.0, body)


# ---------------------------------------------------------------------------
# 3. (3,2)-digraph certification
# ---------------------------------------------------------------------------


def test_criterion_3_paley_certification():
    def body():
        d = cayley(7, ResidueSet.from_members(7, [1, 2, 4]))
        cert = certify_kl(d, 3, 2)
        assert isinstance(cert, KLCertificate)
        assert cert.girth_found == 3
        assert sum(1 for pair in combinations(range(7), 2) if is_dominated(d, pair) is not None) == 21
        failure = certify_kl(d, 4, 2)
        assert not isinstance(failure, KLCertificate)
        assert failure.short_cycle is not None and len(failure.short_cycle) == 3
        for t, u in enumerate(failure.short_cycle):
            assert d.has_arc(u, failure.short_cycle[(t + 1) % 3])
        return "girth 3 + 21 dominated pairs certified; (4,2) refuted by a 3-cycle"

    _criterion(3, 1.0, body)


# ---------------------------------------------------------------------------
# 4. Power transfer
# ---------------------------------------------------------------------------


def _bfs_dist(d: Digraph, src: int, dst: int):
    if src == dst:
        return 0
    frontier = d.out[src]
    visited = 0
    steps = 1
    while frontier:
        if frontier >> dst & 1:
            return steps
        visited |= frontier
        nxt = 0
        m = frontier
        while m:
            u = (m & -m).bit_length() - 1
            nxt |= d.out[u]
            m &= m - 1
        frontier = nxt & ~visited
        steps += 1
    return None


def _augment_preserving_girth(rng: random.Random, d: Digraph, min_girth: int, tries: int) -> Digraph:
    """Add random arcs whose new cycles cannot be shorter than min_girth."""
    rows = list(d.out)
    for _ in range(tries):
        u = rng.randrange(d.n)
        v = rng.randrange(d.n)
        if u == v or rows[u] >> v & 1:
            continue
        cur = Digraph(d.n, tuple(rows))
        back = _bfs_dist(cur, v, u)
        if back is not None and back < min_girth - 1:
            continue
        rows[u] |= 1 << v
    return Digraph(d.n, tuple(rows))


def _complete_difference_generator(rng: random.Random, q: int) -> ResidueSet:
    members = list(range(1, q))
    rng.shuffle(members)
    while len(members) > 2:
        trimmed = members[:-1]
        if is_complete_difference_set(ResidueSet.from_members(q, trimmed)):
            members = trimmed
        else:
            break
    return ResidueSet.from_members(q, members)


def _seeded_transfer_cases():
    """50 seeded bases across girth scales 2, 3, and 4, each n <= 60."""
    cases = []
    for seed in range(50):
        rng = random.Random(1000 + seed)
        bucket = seed % 10
        if bucket < 6:
            q = rng.choice(sorted(K3_POOL))
            y = ResidueSet.from_members(q, K3_POOL[q])
            assert satisfies_haight(y, 3)
            d = _augment_preserving_girth(rng, cayley(q, y), 3, rng.randrange(0, q))
            target = (3, 2) if seed % 2 == 0 else (2, 3)
            cases.append((d, 3, target))
        elif bucket < 8:
            q = rng.randrange(3, 13)
            y = _complete_difference_generator(rng, q)
            assert satisfies_haight(y, 2)
            d = _augment_preserving_girth(rng, cayley(q, y), 2, rng.randrange(0, q))
            cases.append((d, 2, (2, 2)))
        else:
            q = rng.choice(sorted(K4_POOL))
            y = ResidueSet.from_members(q, K4_POOL[q])
            assert satisfies_haight(y, 4)
            d = _augment_preserving_girth(rng, cayley(q, y), 4, rng.randrange(0, 8))
            target = (4, 2) if seed % 2 == 0 else (2, 4)
            cases.append((d, 4, target))
    return cases


def test_criterion_4_power_transfer():
    def body():
        cases = _seeded_transfer_cases()
        assert len(cases) == 50
        for d, kappa_base, (k, l) in cases:
            assert d.n <= 60
            assert (k - 1) * (l - 1) + 1 == kappa_base
            base_cert = certify_kl(d, kappa_base, 2)
            assert isinstance(base_cert, KLCertificate), base_cert
            target_cert = certify_kl(power(d, l - 1), k, l)
            assert isinstance(target_cert, KLCertificate), (d.n, k, l, target_cert)
        scales = sorted({(k, l) for _, _, (k, l) in cases})
        return f"50 verified bases transferred; (k,l) scales {scales}"

    _criterion(4, 60.0, body)


# ---------------------------------------------------------------------------
# 5. Bipartite mapping laws
# ---------------------------------------------------------------------------


def test_criterion_5_bipartite_mapping_laws():
    def body():
        rng = random.Random(500)
        for _ in range(200):
            n = rng.randrange(2, 9)
            d = random_digraph_with_cycle(rng, n, p=rng.choice([0.2, 0.35, 0.5]))
            g = girth(d)
            h = to_bipartite_digraph(bipartify(d))
            gp = girth(h)
            assert gp is not None and gp % 2 == 0
            assert g <= gp <= 2 * ((g + 1) // 2)
            for l in range(1, min(3, n) + 1):
                for combo in combinations(range(n), l):
                    in_d = is_dominated(d, combo) is None
                    assert (is_dominated(h, combo) is None) == in_d
                    if is_dominated(h, [n + x for x in combo]) is None:
                        assert in_d
        return "200 digraphs: even girth in bracket, undominated sets transfer"

    _criterion(5, 30.0, body)


# ---------------------------------------------------------------------------
# 6. Uniform constructions
# ---------------------------------------------------------------------------


def _first_one_sided_undominated(g, h, max_size=3):
    for size in range(1, max_size + 1):
        for side, count, offset in (("row", g.m, 0), ("col", g.n, g.m)):
            if size > count:
                continue
            for combo in combinations(range(count), size):
                mask = -1
                for x in combo:
                    mask &= h.in_masks[offset + x]
                if mask == 0:
                    return side, combo
    return None


def _assert_tightness_contract(g, p, q, eps):
    verdict = check_wsne(g, p, q, eps)
    assert verdict.valid
    row_pay, col_pay = fraction_payoffs(g, p, q)
    tight = any(row_pay[i] == verdict.row_best - eps for i in p.support) or any(
        col_pay[j] == verdict.col_best - eps for j in q.support
    )
    if tight and eps >= F(1, 1000):
        assert not check_wsne(g, p, q, eps - F(1, 1000)).valid


def test_criterion_6_uniform_constructions():
    def body():
        rng = random.Random(600)
        built = 0
        while built < 200:
            n = rng.randrange(2, 11)
            d = random_digraph(rng, n, p=rng.choice([0.15, 0.3, 0.5]), ensure_min_out=True)
            g = bipartify(d)
            found = _first_one_sided_undominated(g, to_bipartite_digraph(g))
            if found is None:
                continue
            side, combo = found
            p, q, eps = wsne_from_undominated(g, side, combo)
            assert eps == F(1) - F(1, len(combo))
            _assert_tightness_contract(g, p, q, eps)
            built += 1

        rng = random.Random(601)
        built = 0
        while built < 200:
            g = random_game(rng, rng.randrange(2, 9), rng.randrange(2, 9))
            cyc = shortest_cycle(to_bipartite_digraph(g))
            if cyc is None or len(cyc) > 8:
                continue
            p, q, eps = wsne_from_cycle(g, cyc)
            assert eps == F(1) - F(2, len(cyc))
            _assert_tightness_contract(g, p, q, eps)
            built += 1
        return "200 undominated-set and 200 cycle constructions, exact at 1 - 1/k"

    _criterion(6, 30.0, body)


# ---------------------------------------------------------------------------
# 7. Characterization cross-check
# ---------------------------------------------------------------------------


# conftest.crosscheck_digest over criterion 7's 500 games: any change to the
# oracle that moves a witness probability or a refuted-pair count shows here,
# not only one that breaks agreement.
CROSSCHECK_DIGEST = "ea2965c9afc4f4585ea80161f711a684f0c7a7c3977550cfd6be0e48f90b6e03"


def test_criterion_7_characterization_crosscheck():
    def body():
        assert crosscheck_digest(500) == CROSSCHECK_DIGEST
        return "500 games x k in {1,2,3} x two eps points, all agree, witnesses as pinned"

    _criterion(7, 600.0, body)


# ---------------------------------------------------------------------------
# 8. End-to-end k=1 reproduction
# ---------------------------------------------------------------------------


def test_criterion_8_forge_k1_end_to_end(tmp_path):
    def body():
        game_path = tmp_path / "f.wl"
        cert_path = tmp_path / "f.json"
        code = main(
            ["forge", "--k", "1", "--eps", "99/100",
             "--out-game", str(game_path), "--out-cert", str(cert_path)]
        )
        assert code == 0
        g = read_game(game_path)
        triangle = cayley(3, ResidueSet.from_members(3, [2]))
        assert g == bipartify(triangle)

        env = read_certificate(cert_path)
        assert env.payload["pairs_refuted"] == 9

        # independent refutation: direct arithmetic over the 9 pure pairs
        eps = F(99, 100)
        a, b = g.a_matrix(), g.b_matrix()
        for i in range(3):
            for j in range(3):
                row_ok = F(a[i][j]) >= max(F(a[r][j]) for r in range(3)) - eps
                col_ok = F(b[i][j]) >= max(F(b[i][c]) for c in range(3)) - eps
                assert not (row_ok and col_ok)

        wit_path = tmp_path / "w.json"
        assert main(
            ["exhaust", "--game", str(game_path), "--k", "2", "--eps", "1/2",
             "--out", str(wit_path)]
        ) == 0
        wit = read_certificate(wit_path)
        assert wit.kind == "wsne_witness"
        p = [F(x) for x in wit.payload["p"]]
        q = [F(x) for x in wit.payload["q"]]
        assert sum(1 for x in p if x > 0) == 2
        assert sum(1 for x in q if x > 0) == 2
        assert reverify(wit).ok
        return "triangle game forged, 9 pure pairs refuted independently, k=2 witness found"

    _criterion(8, 1.0, body)


# ---------------------------------------------------------------------------
# 9. Stretch: forge --k 2 (reported, not asserted beyond the dichotomy)
# ---------------------------------------------------------------------------


def test_criterion_9_forge_k2_stretch(tmp_path):
    def body():
        game_path = tmp_path / "g2.wl"
        cert_path = tmp_path / "c2.json"
        code = main(
            ["forge", "--k", "2", "--eps", "3/4", "--budget", "60000",
             "--q-max", "40", "--seed", "0",
             "--out-game", str(game_path), "--out-cert", str(cert_path)]
        )
        assert code in (0, 3)
        if code == 0:
            env = read_certificate(cert_path)
            result = reverify(env)
            assert result.ok, result.detail
            return "kappa=5 base found; emitted certificate re-verified"
        assert not cert_path.exists()
        return "budget exhausted at the search stage (reported, certificate withheld)"

    _criterion(9, 600.0, body)
