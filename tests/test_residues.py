"""Difference sets, sumsets, the zero-free condition, and the searcher.

Python-set sums and differences (``conftest.sumset`` and ``difference``) are
the oracle for the bitset convolutions throughout: the sumset step that
``is_complete_difference_set`` and ``satisfies_haight`` run.
"""

from __future__ import annotations

import random
import time
from math import gcd

import pytest

from conftest import SEARCH_PINS, difference, reference_dfs, sumset
from wsforge import (
    HaightCertificate,
    ResidueSet,
    SearchExhausted,
    SearchSpec,
    is_complete_difference_set,
    satisfies_haight,
    search_haight_set,
)
from wsforge import residues
from wsforge.formats import MAX_ORDER
from wsforge.residues import _dfs, _member_table, _sumset_step


def members_of(q: int, bits: int) -> tuple[int, ...]:
    return tuple(r for r in range(q) if bits >> r & 1)


def kernel_difference(q: int, members) -> tuple[int, ...]:
    """Y - Y by one sumset step at sign -1, as is_complete_difference_set
    computes it."""
    bits = sum(1 << r for r in set(members))
    return members_of(q, _sumset_step(bits, bits, q, -1))


def kernel_sumset(q: int, members, s: int) -> tuple[int, ...]:
    """(s)Y by s - 1 sumset steps, as satisfies_haight computes its levels."""
    bits = level = sum(1 << r for r in set(members))
    for _ in range(s - 1):
        level = _sumset_step(level, bits, q)
    return members_of(q, level)


# ---------------------------------------------------------------------------
# Construction and invariants of the type
# ---------------------------------------------------------------------------


def test_members_roundtrip():
    y = ResidueSet.from_members(7, [4, 1, 2])
    assert y.members() == (1, 2, 4)
    assert len(y) == 3
    assert 2 in y and 3 not in y and 9 not in y


def test_out_of_range_member_rejected():
    with pytest.raises(ValueError):
        ResidueSet.from_members(5, [5])
    with pytest.raises(ValueError):
        ResidueSet.from_members(5, [-1])
    with pytest.raises(ValueError):
        ResidueSet(0, 0)
    for bits in (1 << 5, -1):
        with pytest.raises(ValueError, match=r"^bit-vector has members outside \[0, modulus\)$"):
            ResidueSet(5, bits)


# ---------------------------------------------------------------------------
# difference sets
# ---------------------------------------------------------------------------


def test_difference_singleton():
    assert kernel_difference(7, [3]) == (0,)


def test_difference_empty():
    assert kernel_difference(5, []) == ()


def test_difference_full_example():
    assert kernel_difference(7, [1, 2, 4]) == (0, 1, 2, 3, 4, 5, 6)


def test_difference_matches_brute_force():
    rng = random.Random(11)
    for _ in range(200):
        q = rng.randrange(1, 16)
        members = tuple(sorted(rng.sample(range(q), rng.randrange(0, min(q, 6) + 1))))
        got = set(kernel_difference(q, members))
        assert got == difference(q, members)


def test_difference_contains_zero_and_negations():
    rng = random.Random(12)
    for _ in range(100):
        q = rng.randrange(2, 14)
        members = tuple(rng.sample(range(q), rng.randrange(1, q + 1)))
        d = kernel_difference(q, members)
        assert 0 in d
        for r in d:
            assert (q - r) % q in d


# ---------------------------------------------------------------------------
# sumsets
# ---------------------------------------------------------------------------


def test_sumset_identity_case():
    assert kernel_sumset(7, [1, 2, 4], 1) == (1, 2, 4)


def test_sumset_pairs_example():
    assert kernel_sumset(7, [1, 2, 4], 2) == (1, 2, 3, 4, 5, 6)


def test_sumset_triples_hit_zero():
    assert 0 in kernel_sumset(7, [1, 2, 4], 3)  # 1 + 2 + 4 = 7


def test_sumset_step_matches_brute_force_at_both_signs():
    rng = random.Random(19)
    for q in range(1, 41):
        full = (1 << q) - 1
        for acc, bits in [(0, 0), (0, full), (full, 0), (full, full), (1, full)] + [
            (rng.getrandbits(q), rng.getrandbits(q)) for _ in range(6)
        ]:
            a, b = members_of(q, acc), members_of(q, bits)
            for sign in (1, -1):
                want = {(x + sign * r) % q for x in a for r in b}
                assert set(members_of(q, _sumset_step(acc, bits, q, sign))) == want, (q, acc, bits, sign)
    # And every subset of Z_q, q <= 12, against the brute-force sumset and differences.
    for q in range(1, 13):
        for bits in range(1 << q):
            members = members_of(q, bits)
            assert set(members_of(q, _sumset_step(bits, bits, q))) == sumset(q, members, 2)
            assert set(members_of(q, _sumset_step(bits, bits, q, -1))) == difference(q, members)


def test_sumset_matches_brute_force():
    rng = random.Random(13)
    for _ in range(300):
        q = rng.randrange(1, 21)
        members = tuple(sorted(rng.sample(range(q), rng.randrange(0, min(q, 5) + 1))))
        s = rng.randrange(1, 5)
        got = set(kernel_sumset(q, members, s))
        assert got == sumset(q, members, s)


# ---------------------------------------------------------------------------
# completeness and the zero-free condition
# ---------------------------------------------------------------------------


def test_complete_difference_examples():
    assert is_complete_difference_set(ResidueSet.from_members(3, [1, 2]))
    assert is_complete_difference_set(ResidueSet.from_members(7, [1, 2, 4]))
    assert not is_complete_difference_set(ResidueSet.from_members(4, [0, 2]))


def test_satisfies_haight_examples():
    y = ResidueSet.from_members(7, [1, 2, 4])
    assert satisfies_haight(y, 3)
    assert not satisfies_haight(y, 4)  # 0 in (3)Y
    assert satisfies_haight(ResidueSet.from_members(3, [1, 2]), 2)


def test_satisfies_haight_rejects_small_kappa():
    with pytest.raises(ValueError):
        satisfies_haight(ResidueSet.from_members(3, [1]), 1)


def test_haight_monotone_in_kappa():
    rng = random.Random(14)
    for _ in range(150):
        q = rng.randrange(2, 14)
        y = ResidueSet.from_members(q, rng.sample(range(q), rng.randrange(1, q + 1)))
        kappa = rng.randrange(3, 7)
        if satisfies_haight(y, kappa):
            for smaller in range(2, kappa):
                assert satisfies_haight(y, smaller)


def test_unit_scaling_preserves_haight():
    rng = random.Random(16)
    for _ in range(150):
        q = rng.randrange(2, 14)
        members = rng.sample(range(q), rng.randrange(1, q + 1))
        y = ResidueSet.from_members(q, members)
        kappa = rng.randrange(2, 6)
        base = satisfies_haight(y, kappa)
        for u in range(1, q):
            if gcd(u, q) != 1:
                continue
            scaled = ResidueSet.from_members(q, [r * u % q for r in members])
            assert satisfies_haight(scaled, kappa) == base


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_kappa2_finds_q3():
    result = search_haight_set(SearchSpec(kappa=2, q_min=1, q_max=3))
    assert isinstance(result, HaightCertificate)
    assert result.modulus == 3
    assert result.y.members() == (1, 2)


def test_search_kappa3_finds_q7():
    result = search_haight_set(SearchSpec(kappa=3, q_min=2, q_max=7))
    assert isinstance(result, HaightCertificate)
    assert result.modulus == 7
    assert result.y.members() == (1, 2, 4)


def test_search_kappa3_small_moduli_exhausted():
    # The size bounds settle q <= 4 before any candidate is tried.
    result = search_haight_set(SearchSpec(kappa=3, q_min=2, q_max=4, budget=10**6))
    assert result == SearchExhausted(0)


def test_search_budget_respected():
    # No q <= 24 leaves room for a kappa = 5 set, and none exists at 25..30.
    result = search_haight_set(SearchSpec(kappa=5, q_min=2, q_max=30, budget=5))
    assert isinstance(result, SearchExhausted)
    assert result.candidates_evaluated == 5


def test_search_randomized_deterministic_and_verified():
    spec = SearchSpec(kappa=3, q_min=7, q_max=12, budget=50_000, seed=42, mode="randomized")
    a = search_haight_set(spec)
    b = search_haight_set(spec)
    assert isinstance(a, HaightCertificate)
    assert a == b
    assert satisfies_haight(a.y, 3)


def test_search_randomized_different_seed_still_valid():
    for seed in (0, 1, 2):
        spec = SearchSpec(kappa=3, q_min=7, q_max=12, budget=50_000, seed=seed, mode="randomized")
        result = search_haight_set(spec)
        assert isinstance(result, HaightCertificate)
        assert satisfies_haight(result.y, result.kappa)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(kappa=1, q_min=2, q_max=5)
    with pytest.raises(ValueError):
        SearchSpec(kappa=2, q_min=5, q_max=2)
    with pytest.raises(ValueError):
        SearchSpec(kappa=2, q_min=2, q_max=5, budget=0)
    with pytest.raises(ValueError):
        SearchSpec(kappa=2, q_min=2, q_max=5, mode="lucky")


@pytest.mark.parametrize("job", list(SEARCH_PINS), ids=lambda job: "-".join(map(str, job)))
def test_search_trajectory_pinned(job):
    kappa, q_min, q_max, mode, seed = job
    spec = SearchSpec(kappa, q_min, q_max, budget=10**6, seed=seed, mode=mode)
    result = search_haight_set(spec)
    q, members, evaluated = SEARCH_PINS[job]
    assert result == HaightCertificate(
        q, ResidueSet.from_members(q, members), kappa, candidates_evaluated=evaluated
    )


def test_search_budget_edge_at_q24():
    short = search_haight_set(SearchSpec(3, 24, 24, budget=11))
    assert short == SearchExhausted(11)
    found = search_haight_set(SearchSpec(3, 24, 24, budget=12))
    assert isinstance(found, HaightCertificate)
    assert found.candidates_evaluated == 12
    assert found.y.members() == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13)


def test_search_pins_run_fast():
    # All nine benchmark jobs take about 0.1 s in-process; a kernel
    # regression in either mode fails here before it reaches the benchmark.
    start = time.perf_counter()
    for kappa, q_min, q_max, mode, seed in SEARCH_PINS:
        search_haight_set(SearchSpec(kappa, q_min, q_max, budget=10**6, seed=seed, mode=mode))
    assert time.perf_counter() - start < 2


def test_randomized_search_finds_a_kappa4_set_for_every_seed():
    # Restarts cut at q^2 candidates leave no seed stuck in one unlucky
    # member order.
    for seed in range(12):
        result = search_haight_set(SearchSpec(4, 20, 45, budget=200_000, seed=seed, mode="randomized"))
        assert isinstance(result, HaightCertificate), seed
        assert 20 <= result.modulus <= 45 and satisfies_haight(result.y, 4), seed


def test_randomized_search_budget_edge():
    kappa, q_min, q_max, mode, seed = job = (4, 28, 40, "randomized", 0)
    q, members, evaluated = SEARCH_PINS[job]
    short = search_haight_set(SearchSpec(kappa, q_min, q_max, evaluated - 1, seed, mode))
    assert short == SearchExhausted(evaluated - 1)
    found = search_haight_set(SearchSpec(kappa, q_min, q_max, evaluated, seed, mode))
    assert found == HaightCertificate(q, ResidueSet.from_members(q, members), kappa, evaluated)


def test_dfs_matches_the_reference_kernel():
    # The same (bits, candidates) as the kernel that popped and pushed back
    # its parent for every sibling tried: members in increasing and in
    # shuffled order, cut at 1, 10 and q^2 candidates, at 10^5 for q = 27
    # and 47 at kappa >= 4 (trees of 10^4 to over 10^5 candidates), and at
    # the exact count of a tree that ended first and one less.
    rng = random.Random(24)
    cases = 0
    for q in range(2, 51):
        for kappa in range(2, 7):
            table = _member_table(q, kappa)
            shuffled = table[:]
            rng.shuffle(shuffled)
            for rows in (table, shuffled):
                members = [row[0] for row in rows]
                limits = [1, 10, q * q] + [10**5] * (q % 20 == 7 and kappa >= 4)
                for limit in limits:
                    want = reference_dfs(q, kappa, members, limit)
                    assert _dfs(q, kappa, rows, limit) == want, (q, kappa, members, limit)
                    cases += 1
                    if want[0] is not None:
                        for cut in (want[1], want[1] - 1):
                            got = _dfs(q, kappa, rows, cut)
                            assert got == reference_dfs(q, kappa, members, cut), (q, kappa, members, cut)
                            cases += 1
    assert cases > 2000


def test_kappa5_search_settles_25_to_33():
    assert search_haight_set(SearchSpec(5, 25, 33, budget=10**7)) == SearchExhausted(205868)


def test_kappa5_search_settles_25_to_40():
    # The settled range that ROADMAP item 1 quotes: 0.7-1.1 s in-process.
    assert search_haight_set(SearchSpec(5, 25, 40, budget=10**7)) == SearchExhausted(1330592)


@pytest.mark.parametrize("spec", [
    SearchSpec(5, 4000, MAX_ORDER, budget=10**5, mode="randomized"),
    SearchSpec(6, 4090, MAX_ORDER, budget=10**5),
], ids=["randomized", "exhaustive"])
def test_search_at_max_order_spends_its_budget_quickly(spec):
    # Each takes 0.2-0.3 s. Building the member tables of all 97 moduli of
    # 4000..4096 up front would add about 0.9 s and 280 MiB.
    start = time.perf_counter()
    assert search_haight_set(spec) == SearchExhausted(100_000)
    assert time.perf_counter() - start < 5


def test_randomized_search_builds_each_member_table_once(monkeypatch):
    built = []

    def counted(q, kappa):
        built.append(q)
        return _member_table(q, kappa)

    # This pinned job runs two restarts on every q in 28..39 before it finds
    # its set on the second one at q = 39.
    monkeypatch.setattr(residues, "_member_table", counted)
    q, members, evaluated = SEARCH_PINS[4, 28, 40, "randomized", 0]
    result = search_haight_set(SearchSpec(4, 28, 40, budget=10**6, seed=0, mode="randomized"))
    assert result.candidates_evaluated == evaluated
    assert built == list(range(28, 41))


def test_exhaustive_search_finds_a_set_exactly_when_one_exists():
    # Every subset of Z_q against satisfies_haight. With a budget that does
    # not bind, exhaustive mode either finds a set or proves that none
    # exists; randomized mode finds one wherever one exists, and otherwise
    # runs out of a small budget or settles q.
    for q in range(1, 15):
        for kappa in range(2, 6):
            exists = any(satisfies_haight(ResidueSet(q, bits), kappa) for bits in range(1 << q))
            result = search_haight_set(SearchSpec(kappa, q, q, budget=10**6))
            if exists:
                assert isinstance(result, HaightCertificate) and result.modulus == q, (q, kappa)
            else:
                assert isinstance(result, SearchExhausted), (q, kappa)
                assert result.candidates_evaluated < 10**6, (q, kappa)
            for seed in (0, 1):
                spec = SearchSpec(kappa, q, q, budget=10**4, seed=seed, mode="randomized")
                result = search_haight_set(spec)
                if exists:
                    assert isinstance(result, HaightCertificate) and result.modulus == q, (q, kappa, seed)
                else:
                    assert isinstance(result, SearchExhausted), (q, kappa, seed)


def test_satisfies_haight_matches_definition():
    # Every subset of Z_q against Y - Y = Z_q and 0 not in (s)Y for s < kappa,
    # both read off the brute-force sets.
    passed = 0
    for q in range(2, 12):
        for bits in range(1 << q):
            members = tuple(r for r in range(q) if bits >> r & 1)
            y = ResidueSet(q, bits)
            complete = len(difference(q, members)) == q
            first_zero = 1
            while first_zero < 6 and 0 not in sumset(q, members, first_zero):
                first_zero += 1
            for kappa in range(2, 7):
                want = complete and kappa <= first_zero
                assert satisfies_haight(y, kappa) == want, (q, members, kappa)
                passed += want
    assert passed > 0
