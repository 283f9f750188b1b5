"""Difference sets, sumsets, the zero-free condition, and the searcher.

Brute-force enumeration over ordered tuples is the oracle for the bitset
convolutions throughout.
"""

from __future__ import annotations

import random
import time
from itertools import product
from math import gcd

import pytest

from conftest import SEARCH_PINS
from wsforge import (
    HaightCertificate,
    ResidueSet,
    SearchExhausted,
    SearchSpec,
    difference_set,
    is_complete_difference_set,
    iterated_sumset,
    satisfies_haight,
    search_haight_set,
    shift_set,
)
from wsforge.residues import _sumset_step


def brute_difference(q: int, members: tuple[int, ...]) -> set[int]:
    return {(a - b) % q for a in members for b in members}


def brute_sumset(q: int, members: tuple[int, ...], s: int) -> set[int]:
    return {sum(t) % q for t in product(members, repeat=s)}


def members_of(q: int, bits: int) -> tuple[int, ...]:
    return tuple(r for r in range(q) if bits >> r & 1)


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
# difference_set
# ---------------------------------------------------------------------------


def test_difference_singleton():
    assert difference_set(ResidueSet.from_members(7, [3])).members() == (0,)


def test_difference_empty():
    assert difference_set(ResidueSet(5, 0)).members() == ()


def test_difference_full_example():
    y = ResidueSet.from_members(7, [1, 2, 4])
    assert difference_set(y).members() == (0, 1, 2, 3, 4, 5, 6)


def test_difference_matches_brute_force():
    rng = random.Random(11)
    for _ in range(200):
        q = rng.randrange(1, 16)
        members = tuple(sorted(rng.sample(range(q), rng.randrange(0, min(q, 6) + 1))))
        got = set(difference_set(ResidueSet.from_members(q, members)).members())
        assert got == brute_difference(q, members)


def test_difference_contains_zero_and_negations():
    rng = random.Random(12)
    for _ in range(100):
        q = rng.randrange(2, 14)
        members = tuple(rng.sample(range(q), rng.randrange(1, q + 1)))
        d = difference_set(ResidueSet.from_members(q, members))
        assert 0 in d
        for r in d.members():
            assert (q - r) % q in d


# ---------------------------------------------------------------------------
# iterated_sumset
# ---------------------------------------------------------------------------


def test_sumset_identity_case():
    y = ResidueSet.from_members(7, [1, 2, 4])
    assert iterated_sumset(y, 1) == y


def test_sumset_pairs_example():
    y = ResidueSet.from_members(7, [1, 2, 4])
    assert iterated_sumset(y, 2).members() == (1, 2, 3, 4, 5, 6)


def test_sumset_triples_hit_zero():
    y = ResidueSet.from_members(7, [1, 2, 4])
    assert 0 in iterated_sumset(y, 3)  # 1 + 2 + 4 = 7


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
            assert set(members_of(q, _sumset_step(bits, bits, q))) == brute_sumset(q, members, 2)
            assert set(members_of(q, _sumset_step(bits, bits, q, -1))) == brute_difference(q, members)


def test_sumset_rejects_zero_order():
    with pytest.raises(ValueError):
        iterated_sumset(ResidueSet.from_members(3, [1]), 0)


def test_sumset_matches_brute_force():
    rng = random.Random(13)
    for _ in range(300):
        q = rng.randrange(1, 21)
        members = tuple(sorted(rng.sample(range(q), rng.randrange(0, min(q, 5) + 1))))
        s = rng.randrange(1, 5)
        got = set(iterated_sumset(ResidueSet.from_members(q, members), s).members())
        assert got == brute_sumset(q, members, s)


# ---------------------------------------------------------------------------
# completeness, the zero-free condition, shifts
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


def test_shift_examples():
    y = ResidueSet.from_members(7, [1, 2, 4])
    assert shift_set(y, 0) == y
    assert shift_set(y, 1).members() == (0, 1, 3)
    assert shift_set(ResidueSet.from_members(5, [0]), 2).members() == (3,)
    for shift in (-1, 7):
        with pytest.raises(ValueError, match=rf"^shift {shift} outside \[0, 7\)$"):
            shift_set(y, shift)


def test_shift_preserves_difference_set():
    rng = random.Random(15)
    for _ in range(100):
        q = rng.randrange(2, 14)
        x = ResidueSet.from_members(q, rng.sample(range(q), rng.randrange(1, q + 1)))
        for y in range(q):
            assert difference_set(shift_set(x, y)) == difference_set(x)


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
            complete = len(brute_difference(q, members)) == q
            first_zero = 1
            while first_zero < 6 and 0 not in brute_sumset(q, members, first_zero):
                first_zero += 1
            for kappa in range(2, 7):
                want = complete and kappa <= first_zero
                assert satisfies_haight(y, kappa) == want, (q, members, kappa)
                passed += want
    assert passed > 0
