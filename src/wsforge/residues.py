"""Exact arithmetic over Z_q: difference sets, iterated sumsets, and a
budgeted search for generator sets whose differences cover all of Z_q while
every small sumset avoids zero.

A subset of Z_q is stored as a characteristic bit-vector packed into one
Python int, so difference sets and sumsets reduce to shift-and-or
convolutions: O(q^2 / wordsize) per sumset level. A sumset step doubles its
accumulator to 2q bits once, so each member costs one shift and one OR.

The randomized climb builds its tables once per removed member a, from the
differences and the sumset levels of Y minus a. One bit-parallel count over
the missing differences gives every b whose swap can still beat the best
score, and each of those costs one popcount and O(kappa^2) bit tests.

Exhaustive mode is a depth-first search that adds members in increasing
order and updates Y, -Y, Y - Y and the levels (s)Y, at O(kappa q / 64) word
operations per member tried. Its rules are proven, so it finds a set
exactly when one exists. Both modes skip the q that the size bounds rule out.
- Members have order >= kappa: y of order s puts s*y = 0 in (s)Y.
- A member that puts 0 in a level ends its branch: (s)Y grows with Y, and
  0 enters (s)Y' = (s)Y | ((s-1)Y' + y) iff -y is in (s-1)Y'.
- |Y| >= _min_size(q): the |Y|(|Y| - 1) nonzero differences cover q - 1.
- |Y| <= m = (q - 1) // (kappa - 1): Cay(Z_q, Y) has out-degree |Y| and
  girth >= kappa, and Hamidoune proved Caccetta-Haggkvist for such
  vertex-transitive digraphs: they have a cycle of length <= ceil(q / |Y|).
- c members and more than r(2c + r - 1) missing differences, r = m - c, end
  a branch: r more members form only 2rc + r(r - 1) new ordered pairs.
"""

from __future__ import annotations

import random
from math import gcd, isqrt
from typing import Callable, Iterable, NamedTuple, Union

__all__ = [
    "ResidueSet",
    "HaightCertificate",
    "SearchSpec",
    "SearchExhausted",
    "difference_set",
    "iterated_sumset",
    "is_complete_difference_set",
    "satisfies_haight",
    "shift_set",
    "search_haight_set",
]


class _Frozen:
    """Base of wsforge's validated immutable values, whose fields are their
    ``__slots__``: equal (same class) and hashed by field values, shown as
    ``Name(field=value, ...)``. Assigning or deleting a field raises
    AttributeError; ``__init__`` validates its arguments, then stores each
    with ``object.__setattr__``. It lives in this bottom layer so that no
    module loads only for it."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class ResidueSet(_Frozen):
    """Subset of Z_q; bit r of ``bits`` is set iff residue r is a member."""

    __slots__ = ("modulus", "bits")

    def __init__(self, modulus: int, bits: int = 0) -> None:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if bits < 0 or bits >> modulus != 0:
            raise ValueError("bit-vector has members outside [0, modulus)")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_members(cls, modulus: int, members: Iterable[int]) -> "ResidueSet":
        bits = 0
        for r in members:
            if not 0 <= r < modulus:
                raise ValueError(f"residue {r} outside [0, {modulus})")
            bits |= 1 << r
        return cls(modulus, bits)

    def members(self) -> tuple[int, ...]:
        return tuple(r for r in range(self.modulus) if self.bits >> r & 1)

    def __contains__(self, r: object) -> bool:
        return isinstance(r, int) and 0 <= r < self.modulus and bool(self.bits >> r & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.members())


class HaightCertificate(NamedTuple):
    """A set Y in Z_q with Y-Y = Z_q and 0 not in (s)Y for 1 <= s < kappa.

    The search returns one only after both conditions have been re-checked
    from scratch on the stored member list.
    """

    modulus: int
    y: ResidueSet
    kappa: int
    candidates_evaluated: int = 0


class SearchSpec(_Frozen):
    """Parameters for :func:`search_haight_set`."""

    __slots__ = ("kappa", "q_min", "q_max", "budget", "seed", "mode")

    def __init__(
        self, kappa: int, q_min: int, q_max: int, budget: int = 1_000_000, seed: int = 0,
        mode: str = "exhaustive",
    ) -> None:
        if kappa < 2:
            raise ValueError(f"kappa must be >= 2, got {kappa}")
        if not 1 <= q_min <= q_max:
            raise ValueError(f"need 1 <= q_min <= q_max, got [{q_min}, {q_max}]")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if mode not in ("exhaustive", "randomized"):
            raise ValueError(f"unknown mode {mode!r}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "q_min", q_min)
        object.__setattr__(self, "q_max", q_max)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "mode", mode)


class SearchExhausted(NamedTuple):
    """No candidate passed within the budget; says nothing about existence."""

    candidates_evaluated: int


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------


def _rot(bits: int, shift: int, q: int) -> int:
    """Rotate a q-bit vector left by ``shift``: residue r maps to r+shift mod q."""
    shift %= q
    if shift == 0:
        return bits
    mask = (1 << q) - 1
    return ((bits << shift) | (bits >> (q - shift))) & mask


def _sumset_step(acc: int, bits: int, q: int, sign: int = 1) -> int:
    """acc (+) sign * bits: every a + sign * r for a in acc and r in bits.

    acc is doubled to 2q bits once, so each member r costs one shift, by
    q - r for sign +1 and by r for sign -1, and the sum is masked once."""
    acc2 = acc | acc << q
    base = q if sign > 0 else 0
    out = 0
    b = bits
    while b:
        r = (b & -b).bit_length() - 1
        out |= acc2 >> (base - sign * r)
        b &= b - 1
    return out & ((1 << q) - 1)


def _diff_bits(bits: int, q: int) -> int:
    return _sumset_step(bits, bits, q, -1)


def difference_set(y: ResidueSet) -> ResidueSet:
    """Return { (a - b) mod q : a, b in Y }; empty for empty Y."""
    return ResidueSet(y.modulus, _diff_bits(y.bits, y.modulus))


def iterated_sumset(y: ResidueSet, s: int) -> ResidueSet:
    """Return (s)Y, all sums of s members with repetition, reduced mod q.

    Computed iteratively as (s)Y = (s-1)Y (+) Y. Rejects s = 0, which is
    undefined here.
    """
    if s < 1:
        raise ValueError(f"sumset order must be >= 1, got {s}")
    acc = y.bits
    for _ in range(s - 1):
        acc = _sumset_step(acc, y.bits, y.modulus)
    return ResidueSet(y.modulus, acc)


def is_complete_difference_set(y: ResidueSet) -> bool:
    """True iff Y - Y covers every residue of Z_q."""
    return _diff_bits(y.bits, y.modulus) == (1 << y.modulus) - 1


def satisfies_haight(y: ResidueSet, kappa: int) -> bool:
    """True iff Y - Y = Z_q and 0 is not in (s)Y for every 1 <= s <= kappa-1.

    The s = 1 level forces 0 not in Y itself.
    """
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    return _objective(y.modulus, y.bits, kappa, 1) == 0


def shift_set(x: ResidueSet, y: int) -> ResidueSet:
    """Return { (a - y) mod q : a in X }; preserves the difference set exactly."""
    if not 0 <= y < x.modulus:
        raise ValueError(f"shift {y} outside [0, {x.modulus})")
    return ResidueSet(x.modulus, _rot(x.bits, x.modulus - y, x.modulus))


def _objective(q: int, bits: int, kappa: int, bar: int) -> int:
    """Missing differences plus violated sumset levels, zero iff Y qualifies,
    when that is below ``bar``; otherwise some value >= ``bar``: the levels
    are built only while the count stays below it. ``bar = 1`` decides the
    Haight conditions, and ``bar = q + kappa`` gives the exact value."""
    total = q - _diff_bits(bits, q).bit_count()
    acc = bits  # (s)Y at level s
    for s in range(1, kappa):
        if total >= bar:
            break
        if s > 1:
            acc = _sumset_step(acc, bits, q)
        total += acc & 1
    return total


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _scale_bits(bits: int, u: int, q: int) -> int:
    out = 0
    b = bits
    while b:
        r = (b & -b).bit_length() - 1
        out |= 1 << (r * u % q)
        b &= b - 1
    return out


def _min_size(q: int) -> int:
    # Need |Y| * (|Y| - 1) + 1 >= q for the differences to have a chance.
    k = (1 + isqrt(4 * q - 3)) // 2
    while k * (k - 1) + 1 < q:
        k += 1
    return k


def _verified_certificate(q: int, bits: int, kappa: int, evaluated: int) -> HaightCertificate:
    fresh = ResidueSet.from_members(q, [r for r in range(q) if bits >> r & 1])
    if not satisfies_haight(fresh, kappa):
        raise AssertionError("search produced a candidate that fails re-verification")
    return HaightCertificate(q, fresh, kappa, candidates_evaluated=evaluated)


def _moduli(spec: SearchSpec) -> list[int]:
    # A member's order is at most q, and a set has between _min_size(q) and
    # (q - 1) // (kappa - 1) members.
    k = spec.kappa
    return [q for q in range(max(spec.q_min, k), spec.q_max + 1) if _min_size(q) <= (q - 1) // (k - 1)]


def _search_exhaustive(spec: SearchSpec) -> Union[HaightCertificate, SearchExhausted]:
    kappa, evaluated = spec.kappa, 0
    for q in _moduli(spec):
        most = (q - 1) // (kappa - 1)
        members = [y for y in range(1, q) if q // gcd(y, q) >= kappa]
        # A node: Y, -Y, Y - Y, the levels (s)Y for 1 <= s <= kappa - 2, and
        # the index in members of its next child.
        stack = [(0, 0, 1, (0,) * (kappa - 2), 0)]
        while stack:
            bits, neg, diffs, levels, i = stack.pop()
            if i == len(members):
                continue
            stack.append((bits, neg, diffs, levels, i + 1))
            if evaluated >= spec.budget:
                return SearchExhausted(evaluated)
            evaluated += 1
            y = members[i]
            grown, prev = [], 1  # (s)Y' = (s)Y | ((s-1)Y' + y), from (0)Y' = {0}
            for lev in levels:
                prev = lev | _rot(prev, y, q)
                grown.append(prev)
            # 0 enters (s)Y' iff -y is in (s-1)Y'.
            if any(lev >> (q - y) & 1 for lev in grown):
                continue
            bits |= 1 << y
            neg |= 1 << (q - y)
            diffs |= _rot(bits, q - y, q) | _rot(neg, y, q)
            missing = q - diffs.bit_count()
            if not missing:
                return _verified_certificate(q, bits, kappa, evaluated)
            size = bits.bit_count()
            left = most - size
            if missing <= left * (2 * size + left - 1):
                stack.append((bits, neg, diffs, grown, i + 1))
    return SearchExhausted(evaluated)


def _swap_scorer(
    q: int, kappa: int, ya: int
) -> tuple[Callable[[int, int], int], Callable[[int], int]]:
    """Scorers for the sets Y' = Ya + {b}, b not in Ya, built once from Ya.

    ``score(b, bar)`` keeps the contract of ``_objective(q, Y', kappa, bar)``:
    the exact value when that is below ``bar``, and some value >= ``bar``
    otherwise. The tables are D_a = (Ya - Ya) + {0}, Ya and -Ya doubled to
    2q bits (so a rotation is one shift and a mask), and the levels
    L_0 = {0}, L_1 = Ya, ..., L_{kappa-1} = (kappa-1)Ya. Then
    Y' - Y' = D_a + (b - Ya) + (Ya - b), and 0 is in sY' iff -j*b is in
    L_{s-j} for some j in 0..s. So a swap costs one popcount and at most
    kappa*(kappa-1)/2 bit tests, where ``_objective`` takes |Y'| rotations
    per level.

    ``contenders(bar)`` is the bit-vector of the b whose missing differences
    plus the levels of Ya that already hold 0 stay below ``bar``: a superset
    of the b that ``score`` puts below it. A difference m missing from D_a
    is covered by exactly the b in C_m = (Ya + m) | (Ya - m), so one
    bit-sliced count over the C_m serves every b at once: within[j] is the
    set of b with at most j of them uncovered. Lower bars, as the climb
    improves, index the same count.
    """
    mask = (1 << q) - 1
    d_a = _diff_bits(ya, q) | 1
    neg = _scale_bits(ya, q - 1, q)
    neg2 = neg | neg << q
    ya2 = ya | ya << q
    levels = [1, ya]
    for _ in range(kappa - 2):
        levels.append(_sumset_step(levels[-1], ya, q))
    # Levels that already hold 0 (j = 0) count for every b; for the others,
    # the tests (L_{s-j}, j) for j = 1..s.
    fixed = sum(lev & 1 for lev in levels[1:])
    open_levels = [
        [(levels[s - j], j) for j in range(1, s + 1)] for s in range(1, kappa) if not levels[s] & 1
    ]
    missing = q - d_a.bit_count()
    within: list[int] = []

    def score(b: int, bar: int) -> int:
        total = q - ((d_a | neg2 >> (q - b) | ya2 >> b) & mask).bit_count() + fixed
        for tests in open_levels:
            if total >= bar:
                break
            for lev, j in tests:
                if lev >> (-j * b % q) & 1:
                    total += 1
                    break
        return total

    def contenders(bar: int) -> int:
        nonlocal within
        limit = bar - fixed - 1
        if limit < 0:
            return 0
        if limit >= missing:
            return mask
        if len(within) <= limit:
            within = [mask] * (limit + 1)
            for m in range(1, q):
                if d_a >> m & 1:
                    continue
                cover = ya2 >> (q - m) | ya2 >> m
                for j in range(limit, 0, -1):
                    within[j] = within[j - 1] | within[j] & cover
                within[0] &= cover
        return within[limit]

    return score, contenders


def _hill_climb(q: int, kappa: int, rng: random.Random, budget_left: int) -> tuple[int, int]:
    """One seeded steepest-descent restart over single-element swaps.

    Returns (bits or 0, evaluations spent). 0 residues are never used as
    members: they fail the s = 1 level outright.

    ``_objective`` scores the start set. Each step then builds the scorers
    of ``_swap_scorer`` once per removed member a (the differences and the
    sumset levels of Y minus a), and scores the swaps of a for b against the
    best score so far: the steepest descent needs no exact score for a swap
    that cannot win. Only the contenders are scored, in increasing b, and
    each improvement narrows them to the contenders of the new bar. Every
    swap counts as one evaluation, scored or not; when the swaps of a member
    would run past the budget, the climb spends the rest of it and returns
    0, as a swap-by-swap count would.
    """
    size = min(q - 1, _min_size(q) + rng.randrange(3))
    bits = sum(1 << r for r in rng.sample(range(1, q), size))
    spent = 1
    score = _objective(q, bits, kappa, q + kappa)
    # Swaps keep |Y|, so every removed member has the same number of partners.
    free_count = q - 1 - size
    while score > 0:
        best = 0
        bar = score  # a swap is taken only if it scores below this
        free = ((1 << q) - 2) & ~bits
        for a in range(1, q):
            if not bits >> a & 1:
                continue
            if spent + free_count > budget_left:
                return 0, budget_left
            spent += free_count
            ya = bits ^ (1 << a)
            swap_score, contenders = _swap_scorer(q, kappa, ya)
            left = free & contenders(bar)
            while left:
                low = left & -left
                left ^= low
                cand_score = swap_score(low.bit_length() - 1, bar)
                if cand_score < bar:
                    bar = cand_score
                    best = ya | low
                    left &= contenders(bar)
        if not best:
            return 0, spent  # local minimum
        score, bits = bar, best
    return bits, spent


def _search_randomized(spec: SearchSpec) -> Union[HaightCertificate, SearchExhausted]:
    qs = _moduli(spec)
    if not qs:
        return SearchExhausted(0)
    rngs = {q: random.Random((spec.seed + 1) * 0x9E3779B97F4A7C15 + q) for q in qs}
    evaluated = 0
    while evaluated < spec.budget:
        for q in qs:
            left = spec.budget - evaluated
            if left <= 0:
                break
            # Every restart spends at least one evaluation, so this ends.
            bits, spent = _hill_climb(q, spec.kappa, rngs[q], left)
            evaluated += spent
            if bits:
                return _verified_certificate(q, bits, spec.kappa, evaluated)
    return SearchExhausted(evaluated)


def search_haight_set(spec: SearchSpec) -> Union[HaightCertificate, SearchExhausted]:
    """Search Z_q for q in [q_min, q_max] for a set certified by ``kappa``.

    Exhaustive mode runs the module docstring's pruned depth-first search on
    each Z_q in turn, one candidate per member tried; randomized mode runs
    seeded steepest-descent restarts round-robin over the moduli, one
    candidate per swap. Every returned certificate has been re-checked from
    scratch. SearchExhausted means "not found within budget"; from exhaustive
    mode, a count below the budget proves that no Z_q in the range holds one.
    """
    if spec.mode == "exhaustive":
        return _search_exhaustive(spec)
    return _search_randomized(spec)
