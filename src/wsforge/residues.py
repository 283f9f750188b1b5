"""Exact arithmetic over Z_q: the Haight conditions (Y - Y covers Z_q,
and no small sumset of Y holds zero) and a budgeted search for generator
sets that meet them.

A subset of Z_q is stored as a characteristic bit-vector packed into one
Python int, so the difference set and the sumset levels that the
conditions test reduce to shift-and-or convolutions: O(q^2 / wordsize) per
sumset level. A sumset step doubles its accumulator to 2q bits once, so
each member costs one shift and one OR.

The search is depth-first: it adds members in list order and updates Y,
-Y, Y - Y, the levels (s)Y and the reflected levels -(s)Y. A member that
the mask of the reflected levels rejects costs one AND; one that passes
costs O(kappa q / 64) word operations, and a descent into it as much again.
Its rules are proven and do not depend on the order, so a finished tree
proves that Z_q holds no set. Exhaustive mode runs it once per modulus
with the members in increasing order; randomized mode runs seeded restarts
of it on shuffled members (Gomes, Selman and Kautz 1998). Both modes skip
the q that the size bounds rule out.
- Members have order >= kappa: y of order s puts s*y = 0 in (s)Y.
- A member that puts 0 in a level ends its branch: (s)Y grows with Y, and
  0 enters (s)Y' = (s)Y | ((s-1)Y' + y) iff -y is in (s-1)Y'.
- A member y in -(s)Y for some 1 <= s <= kappa - 2 ends its branch too:
  0 is in (s)Y + y, which lies in (s+1)Y', and s + 1 <= kappa - 1. Each
  open node keeps the union of these -(s)Y as one mask, and a descent grows
  them as -(s)Y' = -(s)Y | (-(s-1)Y' - y) from -(0)Y' = {0}. The mask is
  only a necessary test: 0 can also enter through two or more copies of y
  (as when -2y is in Y), which the level update finds.
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
from typing import Iterable, NamedTuple, Union

from . import _Frozen

__all__ = [
    "ResidueSet",
    "HaightCertificate",
    "SearchSpec",
    "SearchExhausted",
    "is_complete_difference_set",
    "satisfies_haight",
    "search_haight_set",
]


class ResidueSet(_Frozen):
    """Subset of Z_q; bit r of ``bits`` is set iff residue r is a member."""

    __slots__ = ("modulus", "bits")

    def __init__(self, modulus: int, bits: int = 0) -> None:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if bits < 0 or bits >> modulus != 0:
            raise ValueError("bit-vector has members outside [0, modulus)")
        super().__init__(modulus, bits)

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
        super().__init__(kappa, q_min, q_max, budget, seed, mode)


class SearchExhausted(NamedTuple):
    """No set found. A count below the search's budget proves that no Z_q in
    its range holds one; a count at the budget says nothing about existence."""

    candidates_evaluated: int


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------


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


def is_complete_difference_set(y: ResidueSet) -> bool:
    """True iff Y - Y covers every residue of Z_q."""
    return _sumset_step(y.bits, y.bits, y.modulus, -1) == (1 << y.modulus) - 1


def satisfies_haight(y: ResidueSet, kappa: int) -> bool:
    """True iff Y - Y = Z_q and 0 is not in (s)Y for every 1 <= s <= kappa-1.

    The s = 1 level forces 0 not in Y itself.
    """
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    if not is_complete_difference_set(y):
        return False
    level = y.bits
    for _ in range(kappa - 2):
        if level & 1:
            return False
        level = _sumset_step(level, y.bits, y.modulus)
    return not level & 1


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


def _member_table(q: int, kappa: int) -> list[tuple[int, int, int, int]]:
    """One row (y, q - y, 1 << y, 1 << (q - y)) per y of order >= kappa in Z_q."""
    return [(y, q - y, 1 << y, 1 << (q - y)) for y in range(1, q) if q // gcd(y, q) >= kappa]


def _dfs(q: int, kappa: int, table: list[tuple[int, int, int, int]], limit: int) -> tuple[int | None, int]:
    """The module docstring's pruned depth-first search on Z_q, adding the
    members of ``table`` (rows of :func:`_member_table`) in list order, one
    candidate per member tried.

    Returns (bits, candidates) for the first set found; (0, candidates) when
    the tree is finished, which proves that no set in Z_q has its members in
    ``table``; and (None, limit) when ``limit`` candidates end the search
    first.
    """
    most, mask = (q - 1) // (kappa - 1), (1 << q) - 1
    end, evaluated = len(table), 0
    # The open node: Y, -Y, Y - Y, the levels (s)Y and the reflected levels
    # -(s)Y for 1 <= s <= kappa - 2, their union ``forbid``, the index in
    # table of its next child, left = most - |Y|, and twice |Y| plus one. The
    # stack holds its open ancestors, each with the index of its own next
    # child: a parent is pushed only when the search descends into a child,
    # so a sibling tried costs no stack operation.
    bits, neg, diffs, forbid, i, left, odd = 0, 0, 1, 0, 0, most, 1
    levels = back = (0,) * (kappa - 2)
    stack = []
    push, pop = stack.append, stack.pop
    while True:
        while i == end:
            if not stack:
                return 0, evaluated
            bits, neg, diffs, levels, back, forbid, i, left, odd = pop()
        if evaluated >= limit:
            return None, evaluated
        evaluated += 1
        y, ny, ybit, nbit = table[i]
        i += 1
        # y in -(s)Y puts 0 in (s + 1)Y', which the level loop would find.
        if forbid & ybit:
            continue
        # (s)Y' = (s)Y | ((s-1)Y' + y), from (0)Y' = {0}; 0 enters (s)Y' iff
        # -y is in (s-1)Y'.
        grown, prev = [], 1
        for lev in levels:
            prev = lev | (prev << y | prev >> ny) & mask
            if prev & nbit:
                break
            grown.append(prev)
        else:
            child, cneg = bits | ybit, neg | nbit
            cdiffs = diffs | (child << ny | child >> y | cneg << y | cneg >> ny) & mask
            missing = q - cdiffs.bit_count()
            if not missing:
                return child, evaluated
            # A child with |Y| + 1 members has left - 1 to go: its bound
            # r(2c + r - 1) is (left - 1)(odd + left - 1).
            if missing <= (left - 1) * (odd + left - 1):
                push((bits, neg, diffs, levels, back, forbid, i, left, odd))
                # -(s)Y' = -(s)Y | (-(s-1)Y' - y), from -(0)Y' = {0}.
                reflected, prev, forbid = [], 1, 0
                for lev in back:
                    prev = lev | (prev >> y | prev << ny) & mask
                    forbid |= prev
                    reflected.append(prev)
                bits, neg, diffs, levels, back = child, cneg, cdiffs, grown, reflected
                left, odd = left - 1, odd + 2


def search_haight_set(spec: SearchSpec) -> Union[HaightCertificate, SearchExhausted]:
    """Search Z_q for q in [q_min, q_max] for a set certified by ``kappa``.

    Both modes run the module docstring's depth-first search, one candidate
    per member tried. Exhaustive mode runs it once on each Z_q in turn, with
    the members in increasing order. Randomized mode runs seeded restarts of
    it round-robin over the moduli: each restart shuffles the members and
    stops after q^2 candidates, and a restart that finishes its tree settles
    its q. Every returned certificate has been re-checked from scratch.
    SearchExhausted with a count below the budget proves that no Z_q in the
    range holds a set; at the budget, it says nothing about existence.
    """
    kappa, evaluated = spec.kappa, 0
    # Each q's member table, built on its first visit and dropped once q is settled.
    qs = dict.fromkeys(_moduli(spec))
    randomized = spec.mode == "randomized"
    rngs = {q: random.Random((spec.seed + 1) * 0x9E3779B97F4A7C15 + q) for q in qs if randomized}
    # An exhaustive pass settles each q or spends the budget, so it is the only one.
    while qs and evaluated < spec.budget:
        for q in list(qs):
            left = spec.budget - evaluated
            if not left:
                break
            qs[q] = table = qs[q] or _member_table(q, kappa)
            limit = min(q * q, left) if randomized else left
            if randomized:
                # Shuffle a copy: every restart permutes the members from
                # increasing order.
                table = table[:]
                rngs[q].shuffle(table)
            bits, spent = _dfs(q, kappa, table, limit)
            evaluated += spent
            if bits:
                return _verified_certificate(q, bits, kappa, evaluated)
            if bits == 0:
                del qs[q]
    return SearchExhausted(evaluated)
