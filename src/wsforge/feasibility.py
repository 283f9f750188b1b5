"""Exact feasibility of small linear inequality systems over the rationals.

Constraints are ``coeffs . x <= bound`` with int or Fraction entries, each
row cleared of denominators once. Variables are eliminated by Fourier-Motzkin
on integer rows from the highest index down; a feasible point is then rebuilt
by interval back-substitution, the one step that makes Fractions. Intended for
the handful of variables a support system needs, where the quadratic blow-up
is irrelevant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

__all__ = ["Constraint", "feasible_point"]

Constraint = tuple[tuple[Union[int, Fraction], ...], Union[int, Fraction]]

_Row = tuple[tuple[int, ...], int]  # c . x <= b on integers


def _integer_row(coeffs, bound) -> _Row:
    """The row times the lcm of its denominators; entries other than int and
    Fraction, floats above all, are refused."""
    entries = (*coeffs, bound)
    if set(map(type, entries)) == {int}:
        return tuple(coeffs), bound
    if not all(isinstance(x, (int, Fraction)) for x in entries):
        raise TypeError(f"refusing row {entries!r}: int or Fraction entries only")
    den = lcm(*[x.denominator for x in entries])
    *coeffs, bound = [x.numerator * (den // x.denominator) for x in entries]
    return tuple(coeffs), bound


def _dedup(rows: list[_Row]) -> Optional[list[_Row]]:
    """The tightest row of each primitive direction, divided by the gcd of
    its entries, without constant rows; None signals an unsatisfiable
    constant row."""
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    for coeffs, bound in rows:
        g = gcd(*coeffs)
        if not g:
            if bound < 0:
                return None
            continue
        key = tuple(c // g for c in coeffs) if g > 1 else coeffs
        hit = best.get(key)
        if hit is None or bound * hit[1] < hit[0] * g:  # key . x <= bound / g
            best[key] = (bound, g)
    return [
        (key if (h := gcd(g, bound)) == g else tuple(c * (g // h) for c in key), bound // h)
        for key, (bound, g) in best.items()
    ]


def _eliminate(rows: list[_Row], j: int) -> Optional[list[_Row]]:
    """Project out x_j, the last variable of every row; the rows returned
    are one variable shorter."""
    keep = [(coeffs[:j], bound) for coeffs, bound in rows if not coeffs[j]]
    neg = [row for row in rows if row[0][j] < 0]
    for pc, pb in rows:
        wn = pc[j]
        if wn > 0:
            for nc, nb in neg:
                wp = -nc[j]
                coeffs = tuple(wp * a + wn * b for a, b in zip(pc[:j], nc))
                keep.append((coeffs, wp * pb + wn * nb))
    return _dedup(keep)


def _coordinate(rows: list[_Row], j: int, nums: list[int]) -> Optional[Fraction]:
    """Back-substitution for x_j, given x_i = nums[i] / nums[j] for i < j: the
    midpoint of its interval, the finite end of a half-line, or 0; None if the
    interval is empty. Ends are (numerator, denominator > 0) of x_j * nums[j]."""
    lo = hi = None
    for coeffs, bound in rows:
        c = coeffs[j]
        if c == 0:
            continue
        rest = bound * nums[j] - sum(a * x for a, x in zip(coeffs, nums[:j]))
        if c > 0:
            if hi is None or rest * hi[1] < hi[0] * c:
                hi = (rest, c)
        elif lo is None or rest * lo[1] < lo[0] * c:  # rest / c > lo, with c < 0
            lo = (-rest, -c)
    den = nums[j]
    if lo is None:
        return Fraction(0) if hi is None else Fraction(hi[0], hi[1] * den)
    if hi is None:
        return Fraction(lo[0], lo[1] * den)
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return Fraction(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1] * den)


def feasible_point(
    constraints: Sequence[Constraint], num_vars: int
) -> Optional[tuple[Fraction, ...]]:
    """An exact rational point satisfying every constraint, or None.

    Every ``coeffs`` tuple must have length ``num_vars``, and every entry an
    int or a Fraction (TypeError otherwise). The point depends only on the
    half-spaces the rows describe, not on how a row is scaled."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    for coeffs, _ in constraints:
        if len(coeffs) != num_vars:
            raise ValueError(f"constraint arity {len(coeffs)} != {num_vars} variables")
    rows = _dedup([_integer_row(coeffs, bound) for coeffs, bound in constraints])
    stages: list[list[_Row]] = []
    for j in range(num_vars - 1, -1, -1):
        if rows is None:
            return None
        stages.append(rows)
        if j:
            rows = _eliminate(rows, j)
    chosen: list[Fraction] = []
    nums = [1]  # the chosen x_i as numerators over a common last entry
    for j, stage in enumerate(reversed(stages)):
        x = _coordinate(stage, j, nums)
        if x is None:
            if j:
                raise AssertionError("back-substitution escaped the projected system")
            return None
        chosen.append(x)
        den = lcm(nums[j], x.denominator)
        nums = [v * (den // nums[j]) for v in nums[:j]]
        nums += [x.numerator * (den // x.denominator), den]
    return tuple(chosen)
