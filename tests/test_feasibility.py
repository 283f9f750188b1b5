"""Fourier-Motzkin feasibility against an exact vertex-enumeration oracle,
and against a plain Fourier-Motzkin over Fractions for the exact point.

The oracle solves every square subsystem of tight constraints by Gaussian
elimination over Fractions; generated systems carry box bounds, so they are
bounded and nonempty iff some basic point satisfies everything.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from wsforge.feasibility import feasible_point

F = Fraction


def _solve_square(rows, rhs):
    n = len(rhs)
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col]
        mat[col] = [x / inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return tuple(mat[r][n] for r in range(n))


def brute_feasible(constraints, num_vars) -> bool:
    """A bounded nonempty polyhedron has a vertex: try every square
    subsystem of tight constraints."""
    for subset in combinations(range(len(constraints)), num_vars):
        point = _solve_square(
            [constraints[i][0] for i in subset], [constraints[i][1] for i in subset]
        )
        if point is None:
            continue
        if all(
            sum(c * x for c, x in zip(coeffs, point)) <= bound
            for coeffs, bound in constraints
        ):
            return True
    return False


def _satisfies(constraints, point) -> bool:
    return all(
        sum(c * x for c, x in zip(coeffs, point)) <= bound for coeffs, bound in constraints
    )


def _reference_dedup(rows):
    best = {}
    for coeffs, bound in rows:
        pivot = next((c for c in coeffs if c != 0), None)
        if pivot is None:
            if bound < 0:
                return None
            continue
        scale = abs(pivot)
        key = tuple(c / scale for c in coeffs)
        b = bound / scale
        if key not in best or b < best[key]:
            best[key] = b
    return list(best.items())


def _reference_bounds(rows, j, chosen):
    lo = hi = None
    for coeffs, bound in rows:
        c = coeffs[j]
        if c == 0:
            continue
        v = (bound - sum(coeffs[i] * chosen[i] for i in range(j))) / c
        if c > 0 and (hi is None or v < hi):
            hi = v
        if c < 0 and (lo is None or v > lo):
            lo = v
    return lo, hi


def _reference_pick(lo, hi):
    if lo is None and hi is None:
        return F(0)
    if lo is None or hi is None:
        return hi if lo is None else lo
    return (lo + hi) / 2


def reference_feasible_point(constraints, num_vars):
    """Fourier-Motzkin on Fraction rows, each normalized by its first
    nonzero coefficient: the point feasible_point must return, byte for byte."""
    rows = _reference_dedup([(tuple(map(F, c)), F(b)) for c, b in constraints])
    if rows is None:
        return None
    stages = []
    for j in range(num_vars - 1, 0, -1):
        stages.append(rows)
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        keep = [r for r in rows if r[0][j] == 0]
        for pc, pb in pos:
            for nc, nb in neg:
                wp, wn = -nc[j], pc[j]
                keep.append((tuple(wp * a + wn * b for a, b in zip(pc, nc)), wp * pb + wn * nb))
        rows = _reference_dedup(keep)
        if rows is None:
            return None
    lo, hi = _reference_bounds(rows, 0, [])
    if lo is not None and hi is not None and lo > hi:
        return None
    chosen = [_reference_pick(lo, hi)]
    for j in range(1, num_vars):
        chosen.append(_reference_pick(*_reference_bounds(stages[num_vars - 1 - j], j, chosen)))
    return tuple(chosen)


def _same_as_reference(cons, num_vars):
    got = feasible_point(cons, num_vars)
    want = reference_feasible_point(cons, num_vars)
    assert got == want, (cons, got, want)
    assert got is None or all(type(x) is Fraction for x in got)
    return got


def test_box_feasible():
    cons = [((F(1),), F(1)), ((F(-1),), F(0))]
    point = feasible_point(cons, 1)
    assert point is not None and _satisfies(cons, point)


def test_contradiction_infeasible():
    cons = [((F(1),), F(0)), ((F(-1),), F(-1))]  # x <= 0 and x >= 1
    assert feasible_point(cons, 1) is None


def test_equality_via_two_inequalities():
    cons = [
        ((F(1), F(1)), F(1)),
        ((F(-1), F(-1)), F(-1)),
        ((F(-1), F(0)), F(0)),
        ((F(0), F(-1)), F(0)),
        ((F(0), F(1)), F(1, 3)),  # y <= 1/3 forces x >= 2/3
    ]
    point = feasible_point(cons, 2)
    assert point is not None and _satisfies(cons, point)
    assert point[0] + point[1] == 1
    assert point[0] >= F(2, 3)


def test_unconstrained_returns_origin():
    assert feasible_point([], 2) == (F(0), F(0))


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        feasible_point([((F(1),), F(1))], 2)


@pytest.mark.parametrize(
    "cons, num_vars, message",
    [
        ([], 0, "need at least one variable"),
        ([((), F(1))], 0, "need at least one variable"),
        ([], -1, "need at least one variable"),
    ],
    ids=["no-variable", "no-variable-with-row", "negative-count"],
)
def test_input_checks(cons, num_vars, message):
    with pytest.raises(ValueError) as excinfo:
        feasible_point(cons, num_vars)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "cons",
    [
        [((1.0,), 0.5), ((-1.0,), 0.0)],
        [((F(1),), 0.5)],
        [((1, 0.0), F(1))],
        [((F(1), "1"), 1)],
    ],
    ids=["all-float", "float-bound", "float-coeff", "str-coeff"],
)
def test_non_rational_entries_rejected(cons):
    with pytest.raises(TypeError):
        feasible_point(cons, len(cons[0][0]))


def test_int_and_fraction_rows_give_the_same_point():
    # x + y + z = 1, x, y, z >= 0 and x - y <= 1/3, rows scaled by different
    # factors: in ints, and divided by those factors into Fractions
    ints = [((3, 3, 3), 3), ((-1, -1, -1), -1), ((-1, 0, 0), 0),
            ((0, -2, 0), 0), ((0, 0, -1), 0), ((3, -3, 0), 1)]
    scales = (3, 1, 1, 2, 5, 3)
    fracs = [(tuple(F(c, s) for c in coeffs), F(b, s)) for (coeffs, b), s in zip(ints, scales)]
    point = _same_as_reference(ints, 3)
    assert point == _same_as_reference(fracs, 3)
    assert point is not None and sum(point) == 1


def test_tight_equality_point():
    # degenerate feasible region: a single point
    cons = [
        ((F(1), F(1), F(1)), F(1)),
        ((F(-1), F(-1), F(-1)), F(-1)),
        ((F(1), F(-1), F(0)), F(0)),
        ((F(-1), F(1), F(0)), F(0)),
        ((F(1), F(0), F(-1)), F(0)),
        ((F(-1), F(0), F(1)), F(0)),
    ]
    point = feasible_point(cons, 3)
    assert point == (F(1, 3), F(1, 3), F(1, 3))


def test_random_systems_match_vertex_enumeration():
    rng = random.Random(41)
    for _ in range(250):
        num_vars = rng.randrange(1, 4)
        cons = []
        for idx in range(num_vars):  # box bounds keep the region bounded
            lo = tuple(F(-1) if i == idx else F(0) for i in range(num_vars))
            hi = tuple(F(1) if i == idx else F(0) for i in range(num_vars))
            cons.append((lo, F(rng.randrange(0, 4))))
            cons.append((hi, F(rng.randrange(0, 4))))
        for _ in range(rng.randrange(0, 6)):
            coeffs = tuple(F(rng.randrange(-3, 4)) for _ in range(num_vars))
            cons.append((coeffs, F(rng.randrange(-4, 5))))
        point = _same_as_reference(cons, num_vars)
        if point is None:
            assert not brute_feasible(cons, num_vars)
        else:
            assert _satisfies(cons, point)
            assert brute_feasible(cons, num_vars)


def test_random_fraction_systems_match_reference():
    # entries with denominators up to 6, so each row's clearing differs
    rng = random.Random(43)
    feasible = 0
    for _ in range(200):
        num_vars = rng.randrange(1, 5)
        cons = [
            (tuple(F(rng.randrange(-4, 5), rng.randrange(1, 7)) for _ in range(num_vars)),
             F(rng.randrange(-3, 6), rng.randrange(1, 7)))
            for _ in range(rng.randrange(1, 9))
        ]
        feasible += _same_as_reference(cons, num_vars) is not None
    assert 0 < feasible < 200


@pytest.mark.parametrize(
    "eps", [F(0), F(1, 4), F(49, 100), F(1, 2), F(2, 3), F(99, 100), F(1), F(3, 2)], ids=str
)
def test_oracle_shaped_systems_match_reference(eps):
    # The support oracle's systems: x on the simplex, and rows with
    # coefficients in {-1, 0, 1} bounded by eps, written with Fraction
    # entries and in the oracle's integer form y = b x (eps = a / b).
    rng = random.Random(42 + eps.numerator * 1000 + eps.denominator)
    a, b = eps.as_integer_ratio()
    feasible = 0
    for _ in range(60):
        num_vars = rng.randrange(3, 6)
        simplex = [((1,) * num_vars, 1), ((-1,) * num_vars, -1)]
        simplex += [(tuple(-(i == idx) for i in range(num_vars)), 0) for idx in range(num_vars)]
        rows = [tuple(rng.choice((-1, 0, 0, 1)) for _ in range(num_vars))
                for _ in range(rng.randrange(1, 9))]
        cons = [(tuple(map(F, c)), F(bd)) for c, bd in simplex]
        cons += [(tuple(map(F, c)), eps) for c in rows]
        point = _same_as_reference(cons, num_vars)
        scaled = [(c, bd * b) for c, bd in simplex] + [(c, a) for c in rows]
        y = feasible_point(scaled, num_vars)
        assert (y is None) == (point is None)
        if point is not None:
            assert tuple(v / b for v in y) == point
            feasible += 1
    assert feasible > 0 and (feasible < 60 or eps >= 1)  # eps >= 1 admits every point


def test_point_ignores_row_order_and_positive_scaling():
    # The support oracle caches a solved system by its set of rows, in any
    # order: the point depends only on the half-spaces. Each system, with
    # one of its rows repeated at another scale, against its rows shuffled
    # and each multiplied by a positive int or Fraction.
    rng = random.Random(44)
    feasible = 0
    for _ in range(150):
        num_vars = rng.randrange(1, 5)
        cons = [((1,) * num_vars, 1), ((-1,) * num_vars, -1)]
        cons += [(tuple(-(i == idx) for i in range(num_vars)), 0) for idx in range(num_vars)]
        cons += [
            (tuple(rng.choice((-1, 0, 0, 1)) for _ in range(num_vars)), F(rng.randrange(0, 5), 4))
            for _ in range(rng.randrange(0, 7))
        ]
        coeffs, bound = rng.choice(cons)
        cons.append((tuple(3 * c for c in coeffs), 3 * bound))
        want = feasible_point(cons, num_vars)
        feasible += want is not None
        for _ in range(4):
            shuffled = rng.sample(cons, len(cons))
            scales = [rng.choice((1, 2, 3, F(1, 2), F(5, 3))) for _ in shuffled]
            scaled = [(tuple(s * c for c in coeffs), s * bound)
                      for (coeffs, bound), s in zip(shuffled, scales)]
            assert feasible_point(shuffled, num_vars) == want, (cons, shuffled)
            assert feasible_point(scaled, num_vars) == want, (cons, scaled)
    assert 30 < feasible < 150


def test_interval_solver_ignores_row_order():
    # The closed form for supports of size <= 2 takes the extreme bounds of
    # its rows, so any order of the rows gives the same point.
    from wsforge.wsne import _PlayerSystem

    system = _PlayerSystem((0, 0), 1)
    rng = random.Random(45)
    feasible = 0
    for _ in range(400):
        dim = rng.choice((1, 2))
        eps = F(rng.randrange(0, 9), rng.choice((1, 2, 4, 100))).as_integer_ratio()
        rows = []
        for _ in range(rng.randrange(0, 8)):
            plus = rng.randrange(1 << dim)
            rows.append((plus, rng.randrange(1 << dim) & ~plus))
        want = system._solve_interval(dim, rows, eps)
        feasible += want is not None
        for _ in range(4):
            assert system._solve_interval(dim, rng.sample(rows, len(rows)), eps) == want
    assert 50 < feasible < 400
