"""Seeded generators, pinned search results and a fresh-interpreter runner
shared across the suite."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import wsforge
from wsforge import Digraph, NoWitness, WinLoseGame, crosscheck_characterization, girth

SRC = str(Path(wsforge.__file__).resolve().parents[1])


def run_python(*args: str, cwd=None, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args``, with this wsforge on its path;
    stdout and stderr are captured as text."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=timeout,
    )

# Haight searches with budget 10**6, keyed by (kappa, q_min, q_max, mode,
# seed), and their results (q, Y, candidates_evaluated). They are the jobs of
# the benchmark's `search` workload, so any change to the search's trajectory
# shows here first.
SEARCH_PINS = {
    (3, 24, 24, "exhaustive", 0): (24, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13), 12),
    (3, 25, 25, "exhaustive", 0): (25, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13), 13),
    (3, 26, 26, "exhaustive", 0): (26, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14), 13),
    (3, 27, 27, "exhaustive", 0): (27, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14), 14),
    (3, 28, 28, "exhaustive", 0): (28, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15), 14),
    (4, 20, 45, "randomized", 0): (45, (5, 7, 8, 11, 14, 16, 25, 28, 43, 44), 27338),
    (4, 29, 29, "randomized", 5): (29, (8, 10, 12, 15, 18, 26, 27), 17390),
    (4, 38, 38, "randomized", 3): (38, (1, 12, 15, 16, 17, 24, 29, 33, 34), 876),
    (4, 28, 40, "randomized", 0): (39, (4, 7, 14, 15, 19, 23, 27, 29, 33), 28259),
}


def random_digraph(
    rng: random.Random, n: int, p: float = 0.3, ensure_min_out: bool = False
) -> Digraph:
    """Loop-free digraph with iid arcs; optionally patch empty out-rows."""
    rows = []
    for v in range(n):
        mask = 0
        for w in range(n):
            if v != w and rng.random() < p:
                mask |= 1 << w
        rows.append(mask)
    if ensure_min_out:
        for v in range(n):
            if rows[v] == 0:
                w = rng.randrange(n - 1)
                if w >= v:
                    w += 1
                rows[v] |= 1 << w
    return Digraph(n, tuple(rows))


def random_digraph_with_cycle(rng: random.Random, n: int, p: float = 0.3) -> Digraph:
    while True:
        d = random_digraph(rng, n, p)
        if girth(d) is not None:
            return d


def random_game(
    rng: random.Random, m: int, n: int, p: float = 0.35, ensure_out_degree: bool = True
) -> WinLoseGame:
    """Random 0-1 game; optionally patch empty A rows and empty B columns so
    the bipartite digraph has minimum out-degree at least one."""
    a_rows = [sum(1 << j for j in range(n) if rng.random() < p) for _ in range(m)]
    b_rows = [sum(1 << j for j in range(n) if rng.random() < p) for _ in range(m)]
    if ensure_out_degree:
        for i in range(m):
            if a_rows[i] == 0:
                a_rows[i] |= 1 << rng.randrange(n)
        for j in range(n):
            if not any(b_rows[i] >> j & 1 for i in range(m)):
                b_rows[rng.randrange(m)] |= 1 << j
    return WinLoseGame(m, n, tuple(a_rows), tuple(b_rows))


def _crosscheck_point_line(idx, k, point) -> str:
    result = point.search_result
    if isinstance(result, NoWitness):
        tail = f"refuted {result.pairs_refuted}"
    else:
        p, q = result
        tail = "p " + ",".join(map(str, p.probs)) + " q " + ",".join(map(str, q.probs))
    return f"{idx} {k} {point.eps} {tail}\n"


def crosscheck_digest(count: int) -> str:
    """sha256 of every cross-check point, at k = 1, 2, 3, over the first
    ``count`` seeded square games of the acceptance suite's criterion 7,
    asserting that each report agrees. A change to the support oracle that
    moves a witness probability or a refuted-pair count moves the digest."""
    rng = random.Random(700)
    digest = hashlib.sha256()
    for idx in range(count):
        m = rng.randrange(3, 9)
        g = random_game(rng, m, m, p=rng.choice([0.2, 0.35, 0.5]))
        for k in (1, 2, 3):
            report = crosscheck_characterization(g, k)
            assert report.agree, (idx, k, report)
            assert report.points[0].eps == 1 - Fraction(1, k)
            assert report.points[1].eps == 1 - Fraction(1, 2 * k)
            for point in report.points:
                digest.update(_crosscheck_point_line(idx, k, point).encode())
    return digest.hexdigest()
