"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as part of
setup_s), does its independent precomputation in ``prepare`` (untimed), runs
one round of a fixed list of steps in ``run_round`` and checks that round's
outputs in ``check`` (untimed). A step is "produce" (making a result or a
certificate) or "reverify" (re-checking an emitted certificate through the
program's own verifier); run.py times the whole round.

The modules under test arrive as ``ws`` (wsforge.residues, .digraph, .game,
.wsne, .formats, .cli), freshly imported for every setup, and are always
called through their module attributes so that tracing can wrap them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import checks
from checks import require
from tracing import merge

BENCH_DIR = Path(__file__).resolve().parent

# Complete-difference sets with zero-free sumsets below kappa = 4 (K4) and
# kappa = 3 (K3): the test pools of tests/test_acceptance.py, which were
# found by `wsforge search`. prepare() re-checks every set before use.
K4_POOL = {
    29: (1, 7, 16, 20, 23, 24, 25),
    36: (1, 3, 4, 10, 15, 19, 27),
    38: (5, 6, 7, 8, 12, 17, 29, 36, 37),
    39: (9, 12, 19, 24, 28, 34, 36, 37),
}
K3_POOL = {7: (1, 2, 4), 9: (1, 2, 3, 5)}

EPS_REFUTE = Fraction(1, 4)
EPS_WITNESS = Fraction(1, 2)

FAILED = object()


def _fraction_reference() -> None:
    """Fraction sums with growing denominators (as in Fourier-Motzkin
    elimination), lowest-set-bit scans and tuple-keyed dict stores (as in
    the support-oracle caches)."""
    for _ in range(2):
        acc = Fraction(0)
        table = {}
        for i in range(1, 400):
            acc += Fraction(i % 7 - 3, i)
            bits = (i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
            while bits:
                table[((bits & -bits).bit_length() - 1, i & 15)] = acc
                bits &= bits - 1


def _search_reference() -> None:
    """Exhaustive search of Z_13 for sets whose differences cover it and whose
    2-fold sums avoid zero, written like the residue search: bit-vector
    rotations and lowest-set-bit loops in small helper functions."""
    q = 13
    full = (1 << q) - 1

    def rot(bits, shift):
        shift %= q
        return ((bits << shift) | (bits >> (q - shift))) & full if shift else bits

    def convolve(acc, bits, sign):
        out = 0
        while bits:
            r = (bits & -bits).bit_length() - 1
            out |= rot(acc, sign * r)
            bits &= bits - 1
        return out

    for _ in range(2):
        for bits in range(2, 1 << q, 2):
            if bits.bit_count() <= 5 and convolve(bits, bits, -1) == full:
                convolve(bits, bits, 1)


def _spawn_reference() -> None:
    """Start an interpreter that imports the standard modules the CLI uses, and wait for its exit."""
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json"],
                   check=True, capture_output=True, timeout=60)


# Reference computations, each with the time it takes on a host of nominal
# speed. None runs wsforge code, so a change to the program cannot move them;
# their times track the speed of the host, which drifts by up to a third
# over tens of seconds on the machine this benchmark was tuned on. Each
# workload names the one closest in kind to its own work.
REFERENCES = {
    "fraction": (_fraction_reference, 0.010),
    "search": (_search_reference, 0.007),
    "spawn": (_spawn_reference, 0.075),
}
REF_EVERY_S = 0.25


def time_reference(kind: str) -> float:
    start = time.perf_counter()
    REFERENCES[kind][0]()
    return time.perf_counter() - start


def scale(kind: str, samples: list[float]) -> float:
    """Factor to nominal host speed: nominal over mean reference time."""
    return REFERENCES[kind][1] * len(samples) / sum(samples)


class Round:
    """Times the steps of one round; a step that raises counts as failed.

    ``references`` names the reference computation for each kind of step.
    The round runs it before the first step of that kind, between steps of
    that kind at most every REF_EVERY_S and once after the round; the steps
    of a kind are scaled by the mean of those runs. The round's wall time is
    the total of its steps; the reference runs are not counted."""

    def __init__(self, traced: bool, references: dict[str, str]) -> None:
        self.traced = traced
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.child_spans: list[list] = []
        self.processes: list[tuple[str, float, float]] = []
        self.samples: dict[str, list[float]] = {}
        self.raw = {"produce": 0.0, "reverify": 0.0}
        self._last_sample = 0.0

    def step(self, kind: str, fn, *args):
        ref = self.references[kind]
        if ref not in self.samples or time.perf_counter() - self._last_sample >= REF_EVERY_S:
            self.samples.setdefault(ref, []).append(time_reference(ref))
            self._last_sample = time.perf_counter()
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted; the run goes on
            self.failed += 1
            print(f"step {getattr(fn, '__name__', fn)} failed: {exc!r}", file=sys.stderr)
            return FAILED
        finally:
            self.raw[kind] += time.perf_counter() - start

    def finish(self) -> None:
        """Set ``produce_s``, ``reverify_s`` and their total ``wall_s`` at
        nominal host speed, the unscaled ``raw_wall_s`` and ``scale``, the
        ratio of the two wall times."""
        for ref, samples in self.samples.items():
            samples.append(time_reference(ref))
        scaled = {}
        for kind, seconds in self.raw.items():
            ref = self.references[kind]
            scaled[kind] = seconds * scale(ref, self.samples[ref]) if seconds else 0.0
        self.produce_s = scaled["produce"]
        self.reverify_s = scaled["reverify"]
        self.wall_s = self.produce_s + self.reverify_s
        self.raw_wall_s = sum(self.raw.values())
        self.scale = self.wall_s / self.raw_wall_s


def run_cli(st, argv: list[str], rnd: Round, idx: int) -> str:
    """Run `wsforge <argv>` as its own process in ``st.workdir`` and return
    its standard output. In a traced round the process records spans around
    wsforge's functions and hands them to the round."""
    env = st.env
    if rnd.traced:
        trace_file = st.workdir / f"trace-{idx}.json"
        env = dict(env, WSFORGE_BENCH_TRACE=str(trace_file))
        code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import tracing; tracing.child_main()"
    else:
        code = "from wsforge.cli import entry; entry()"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=st.workdir, env=env,
                          capture_output=True, text=True, timeout=150)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"`wsforge {' '.join(argv)}` exited {done.returncode}: {done.stderr.strip()}")
    if rnd.traced:
        spans = json.loads(trace_file.read_text(encoding="utf-8"))
        trace_file.unlink()
        inside = sum(end - begin for name, begin, end, parent, _ in spans if name == "cli.main" and parent < 0)
        merge(rnd.child_spans, spans)
        rnd.processes.append((argv[0], wall, inside))
    return done.stdout


def cli_env(ws) -> dict:
    """The environment of a CLI process: wsforge imported from the same src/."""
    return dict(os.environ, PYTHONPATH=str(Path(ws.cli.__file__).resolve().parents[1]))


def _reverify_file(ws, path):
    """What `wsforge reverify --cert path` does: read, then re-run the checks."""
    return ws.formats.reverify(ws.formats.read_certificate(path))


def _require_reverified(verdict, kind: str) -> None:
    require(verdict.ok, f"{kind} certificate failed to re-verify: {verdict.detail}")
    require(verdict.kind == kind, f"re-verified a {verdict.kind} certificate, expected {kind}")


# ---------------------------------------------------------------------------
# refute: produce and re-check nonexistence certificates of Cayley games
# ---------------------------------------------------------------------------


class Refute:
    """Bipartified Cayley games of the K4 pool at k = 2. The seed scales each
    set by a unit of Z_q, which keeps it valid and the digraph circulant."""

    references = {"produce": "fraction", "reverify": "fraction"}

    def setup(self, ws, seed, quick, workdir):
        pool, k = (K3_POOL, 1) if quick else (K4_POOL, 2)
        kappa = 3 if quick else 4
        rng = random.Random(seed)
        games = []
        for q, members in pool.items():
            u = rng.choice([u for u in range(1, q) if gcd(u, q) == 1])
            ys = sorted(y * u % q for y in members)
            g = ws.game.bipartify(ws.digraph.cayley(q, ws.residues.ResidueSet.from_members(q, ys)))
            games.append(SimpleNamespace(q=q, ys=ys, game=g, cert=workdir / f"refute-q{q}.json"))
        return SimpleNamespace(games=games, k=k, kappa=kappa)

    def prepare(self, st):
        for item in st.games:
            require(checks.haight_ok(item.q, item.ys, st.kappa), f"pool set for q={item.q} is not valid")
            item.a = checks.matrix(item.game.a_rows, item.game.n)
            item.b = checks.matrix(item.game.b_rows, item.game.n)
            require(checks.pure_pairs_refuted(item.a, item.b, EPS_REFUTE), f"q={item.q} has a pure eps-WSNE")

    def run_round(self, ws, st, rnd):
        outputs = []
        for item in st.games:
            refuted = rnd.step("produce", ws.wsne.exhaustive_search, item.game, st.k, EPS_REFUTE)
            witness = rnd.step("produce", ws.wsne.exhaustive_search, item.game, 2, EPS_WITNESS)
            rnd.step("produce", self._emit, ws, item, st.k, refuted)
            verdict = rnd.step("reverify", _reverify_file, ws, item.cert)
            outputs.append((item, refuted, witness, verdict))
        return outputs

    @staticmethod
    def _emit(ws, item, k, refuted):
        payload = ws.formats.game_payload(item.game)
        payload.update({"k": k, "eps": str(EPS_REFUTE), "pairs_refuted": refuted.pairs_refuted})
        replay = f"wsforge exhaust --game q{item.q}.wl --k {k} --eps {EPS_REFUTE}"
        ws.formats.write_certificate(ws.formats.make_envelope("nonexistence", payload, replay), item.cert)

    def check(self, st, outputs):
        for item, refuted, witness, verdict in outputs:
            if refuted is not FAILED:
                expected = checks.support_pairs(item.q, item.q, st.k)
                require(getattr(refuted, "pairs_refuted", None) == expected,
                        f"q={item.q}: refutation {refuted!r}, expected {expected} pairs")
            if witness is not FAILED:
                require(isinstance(witness, tuple), f"q={item.q}: no witness at eps={EPS_WITNESS}")
                p, q = witness
                checks.check_witness(item.a, item.b, p.probs, q.probs, EPS_WITNESS, 2)
            if verdict is not FAILED:
                _require_reverified(verdict, "nonexistence")


# ---------------------------------------------------------------------------
# crosscheck: the characterization against the oracle on random games
# ---------------------------------------------------------------------------


CROSSCHECK_GAME_SEED = 700


def random_game(ws, rng: random.Random):
    """Square 0-1 game, m in 3..8, density in {0.2, 0.35, 0.5}; empty A rows
    and empty B columns are patched so that every bipartite vertex has an
    out-arc, as char_decision requires."""
    m = rng.randrange(3, 9)
    density = rng.choice((0.2, 0.35, 0.5))
    a_rows = [sum(1 << j for j in range(m) if rng.random() < density) for _ in range(m)]
    b_rows = [sum(1 << j for j in range(m) if rng.random() < density) for _ in range(m)]
    for i in range(m):
        if a_rows[i] == 0:
            a_rows[i] |= 1 << rng.randrange(m)
    for j in range(m):
        if not any(row >> j & 1 for row in b_rows):
            b_rows[rng.randrange(m)] |= 1 << j
    return ws.game.WinLoseGame(m, m, tuple(a_rows), tuple(b_rows))


class Crosscheck:
    """Random games under crosscheck_characterization for k = 1, 2, 3. Every
    witness found is emitted as a wsne_witness certificate and re-verified.

    The games are the first ones of the acceptance suite's criterion 7
    (generator seed 700); the benchmark seed only orders them. The cost of a
    game is heavy-tailed (a few 8x8 games that refute every pair dominate),
    so 100 games drawn afresh per seed differ in total work by up to a
    factor of two, far more than any bound could absorb.
    """

    references = {"produce": "fraction", "reverify": "fraction"}

    def setup(self, ws, seed, quick, workdir):
        rng = random.Random(CROSSCHECK_GAME_SEED)
        games = [random_game(ws, rng) for _ in range(10 if quick else 100)]
        random.Random(seed).shuffle(games)
        return SimpleNamespace(games=games)

    def prepare(self, st):
        st.matrices = [(checks.matrix(g.a_rows, g.n), checks.matrix(g.b_rows, g.n)) for g in st.games]

    def run_round(self, ws, st, rnd):
        outputs = []
        for idx, g in enumerate(st.games):
            for k in (1, 2, 3):
                report = rnd.step("produce", ws.wsne.crosscheck_characterization, g, k)
                verdicts = []
                for point in getattr(report, "points", ()):
                    if isinstance(point.search_result, tuple):
                        env = rnd.step("produce", self._emit, ws, g, k, point)
                        verdicts.append(rnd.step("reverify", ws.formats.reverify, env))
                outputs.append((idx, k, report, verdicts))
        return outputs

    @staticmethod
    def _emit(ws, g, k, point):
        p, q = point.search_result
        payload = ws.formats.game_payload(g)
        payload.update({"p": [str(x) for x in p.probs], "q": [str(x) for x in q.probs], "eps": str(point.eps)})
        return ws.formats.make_envelope("wsne_witness", payload, f"wsforge exhaust --k {k} --eps {point.eps}")

    def check(self, st, outputs):
        for idx, k, report, verdicts in outputs:
            if report is FAILED:
                continue
            a, b = st.matrices[idx]
            m = len(a)
            require(report.agree, f"game {idx}, k={k}: characterization and oracle disagree")
            epsilons = [point.eps for point in report.points]
            require(epsilons == [1 - Fraction(1, k), 1 - Fraction(1, 2 * k)], f"unexpected eps points {epsilons}")
            witness = report.points[0].char_witness
            if hasattr(witness, "vertices"):
                checks.check_cycle(a, b, list(witness.vertices), k)
            elif witness is not None:
                checks.check_undominated(a, b, witness.side, list(witness.indices), k)
            for point in report.points:
                if isinstance(point.search_result, tuple):
                    p, q = point.search_result
                    checks.check_witness(a, b, p.probs, q.probs, point.eps, k)
                else:
                    require(point.search_result.pairs_refuted == checks.support_pairs(m, m, k),
                            f"game {idx}, k={k}: wrong refuted pair count")
                    require(checks.pure_pairs_refuted(a, b, point.eps), f"game {idx}: pure eps-WSNE missed")
            for verdict in verdicts:
                if verdict is not FAILED:
                    _require_reverified(verdict, "wsne_witness")


# ---------------------------------------------------------------------------
# search: Haight-set searches that all succeed today
# ---------------------------------------------------------------------------

# (kappa, q_min, q_max, mode, search seed). Randomized search time is
# heavy-tailed in its seed, so the jobs are fixed and the benchmark seed
# only orders them.
SEARCH_JOBS = (
    (3, 24, 24, "exhaustive", 0),
    (3, 25, 25, "exhaustive", 0),
    (3, 26, 26, "exhaustive", 0),
    (3, 27, 27, "exhaustive", 0),
    (3, 28, 28, "exhaustive", 0),
    (4, 20, 45, "randomized", 0),
    (4, 29, 29, "randomized", 5),
    (4, 38, 38, "randomized", 3),
    (4, 28, 40, "randomized", 0),
)
QUICK_SEARCH_JOBS = (
    (3, 7, 7, "exhaustive", 0),
    (3, 9, 9, "exhaustive", 0),
    (4, 39, 39, "randomized", 0),
)


class Search:
    """Each job's set is written as a haight certificate, and re-verified by
    `wsforge reverify` as its own process, as a user would: in process the
    check takes about 0.1 ms, too little to time steadily."""

    references = {"produce": "search", "reverify": "spawn"}

    def setup(self, ws, seed, quick, workdir):
        jobs = list(QUICK_SEARCH_JOBS if quick else SEARCH_JOBS)
        random.Random(seed).shuffle(jobs)
        specs = [
            ws.residues.SearchSpec(kappa, lo, hi, budget=1_000_000, seed=s, mode=mode)
            for kappa, lo, hi, mode, s in jobs
        ]
        return SimpleNamespace(specs=specs, workdir=workdir, env=cli_env(ws), candidates=None)

    def prepare(self, st):
        pass

    def run_round(self, ws, st, rnd):
        outputs = []
        for idx, spec in enumerate(st.specs):
            found = rnd.step("produce", ws.residues.search_haight_set, spec)
            name = f"haight-{idx}.json"
            rnd.step("produce", self._emit, ws, spec, found, st.workdir / name)
            outputs.append((spec, found, rnd.step("reverify", run_cli, st, ["reverify", "--cert", name], rnd, idx)))
        return outputs

    @staticmethod
    def _emit(ws, spec, found, path):
        payload = {"q": found.modulus, "y": list(found.y.members()), "kappa": found.kappa,
                   "candidates_evaluated": found.candidates_evaluated}
        replay = (f"wsforge search --kappa {spec.kappa} --q-min {spec.q_min} --q-max {spec.q_max}"
                  f" --budget {spec.budget} --seed {spec.seed} --mode {spec.mode} --workers 1")
        ws.formats.write_certificate(ws.formats.make_envelope("haight", payload, replay), path)

    def check(self, st, outputs):
        counts = []
        for spec, found, verdict in outputs:
            if found is FAILED:
                counts.append(None)
                continue
            q = getattr(found, "modulus", None)
            require(q is not None, f"{spec} found nothing: {found!r}")
            require(spec.q_min <= q <= spec.q_max and found.kappa == spec.kappa, f"{spec} returned q={q}")
            require(checks.haight_ok(q, found.y.members(), spec.kappa), f"{spec}: set fails the Haight conditions")
            counts.append(found.candidates_evaluated)
            if verdict is not FAILED:
                require(verdict.startswith("OK [haight]"), f"{spec}: certificate did not re-verify: {verdict}")
        if st.candidates is None:
            st.candidates = counts
        require(counts == st.candidates, f"candidate counts changed between rounds: {counts} != {st.candidates}")


# ---------------------------------------------------------------------------
# pipeline: the README's CLI chain, one process per step
# ---------------------------------------------------------------------------

PIPELINE_MODULI = (7, 9, 10, 11, 13)
TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def pipeline_steps(q: int) -> list[list[str]]:
    return [
        ["search", "--kappa", "3", "--q-min", str(q), "--q-max", str(q), "--out", "haight.json"],
        ["cayley", "--cert", "haight.json", "--out", "base.dg"],
        ["certify", "--in", "base.dg", "--k", "3", "--l", "2", "--out", "kl.json"],
        ["power", "--in", "base.dg", "--t", "2", "--out", "squared.dg"],
        ["certify", "--in", "squared.dg", "--k", "2", "--l", "3", "--out", "kl-squared.json"],
        ["bipartify", "--in", "base.dg", "--out", "game.wl"],
        ["exhaust", "--game", "game.wl", "--k", "2", "--eps", "1/2", "--out", "witness.json"],
        ["check", "--game", "game.wl", "--strategy", "witness.json", "--eps", "1/2"],
        ["exhaust", "--game", "game.wl", "--k", "1", "--eps", "99/100", "--out", "refutation.json"],
        ["reverify", "--cert", "haight.json"],
        ["reverify", "--cert", "kl.json"],
        ["reverify", "--cert", "witness.json"],
        ["reverify", "--cert", "refutation.json"],
        ["forge", "--k", "1", "--eps", "99/100", "--out-game", "forge.wl", "--out-cert", "forge.json"],
    ]


def _bipartify_arcs(n: int, arcs):
    """The game of a digraph: A[i][j] = 1 iff i = j or i -> j; B[i][j] = 1 iff j -> i."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    b = [[0] * n for _ in range(n)]
    for u, v in arcs:
        a[u][v] = 1
        b[v][u] = 1
    return a, b


def _read_dg(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    n, m = (int(x) for x in lines[0].split())
    arcs = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    require(len(arcs) == m, f"{path.name}: header says {m} arcs, found {len(arcs)}")
    return n, arcs


class Pipeline:
    """One CLI process per step, each timed from spawn to exit. The seed
    picks the modulus of the kappa = 3 search that starts the chain."""

    references = {"produce": "spawn", "reverify": "spawn"}

    def setup(self, ws, seed, quick, workdir):
        q = random.Random(seed).choice(PIPELINE_MODULI[:1] if quick else PIPELINE_MODULI)
        return SimpleNamespace(q=q, steps=pipeline_steps(q), workdir=workdir, env=cli_env(ws))

    def prepare(self, st):
        pass

    def run_round(self, ws, st, rnd):
        return [
            (argv, rnd.step("reverify" if argv[0] == "reverify" else "produce", run_cli, st, argv, rnd, idx))
            for idx, argv in enumerate(st.steps)
        ]

    def check(self, st, outputs):
        try:
            stdouts = [stdout for _, stdout in outputs]
            if FAILED not in stdouts:  # a failed process leaves the files of later steps unchecked
                self._check_files(st, stdouts)
        finally:
            for path in st.workdir.iterdir():
                path.unlink()

    @staticmethod
    def _check_files(st, stdouts):
        wd, q = st.workdir, st.q
        cert = {name: json.loads((wd / f"{name}.json").read_text(encoding="utf-8"))["payload"]
                for name in ("haight", "kl", "kl-squared", "witness", "refutation", "forge")}

        ys = cert["haight"]["y"]
        require(cert["haight"]["q"] == q and checks.haight_ok(q, ys, 3), "haight certificate fails the conditions")
        n, base = _read_dg(wd / "base.dg")
        require(n == q and set(base) == {(z1, z2) for z1 in range(q) for z2 in range(q) if (z1 - z2) % q in ys},
                "base.dg is not the Cayley digraph of the found set")
        checks.check_kl(q, [tuple(arc) for arc in cert["kl"]["arcs"]], 3, 2, cert["kl"]["girth"])
        require(sorted(map(tuple, cert["kl"]["arcs"])) == sorted(base), "kl certificate embeds another digraph")
        _, squared = _read_dg(wd / "squared.dg")
        step2 = {(u, w) for u, v in base for v2, w in base if v == v2 and u != w}
        require(set(squared) == set(base) | step2, "squared.dg is not the 2-walk power")
        checks.check_kl(q, [tuple(arc) for arc in cert["kl-squared"]["arcs"]], 2, 3, cert["kl-squared"]["girth"])

        a, b = checks.parse_wl((wd / "game.wl").read_text(encoding="utf-8"))
        require((a, b) == _bipartify_arcs(q, base), "game.wl is not the bipartified base")
        p = [Fraction(x) for x in cert["witness"]["p"]]
        qv = [Fraction(x) for x in cert["witness"]["q"]]
        checks.check_witness(a, b, p, qv, EPS_WITNESS, 2)
        require(stdouts[7].startswith("valid"), "check did not accept the witness")
        require(cert["refutation"]["pairs_refuted"] == checks.support_pairs(q, q, 1), "wrong k=1 pair count")
        require(checks.pure_pairs_refuted(a, b, Fraction(99, 100)), "the game has a pure eps-WSNE")
        for idx in range(9, 13):
            require(stdouts[idx].startswith("OK"), f"`wsforge {' '.join(st.steps[idx])}` did not re-verify")

        fa, fb = checks.parse_wl((wd / "forge.wl").read_text(encoding="utf-8"))
        require((fa, fb) == _bipartify_arcs(3, TRIANGLE), "forge --k 1 did not emit the triangle game")
        require(cert["forge"]["pairs_refuted"] == 9, "forge --k 1 refuted the wrong number of pairs")
        require(checks.pure_pairs_refuted(fa, fb, Fraction(99, 100)), "the forged game has a pure eps-WSNE")


WORKLOADS = {"refute": Refute(), "crosscheck": Crosscheck(), "search": Search(), "pipeline": Pipeline()}
