"""wsforge benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload refute --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until --seconds have passed and at least
two have run (with --trace 1, untraced and traced rounds in turn), checks
every round's outputs against the independent computations in checks.py and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from spans around wsforge's public
functions, plus the tracing overhead. --quick runs one round (one of each
with --trace 1) at toy sizes.
The spans of the first traced round are written to
.bench_out/trace-<workload>-<seed>.json. The program is imported from
src/ of the checkout holding this file; the run fails without it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODULES = ("residues", "digraph", "game", "feasibility", "wsne", "formats", "cli")
SETUP_REPEATS = 7
# Every reported time is scaled to a host of nominal speed by the workload's
# reference computation (workloads.REFERENCES, workloads.Round), because the
# speed of the host drifts: unscaled times spread by 15-30% across runs.

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("produce_s", "s"),
    ("reverify_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def fresh_import() -> SimpleNamespace:
    """Import wsforge from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "wsforge" or n.startswith("wsforge.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"wsforge.{name}") for name in MODULES})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one round at toy sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wsforge" / "__init__.py").is_file():
        print(f"error: no wsforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    from checks import CheckFailed
    from workloads import WORKLOADS, Round, scale, time_reference

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        setup_ref = workload.references["produce"]
        samples = [time_reference(setup_ref)]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ws = fresh_import()
            state = workload.setup(ws, args.seed, args.quick, workdir)
            setup_times.append(time.perf_counter() - start)
            samples.append(time_reference(setup_ref))
        setup_scale = scale(setup_ref, samples)
        if Path(ws.cli.__file__).resolve().parents[1] != SRC.resolve():
            print(f"error: imported wsforge from {ws.cli.__file__}, not from {SRC}", file=sys.stderr)
            return 2

        correct = True
        try:
            workload.prepare(state)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        tracer = tracing.Tracer()
        rounds = []
        traced_spans = None
        began = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rnd = Round(traced, workload.references)
            if traced:
                tracer.install()
            outputs = workload.run_round(ws, state, rnd)
            rnd.finish()
            if traced:
                tracer.uninstall()
                spans = tracer.take()
                tracing.merge(spans, rnd.child_spans)
                rnd.layers = tracing.layer_metrics(spans, rnd.processes, rnd.scale)
                if traced_spans is None:
                    traced_spans = spans
            try:
                workload.check(state, outputs)
            except CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
            rounds.append(rnd)
            if args.quick and len(rounds) >= 1 + args.trace:
                break
            if len(rounds) >= 2 and time.perf_counter() - began >= args.seconds:
                break

        plain = [r for r in rounds if not r.traced]
        print(
            f"{len(rounds)} rounds; unscaled medians: wall {median(r.raw_wall_s for r in plain):.4f} s,"
            f" setup {median(setup_times):.4f} s; median scale to nominal speed"
            f" {median(r.scale for r in rounds):.4f}",
            file=sys.stderr,
        )
        if args.trace:
            traced = [r for r in rounds if r.traced]
            overhead = median(r.wall_s for r in traced) / median(r.wall_s for r in plain) - 1
            metrics = {
                name: median(r.layers[name] for r in traced) if name != "trace.overhead_pct" else 100 * overhead
                for name, _ in tracing.LAYER_METRICS
            }
            units = dict(tracing.LAYER_METRICS)
            (ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps({"workload": args.workload, "seed": args.seed, "spans": traced_spans}), encoding="utf-8"
            )
        else:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "pipeline" else resource.RUSAGE_SELF)
            metrics = {
                "setup_s": median(setup_times) * setup_scale,
                "wall_s": median(r.wall_s for r in plain),
                "produce_s": median(r.produce_s for r in plain),
                "reverify_s": median(r.reverify_s for r in plain),
                "peak_rss_mib": usage.ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        result = {
            "correct": correct,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
