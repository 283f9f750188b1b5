"""Spans around calls into wsforge's public functions, kept in memory, and
the per-layer metrics derived from them.

A span is ``[name, start, end, parent, info]``: ``name`` is
"<module>.<function>", ``parent`` the index of the enclosing span (-1 at top
level) and ``info`` what the span's recorder took from the call (rows of a
linear system, the kind of a certificate, ...). A span's self time is its
duration minus the durations of its direct children.

The wrappers replace the function in every wsforge module that holds it, so
a call is traced whichever module makes it (``feasible_point`` as ``wsne``
calls it, ``exhaustive_search`` as ``formats.reverify`` calls it, ...).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from statistics import median


def _system(args, kwargs, result):
    return len(args[0]), result is not None


def _pairs_refuted(args, kwargs, result):
    return getattr(result, "pairs_refuted", None)


def _candidates(args, kwargs, result):
    return result.candidates_evaluated


def _kind(args, kwargs, result):
    return args[0].kind


def _bytes_written(args, kwargs, result):
    dest = args[1]
    return os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else 0


def _subcommand(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else ""


# (module, function, recorder of the span's info)
WRAPPED = (
    ("feasibility", "feasible_point", _system),
    ("wsne", "exhaustive_search", _pairs_refuted),
    ("wsne", "crosscheck_characterization", None),
    ("residues", "search_haight_set", _candidates),
    ("formats", "reverify", _kind),
    ("formats", "read_certificate", None),
    ("formats", "read_digraph", None),
    ("formats", "read_game", None),
    ("formats", "write_certificate", _bytes_written),
    ("formats", "write_digraph", None),
    ("formats", "write_game", None),
    ("digraph", "cayley", None),
    ("digraph", "shortest_cycle", None),
    ("digraph", "all_subsets_dominated", None),
    ("digraph", "find_undominated_set", None),
    ("digraph", "is_dominated", None),
    ("digraph", "power", None),
    ("digraph", "certify_kl", None),
    ("game", "bipartify", None),
    ("game", "char_decision", None),
    ("cli", "main", _subcommand),
)

CERT_KINDS = ("haight", "kl_digraph", "wsne_witness", "nonexistence")
SUBCOMMANDS = ("search", "cayley", "certify", "power", "bipartify", "exhaust", "check", "reverify", "forge")

# Every per-layer metric with its unit, in report order. Times are seconds
# per round, counts are per round; cli.startup_s is per process.
LAYER_METRICS = (
    ("residues.search_s", "s"),
    ("residues.candidates", "count"),
    ("residues.candidates_per_s", "1/s"),
    ("feasibility.systems", "count"),
    ("feasibility.feasible", "count"),
    ("feasibility.s", "s"),
    ("feasibility.systems_per_s", "1/s"),
    ("feasibility.max_rows", "count"),
    ("wsne.exhaustive_search_s", "s"),
    ("wsne.self_s", "s"),
    ("wsne.pairs", "count"),
    ("wsne.pairs_per_s", "1/s"),
    ("wsne.systems_per_pair", "ratio"),
    *((f"formats.reverify_{kind}_s", "s") for kind in CERT_KINDS),
    ("formats.read_s", "s"),
    ("formats.write_s", "s"),
    ("formats.cert_bytes", "B"),
    ("digraph.cayley_s", "s"),
    ("digraph.shortest_cycle_s", "s"),
    ("digraph.domination_s", "s"),
    ("digraph.power_s", "s"),
    ("digraph.certify_kl_s", "s"),
    ("game.bipartify_s", "s"),
    ("game.char_decision_s", "s"),
    *((f"cli.{sub}_s", "s") for sub in SUBCOMMANDS),
    ("cli.startup_s", "s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Collects spans from the wrapped wsforge functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "wsforge" or name.startswith("wsforge."))
        }
        for layer, fname, info in WRAPPED:
            original = getattr(modules[f"wsforge.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, info)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts empty again."""
        taken = list(self.spans)
        del self.spans[:]
        return taken

    def _wrap(self, name, fn, info):
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def merge(spans: list[list], child_spans: list[list]) -> None:
    """Append spans recorded in another process, keeping parent links."""
    offset = len(spans)
    for name, start, end, parent, info in child_spans:
        spans.append([name, start, end, parent + offset if parent >= 0 else -1, info])


def layer_metrics(spans: list[list], processes: list[tuple[str, float, float]], scale: float) -> dict:
    """Per-layer metrics of one round from its spans and its CLI processes
    ``(subcommand, process wall time, time inside cli.main)``; every time is
    multiplied by ``scale``."""
    durations = [(end - start) * scale for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    child_systems = [0] * len(spans)
    for idx, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[idx]
            if name == "feasibility.feasible_point":
                child_systems[parent] += 1

    total: dict[str, float] = defaultdict(float)
    by_info: dict[tuple, float] = defaultdict(float)
    wsne_self = 0.0
    systems = feasible = max_rows = candidates = 0
    pairs = refuting_systems = 0
    refuting_time = 0.0
    cert_bytes = 0
    for idx, (name, _, _, _, info) in enumerate(spans):
        d = durations[idx]
        total[name] += d
        if name.startswith("wsne."):
            wsne_self += d - child_time[idx]
        if name == "feasibility.feasible_point":
            systems += 1
            max_rows = max(max_rows, info[0])
            feasible += info[1]
        elif name == "wsne.exhaustive_search" and info is not None:
            pairs += info
            refuting_time += d
            refuting_systems += child_systems[idx]
        elif name == "residues.search_haight_set":
            candidates += info
        elif name == "formats.write_certificate":
            cert_bytes += info
        elif name in ("formats.reverify", "cli.main"):
            by_info[(name, info)] += d

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {
        "residues.search_s": total["residues.search_haight_set"],
        "residues.candidates": candidates,
        "residues.candidates_per_s": rate(candidates, total["residues.search_haight_set"]),
        "feasibility.systems": systems,
        "feasibility.feasible": feasible,
        "feasibility.s": total["feasibility.feasible_point"],
        "feasibility.systems_per_s": rate(systems, total["feasibility.feasible_point"]),
        "feasibility.max_rows": max_rows,
        "wsne.exhaustive_search_s": total["wsne.exhaustive_search"],
        "wsne.self_s": wsne_self,
        "wsne.pairs": pairs,
        "wsne.pairs_per_s": rate(pairs, refuting_time),
        "wsne.systems_per_pair": refuting_systems / pairs if pairs else 0.0,
        "formats.read_s": sum(total[f"formats.read_{what}"] for what in ("certificate", "digraph", "game")),
        "formats.write_s": sum(total[f"formats.write_{what}"] for what in ("certificate", "digraph", "game")),
        "formats.cert_bytes": cert_bytes,
        "digraph.cayley_s": total["digraph.cayley"],
        "digraph.shortest_cycle_s": total["digraph.shortest_cycle"],
        "digraph.domination_s": sum(
            total[f"digraph.{fn}"] for fn in ("all_subsets_dominated", "find_undominated_set", "is_dominated")
        ),
        "digraph.power_s": total["digraph.power"],
        "digraph.certify_kl_s": total["digraph.certify_kl"],
        "game.bipartify_s": total["game.bipartify"],
        "game.char_decision_s": total["game.char_decision"],
        "cli.startup_s": scale * median(wall - inside for _, wall, inside in processes) if processes else 0.0,
    }
    for kind in CERT_KINDS:
        out[f"formats.reverify_{kind}_s"] = by_info[("formats.reverify", kind)]
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}_s"] = by_info[("cli.main", sub)]
    return out


def child_main() -> None:
    """Run ``wsforge.cli.main`` on this process's arguments with tracing on,
    then write the spans to the file named by WSFORGE_BENCH_TRACE."""
    from wsforge import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        with open(os.environ["WSFORGE_BENCH_TRACE"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)
