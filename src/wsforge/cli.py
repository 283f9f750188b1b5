"""Command-line driver: every stage is a subcommand, from difference-set
search through Cayley construction, digraph powers, bipartite game mapping,
WSNE checking, exhaustive refutation, and certificate re-verification;
``forge`` runs them all through :func:`wsforge.pipeline.forge`. ``search``,
``certify`` and ``exhaust`` print the outcome of the same pipeline step.

Exit status: 0 success, 2 usage or malformed input, 3 not found (no set
exists in the range, or the budget ran out), 4 verification failed.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import TYPE_CHECKING

from . import digraph, game, pipeline, residues, wsne
from .formats import (
    MAX_ORDER,
    FormatError,
    haight_payload,
    kl_digraph_payload,
    make_envelope,
    nonexistence_payload,
    parse_rational,
    read_certificate,
    read_digraph,
    read_game,
    require_pairs_within_max_work,
    require_subsets_within_max_work,
    reverify,
    validate_envelope,
    write_certificate,
    write_digraph,
    write_game,
    wsne_witness_payload,
)

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_VERIFY_FAILED = 4


# ---------------------------------------------------------------------------
# Argument types
# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_in(lo: int, hi: int | None = None):
    """An integer argument in [lo, hi] (no upper bound when ``hi`` is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    return parse


_order = _int_in(1, MAX_ORDER)
_seed = _int_in(0, (1 << 64) - 1)


def _residue_list(text: str) -> list[int]:
    stripped = text.strip()
    if not stripped:
        return []
    try:
        return [int(part) for part in stripped.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _certificate_values(path: str, kind: str) -> tuple:
    """The parsed payload of the ``kind`` certificate at ``path``."""
    env = read_certificate(path)
    values = validate_envelope(env)  # a payload error comes before a wrong kind
    if env.kind != kind:
        raise FormatError(f"{path} is a {env.kind} certificate, expected {kind}")
    return values


def _write_certificate(args: argparse.Namespace, kind: str, payload: dict, out: str) -> None:
    """Write a ``kind`` certificate to ``out``. Its replay line repeats the
    subcommand's declared options in declaration order, output paths (the
    ``--out*`` options) left out."""
    replay = ["wsforge", args.command]
    for action in args.parser._actions:
        if action.option_strings and action.dest in vars(args) and not action.dest.startswith("out"):
            replay += [action.option_strings[0], str(getattr(args, action.dest))]
    write_certificate(make_envelope(kind, payload, " ".join(replay)), out)
    print(f"certificate written to {out}")


def cmd_search(args: argparse.Namespace) -> int:
    spec = residues.SearchSpec(args.kappa, args.q_min, args.q_max, args.budget, args.seed, args.mode)
    stage = pipeline.search(spec)
    print(stage.detail, file=sys.stdout if stage.ok else sys.stderr)
    if not stage.ok:
        return EXIT_NOT_FOUND
    if args.out:
        _write_certificate(args, "haight", haight_payload(stage.product), args.out)
    return EXIT_OK


def cmd_cayley(args: argparse.Namespace) -> int:
    from_cert = args.cert is not None
    if from_cert == (args.q is not None) or from_cert == (args.y is not None):
        print("error: need --cert or both --q and --y, not both", file=sys.stderr)
        return EXIT_USAGE
    if from_cert:
        q, members, _ = _certificate_values(args.cert, "haight")
    else:
        q, members = args.q, args.y
    d = digraph.cayley(q, residues.ResidueSet.from_members(q, members))
    write_digraph(d, args.out or sys.stdout)
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    d = read_digraph(args.infile)
    write_digraph(digraph.power(d, args.t), args.out or sys.stdout)
    return EXIT_OK


def cmd_bipartify(args: argparse.Namespace) -> int:
    d = read_digraph(args.infile)
    write_game(game.bipartify(d), args.out or sys.stdout)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    d = read_digraph(args.infile)
    require_subsets_within_max_work(d.n, args.l, "--l")
    stage = pipeline.certify(d, args.k, args.l)
    print(stage.detail)
    if not stage.ok:
        return EXIT_VERIFY_FAILED
    if args.out:
        _write_certificate(args, "kl_digraph", kl_digraph_payload(d, stage.product), args.out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    g = read_game(args.game)
    _, p, q, _ = _certificate_values(args.strategy, "wsne_witness")
    verdict = wsne.check_wsne(g, p, q, args.eps)
    if verdict.valid:
        print(
            f"valid at eps={verdict.epsilon}"
            f" (row best {verdict.row_best}, col best {verdict.col_best})"
        )
        return EXIT_OK
    print(f"INVALID at eps={verdict.epsilon}:")
    for v in verdict.violations:
        print(f"  {v.player} {v.index} pays {v.payoff}, short by {v.shortfall}")
    return EXIT_VERIFY_FAILED


def cmd_exhaust(args: argparse.Namespace) -> int:
    g = read_game(args.game)
    require_pairs_within_max_work(g.m, g.n, args.k, "--k")
    stage = pipeline.exhaust(g, args.k, args.eps)
    print(stage.detail)
    if stage.ok:
        kind, payload = "nonexistence", nonexistence_payload(g, args.k, args.eps, stage.product)
    else:
        kind, payload = "wsne_witness", wsne_witness_payload(g, *stage.product, args.eps)
    if args.out:
        _write_certificate(args, kind, payload, args.out)
    return EXIT_OK


def cmd_reverify(args: argparse.Namespace) -> int:
    env = read_certificate(args.cert)
    result = reverify(env)
    if result.ok:
        print(f"OK [{result.kind}] {result.detail}")
        return EXIT_OK
    print(f"FAILED [{result.kind}] {result.detail}")
    return EXIT_VERIFY_FAILED


def cmd_forge(args: argparse.Namespace) -> int:
    products = {}
    stages = pipeline.forge(
        args.k, args.eps, budget=args.budget, seed=args.seed,
        q_min=args.q_min, q_max=args.q_max, mode=args.mode,
    )
    for stage in stages:
        # flushed, so that a pipe shows each stage, the hunt included, as it ends
        print(f"[{stage.name}] {stage.detail}", file=sys.stdout if stage.ok else sys.stderr, flush=True)
        if not stage.ok:
            return EXIT_NOT_FOUND if stage.name == "search" else EXIT_VERIFY_FAILED
        products[stage.name] = stage.product
    g = products["bipartify"]
    out_game = args.out_game or f"forge-k{args.k}.wl"
    write_game(g, out_game)
    print(f"game written to {out_game}")
    payload = nonexistence_payload(g, args.k, args.eps, products["exhaust"], char_none=True)
    _write_certificate(args, "nonexistence", payload, args.out_cert or f"forge-k{args.k}.cert.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_MODE_HELP = (
    "exhaustive: one depth-first search per modulus, members in increasing order;"
    " randomized: seeded restarts of it on shuffled members, round-robin over the moduli"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsforge",
        description="Forge win-lose games with no small-support well-supported "
        "equilibria, and verify every claim exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, parser=p)  # the parser gives the replay line its options
        return p

    p = command("search", cmd_search, "search Z_q for a complete-difference, zero-sum-free set")
    p.add_argument("--kappa", type=_int_in(2), required=True)
    p.add_argument("--q-min", type=_order, default=2)
    p.add_argument("--q-max", type=_order, required=True)
    p.add_argument("--budget", type=_int_in(1), default=1_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default="exhaustive", help=_MODE_HELP)
    p.add_argument("--out", help="write a haight certificate here")

    p = command("cayley", cmd_cayley, "build the Cayley digraph of a residue set")
    p.add_argument("--q", type=_order)
    p.add_argument("--y", type=_residue_list, help="comma-separated residues, e.g. 1,2,4")
    p.add_argument("--cert", help="haight certificate file to take (q, Y) from")
    p.add_argument("--out", help="digraph file (stdout if omitted)")

    p = command("power", cmd_power, "bounded-walk power of a digraph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=_int_in(1), required=True)
    p.add_argument("--out", help="digraph file (stdout if omitted)")

    p = command("bipartify", cmd_bipartify, "map a digraph to a square win-lose game")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="game file (stdout if omitted)")

    p = command("certify", cmd_certify, "certify girth and domination of a digraph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=_int_in(1), required=True)
    p.add_argument("--l", type=_int_in(1), required=True)
    p.add_argument("--out", help="write a kl_digraph certificate here")

    p = command("check", cmd_check, "check strategies against a game at some eps")
    p.add_argument("--game", required=True)
    p.add_argument("--strategy", required=True, help="wsne_witness certificate with p and q")
    p.add_argument("--eps", type=_rational, required=True)

    p = command("exhaust", cmd_exhaust, "enumerate all support pairs up to cardinality k")
    p.add_argument("--game", required=True)
    p.add_argument("--k", type=_int_in(1), required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--out", help="write a witness or nonexistence certificate here")

    p = command("reverify", cmd_reverify, "re-run the defining checks of any certificate")
    p.add_argument("--cert", required=True)

    p = command("forge", cmd_forge, "end-to-end: game with no eps-WSNE of support <= k")
    p.add_argument("--k", type=_int_in(1), required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--budget", type=_int_in(1), default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--q-min", type=_order, default=2)
    p.add_argument("--q-max", type=_order, default=64)
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default="exhaustive", help=_MODE_HELP)
    p.add_argument("--out-game")
    p.add_argument("--out-cert")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """The ``wsforge`` script: run :func:`main` on the process's arguments
    and exit with its status.

    Interpreter finalization runs full collections over every object the
    collector tracks, 10-19 ms per CLI process on a 2-core Xeon host; the
    objects frozen here are skipped. Exit handlers, stream flushing and the
    exit status are unchanged. Only this entry point freezes: ``main`` and
    library calls leave the collector alone."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
