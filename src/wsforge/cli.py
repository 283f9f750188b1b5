"""Pipeline driver: every stage is a subcommand, from difference-set search
through Cayley construction, digraph powers, bipartite game mapping, WSNE
checking, exhaustive refutation, and certificate re-verification.

Exit status: 0 success, 2 usage or malformed input, 3 not found within
budget, 4 verification failed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .digraph import KLFailure, cayley, certify_kl, power
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
    reverify,
    validate_envelope,
    write_certificate,
    write_digraph,
    write_game,
    wsne_witness_payload,
)
from .game import bipartify, char_decision
from .residues import HaightCertificate, ResidueSet, SearchSpec, search_haight_set
from .wsne import NoWitness, check_wsne, exhaustive_search

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


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _order(text: str) -> int:
    value = _int_at_least(1)(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_ORDER}, got {value}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


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
    if env.kind != kind:
        raise FormatError(f"{path} is a {env.kind} certificate, expected {kind}")
    return validate_envelope(env)


def _search_replay(args: argparse.Namespace) -> str:
    return (
        f"wsforge search --kappa {args.kappa} --q-min {args.q_min} --q-max {args.q_max}"
        f" --budget {args.budget} --seed {args.seed} --mode {args.mode}"
    )


def cmd_search(args: argparse.Namespace) -> int:
    spec = SearchSpec(args.kappa, args.q_min, args.q_max, args.budget, args.seed, args.mode)
    result = search_haight_set(spec)
    if isinstance(result, HaightCertificate):
        print(
            f"found q={result.modulus} Y={{{', '.join(map(str, result.y.members()))}}}"
            f" kappa={result.kappa} (evaluated {result.candidates_evaluated} candidates)"
        )
        if args.out:
            env = make_envelope("haight", haight_payload(result), _search_replay(args))
            write_certificate(env, args.out)
            print(f"certificate written to {args.out}")
        return EXIT_OK
    print(
        f"not found within budget (evaluated {result.candidates_evaluated} candidates)",
        file=sys.stderr,
    )
    return EXIT_NOT_FOUND


def cmd_cayley(args: argparse.Namespace) -> int:
    if args.cert:
        q, members, _ = _certificate_values(args.cert, "haight")
    else:
        if args.q is None or args.y is None:
            print("error: need --cert or both --q and --y", file=sys.stderr)
            return EXIT_USAGE
        q = args.q
        members = args.y
    d = cayley(q, ResidueSet.from_members(q, members))
    write_digraph(d, args.out or sys.stdout)
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    d = read_digraph(args.infile)
    write_digraph(power(d, args.t), args.out or sys.stdout)
    return EXIT_OK


def cmd_bipartify(args: argparse.Namespace) -> int:
    d = read_digraph(args.infile)
    write_game(bipartify(d), args.out or sys.stdout)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    d = read_digraph(args.infile)
    result = certify_kl(d, args.k, args.l)
    if isinstance(result, KLFailure):
        if result.short_cycle is not None:
            print(
                f"FAILED: cycle of length {len(result.short_cycle)} < k={args.k}: "
                + " -> ".join(map(str, result.short_cycle))
            )
        else:
            print(
                f"FAILED: undominated {args.l}-set: "
                + "{" + ", ".join(map(str, result.undominated)) + "}"
            )
        return EXIT_VERIFY_FAILED
    girth_text = "acyclic" if result.girth_found is None else str(result.girth_found)
    print(f"verified ({args.k},{args.l})-digraph: n={d.n} girth={girth_text}")
    if args.out:
        env = make_envelope(
            "kl_digraph",
            kl_digraph_payload(d, result),
            f"wsforge certify --in {args.infile} --k {args.k} --l {args.l}",
        )
        write_certificate(env, args.out)
        print(f"certificate written to {args.out}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    g = read_game(args.game)
    _, p, q, _ = _certificate_values(args.strategy, "wsne_witness")
    verdict = check_wsne(g, p, q, args.eps)
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
    result = exhaustive_search(g, args.k, args.eps)
    replay = f"wsforge exhaust --game {args.game} --k {args.k} --eps {args.eps}"
    if isinstance(result, NoWitness):
        print(
            f"no eps-WSNE with supports of cardinality <= {args.k} at eps={args.eps}:"
            f" refuted {result.pairs_refuted} support pairs"
        )
        if args.out:
            payload = nonexistence_payload(g, args.k, args.eps, result)
            write_certificate(make_envelope("nonexistence", payload, replay), args.out)
            print(f"certificate written to {args.out}")
        return EXIT_OK
    p, q = result
    print(
        f"witness found at eps={args.eps}:"
        f" row support {list(p.support)}, col support {list(q.support)}"
    )
    if args.out:
        payload = wsne_witness_payload(g, p, q, args.eps)
        write_certificate(make_envelope("wsne_witness", payload, replay), args.out)
        print(f"certificate written to {args.out}")
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
    k = args.k
    eps = args.eps
    if not 0 <= eps < 1:
        print("error: --eps must satisfy 0 <= eps < 1", file=sys.stderr)
        return EXIT_USAGE
    replay = (
        f"wsforge forge --k {k} --eps {eps} --budget {args.budget} --seed {args.seed}"
        f" --q-min {args.q_min} --q-max {args.q_max} --mode {args.mode}"
    )

    if k == 1:
        # Girth-3 triangle with every singleton dominated; no search needed.
        base = cayley(3, ResidueSet.from_members(3, [2]))
        print("[search] k=1 uses the built-in directed triangle")
    else:
        kappa = 2 * k * (k - 1) + 1
        print(f"[search] hunting a kappa={kappa} set in q range [{args.q_min}, {args.q_max}]")
        spec = SearchSpec(kappa, args.q_min, args.q_max, args.budget, args.seed, args.mode)
        found = search_haight_set(spec)
        if not isinstance(found, HaightCertificate):
            print(
                f"[search] budget exhausted after {found.candidates_evaluated} candidates;"
                " no certificate emitted",
                file=sys.stderr,
            )
            return EXIT_NOT_FOUND
        print(
            f"[search] found q={found.modulus}"
            f" Y={{{', '.join(map(str, found.y.members()))}}}"
            f" ({found.candidates_evaluated} candidates)"
        )
        base = cayley(found.modulus, found.y)
        # At k = 2 the power below is the base itself (a Haight set has no 0, so
        # the base has no loops to strip) under the same (5,2) claim.
        if k >= 3:
            base_cert = certify_kl(base, kappa, 2)
            if isinstance(base_cert, KLFailure):
                print(f"[certify] base digraph failed: {base_cert}", file=sys.stderr)
                return EXIT_VERIFY_FAILED
            print(f"[certify] base is a ({kappa},2)-digraph on {base.n} vertices")

    exponent = k - 1
    target = power(base, exponent) if exponent >= 1 else base
    target_cert = certify_kl(target, 2 * k + 1, k)
    if isinstance(target_cert, KLFailure):
        print(f"[certify] power digraph failed: {target_cert}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"[certify] power is a ({2 * k + 1},{k})-digraph")

    g = bipartify(target)
    print(f"[bipartify] game is {g.m} x {g.n}")
    witness = char_decision(g, k)
    if witness is not None:
        print(f"[char] unexpected structure found: {witness}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"[char] no cycle of length <= {2 * k} and no one-sided undominated {k}-set")

    result = exhaustive_search(g, k, eps)
    if not isinstance(result, NoWitness):
        p, q = result
        print(
            f"[exhaust] unexpected witness: row support {list(p.support)},"
            f" col support {list(q.support)}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    print(f"[exhaust] refuted all {result.pairs_refuted} support pairs at eps={eps}")

    out_game = args.out_game or f"forge-k{k}.wl"
    out_cert = args.out_cert or f"forge-k{k}.cert.json"
    write_game(g, out_game)
    payload = nonexistence_payload(g, k, eps, result, char_none=True)
    write_certificate(make_envelope("nonexistence", payload, replay), out_cert)
    print(f"game written to {out_game}")
    print(f"certificate written to {out_cert}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsforge",
        description="Forge win-lose games with no small-support well-supported "
        "equilibria, and verify every claim exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="search Z_q for a complete-difference, zero-sum-free set")
    p.add_argument("--kappa", type=_int_at_least(2), required=True)
    p.add_argument("--q-min", type=_order, default=2)
    p.add_argument("--q-max", type=_order, required=True)
    p.add_argument("--budget", type=_int_at_least(1), default=1_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default="exhaustive")
    p.add_argument("--out", help="write a haight certificate here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cayley", help="build the Cayley digraph of a residue set")
    p.add_argument("--q", type=_order)
    p.add_argument("--y", type=_residue_list, help="comma-separated residues, e.g. 1,2,4")
    p.add_argument("--cert", help="haight certificate file to take (q, Y) from")
    p.add_argument("--out", help="digraph file (stdout if omitted)")
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("power", help="bounded-walk power of a digraph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--out", help="digraph file (stdout if omitted)")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("bipartify", help="map a digraph to a square win-lose game")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="game file (stdout if omitted)")
    p.set_defaults(func=cmd_bipartify)

    p = sub.add_parser("certify", help="certify girth and domination of a digraph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--l", type=_int_at_least(1), required=True)
    p.add_argument("--out", help="write a kl_digraph certificate here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check", help="check strategies against a game at some eps")
    p.add_argument("--game", required=True)
    p.add_argument("--strategy", required=True, help="wsne_witness certificate with p and q")
    p.add_argument("--eps", type=_rational, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("exhaust", help="enumerate all support pairs up to cardinality k")
    p.add_argument("--game", required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--out", help="write a witness or nonexistence certificate here")
    p.set_defaults(func=cmd_exhaust)

    p = sub.add_parser("reverify", help="re-run the defining checks of any certificate")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_reverify)

    p = sub.add_parser("forge", help="end-to-end: game with no eps-WSNE of support <= k")
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--budget", type=_int_at_least(1), default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--q-min", type=_order, default=2)
    p.add_argument("--q-max", type=_order, default=64)
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default="randomized")
    p.add_argument("--out-game")
    p.add_argument("--out-cert")
    p.set_defaults(func=cmd_forge)

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
    sys.exit(main())
