"""Bit-exact file formats: digraphs, games, and self-contained certificates.

Digraph files: line 1 is "n m", then m lines "u v" (0-based, one arc each,
written in lexicographic order); '#' comment lines and blank lines are
ignored on read; duplicate arcs are rejected, not merged.

Game files: line 1 is "m n", then m rows of A as strings over {0,1}, one
blank line, then m rows of B.

Certificates are JSON envelopes carrying a schema tag, a kind tag, the
toolchain version, a replay command line, and a kind-specific payload with
every input embedded, so :func:`reverify` can re-run the defining checks
from the envelope alone. Rationals are "a/b" strings (bare integers when
the denominator is 1); sets are sorted integer lists. Output is UTF-8 with
LF line endings and deterministic key order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Union

from . import __version__
from .digraph import (
    Digraph,
    all_subsets_dominated,
    shortest_cycle,
)
from .game import WinLoseGame, char_decision, out_degree_offenders
from .residues import ResidueSet, satisfies_haight
from .wsne import MixedStrategy, NoWitness, check_wsne, exhaustive_search

__all__ = [
    "FormatError",
    "CertificateError",
    "CertificateEnvelope",
    "ReverifyResult",
    "SCHEMA_TAG",
    "MAX_ORDER",
    "toolchain_version",
    "write_digraph",
    "read_digraph",
    "write_game",
    "read_game",
    "write_certificate",
    "read_certificate",
    "make_envelope",
    "validate_envelope",
    "game_payload",
    "reverify",
    "format_rational",
    "parse_rational",
]

SCHEMA_TAG = "wsforge-cert/1"
CERT_KINDS = ("haight", "kl_digraph", "wsne_witness", "nonexistence")

# Largest vertex count or modulus accepted from a file, a certificate or the
# command line. Far above what the search and the refutation reach, it turns
# a hostile size into exit 2 before anything is allocated or looped over by it.
MAX_ORDER = 4096

Source = Union[str, Path, IO[str]]


class FormatError(ValueError):
    """Malformed digraph or game text."""


class CertificateError(ValueError):
    """Certificate violates the schema; the message names the field."""


def toolchain_version() -> str:
    return f"wsforge {__version__}"


@dataclass(frozen=True)
class CertificateEnvelope:
    kind: str
    payload: dict
    toolchain: str
    replay: str


@dataclass(frozen=True)
class ReverifyResult:
    ok: bool
    kind: str
    detail: str


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------


def format_rational(value: Fraction) -> str:
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or a bare integer; anything float-like is rejected."""
    if not isinstance(text, str):
        raise FormatError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip()
    if "." in s or "e" in s or "E" in s or not s:
        raise FormatError(f"not an 'a/b' rational literal: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not an 'a/b' rational literal: {text!r}") from exc


# ---------------------------------------------------------------------------
# Stream plumbing
# ---------------------------------------------------------------------------


def _read_text(src: Source) -> str:
    if isinstance(src, (str, Path)):
        return Path(src).read_text(encoding="utf-8")
    return src.read()


def _write_text(dest: Source, text: str) -> None:
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8", newline="\n")
    else:
        dest.write(text)


# ---------------------------------------------------------------------------
# Digraph format
# ---------------------------------------------------------------------------


def write_digraph(d: Digraph, dest: Source) -> None:
    lines = [f"{d.n} {d.arc_count()}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    _write_text(dest, "\n".join(lines) + "\n")


def read_digraph(src: Source) -> Digraph:
    data = [
        (no, line.strip())
        for no, line in enumerate(_read_text(src).splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not data:
        raise FormatError("empty digraph file")
    no, header = data[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise FormatError(f"line {no}: expected header 'n m', got {header!r}")
    n, m = int(parts[0]), int(parts[1])
    if n > MAX_ORDER:
        raise FormatError(f"line {no}: vertex count {n} exceeds {MAX_ORDER}")
    if len(data) - 1 != m:
        raise FormatError(f"expected {m} arc lines, found {len(data) - 1}")
    rows = [0] * n
    for no, line in data[1:]:
        parts = line.split()
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise FormatError(f"line {no}: expected 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {no}: arc ({u}, {v}) outside vertex range [0, {n})")
        if rows[u] >> v & 1:
            raise FormatError(f"line {no}: duplicate arc ({u}, {v})")
        rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Game format
# ---------------------------------------------------------------------------


def _parse_payoff_row(line: str, n: int, no: int) -> int:
    if len(line) != n:
        raise FormatError(f"line {no}: row has length {len(line)}, expected {n}")
    mask = 0
    for j, ch in enumerate(line):
        if ch == "1":
            mask |= 1 << j
        elif ch != "0":
            raise FormatError(f"line {no}: illegal character {ch!r}")
    return mask


def write_game(g: WinLoseGame, dest: Source) -> None:
    lines = [f"{g.m} {g.n}"]
    lines.extend("".join(str(g.a(i, j)) for j in range(g.n)) for i in range(g.m))
    lines.append("")
    lines.extend("".join(str(g.b(i, j)) for j in range(g.n)) for i in range(g.m))
    _write_text(dest, "\n".join(lines) + "\n")


def read_game(src: Source) -> WinLoseGame:
    lines = _read_text(src).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("empty game file")
    parts = lines[0].split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise FormatError(f"line 1: expected header 'm n', got {lines[0]!r}")
    m, n = int(parts[0]), int(parts[1])
    if len(lines) != 2 * m + 2:
        raise FormatError(f"expected {2 * m + 2} lines (header, A, blank, B), found {len(lines)}")
    if lines[m + 1].strip():
        raise FormatError(f"line {m + 2}: expected a blank separator line")
    a_rows = tuple(_parse_payoff_row(lines[1 + i], n, 2 + i) for i in range(m))
    b_rows = tuple(_parse_payoff_row(lines[m + 2 + i], n, m + 3 + i) for i in range(m))
    return WinLoseGame(m, n, a_rows, b_rows)


# ---------------------------------------------------------------------------
# Certificate schema
# ---------------------------------------------------------------------------


def _require(payload: dict, field: str, kinds, where: str = "payload"):
    if field not in payload:
        raise CertificateError(f"{where}.{field}: missing required field")
    value = payload[field]
    if not isinstance(value, kinds) or isinstance(value, bool) and kinds is int:
        raise CertificateError(
            f"{where}.{field}: expected {getattr(kinds, '__name__', kinds)},"
            f" got {type(value).__name__}"
        )
    return value


def _require_int(payload: dict, field: str, minimum: int, where: str = "payload") -> int:
    value = _require(payload, field, int, where)
    if value < minimum:
        raise CertificateError(f"{where}.{field}: must be >= {minimum}, got {value}")
    return value


def _require_order(payload: dict, field: str) -> int:
    value = _require_int(payload, field, 1)
    if value > MAX_ORDER:
        raise CertificateError(f"payload.{field}: must be <= {MAX_ORDER}, got {value}")
    return value


def _require_int_list(payload: dict, field: str, where: str = "payload") -> list[int]:
    value = _require(payload, field, list, where)
    for pos, item in enumerate(value):
        if not isinstance(item, int) or isinstance(item, bool):
            raise CertificateError(f"{where}.{field}[{pos}]: expected int")
    return value


def _require_sorted_set(payload: dict, field: str, upper: int, where: str = "payload") -> list[int]:
    value = _require_int_list(payload, field, where)
    if value != sorted(set(value)):
        raise CertificateError(f"{where}.{field}: must be a sorted list without duplicates")
    for pos, item in enumerate(value):
        if not 0 <= item < upper:
            raise CertificateError(f"{where}.{field}[{pos}]: {item} outside [0, {upper})")
    return value


def _require_rational(payload: dict, field: str, where: str = "payload") -> Fraction:
    value = _require(payload, field, str, where)
    try:
        parsed = parse_rational(value)
    except FormatError as exc:
        raise CertificateError(f"{where}.{field}: {exc}") from exc
    if parsed < 0:
        raise CertificateError(f"{where}.{field}: must be >= 0, got {value}")
    return parsed


def _require_rows(payload: dict, field: str, m: int, n: int, where: str = "payload") -> tuple[int, ...]:
    value = _require(payload, field, list, where)
    if len(value) != m:
        raise CertificateError(f"{where}.{field}: expected {m} rows, got {len(value)}")
    rows = []
    for pos, row in enumerate(value):
        if not isinstance(row, str):
            raise CertificateError(f"{where}.{field}[{pos}]: expected a 0/1 string")
        try:
            rows.append(_parse_payoff_row(row, n, 0))
        except FormatError as exc:
            raise CertificateError(f"{where}.{field}[{pos}]: {exc}") from exc
    return tuple(rows)


def _game_from_payload(payload: dict) -> WinLoseGame:
    m = _require_int(payload, "m", 1)
    n = _require_int(payload, "n", 1)
    a_rows = _require_rows(payload, "a", m, n)
    b_rows = _require_rows(payload, "b", m, n)
    return WinLoseGame(m, n, a_rows, b_rows)


def game_payload(g: WinLoseGame) -> dict:
    return {
        "m": g.m,
        "n": g.n,
        "a": ["".join(str(g.a(i, j)) for j in range(g.n)) for i in range(g.m)],
        "b": ["".join(str(g.b(i, j)) for j in range(g.n)) for i in range(g.m)],
    }


def _strategy_from_payload(payload: dict, field: str, length: int) -> MixedStrategy:
    value = _require(payload, field, list)
    if len(value) != length:
        raise CertificateError(f"payload.{field}: expected {length} entries, got {len(value)}")
    probs = []
    for pos, item in enumerate(value):
        if not isinstance(item, str):
            raise CertificateError(f"payload.{field}[{pos}]: expected a rational string")
        try:
            probs.append(parse_rational(item))
        except FormatError as exc:
            raise CertificateError(f"payload.{field}[{pos}]: {exc}") from exc
    try:
        return MixedStrategy(tuple(probs))
    except ValueError as exc:
        raise CertificateError(f"payload.{field}: {exc}") from exc


def validate_envelope(env: CertificateEnvelope) -> tuple:
    """Check ``env`` against the schema and return its payload's values,
    parsed: (q, y, kappa) for haight, (n, arcs, k, l, girth) for
    kl_digraph, (g, p, q, eps) for wsne_witness and (g, k, eps,
    pairs_refuted, char_none) for nonexistence. Every CertificateError
    names the offending field."""
    if env.kind not in CERT_KINDS:
        raise CertificateError(f"kind: unknown certificate kind {env.kind!r}")
    if not isinstance(env.payload, dict) or not env.payload:
        raise CertificateError("payload: must be a nonempty object")
    if not isinstance(env.toolchain, str) or not env.toolchain:
        raise CertificateError("toolchain: must be a nonempty string")
    if not isinstance(env.replay, str) or not env.replay:
        raise CertificateError("replay: must be a nonempty string")
    payload = env.payload
    if env.kind == "haight":
        q = _require_order(payload, "q")
        y = _require_sorted_set(payload, "y", q)
        return q, y, _require_int(payload, "kappa", 2)
    if env.kind == "kl_digraph":
        n = _require_order(payload, "n")
        arcs = _require(payload, "arcs", list)
        for pos, arc in enumerate(arcs):
            if (
                not isinstance(arc, list)
                or len(arc) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in arc)
            ):
                raise CertificateError(f"payload.arcs[{pos}]: expected [u, v]")
            if not all(0 <= x < n for x in arc):
                raise CertificateError(f"payload.arcs[{pos}]: vertex outside [0, {n})")
        k = _require_int(payload, "k", 1)
        l = _require_int(payload, "l", 1)
        if "girth" not in payload:
            raise CertificateError("payload.girth: missing required field (null means acyclic)")
        girth_found = payload["girth"]
        if girth_found is not None and (
            not isinstance(girth_found, int) or isinstance(girth_found, bool) or girth_found < 1
        ):
            raise CertificateError("payload.girth: expected a positive int or null")
        return n, arcs, k, l, girth_found
    g = _game_from_payload(payload)
    if env.kind == "wsne_witness":
        p = _strategy_from_payload(payload, "p", g.m)
        q = _strategy_from_payload(payload, "q", g.n)
        return g, p, q, _require_rational(payload, "eps")
    # nonexistence
    k = _require_int(payload, "k", 1)
    if k > min(g.m, g.n):
        raise CertificateError(f"payload.k: {k} exceeds min(m, n) = {min(g.m, g.n)}")
    eps = _require_rational(payload, "eps")
    pairs_refuted = _require_int(payload, "pairs_refuted", 1)
    char_none = payload.get("char_none", False)
    if not isinstance(char_none, bool):
        raise CertificateError("payload.char_none: expected a boolean")
    return g, k, eps, pairs_refuted, char_none


def make_envelope(kind: str, payload: dict, replay: str) -> CertificateEnvelope:
    env = CertificateEnvelope(kind, payload, toolchain_version(), replay)
    validate_envelope(env)
    return env


def write_certificate(env: CertificateEnvelope, dest: Source) -> None:
    validate_envelope(env)
    doc = {
        "schema": SCHEMA_TAG,
        "kind": env.kind,
        "toolchain": env.toolchain,
        "replay": env.replay,
        "payload": env.payload,
    }
    _write_text(dest, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_certificate(src: Source) -> CertificateEnvelope:
    try:
        doc = json.loads(_read_text(src))
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateError("top level: expected an object")
    if doc.get("schema") != SCHEMA_TAG:
        raise CertificateError(f"schema: expected {SCHEMA_TAG!r}, got {doc.get('schema')!r}")
    for field in ("kind", "toolchain", "replay", "payload"):
        if field not in doc:
            raise CertificateError(f"{field}: missing required field")
    env = CertificateEnvelope(doc["kind"], doc["payload"], doc["toolchain"], doc["replay"])
    validate_envelope(env)
    return env


# ---------------------------------------------------------------------------
# Re-verification
# ---------------------------------------------------------------------------


def reverify(env: CertificateEnvelope) -> ReverifyResult:
    """Re-run the defining checks of any certificate from embedded data only."""
    parsed = validate_envelope(env)
    if env.kind == "haight":
        q, members, kappa = parsed
        y = ResidueSet.from_members(q, members)
        if not satisfies_haight(y, kappa):
            return ReverifyResult(False, env.kind, "stored set fails the certified conditions")
        return ReverifyResult(
            True, env.kind, f"q={q} set of size {len(y)} re-verified at kappa={kappa}"
        )
    if env.kind == "kl_digraph":
        n, arcs, k, l, girth_found = parsed
        d = Digraph.from_arcs(n, arcs)
        cyc = shortest_cycle(d)
        found = None if cyc is None else len(cyc)
        if found != girth_found:
            return ReverifyResult(
                False, env.kind, f"recomputed girth {found} != certified {girth_found}"
            )
        if found is not None and found < k:
            return ReverifyResult(False, env.kind, f"girth {found} below k={k}")
        if l > n:
            return ReverifyResult(False, env.kind, f"l={l} exceeds n={n}")
        if not all_subsets_dominated(d, l):
            return ReverifyResult(False, env.kind, f"an undominated {l}-set exists")
        return ReverifyResult(
            True, env.kind, f"girth and domination re-verified for (k, l)=({k}, {l})"
        )
    if env.kind == "wsne_witness":
        g, p, q, eps = parsed
        verdict = check_wsne(g, p, q, eps)
        if not verdict.valid:
            worst = verdict.violations[0]
            return ReverifyResult(
                False,
                env.kind,
                f"{worst.player} {worst.index} pays {worst.payoff}, short by {worst.shortfall}",
            )
        return ReverifyResult(True, env.kind, f"strategies re-verified at eps={eps}")
    # nonexistence
    g, k, eps, pairs_refuted, char_none = parsed
    if char_none:
        offenders = out_degree_offenders(g)
        if offenders:
            detail = "characterization needs out-degree >= 1: " + ", ".join(offenders)
            return ReverifyResult(False, env.kind, detail)
        witness = char_decision(g, k)
        if witness is not None:
            return ReverifyResult(False, env.kind, f"characterization found {witness}")
    result = exhaustive_search(g, k, eps)
    if not isinstance(result, NoWitness):
        return ReverifyResult(False, env.kind, "enumeration found a witness after all")
    if result.pairs_refuted != pairs_refuted:
        return ReverifyResult(
            False,
            env.kind,
            f"refuted {result.pairs_refuted} pairs, certificate claims {pairs_refuted}",
        )
    return ReverifyResult(
        True, env.kind, f"all {result.pairs_refuted} support pairs re-refuted at eps={eps}"
    )
