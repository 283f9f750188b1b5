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
LF line endings and deterministic key order. Each kind has its payload
builder, its parser and its re-check side by side below.
"""

from __future__ import annotations

import json
import re
from functools import partial
from math import comb
from pathlib import Path
from typing import IO, NamedTuple, Optional, Union

from . import __version__, digraph, game, residues, wsne

__all__ = [
    "FormatError",
    "CertificateError",
    "CertificateEnvelope",
    "ReverifyResult",
    "SCHEMA_TAG",
    "CERT_KINDS",
    "MAX_ORDER",
    "MAX_WORK",
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
    "haight_payload",
    "kl_digraph_payload",
    "wsne_witness_payload",
    "nonexistence_payload",
    "reverify",
    "parse_rational",
    "require_pairs_within_max_work",
    "require_subsets_within_max_work",
]

SCHEMA_TAG = "wsforge-cert/1"

# Largest vertex count or modulus accepted from a file, a certificate or the
# command line. Far above what the search and the refutation reach, it turns
# a hostile size into exit 2 before anything is allocated or looped over by it.
MAX_ORDER = 4096

# Most l-subsets (kl_digraph) or support pairs (nonexistence) a certificate may
# ask reverify to enumerate; larger claims exit 2 before any work starts.
# 10**8 admits every k = 2 game up to 140 x 140 and every k = 3 game up to
# 39 x 39.
MAX_WORK = 10**8

Source = Union[str, Path, IO[str]]


class FormatError(ValueError):
    """Malformed digraph or game text."""


class CertificateError(ValueError):
    """Certificate violates the schema; the message names the field."""


def toolchain_version() -> str:
    return f"wsforge {__version__}"


class CertificateEnvelope(NamedTuple):
    kind: str
    payload: dict
    toolchain: str
    replay: str


class ReverifyResult(NamedTuple):
    ok: bool
    kind: str
    detail: str


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------


# Plain ASCII "a/b" or "a", the form every certificate writes.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# fractions.Fraction, bound by the first parse_rational call. Importing
# fractions (and decimal, which it imports) costs a process about 4 ms, which
# the subcommands that parse no rational now skip. An import statement in
# every call would cost each parse about 1.7 us more than this check.
Fraction = None


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or a bare integer; anything float-like is rejected.

    Plain ASCII literals skip Fraction's string parser, which all other
    text still takes, so the strings accepted and the errors raised are
    those of Fraction(str).
    """
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    if not isinstance(text, str):
        raise FormatError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip()
    if "." in s or "e" in s or "E" in s or not s:
        raise FormatError(f"not an 'a/b' rational literal: {text!r}")
    try:
        plain = _PLAIN_RATIONAL.fullmatch(s)
        if plain is not None:
            num, den = int(plain[1]), int(plain[2] or 1)
            if den:
                return Fraction(num, den)
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


def _read_header(no: int, line: str, names: str) -> tuple[int, int]:
    """The two decimal counts of header line ``no``, which names them."""
    parts = line.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise FormatError(f"line {no}: expected header {names!r}, got {line!r}")
    return int(parts[0]), int(parts[1])


# ---------------------------------------------------------------------------
# Digraph format
# ---------------------------------------------------------------------------


def _digraph_from_arcs(n: int, arcs: list[tuple[str, int, int]], error: type) -> digraph.Digraph:
    """The digraph on n vertices with the given (where, u, v) arcs. An arc
    outside [0, n) or given twice raises ``error`` naming its ``where``."""
    rows = [0] * n
    for where, u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise error(f"{where}: arc ({u}, {v}) outside vertex range [0, {n})")
        if rows[u] >> v & 1:
            raise error(f"{where}: duplicate arc ({u}, {v})")
        rows[u] |= 1 << v
    return digraph.Digraph(n, tuple(rows))


def write_digraph(d: digraph.Digraph, dest: Source) -> None:
    lines = [f"{d.n} {d.arc_count()}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    _write_text(dest, "\n".join(lines) + "\n")


def read_digraph(src: Source) -> digraph.Digraph:
    data = [
        (no, line.strip())
        for no, line in enumerate(_read_text(src).splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not data:
        raise FormatError("empty digraph file")
    no, header = data[0]
    n, m = _read_header(no, header, "n m")
    if n > MAX_ORDER:
        raise FormatError(f"line {no}: vertex count {n} exceeds {MAX_ORDER}")
    if len(data) - 1 != m:
        raise FormatError(f"expected {m} arc lines, found {len(data) - 1}")
    arcs = []
    for no, line in data[1:]:
        parts = line.split()
        if len(parts) != 2 or not all(p.removeprefix("-").isdecimal() for p in parts):
            raise FormatError(f"line {no}: expected 'u v', got {line!r}")
        arcs.append((f"line {no}", int(parts[0]), int(parts[1])))
    return _digraph_from_arcs(n, arcs, FormatError)


# ---------------------------------------------------------------------------
# Game format
# ---------------------------------------------------------------------------


def _payoff_rows(rows: tuple[int, ...], n: int) -> list[str]:
    """Bitmask rows as 0/1 strings, column 0 first."""
    return [bin(mask | 1 << n)[3:][::-1] for mask in rows]


def _parse_payoff_row(n: int, row: str) -> int:
    """The bitmask of a 0/1 row string of length n. The FormatError for a
    malformed row does not say where the row is; the caller adds that."""
    if type(row) is not str:
        raise FormatError("expected a 0/1 string")
    if len(row) != n:
        raise FormatError(f"row has length {len(row)}, expected {n}")
    # What strip leaves starts at the first character other than 0 or 1. The
    # check comes first: int() would also take '_', spaces, signs and
    # non-ASCII digits.
    illegal = row.strip("01")
    if illegal:
        raise FormatError(f"illegal character {illegal[0]!r}")
    return int(row[::-1], 2)


def write_game(g: game.WinLoseGame, dest: Source) -> None:
    lines = [f"{g.m} {g.n}", *_payoff_rows(g.a_rows, g.n), "", *_payoff_rows(g.b_rows, g.n)]
    _write_text(dest, "\n".join(lines) + "\n")


def read_game(src: Source) -> game.WinLoseGame:
    lines = _read_text(src).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("empty game file")
    m, n = _read_header(1, lines[0], "m n")
    if max(m, n) > MAX_ORDER:
        raise FormatError(f"line 1: a {m} x {n} game exceeds {MAX_ORDER} rows or columns")
    if len(lines) != 2 * m + 2:
        raise FormatError(f"expected {2 * m + 2} lines (header, A, blank, B), found {len(lines)}")
    if lines[m + 1].strip():
        raise FormatError(f"line {m + 2}: expected a blank separator line")
    rows = []
    for no in (*range(2, m + 2), *range(m + 3, 2 * m + 3)):
        try:
            rows.append(_parse_payoff_row(n, lines[no - 1]))
        except FormatError as exc:
            raise FormatError(f"line {no}: {exc}") from exc
    return game.WinLoseGame(m, n, tuple(rows[:m]), tuple(rows[m:]))


# ---------------------------------------------------------------------------
# Certificate fields
# ---------------------------------------------------------------------------


def _require(payload: dict, field: str, kind: type):
    if field not in payload:
        raise CertificateError(f"payload.{field}: missing required field")
    value = payload[field]
    if type(value) is not kind:
        raise CertificateError(f"payload.{field}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _require_int(payload: dict, field: str, minimum: int) -> int:
    value = _require(payload, field, int)
    if value < minimum:
        raise CertificateError(f"payload.{field}: must be >= {minimum}, got {value}")
    return value


def _require_order(payload: dict, field: str) -> int:
    value = _require_int(payload, field, 1)
    if value > MAX_ORDER:
        raise CertificateError(f"payload.{field}: must be <= {MAX_ORDER}, got {value}")
    return value


def _require_sorted_set(payload: dict, field: str, upper: int) -> list[int]:
    value = _require(payload, field, list)
    for pos, item in enumerate(value):
        if type(item) is not int:
            raise CertificateError(f"payload.{field}[{pos}]: expected int")
        if not 0 <= item < upper:
            raise CertificateError(f"payload.{field}[{pos}]: {item} outside [0, {upper})")
    if value != sorted(set(value)):
        raise CertificateError(f"payload.{field}: must be a sorted list without duplicates")
    return value


def _require_rational(payload: dict, field: str) -> Fraction:
    value = _require(payload, field, str)
    try:
        parsed = parse_rational(value)
    except FormatError as exc:
        raise CertificateError(f"payload.{field}: {exc}") from exc
    if parsed < 0:
        raise CertificateError(f"payload.{field}: must be >= 0, got {value}")
    return parsed


def _require_list(payload: dict, field: str, length: int, noun: str, parse) -> tuple:
    """The ``length`` items of list ``field``, each parsed by ``parse``,
    whose FormatError is re-raised naming the item's position."""
    value = _require(payload, field, list)
    if len(value) != length:
        raise CertificateError(f"payload.{field}: expected {length} {noun}, got {len(value)}")
    items = []
    for pos, item in enumerate(value):
        try:
            items.append(parse(item))
        except FormatError as exc:
            raise CertificateError(f"payload.{field}[{pos}]: {exc}") from exc
    return tuple(items)


def game_payload(g: game.WinLoseGame) -> dict:
    return {"m": g.m, "n": g.n, "a": _payoff_rows(g.a_rows, g.n), "b": _payoff_rows(g.b_rows, g.n)}


def _game_from_payload(payload: dict) -> game.WinLoseGame:
    m = _require_order(payload, "m")
    n = _require_order(payload, "n")
    parse_row = partial(_parse_payoff_row, n)
    a_rows = _require_list(payload, "a", m, "rows", parse_row)
    b_rows = _require_list(payload, "b", m, "rows", parse_row)
    return game.WinLoseGame(m, n, a_rows, b_rows)


def _strategy_from_payload(payload: dict, field: str, length: int) -> wsne.MixedStrategy:
    probs = _require_list(payload, field, length, "entries", parse_rational)
    try:
        return wsne.MixedStrategy(probs)
    except ValueError as exc:
        raise CertificateError(f"payload.{field}: {exc}") from exc


# ---------------------------------------------------------------------------
# Certificate kinds: a payload builder, a parser that checks the schema and
# returns the payload's values, and a re-check of those values -> (ok, detail)
# ---------------------------------------------------------------------------


def haight_payload(cert: residues.HaightCertificate) -> dict:
    return {"q": cert.modulus, "y": list(cert.y.members()), "kappa": cert.kappa,
            "candidates_evaluated": cert.candidates_evaluated}


def _parse_haight(payload: dict) -> tuple[int, list[int], int]:
    q = _require_order(payload, "q")
    return q, _require_sorted_set(payload, "y", q), _require_int(payload, "kappa", 2)


def _recheck_haight(q, members, kappa) -> tuple[bool, str]:
    y = residues.ResidueSet.from_members(q, members)
    if not residues.satisfies_haight(y, kappa):
        return False, "stored set fails the certified conditions"
    return True, f"q={q} set of size {len(y)} re-verified at kappa={kappa}"


def kl_digraph_payload(d: digraph.Digraph, cert: digraph.KLCertificate) -> dict:
    return {"n": d.n, "arcs": [[u, v] for u, v in d.arcs()], "k": cert.k, "l": cert.l,
            "girth": cert.girth_found}


def _parse_kl_digraph(payload: dict) -> tuple[digraph.Digraph, int, int, Optional[int]]:
    n = _require_order(payload, "n")
    arcs = []
    for pos, arc in enumerate(_require(payload, "arcs", list)):
        if not (isinstance(arc, list) and len(arc) == 2 and all(type(x) is int for x in arc)):
            raise CertificateError(f"payload.arcs[{pos}]: expected [u, v]")
        arcs.append((f"payload.arcs[{pos}]", *arc))
    d = _digraph_from_arcs(n, arcs, CertificateError)
    k = _require_int(payload, "k", 1)
    l = _require_int(payload, "l", 1)
    require_subsets_within_max_work(n, l, "payload.l")
    if "girth" not in payload:
        raise CertificateError("payload.girth: missing required field (null means acyclic)")
    girth_found = payload["girth"]
    if girth_found is not None and not (type(girth_found) is int and girth_found >= 1):
        raise CertificateError("payload.girth: expected a positive int or null")
    return d, k, l, girth_found


def _recheck_kl_digraph(d, k, l, girth_found) -> tuple[bool, str]:
    if l > d.n:
        return False, f"l={l} exceeds n={d.n}"
    result = digraph.certify_kl(d, k, l)
    if isinstance(result, digraph.KLFailure):
        return False, f"not a ({k}, {l})-digraph: {result}"
    if result.girth_found != girth_found:
        return False, f"recomputed girth {result.girth_found} != certified {girth_found}"
    return True, f"girth and domination re-verified for (k, l)=({k}, {l})"


def wsne_witness_payload(
    g: game.WinLoseGame, p: wsne.MixedStrategy, q: wsne.MixedStrategy, eps: Fraction
) -> dict:
    return {**game_payload(g), "p": [str(x) for x in p.probs], "q": [str(x) for x in q.probs],
            "eps": str(eps)}


def _parse_wsne_witness(
    payload: dict,
) -> tuple[game.WinLoseGame, wsne.MixedStrategy, wsne.MixedStrategy, Fraction]:
    g = _game_from_payload(payload)
    p = _strategy_from_payload(payload, "p", g.m)
    q = _strategy_from_payload(payload, "q", g.n)
    return g, p, q, _require_rational(payload, "eps")


def _recheck_wsne_witness(g, p, q, eps) -> tuple[bool, str]:
    verdict = wsne.check_wsne(g, p, q, eps)
    if not verdict.valid:
        worst = verdict.violations[0]
        return False, f"{worst.player} {worst.index} pays {worst.payoff}, short by {worst.shortfall}"
    return True, f"strategies re-verified at eps={eps}"


def nonexistence_payload(
    g: game.WinLoseGame, k: int, eps: Fraction, result: wsne.NoWitness, char_none: bool = False
) -> dict:
    """``char_none`` (written only when true) claims char_decision finds nothing either."""
    payload = {**game_payload(g), "k": k, "eps": str(eps), "pairs_refuted": result.pairs_refuted}
    if char_none:
        payload["char_none"] = True
    return payload


def _supports_up_to(count: int, k: int) -> int:
    """The nonempty subsets of at most k of count items, counted only until
    the count passes MAX_WORK."""
    total = 0
    for size in range(1, min(k, count) + 1):
        total += comb(count, size)
        if total > MAX_WORK:
            break
    return total


def require_pairs_within_max_work(m: int, n: int, k: int, field: str) -> None:
    """Raise CertificateError, naming ``field``, if a nonexistence claim on an
    m x n game at support size k asks for more than MAX_WORK support pairs;
    reverify refuses such a claim, so exhaust refuses to scan for one, with
    or without --out."""
    # The char_none scan tries at most C(m, k) + C(n, k) sets, fewer than the pairs.
    if _supports_up_to(m, k) * _supports_up_to(n, k) > MAX_WORK:
        raise CertificateError(
            f"{field}: the support pairs of size <= {k} of a {m} x {n} game exceed {MAX_WORK}"
        )


def require_subsets_within_max_work(n: int, l: int, field: str) -> None:
    """Raise CertificateError, naming ``field``, if a kl_digraph claim on n
    vertices asks for more than MAX_WORK l-subsets; reverify refuses such a
    claim, so certify refuses to scan for one."""
    if comb(n, l) > MAX_WORK:
        raise CertificateError(f"{field}: the {l}-subsets of {n} vertices exceed {MAX_WORK}")


def _parse_nonexistence(payload: dict) -> tuple[game.WinLoseGame, int, Fraction, int, bool]:
    g = _game_from_payload(payload)
    k = _require_int(payload, "k", 1)
    if k > min(g.m, g.n):
        raise CertificateError(f"payload.k: {k} exceeds min(m, n) = {min(g.m, g.n)}")
    require_pairs_within_max_work(g.m, g.n, k, "payload.k")
    eps = _require_rational(payload, "eps")
    pairs_refuted = _require_int(payload, "pairs_refuted", 1)
    char_none = payload.get("char_none", False)
    if type(char_none) is not bool:
        raise CertificateError("payload.char_none: expected a boolean")
    return g, k, eps, pairs_refuted, char_none


def _recheck_nonexistence(g, k, eps, pairs_refuted, char_none) -> tuple[bool, str]:
    if char_none:
        offenders = game.out_degree_offenders(g)
        if offenders:
            return False, "characterization needs out-degree >= 1: " + ", ".join(offenders)
        witness = game.char_decision(g, k)
        if witness is not None:
            return False, f"characterization found {witness}"
    result = wsne.exhaustive_search(g, k, eps)
    if not isinstance(result, wsne.NoWitness):
        return False, "enumeration found a witness after all"
    if result.pairs_refuted != pairs_refuted:
        return False, f"refuted {result.pairs_refuted} pairs, certificate claims {pairs_refuted}"
    return True, f"all {result.pairs_refuted} support pairs re-refuted at eps={eps}"


# kind -> (parse, re-check); the re-check takes what the parse returns.
_KINDS = {
    "haight": (_parse_haight, _recheck_haight),
    "kl_digraph": (_parse_kl_digraph, _recheck_kl_digraph),
    "wsne_witness": (_parse_wsne_witness, _recheck_wsne_witness),
    "nonexistence": (_parse_nonexistence, _recheck_nonexistence),
}
CERT_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


def validate_envelope(env: CertificateEnvelope) -> tuple:
    """Check ``env`` against the schema and return its payload's values,
    parsed: (q, y, kappa) for haight, (digraph, k, l, girth) for
    kl_digraph, (g, p, q, eps) for wsne_witness and (g, k, eps,
    pairs_refuted, char_none) for nonexistence. Every CertificateError
    names the offending field."""
    _check_envelope(env)
    parse, _ = _KINDS[env.kind]
    return parse(env.payload)


def _check_envelope(env: CertificateEnvelope) -> None:
    """The checks of :func:`validate_envelope` that precede the payload's parse."""
    if env.kind not in CERT_KINDS:  # a tuple: the kind may be an unhashable JSON value
        raise CertificateError(f"kind: unknown certificate kind {env.kind!r}")
    if not isinstance(env.payload, dict) or not env.payload:
        raise CertificateError("payload: must be a nonempty object")
    if not isinstance(env.toolchain, str) or not env.toolchain:
        raise CertificateError("toolchain: must be a nonempty string")
    if not isinstance(env.replay, str) or not env.replay:
        raise CertificateError("replay: must be a nonempty string")


def make_envelope(kind: str, payload: dict, replay: str) -> CertificateEnvelope:
    env = CertificateEnvelope(kind, payload, toolchain_version(), replay)
    validate_envelope(env)
    return env


def write_certificate(env: CertificateEnvelope, dest: Source) -> None:
    """Write ``env``, as :func:`make_envelope` built and validated it."""
    doc = {
        "schema": SCHEMA_TAG,
        "kind": env.kind,
        "toolchain": env.toolchain,
        "replay": env.replay,
        "payload": env.payload,
    }
    _write_text(dest, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_certificate(src: Source) -> CertificateEnvelope:
    """The envelope in ``src``, its schema and fields checked. Its payload is
    parsed, and its errors raised, by :func:`validate_envelope` or
    :func:`reverify`, which use its values."""
    text = _read_text(src)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateError("top level: expected an object")
    if doc.get("schema") != SCHEMA_TAG:
        raise CertificateError(f"schema: expected {SCHEMA_TAG!r}, got {doc.get('schema')!r}")
    for field in ("kind", "toolchain", "replay", "payload"):
        if field not in doc:
            raise CertificateError(f"{field}: missing required field")
    env = CertificateEnvelope(doc["kind"], doc["payload"], doc["toolchain"], doc["replay"])
    _check_envelope(env)
    return env


def reverify(env: CertificateEnvelope) -> ReverifyResult:
    """Re-run the defining checks of any certificate from embedded data only."""
    parsed = validate_envelope(env)
    _, recheck = _KINDS[env.kind]
    ok, detail = recheck(*parsed)
    return ReverifyResult(ok, env.kind, detail)
