"""Property tests of the file formats: the readers and ``reverify`` fail
on hostile input only with ValueError subclasses (the CLI's exit 2), and
every certificate kind's builder parses back to the values it was built
from. Also of the Haight search kernel: on any member order and any
candidate limit it returns what the reference kernel returns."""

from __future__ import annotations

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_dfs
from wsforge import (
    Digraph,
    HaightCertificate,
    KLCertificate,
    MixedStrategy,
    NoWitness,
    ResidueSet,
    WinLoseGame,
    bipartify,
)
from wsforge.formats import (
    CERT_KINDS,
    SCHEMA_TAG,
    FormatError,
    game_payload,
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
    wsne_witness_payload,
)
from wsforge.residues import _dfs, _member_table

FUZZ = settings(deadline=None, max_examples=60, derandomize=True, database=None)

TRIANGLE = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
TRIANGLE_GAME = bipartify(TRIANGLE)

# One small valid payload per kind; the fuzz below damages one field.
VALID = {
    "haight": {"q": 7, "y": [1, 2, 4], "kappa": 3},
    "kl_digraph": {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]], "k": 3, "l": 1, "girth": 3},
    "wsne_witness": {
        **game_payload(TRIANGLE_GAME),
        "p": ["1/2", "0", "1/2"],
        "q": ["0", "1/2", "1/2"],
        "eps": "1/2",
    },
    "nonexistence": {
        **game_payload(TRIANGLE_GAME),
        "k": 1,
        "eps": "99/100",
        "pairs_refuted": 9,
        "char_none": True,
    },
}


# Explicit alphabets, with characters that only look like digits or
# separators; they also spare Hypothesis building its Unicode tables.
def texts(alphabet: str):
    return st.text(alphabet=alphabet + "²٣\t\r\x00é", max_size=40)


# Small integers keep any payload that does parse cheap to re-verify.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.sampled_from([4097, 10**18])
    | st.text(alphabet="01/-3 .ab", max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("abkmnpqy", max_size=3), inner, max_size=3),
    max_leaves=12,
)


def envelope_text(kind, payload) -> str:
    doc = {"schema": SCHEMA_TAG, "kind": kind, "toolchain": "wsforge", "replay": "x"}
    return json.dumps({**doc, "payload": payload})


def read_and_reverify(text: str) -> None:
    try:
        reverify(read_certificate(io.StringIO(text)))
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def parse_rational_by_fraction(text):
    """The rational parser that sends every literal through Fraction(str)."""
    if not isinstance(text, str):
        raise FormatError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip()
    if "." in s or "e" in s or "E" in s or not s:
        raise FormatError(f"not an 'a/b' rational literal: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not an 'a/b' rational literal: {text!r}") from exc


def assert_parses_as_fraction_does(text):
    """Twice: the second parse of a short literal is answered by the memo."""
    try:
        want = parse_rational_by_fraction(text)
    except FormatError as exc:
        for _ in range(2):
            with pytest.raises(FormatError) as got:
                parse_rational(text)
            assert str(got.value) == str(exc)
        return
    for _ in range(2):
        got = parse_rational(text)
        assert got == want and type(got) is Fraction


# Signed, zero-padded, spaced, underscored and non-ASCII-digit literals, with
# zero, missing and oversized denominators.
digits = st.text(alphabet="0123456789", min_size=1, max_size=30) | st.sampled_from(
    ["0", "00", "1_000", "1__0", "_1", "٣", "５", "²", "1" * 4301]
)
rational_literals = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " ", "\t", "\u3000"]),
        st.sampled_from(["", "-", "+", "--", "- "]),
        digits,
        st.just("") | digits.map("/".__add__) | st.sampled_from(["/", "/0", "/-1", "/ 2"]),
        st.sampled_from(["", " ", "\n"]),
    ),
)


@pytest.mark.parametrize(
    "text",
    ["1/2", "-3/4", "-0/7", "007/010", "+3", " 1/2 ", "1/0", "0/0", "-1/00", "1_0/3", "٣/٤", "", "-"],
)
def test_parse_rational_edge_literals_match_fraction(text):
    assert_parses_as_fraction_does(text)


@settings(FUZZ, max_examples=400)
@given(st.text(max_size=12) | rational_literals)
def test_parse_rational_matches_fraction(text):
    assert_parses_as_fraction_does(text)


# ---------------------------------------------------------------------------
# hostile input
# ---------------------------------------------------------------------------


@FUZZ
@given(texts("0123-# \n"))
def test_read_digraph_raises_only_value_errors(text):
    try:
        d = read_digraph(io.StringIO(text))
    except ValueError:
        return
    assert isinstance(d, Digraph)


@FUZZ
@given(texts("012 \n"))
def test_read_game_raises_only_value_errors(text):
    try:
        g = read_game(io.StringIO(text))
    except ValueError:
        return
    assert isinstance(g, WinLoseGame)


@FUZZ
@given(texts('{}[]":,0-1e. abc\\'))
def test_read_certificate_raises_only_value_errors_on_text(text):
    read_and_reverify(text)


@FUZZ
@given(st.sampled_from(CERT_KINDS + ("mystery",)) | json_values, json_values)
def test_reverify_raises_only_value_errors_on_any_payload(kind, payload):
    read_and_reverify(envelope_text(kind, payload))


@pytest.mark.parametrize("kind", CERT_KINDS)
@FUZZ
@given(data=st.data())
def test_reverify_raises_only_value_errors_on_a_damaged_field(kind, data):
    payload = dict(VALID[kind])
    field = data.draw(st.sampled_from(sorted(payload)))
    damage = data.draw(st.sampled_from(["drop", "replace", "replace an item"]))
    if damage == "drop":
        del payload[field]
    elif damage == "replace" or not isinstance(payload[field], list):
        payload[field] = data.draw(json_values)
    else:
        items = list(payload[field])
        items[data.draw(st.integers(0, len(items) - 1))] = data.draw(json_values)
        payload[field] = items
    read_and_reverify(envelope_text(kind, payload))


# ---------------------------------------------------------------------------
# builders round-trip through the file
# ---------------------------------------------------------------------------


def parse_back(kind: str, payload: dict) -> tuple:
    buf = io.StringIO()
    write_certificate(make_envelope(kind, payload, "x"), buf)
    return validate_envelope(read_certificate(io.StringIO(buf.getvalue())))


@st.composite
def games(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m)
    return WinLoseGame(m, n, tuple(draw(rows)), tuple(draw(rows)))


@st.composite
def strategies(draw, length):
    weights = draw(st.lists(st.integers(0, 5), min_size=length, max_size=length).filter(any))
    return MixedStrategy(tuple(Fraction(w, sum(weights)) for w in weights))


rationals = st.fractions(min_value=0, max_denominator=1000)


@FUZZ
@given(
    st.integers(1, 64).flatmap(lambda q: st.tuples(st.just(q), st.integers(0, (1 << q) - 1))),
    st.integers(2, 9),
    st.integers(0, 10**6),
)
def test_haight_payload_parses_back(q_bits, kappa, candidates):
    q, bits = q_bits
    y = ResidueSet(q, bits)
    cert = HaightCertificate(q, y, kappa, candidates_evaluated=candidates)
    assert parse_back("haight", haight_payload(cert)) == (q, list(y.members()), kappa)


@FUZZ
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    ),
    st.integers(1, 9),
    st.integers(1, 9),
    st.none() | st.integers(1, 9),
)
def test_kl_digraph_payload_parses_back(rows, k, l, girth):
    d = Digraph(len(rows), tuple(rows))
    cert = KLCertificate(k, l, girth)
    assert parse_back("kl_digraph", kl_digraph_payload(d, cert)) == (d, k, l, girth)


@FUZZ
@given(
    games().flatmap(lambda g: st.tuples(st.just(g), strategies(g.m), strategies(g.n))),
    rationals,
)
def test_wsne_witness_payload_parses_back(gpq, eps):
    g, p, q = gpq
    assert parse_back("wsne_witness", wsne_witness_payload(g, p, q, eps)) == (g, p, q, eps)


@FUZZ
@given(games(), st.integers(1, 4), rationals, st.integers(1, 10**6), st.booleans())
def test_nonexistence_payload_parses_back(g, k, eps, pairs, char_none):
    k = min(k, g.m, g.n)
    payload = nonexistence_payload(g, k, eps, NoWitness(pairs), char_none=char_none)
    assert parse_back("nonexistence", payload) == (g, k, eps, pairs, char_none)


@FUZZ
@given(data=st.data())
def test_dfs_matches_the_reference_kernel_on_any_order_and_limit(data):
    # Complements the fixed grid of test_residues: the prefilter mask and the
    # stack of open nodes must leave every (bits, candidates) unchanged. Most
    # trees that a wrong mask changes show it only after 10^3 candidates.
    # sampled_from draws q uniformly; st.integers favours the smallest trees.
    q = data.draw(st.sampled_from(range(2, 61)), label="q")
    kappa = data.draw(st.sampled_from(range(2, 7)), label="kappa")
    rows = data.draw(st.permutations(_member_table(q, kappa)), label="rows")
    limit = data.draw(st.integers(1, 20_000), label="limit")
    want = reference_dfs(q, kappa, [row[0] for row in rows], limit)
    assert _dfs(q, kappa, rows, limit) == want
