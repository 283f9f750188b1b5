"""Round-trips, strictness, byte stability, and re-verification of the
three file formats."""

from __future__ import annotations

import io
import json
import pickle
import random
import time
from fractions import Fraction

import pytest

from conftest import criterion7_reports, fraction_check_wsne, random_digraph, random_game, run_python
from wsforge import Digraph, MixedStrategy, ResidueSet, bipartify, cayley, check_wsne, formats
from wsforge.formats import (
    MAX_ORDER,
    CertificateEnvelope,
    CertificateError,
    FormatError,
    ReverifyResult,
    game_payload,
    make_envelope,
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

TRIANGLE = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
PALEY7 = cayley(7, ResidueSet.from_members(7, [1, 2, 4]))
PALEY7_GAME = bipartify(PALEY7)
# Rows of length 3 that int(row, 2) accepts but the 0/1 alphabet does not,
# each with its first illegal character.
INT_ROWS = {"1_0": "_", " 10": " ", "+10": "+", "0b1": "b", "\u0661\u0660\u0661": "\u0661",
            "\uff11\uff10\uff11": "\uff11"}


def roundtrip_digraph(d):
    buf = io.StringIO()
    write_digraph(d, buf)
    return read_digraph(io.StringIO(buf.getvalue()))


def roundtrip_game(g):
    buf = io.StringIO()
    write_game(g, buf)
    return read_game(io.StringIO(buf.getvalue()))


def roundtrip_cert(env):
    buf = io.StringIO()
    write_certificate(env, buf)
    return read_certificate(io.StringIO(buf.getvalue()))


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_rational_parsing():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("0") == Fraction(0)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    for bad in ("0.5", "1e-3", "", "a/b", "1/0"):
        with pytest.raises(FormatError):
            parse_rational(bad)


@pytest.mark.parametrize("value", [["1/2"], {"1": 2}, None, 1])
def test_rational_parsing_names_the_type_of_a_non_string(value):
    # Lists and dicts cannot key the memo: they must not reach it.
    for _ in range(2):
        with pytest.raises(FormatError, match=f"^expected a rational string, got {type(value).__name__}$"):
            parse_rational(value)


def test_rational_memo_is_bounded_and_keeps_no_error():
    memo = formats._memo_literal
    memo.cache_clear()
    for bad in ("1/0", "0.5", "x"):
        for _ in range(2):
            with pytest.raises(FormatError, match=f"^not an 'a/b' rational literal: {bad!r}$"):
                parse_rational(bad)
    assert memo.cache_info().currsize == 0
    texts = [f"{i}/{i + 1}" for i in range(formats._MEMO_SIZE + 100)]
    for text in texts:
        assert parse_rational(text) == Fraction(text)
    assert memo.cache_info().currsize == formats._MEMO_SIZE
    hits = memo.cache_info().hits
    assert [parse_rational(text) for text in texts[-10:]] == [Fraction(t) for t in texts[-10:]]
    assert memo.cache_info().hits == hits + 10
    # A literal longer than _MEMO_LENGTH is parsed, never kept.
    memo.cache_clear()
    long = " " * formats._MEMO_LENGTH + "3/4"
    assert parse_rational(long) == parse_rational(long) == Fraction(3, 4)
    assert memo.cache_info().currsize == 0


def test_rational_parsing_binds_fraction_on_first_use():
    # formats imports fractions only when it first parses a rational; the
    # values it returns must still be fractions.Fraction itself, which
    # MixedStrategy requires, and the errors must read as before.
    code = (
        "import sys\n"
        "from wsforge import formats\n"
        "formats.read_certificate\n"
        "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules\n"
        "plain, fallback = formats.parse_rational('3/4'), formats.parse_rational(' +1_0/40 ')\n"
        "import fractions\n"
        "assert type(plain) is type(fallback) is fractions.Fraction\n"
        "assert (plain, fallback) == (fractions.Fraction(3, 4), fractions.Fraction(1, 4))\n"
        "from wsforge.wsne import MixedStrategy\n"
        "assert MixedStrategy((plain, fallback)).probs == (plain, fallback)\n"
        "for bad in ('1/0', '0.5', 7):\n"
        "    try:\n"
        "        formats.parse_rational(bad)\n"
        "    except formats.FormatError as exc:\n"
        "        print(exc)\n"
    )
    done = run_python("-S", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "not an 'a/b' rational literal: '1/0'",
        "not an 'a/b' rational literal: '0.5'",
        "expected a rational string, got int",
    ]


# ---------------------------------------------------------------------------
# digraph format
# ---------------------------------------------------------------------------


def test_digraph_parse_triangle():
    assert read_digraph(io.StringIO("3 3\n0 1\n1 2\n2 0")) == TRIANGLE


def test_digraph_parse_isolated_vertex():
    d = read_digraph(io.StringIO("1 0"))
    assert d.n == 1 and d.arc_count() == 0


def test_digraph_roundtrip_paley():
    assert roundtrip_digraph(PALEY7) == PALEY7


def test_digraph_comments_and_blanks_ignored():
    text = "# girth three\n3 3\n\n0 1\n# middle\n1 2\n2 0\n"
    assert read_digraph(io.StringIO(text)) == TRIANGLE


def test_digraph_write_is_sorted_and_stable():
    buf = io.StringIO()
    write_digraph(TRIANGLE, buf)
    assert buf.getvalue() == "3 3\n0 1\n1 2\n2 0\n"


def test_digraph_write_matches_its_arc_list(tmp_path):
    # The writer reads each row's heads off its binary numeral, one row at a
    # time; the text is still the header and one "u v" line per arc, in the
    # order of d.arcs(), to a stream or to a path.
    rng = random.Random(32)
    for trial in range(60):
        n = rng.randrange(70)
        d = Digraph(n, tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)))
        want = "".join(f"{line}\n" for line in [f"{d.n} {d.arc_count()}", *(f"{u} {v}" for u, v in d.arcs())])
        buf = io.StringIO()
        write_digraph(d, buf)
        assert buf.getvalue() == want, d
        path = tmp_path / f"{trial}.dg"
        write_digraph(d, path)
        assert path.read_bytes() == want.encode()


def test_digraph_malformed_rejected():
    for text in (
        "",
        "3\n",
        "3 1\n0 1 2\n",
        "3 1\nx y\n",
        "3 2\n0 1\n",
        "3 1\n0 3\n",
        "3 2\n0 1\n0 1\n",
        "2 1\n0 1\nextra line\n",
    ):
        with pytest.raises(FormatError):
            read_digraph(io.StringIO(text))


@pytest.mark.parametrize("text", ["0 0\n", "0 1\n0 0\n"])
def test_digraph_with_no_vertices_is_refused_at_its_header(text):
    with pytest.raises(FormatError) as info:
        read_digraph(io.StringIO(text))
    assert str(info.value) == "line 1: vertex count must be >= 1, got 0"


def test_digraph_roundtrip_random():
    rng = random.Random(71)
    for _ in range(40):
        d = random_digraph(rng, rng.randrange(1, 10), p=rng.choice([0.1, 0.4, 0.8]))
        assert roundtrip_digraph(d) == d


# ---------------------------------------------------------------------------
# game format
# ---------------------------------------------------------------------------


def test_game_parse_1x1():
    g = read_game(io.StringIO("1 1\n1\n\n1"))
    assert g.a_matrix() == [[1]] and g.b_matrix() == [[1]]


def test_game_parse_2x2():
    g = read_game(io.StringIO("2 2\n10\n01\n\n01\n10"))
    assert g.a_matrix() == [[1, 0], [0, 1]]
    assert g.b_matrix() == [[0, 1], [1, 0]]


def test_game_roundtrip_bipartified_triangle():
    g = bipartify(TRIANGLE)
    assert roundtrip_game(g) == g


def test_game_malformed_rejected():
    for text in (
        "",
        "1 1\n1\n1",  # missing blank separator
        "1 1\n1\n0\n1",  # a row where the blank separator belongs
        "1 1\n10\n\n1",  # wrong row length
        "1 1\n2\n\n1",  # illegal character
        "2 2\n10\n01\n\n01\n",  # missing B row
        *(f"1 3\n{row}\n\n101" for row in INT_ROWS),  # rows that int(row, 2) accepts
    ):
        with pytest.raises(FormatError):
            read_game(io.StringIO(text))


@pytest.mark.parametrize("text", ["0 0\n", "0 3\n\n", "2 0\n\n\n\n\n\n"])
def test_game_with_no_rows_or_columns_is_refused_at_its_header(text):
    m, n = text.split("\n")[0].split()
    with pytest.raises(FormatError) as info:
        read_game(io.StringIO(text))
    assert str(info.value) == f"line 1: a {m} x {n} game needs at least one row and one column"


def test_game_at_max_order_parses_quickly():
    ones = "1" * MAX_ORDER
    text = f"{MAX_ORDER} {MAX_ORDER}\n" + f"{ones}\n" * MAX_ORDER + "\n" + f"{ones}\n" * MAX_ORDER
    start = time.perf_counter()
    g = read_game(io.StringIO(text))
    assert time.perf_counter() - start < 2
    assert g.a_rows[0] == g.b_rows[-1] == (1 << MAX_ORDER) - 1


def test_game_roundtrip_random():
    rng = random.Random(72)
    for _ in range(40):
        g = random_game(
            rng, rng.randrange(1, 8), rng.randrange(1, 8), ensure_out_degree=False
        )
        assert roundtrip_game(g) == g


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_haight_certificate_roundtrip_and_reverify():
    env = make_envelope(
        "haight",
        {"q": 7, "y": [1, 2, 4], "kappa": 3},
        "wsforge search --kappa 3 --q-max 7",
    )
    again = roundtrip_cert(env)
    assert again == env
    assert reverify(again).ok


def test_wsne_witness_roundtrip_and_reverify():
    payload = game_payload(bipartify(TRIANGLE))
    payload.update({"p": ["1/2", "0", "1/2"], "q": ["0", "1/2", "1/2"], "eps": "1/2"})
    env = make_envelope("wsne_witness", payload, "wsforge exhaust --k 2 --eps 1/2")
    again = roundtrip_cert(env)
    assert again == env
    assert reverify(again).ok


def test_kl_certificate_reverify():
    env = make_envelope(
        "kl_digraph",
        {
            "n": 7,
            "arcs": [[u, v] for u, v in PALEY7.arcs()],
            "k": 3,
            "l": 2,
            "girth": 3,
        },
        "wsforge certify --in paley7.dg --k 3 --l 2",
    )
    assert reverify(roundtrip_cert(env)).ok


@pytest.mark.parametrize(
    "d, k, l, girth, ok",
    [
        (PALEY7, 3, 2, 3, True),
        (PALEY7, 3, 2, 4, False),  # girth claimed too long
        (PALEY7, 2, 2, None, False),  # claimed acyclic
        (PALEY7, 4, 2, 3, False),  # girth below k
        (PALEY7, 3, 3, 3, False),  # an undominated 3-set
        (TRIANGLE, 3, 4, 3, False),  # l > n
    ],
)
def test_kl_certificate_reverify_verdicts(d, k, l, girth, ok):
    payload = {"n": d.n, "arcs": [[u, v] for u, v in d.arcs()], "k": k, "l": l, "girth": girth}
    env = CertificateEnvelope("kl_digraph", payload, "wsforge 0.1.0", "x")
    assert reverify(env).ok is ok


def test_kl_certificate_rejects_duplicate_arcs():
    payload = {"n": 3, "arcs": [[0, 1], [0, 1], [1, 2], [2, 0]], "k": 3, "l": 1, "girth": 3}
    with pytest.raises(CertificateError, match=r"payload.arcs\[1\]: duplicate arc \(0, 1\)"):
        make_envelope("kl_digraph", payload, "x")


def test_nonexistence_reverify():
    payload = game_payload(bipartify(TRIANGLE))
    payload.update({"k": 1, "eps": "99/100", "pairs_refuted": 9, "char_none": True})
    env = make_envelope("nonexistence", payload, "wsforge forge --k 1 --eps 99/100")
    assert reverify(roundtrip_cert(env)).ok


def test_tampered_certificates_fail_reverify():
    good = make_envelope(
        "haight", {"q": 7, "y": [1, 2, 4], "kappa": 3}, "wsforge search"
    )
    bad = CertificateEnvelope(
        "haight", {"q": 7, "y": [1, 2, 5], "kappa": 3}, good.toolchain, good.replay
    )
    assert not reverify(bad).ok

    payload = game_payload(bipartify(TRIANGLE))
    payload.update({"k": 1, "eps": "99/100", "pairs_refuted": 8, "char_none": True})
    env = CertificateEnvelope("nonexistence", payload, good.toolchain, good.replay)
    result = reverify(env)
    assert not result.ok and "8" in result.detail

    payload = game_payload(bipartify(TRIANGLE))
    payload.update({"p": ["1", "0", "0"], "q": ["1", "0", "0"], "eps": "1/4"})
    env = CertificateEnvelope("wsne_witness", payload, good.toolchain, good.replay)
    assert not reverify(env).ok


def test_schema_violations_name_the_field():
    with pytest.raises(CertificateError, match="payload"):
        make_envelope("haight", {}, "x")
    with pytest.raises(CertificateError, match="payload.kappa"):
        make_envelope("haight", {"q": 7, "y": [1]}, "x")
    with pytest.raises(CertificateError, match="^payload.kappa: must be >= 2, got 1$"):
        make_envelope("haight", {"q": 7, "y": [1], "kappa": 1}, "x")
    with pytest.raises(CertificateError, match=r"payload.y\[0\]"):
        make_envelope("haight", {"q": 7, "y": [9], "kappa": 2}, "x")
    with pytest.raises(CertificateError, match="payload.y"):
        make_envelope("haight", {"q": 7, "y": [2, 1], "kappa": 2}, "x")
    with pytest.raises(CertificateError, match="kind"):
        make_envelope("mystery", {"q": 7}, "x")
    with pytest.raises(CertificateError, match="payload.eps"):
        make_envelope(
            "wsne_witness",
            {
                "m": 1,
                "n": 1,
                "a": ["1"],
                "b": ["1"],
                "p": ["1"],
                "q": ["1"],
                "eps": "0.5",
            },
            "x",
        )
    witness = {"m": 1, "n": 1, "a": ["1"], "b": ["1"], "q": ["1"], "eps": "0"}
    with pytest.raises(CertificateError, match="^payload.p: expected 1 entries, got 2$"):
        make_envelope("wsne_witness", {**witness, "p": ["1", "0"]}, "x")
    with pytest.raises(CertificateError, match="^payload.p: entries sum to 1/2, expected exactly 1$"):
        make_envelope("wsne_witness", {**witness, "p": ["1/2"]}, "x")
    claim = {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]], "k": 3, "l": 1}
    with pytest.raises(CertificateError, match=r"^payload.girth: missing required field \(null means acyclic\)$"):
        make_envelope("kl_digraph", claim, "x")
    for girth in (0, "3", True):
        with pytest.raises(CertificateError, match="^payload.girth: expected a positive int or null$"):
            make_envelope("kl_digraph", {**claim, "girth": girth}, "x")


def test_row_errors_name_the_certificate_field_or_the_file_line():
    payload = game_payload(PALEY7_GAME)
    payload.update({"p": ["1"] + ["0"] * 6, "q": ["1"] + ["0"] * 6, "eps": "1/2"})
    payload["a"][0] = "10"
    with pytest.raises(CertificateError) as info:
        make_envelope("wsne_witness", payload, "x")
    assert str(info.value) == "payload.a[0]: row has length 2, expected 7"
    payload["a"][0] = "2" * 7
    with pytest.raises(CertificateError, match=r"^payload.a\[0\]: illegal character '2'$"):
        make_envelope("wsne_witness", payload, "x")
    with pytest.raises(FormatError, match="^line 5: row has length 1, expected 2$"):
        read_game(io.StringIO("2 2\n10\n01\n\n1\n01\n"))
    payload["a"][0] = 1010111
    with pytest.raises(CertificateError, match=r"^payload.a\[0\]: expected a 0/1 string$"):
        make_envelope("wsne_witness", payload, "x")
    witness = {"m": 1, "n": 3, "b": ["101"], "p": ["1"], "q": ["1", "0", "0"], "eps": "0"}
    for row, illegal in INT_ROWS.items():
        with pytest.raises(CertificateError) as info:
            make_envelope("wsne_witness", {**witness, "a": [row]}, "x")
        assert str(info.value) == f"payload.a[0]: illegal character {illegal!r}"
        with pytest.raises(FormatError) as info:
            read_game(io.StringIO(f"1 3\n101\n\n{row}\n"))
        assert str(info.value) == f"line 4: illegal character {illegal!r}"


ROW_ERRORS = [
    (1010111, "expected a 0/1 string"),
    (None, "expected a 0/1 string"),
    ("101", "row has length 3, expected 7"),
    ("10101110", "row has length 8, expected 7"),
    ("1010121", "illegal character '2'"),
    ("10 0101", "illegal character ' '"),
]


@pytest.mark.parametrize("bad, detail", ROW_ERRORS, ids=str)
@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("pos", [0, 4, 6])
def test_each_row_error_names_its_row(bad, detail, field, pos):
    # The list decoder's errors, for rows of A and of B at first, middle and
    # last positions: payload.<field>[pos] in a certificate, and the line
    # number in a game file. A later bad row, and a bad row of B after a bad
    # row of A, are not the ones named.
    payload = game_payload(PALEY7_GAME)
    payload.update({"p": ["1"] + ["0"] * 6, "q": ["1"] + ["0"] * 6, "eps": "1/2"})
    payload[field][pos] = bad
    if pos < 6:
        payload[field][6] = "2" * 7
    if field == "a":
        payload["b"][0] = "x"
    with pytest.raises(CertificateError) as info:
        make_envelope("wsne_witness", payload, "x")
    assert str(info.value) == f"payload.{field}[{pos}]: {detail}"
    if isinstance(bad, str):
        text = "\n".join(["7 7", *payload["a"], "", *payload["b"]]) + "\n"
        with pytest.raises(FormatError) as info:
            read_game(io.StringIO(text))
        line = pos + 2 if field == "a" else pos + 10
        assert str(info.value) == f"line {line}: {detail}"


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("rows", [6, 8])
def test_wrong_row_count_is_named_before_any_row(field, rows):
    # A certificate's A or B with a row too few or too many is refused by
    # its count before any of its rows, and A before B; a game file by its
    # line count.
    payload = game_payload(PALEY7_GAME)
    payload.update({"p": ["1"] + ["0"] * 6, "q": ["1"] + ["0"] * 6, "eps": "1/2"})
    payload[field] = (payload[field] + ["2" * 7])[:rows]
    payload[field][0] = "x"
    if field == "a":
        payload["b"] = payload["b"][:3]
    with pytest.raises(CertificateError) as info:
        make_envelope("wsne_witness", payload, "x")
    assert str(info.value) == f"payload.{field}: expected 7 rows, got {rows}"
    good = game_payload(PALEY7_GAME)
    good[field] = (good[field] + ["1" * 7])[:rows]
    text = "\n".join(["7 7", *good["a"], "", *good["b"]]) + "\n"
    with pytest.raises(FormatError) as info:
        read_game(io.StringIO(text))
    assert str(info.value) == f"expected 16 lines (header, A, blank, B), found {rows + 9}"


@pytest.mark.parametrize("field, bad", [("p", ("x", "0.5")), ("a", ("2" * 7, "10"))])
def test_list_errors_name_the_first_bad_position(field, bad):
    payload = game_payload(PALEY7_GAME)
    payload.update({"p": ["1"] + ["0"] * 6, "q": ["1"] + ["0"] * 6, "eps": "1/2"})
    payload[field][2], payload[field][5] = bad
    with pytest.raises(CertificateError) as info:
        make_envelope("wsne_witness", payload, "x")
    assert str(info.value) == {
        "p": "payload.p[2]: not an 'a/b' rational literal: 'x'",
        "a": "payload.a[2]: illegal character '2'",
    }[field]


def _strategy_payload(p: list[str]) -> dict:
    m = len(p)
    return {"m": m, "n": 1, "a": ["1"] * m, "b": ["1"] * m, "p": p, "q": ["1"], "eps": "0"}


@pytest.mark.parametrize("digits, cap", [(640, 8508), (4300, 57140)])
def test_strategy_common_denominator_cap_follows_ints_digit_limit(int_digit_limit, digits, cap):
    # MAX_STRATEGY_LITERALS = 4 literals of digits * 3.322 + 1 bits. Five
    # entries 1/d over coprime prime powers, each one literal long at most,
    # reach the cap exactly; one more factor of 2 passes it.
    int_digit_limit(digits)
    unit = digits * 3322 // 1000 + 1
    dens = [pr ** (unit * 9 // 10 // pr.bit_length()) for pr in (3, 5, 7, 11)]
    odd = dens[0] * dens[1] * dens[2] * dens[3]
    for extra in (0, 1):
        twos = cap - odd.bit_length() + extra
        assert 0 < twos < unit
        payload = _strategy_payload([f"1/{d}" for d in dens + [2**twos]])
        with pytest.raises(CertificateError) as info:
            make_envelope("wsne_witness", payload, "x")
        assert str(info.value) == [
            "payload.p: entries sum to a fraction too long to print"
            f" (common denominator {cap} bits), expected exactly 1",
            f"payload.p: common denominator over {cap} bits",
        ][extra]
    # Uniform on MAX_ORDER entries, read from a certificate.
    payload = _strategy_payload([f"1/{MAX_ORDER}"] * MAX_ORDER)
    assert len(validate_envelope(make_envelope("wsne_witness", payload, "x"))[1].support) == MAX_ORDER


def test_strategy_cap_is_lifted_with_ints_digit_limit(int_digit_limit):
    # No limit on one literal, no cap on the common denominator: 20
    # distinct 3000-digit denominators reach the simplex check.
    int_digit_limit(0)
    payload = _strategy_payload([f"1/{10**2999 + i}" for i in range(20)])
    with pytest.raises(CertificateError, match="^payload.p: entries sum to [0-9]+/[0-9]+, expected exactly 1$"):
        make_envelope("wsne_witness", payload, "x")


def test_parsed_strategies_are_the_strategies_built_directly():
    # Parsed entries may be the memo's shared Fractions; the strategy must
    # not tell.
    payload = game_payload(PALEY7_GAME)
    payload.update({"p": ["1/2", "1/2"] + ["0"] * 5, "q": ["1/3", "0", "2/3"] + ["0"] * 4, "eps": "1/2"})
    _, p, q, _ = validate_envelope(make_envelope("wsne_witness", payload, "x"))
    built = MixedStrategy((Fraction(1, 2), Fraction(1, 2)) + (Fraction(0),) * 5)
    assert p == built and hash(p) == hash(built) and p != q
    assert repr(p) == "MixedStrategy(probs=(" + ", ".join(
        ["Fraction(1, 2)"] * 2 + ["Fraction(0, 1)"] * 5) + "))"
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(AttributeError):
        p.probs = built.probs
    assert validate_envelope(make_envelope("wsne_witness", payload, "x"))[1:3] == (p, q)


def test_crosscheck_witnesses_round_trip_and_recheck():
    # Every witness of the benchmark's crosscheck workload: the codec gives
    # back the pair it was given, and the integer check agrees with the
    # Fraction one.
    witnesses = 0
    for _, g, k, report in criterion7_reports(100):
        for point in report.points:
            if not isinstance(point.search_result, tuple):
                continue
            p, q = point.search_result
            payload = wsne_witness_payload(g, p, q, point.eps)
            env = make_envelope("wsne_witness", payload, f"wsforge exhaust --k {k} --eps {point.eps}")
            detail = f"strategies re-verified at eps={point.eps}"
            assert reverify(env) == ReverifyResult(True, "wsne_witness", detail)
            parsed = validate_envelope(env)
            assert parsed == (g, p, q, point.eps)
            assert check_wsne(*parsed) == fraction_check_wsne(*parsed)
            witnesses += 1
    assert witnesses == 598


def test_negative_eps_rejected_by_schema():
    witness = game_payload(bipartify(TRIANGLE))
    witness.update({"p": ["1", "0", "0"], "q": ["0", "1", "0"], "eps": "-1/4"})
    refutation = game_payload(bipartify(TRIANGLE))
    refutation.update({"k": 1, "eps": "-1/4", "pairs_refuted": 9})
    for kind, payload in (("wsne_witness", witness), ("nonexistence", refutation)):
        with pytest.raises(CertificateError, match="payload.eps: must be >= 0"):
            make_envelope(kind, payload, "x")


def test_certificate_rejects_wrong_schema_tag():
    env = make_envelope("haight", {"q": 7, "y": [1, 2, 4], "kappa": 3}, "x")
    buf = io.StringIO()
    write_certificate(env, buf)
    with pytest.raises(CertificateError, match="schema"):
        read_certificate(io.StringIO(buf.getvalue().replace("wsforge-cert/1", "other/9")))


@pytest.mark.parametrize("field, value, message", [
    ("toolchain", "", "toolchain: must be a nonempty string"),
    ("replay", "", "replay: must be a nonempty string"),
    ("payload", None, "payload: missing required field"),  # None: the field is left out
])
def test_certificate_envelope_violations_name_the_field(field, value, message):
    buf = io.StringIO()
    write_certificate(make_envelope("haight", {"q": 7, "y": [1, 2, 4], "kappa": 3}, "x"), buf)
    doc = json.loads(buf.getvalue())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(CertificateError, match=f"^{message}$"):
        read_certificate(io.StringIO(json.dumps(doc)))


def test_certificate_write_is_deterministic():
    env = make_envelope("haight", {"q": 7, "y": [1, 2, 4], "kappa": 3}, "x")
    a, b = io.StringIO(), io.StringIO()
    write_certificate(env, a)
    write_certificate(env, b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().endswith("\n")
