"""Subcommand behavior, exit-status contract, and determinism of outputs.

Exit codes: 0 success, 2 usage, 3 not found within budget, 4 verification
failed.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import time
from fractions import Fraction

import pytest

from conftest import run_python
from wsforge import Digraph, HaightCertificate, ResidueSet, SearchSpec, bipartify, cayley, power
from wsforge.cli import main
from wsforge.formats import (
    MAX_ORDER,
    SCHEMA_TAG,
    read_certificate,
    read_digraph,
    read_game,
    reverify,
    write_digraph,
    write_game,
)
from wsforge.pipeline import certify, exhaust, search


def run(*argv: str) -> int:
    return main(list(argv))


def run_timed(*argv: str) -> tuple[int, float]:
    start = time.perf_counter()
    code = run(*argv)
    return code, time.perf_counter() - start


def write_raw_certificate(path, kind: str, payload: dict):
    doc = {"schema": SCHEMA_TAG, "kind": kind, "toolchain": "wsforge", "replay": "x"}
    doc["payload"] = payload
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_kappa3_writes_reverifiable_certificate(tmp_path):
    out = tmp_path / "h.json"
    assert run("search", "--kappa", "3", "--q-max", "7", "--out", str(out)) == 0
    env = read_certificate(out)
    assert env.kind == "haight"
    assert env.payload["q"] == 7 and env.payload["y"] == [1, 2, 4]
    assert reverify(env).ok


def test_search_kappa2(tmp_path):
    out = tmp_path / "h.json"
    assert run("search", "--kappa", "2", "--q-max", "3", "--out", str(out)) == 0
    env = read_certificate(out)
    assert env.payload["q"] == 3 and env.payload["y"] == [1, 2]


def test_search_exhaustion_exits_3():
    assert run("search", "--kappa", "3", "--q-max", "4") == 3


@pytest.mark.parametrize("budget, err", [
    ("1000000", "no kappa=4 set exists in Z_q for 13 <= q <= 13 (evaluated 337 candidates)\n"),
    ("100", "not found within budget (evaluated 100 candidates)\n"),
], ids=["settled", "out-of-budget"])
def test_search_says_whether_the_range_was_settled(capsys, budget, err):
    # A count below the budget means that the search finished every tree.
    assert run("search", "--kappa", "4", "--q-min", "13", "--q-max", "13", "--budget", budget) == 3
    assert capsys.readouterr().err == err


def test_randomized_search_skips_moduli_below_kappa(capsys):
    # Z_7 holds no Haight set at kappa > 7, so no sumset level is built.
    code, seconds = run_timed(
        "search", "--kappa", "100000", "--q-min", "7", "--q-max", "7",
        "--mode", "randomized", "--budget", "50",
    )
    assert code == 3 and seconds < 1
    assert "evaluated 0 candidates" in capsys.readouterr().err


@pytest.mark.parametrize("kappa, code", [("3", 0), ("5", 3)])
def test_exhaustive_search_at_max_order_is_bounded_by_its_budget(kappa, code):
    # Each candidate is one member tried, O(kappa * q / 64) word operations.
    got, seconds = run_timed(
        "search", "--kappa", kappa, "--q-min", str(MAX_ORDER), "--q-max", str(MAX_ORDER),
        "--budget", "20000",
    )
    assert got == code and seconds < 2


def test_exhaustive_search_deep_branch_needs_no_recursion():
    # At kappa = 2 the first branch is {1, ..., 2049}: 2,049 members deep.
    code, seconds = run_timed("search", "--kappa", "2", "--q-min", str(MAX_ORDER), "--q-max", str(MAX_ORDER))
    assert code == 0 and seconds < 2


def test_search_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert (
            run(
                "search", "--kappa", "3", "--q-max", "9",
                "--mode", "randomized", "--seed", "5", "--out", str(out),
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_search_usage_errors():
    assert run("search", "--kappa", "1", "--q-max", "5") == 2
    assert run("search", "--q-max", "5") == 2
    assert run("search", "--kappa", "2", "--q-max", "5", "--budget", "0") == 2


def test_search_workers_option_is_gone():
    assert run("search", "--kappa", "3", "--q-max", "7", "--workers", "2") == 2


def test_seed_must_fit_in_64_unsigned_bits(capsys):
    assert run("search", "--kappa", "2", "--q-max", "3", "--seed", "-1") == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert run("search", "--kappa", "2", "--q-max", "3", "--seed", str(1 << 64)) == 2
    assert f"argument --seed: must be <= {(1 << 64) - 1}, got {1 << 64}" in capsys.readouterr().err
    top = str((1 << 64) - 1)
    assert run("search", "--kappa", "2", "--q-max", "3", "--mode", "randomized", "--seed", top) == 0
    assert run("forge", "--k", "1", "--eps", "1/2", "--seed", str(1 << 64)) == 2


def test_moduli_above_max_order_are_usage_errors():
    big = str(MAX_ORDER + 1)
    assert run("search", "--kappa", "3", "--q-max", big) == 2
    assert run("search", "--kappa", "3", "--q-min", big, "--q-max", big) == 2
    assert run("cayley", "--q", big, "--y", "1") == 2
    assert run("forge", "--k", "2", "--eps", "3/4", "--q-max", big) == 2
    assert run("search", "--kappa", "3", "--q-min", "7", "--q-max", str(MAX_ORDER)) == 0


@pytest.mark.parametrize("m, n", [(1, MAX_ORDER + 1), (MAX_ORDER + 1, 1)])
def test_game_file_over_max_order_is_a_usage_error(tmp_path, capsys, m, n):
    wl = tmp_path / "big.wl"
    rows = ["0" * n] * m
    wl.write_text("\n".join([f"{m} {n}", *rows, "", *rows]) + "\n")
    assert run("exhaust", "--game", str(wl), "--k", "1", "--eps", "1/2") == 2
    assert f"error: line 1: a {m} x {n} game exceeds {MAX_ORDER}" in capsys.readouterr().err
    wl.write_text("\n".join([f"{MAX_ORDER} 1", *["0"] * MAX_ORDER, "", *["1"] * MAX_ORDER]) + "\n")
    assert read_game(wl).m == MAX_ORDER


# ---------------------------------------------------------------------------
# cayley / power / bipartify plumbing
# ---------------------------------------------------------------------------


def test_cayley_power_bipartify_pipeline(tmp_path):
    dg = tmp_path / "d.dg"
    dg2 = tmp_path / "d2.dg"
    wl = tmp_path / "g.wl"
    assert run("cayley", "--q", "7", "--y", "1,2,4", "--out", str(dg)) == 0
    expected = cayley(7, ResidueSet.from_members(7, [1, 2, 4]))
    assert read_digraph(dg) == expected
    assert run("power", "--in", str(dg), "--t", "2", "--out", str(dg2)) == 0
    assert read_digraph(dg2) == power(expected, 2)
    assert run("bipartify", "--in", str(dg), "--out", str(wl)) == 0
    assert read_game(wl) == bipartify(expected)


def test_bipartify_and_exhaust_refuse_empty_inputs(tmp_path, capsys):
    # A 0-vertex digraph once became a "0 0" game file that exhaust then
    # refused for its line count; both headers are now refused as read.
    dg, wl = tmp_path / "empty.dg", tmp_path / "empty.wl"
    dg.write_text("0 0\n")
    assert run("bipartify", "--in", str(dg), "--out", str(wl)) == 2
    assert "error: line 1: vertex count must be >= 1, got 0" in capsys.readouterr().err
    assert not wl.exists()
    wl.write_text("0 0\n\n")
    assert run("exhaust", "--game", str(wl), "--k", "1", "--eps", "1/2") == 2
    assert "error: line 1: a 0 x 0 game needs at least one row and one column" in capsys.readouterr().err


def test_cayley_from_certificate(tmp_path):
    cert = tmp_path / "h.json"
    dg = tmp_path / "d.dg"
    assert run("search", "--kappa", "3", "--q-max", "7", "--out", str(cert)) == 0
    assert run("cayley", "--cert", str(cert), "--out", str(dg)) == 0
    assert read_digraph(dg) == cayley(7, ResidueSet.from_members(7, [1, 2, 4]))


def test_cayley_requires_inputs():
    assert run("cayley") == 2


@pytest.mark.parametrize("extra", [("--q", "7", "--y", "1"), ("--q", "7"), ("--y", "1")])
def test_cayley_rejects_certificate_with_q_or_y(tmp_path, capsys, extra):
    cert = tmp_path / "h.json"
    dg = tmp_path / "d.dg"
    assert run("search", "--kappa", "3", "--q-max", "7", "--out", str(cert)) == 0
    capsys.readouterr()
    assert run("cayley", "--cert", str(cert), *extra, "--out", str(dg)) == 2
    assert "need --cert or both --q and --y, not both" in capsys.readouterr().err
    assert not dg.exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (("certify", "--in", "d.dg", "--k", "two", "--l", "1"), "argument --k: not an integer: 'two'"),
        (("cayley", "--q", "5", "--y", "1,,2"), "argument --y: not a comma-separated integer list: '1,,2'"),
    ],
    ids=["k", "y"],
)
def test_malformed_numbers_are_usage_errors(capsys, argv, error):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: wsforge {argv[0]} ")
    assert err.endswith(f"\nwsforge {argv[0]}: error: {error}\n")


def test_cayley_with_empty_y_builds_the_empty_set(tmp_path, capsys):
    dg = tmp_path / "d.dg"
    assert run("cayley", "--q", "5", "--y", "", "--out", str(dg)) == 0
    assert capsys.readouterr() == ("", "")
    assert read_digraph(dg) == Digraph(5, (0,) * 5)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_paley(tmp_path):
    dg = tmp_path / "paley7.dg"
    cert = tmp_path / "kl.json"
    run("cayley", "--q", "7", "--y", "1,2,4", "--out", str(dg))
    assert run("certify", "--in", str(dg), "--k", "3", "--l", "2", "--out", str(cert)) == 0
    env = read_certificate(cert)
    assert env.kind == "kl_digraph" and env.payload["girth"] == 3
    assert reverify(env).ok


def test_certify_failure_exits_4(tmp_path, capsys):
    dg = tmp_path / "paley7.dg"
    run("cayley", "--q", "7", "--y", "1,2,4", "--out", str(dg))
    assert run("certify", "--in", str(dg), "--k", "4", "--l", "2") == 4
    assert "cycle of length 3" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# forge / exhaust / check / reverify
# ---------------------------------------------------------------------------


@pytest.fixture()
def forged_k1(tmp_path):
    game = tmp_path / "f.wl"
    cert = tmp_path / "f.json"
    code = run(
        "forge", "--k", "1", "--eps", "99/100",
        "--out-game", str(game), "--out-cert", str(cert),
    )
    assert code == 0
    return game, cert


def test_forge_k1_emits_triangle_game(forged_k1):
    game, cert = forged_k1
    g = read_game(game)
    triangle = cayley(3, ResidueSet.from_members(3, [2]))
    assert g == bipartify(triangle)
    env = read_certificate(cert)
    assert env.kind == "nonexistence"
    assert env.payload["pairs_refuted"] == 9
    assert env.payload["char_none"] is True
    assert reverify(env).ok


def test_forge_k1_certifies_the_triangle_once(tmp_path, capsys):
    code = run(
        "forge", "--k", "1", "--eps", "99/100",
        "--out-game", str(tmp_path / "g.wl"), "--out-cert", str(tmp_path / "c.json"),
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("[certify]")] == [
        "[certify] verified (3,1)-digraph: n=3 girth=3"
    ]


def test_forge_usage_errors(tmp_path):
    assert run("forge", "--k", "0", "--eps", "1/2") == 2
    assert run("forge", "--k", "1", "--eps", "0.5") == 2
    assert run("forge", "--k", "1", "--eps", "3/2") == 2


def test_forge_k2_budget_exhaustion_exits_3(tmp_path):
    code = run(
        "forge", "--k", "2", "--eps", "3/4", "--budget", "2000",
        "--q-max", "20", "--out-game", str(tmp_path / "g.wl"),
        "--out-cert", str(tmp_path / "c.json"),
    )
    assert code == 3
    assert not (tmp_path / "g.wl").exists()


def test_forge_search_settles_its_range_by_default(tmp_path, capsys):
    # --mode defaults to exhaustive, as in search: randomized restarts stop
    # at q^2 candidates per modulus and cannot settle Z_25 in this budget.
    code = run(
        "forge", "--k", "2", "--eps", "3/4", "--q-min", "25", "--q-max", "25", "--budget", "100000",
        "--out-game", str(tmp_path / "g.wl"), "--out-cert", str(tmp_path / "c.json"),
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "[search] no kappa=5 set exists in Z_q for 25 <= q <= 25 (evaluated 9364 candidates)\n"
    )


def test_exhaust_finds_witness_on_forged_game(forged_k1, tmp_path):
    game, _ = forged_k1
    wit = tmp_path / "w.json"
    assert run("exhaust", "--game", str(game), "--k", "2", "--eps", "1/2", "--out", str(wit)) == 0
    env = read_certificate(wit)
    assert env.kind == "wsne_witness"
    assert reverify(env).ok


def test_exhaust_refutes_k1_on_forged_game(forged_k1, tmp_path):
    game, _ = forged_k1
    out = tmp_path / "r.json"
    assert run("exhaust", "--game", str(game), "--k", "1", "--eps", "99/100", "--out", str(out)) == 0
    env = read_certificate(out)
    assert env.kind == "nonexistence" and env.payload["pairs_refuted"] == 9
    assert reverify(env).ok


def test_exhaust_refutes_k2_on_k4_pool_game(tmp_path):
    # The paper's k = 2 instance: the q = 29 Haight set of kappa 4, bipartified.
    game = tmp_path / "k4.wl"
    write_game(bipartify(cayley(29, ResidueSet.from_members(29, [1, 7, 16, 20, 23, 24, 25]))), game)
    out = tmp_path / "r.json"
    assert run("exhaust", "--game", str(game), "--k", "2", "--eps", "1/4", "--out", str(out)) == 0
    assert read_certificate(out).payload["pairs_refuted"] == 435**2
    assert run("reverify", "--cert", str(out)) == 0


# sha256 of the certificates `exhaust --k 2` wrote before the scan was
# reduced to one row support per rotation orbit; a game file named as here,
# in the working directory, fixes the replay line.
EXHAUST_GOLDEN = [
    ("paley7.wl", 7, (1, 2, 4), "1/4",
     "4d3f3a4461461f3601491b3bd4528e91dc5045774c4d8af9d3b4cce3e62ee40d"),
    ("paley7.wl", 7, (1, 2, 4), "1/2",
     "2a2cd018d12d08db05fb6d0448078deca6a093a43cfbc8ad366d5e57756cc712"),
    ("k4-q29.wl", 29, (1, 7, 16, 20, 23, 24, 25), "1/4",
     "9424fd16607f6a3853c08e506b554211279a1b50b16d8860da887586d412cc2b"),
    ("k4-q29.wl", 29, (1, 7, 16, 20, 23, 24, 25), "1/2",
     "2c8f12ba34b4783cc4933ba6f442e67accb86ed1d6c1bf18314cbe37628f984e"),
]


@pytest.mark.parametrize("name, q, ys, eps, digest", EXHAUST_GOLDEN)
def test_exhaust_k2_certificates_are_byte_identical(tmp_path, monkeypatch, name, q, ys, eps, digest):
    # Paley-7 and the paper's k = 2 instance (the q = 29 Haight set of kappa
    # 4): a nonexistence certificate at eps = 1/4 and a witness at eps = 1/2.
    monkeypatch.chdir(tmp_path)
    write_game(bipartify(cayley(q, ResidueSet.from_members(q, ys))), tmp_path / name)
    assert run("exhaust", "--game", name, "--k", "2", "--eps", eps, "--out", "c.json") == 0
    assert hashlib.sha256((tmp_path / "c.json").read_bytes()).hexdigest() == digest
    assert run("reverify", "--cert", "c.json") == 0


@pytest.mark.parametrize("field, value", [("eps", "1/2"), ("pairs_refuted", 783), ("char_none", True)])
def test_reverify_rejects_false_paley7_refutations(tmp_path, field, value):
    # Below 1/2 reverify refutes Paley-7 by the constant-sum lemma; a claim
    # at 1/2, where a witness exists, or with a wrong count still fails, and
    # so does a char_none claim: char_decision finds the 4-cycle (0, 7, 3, 8).
    game = tmp_path / "paley7.wl"
    write_game(bipartify(cayley(7, ResidueSet.from_members(7, [1, 2, 4]))), game)
    out = tmp_path / "r.json"
    assert run("exhaust", "--game", str(game), "--k", "2", "--eps", "1/4", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["pairs_refuted"] == 784
    doc["payload"][field] = value
    tampered = write_raw_certificate(tmp_path / "t.json", "nonexistence", doc["payload"])
    assert run("reverify", "--cert", str(tampered)) == 4


# sha256 of certificates whose replay lines were written out by hand before
# they were derived from the parser's declared options; as above, inputs and
# outputs named as here, in the working directory, fix the replay line.
REPLAY_GOLDEN = [
    (("search", "--kappa", "3", "--q-max", "7", "--out", "h.json"), "h.json",
     "cfa4ca4ce440aac9f3d7a5522dc0f156609e8face745964eccfaf46060ce578b"),
    (("certify", "--in", "paley7.dg", "--k", "3", "--l", "2", "--out", "kl.json"), "kl.json",
     "3474c821d4011ef1fc5ff940404e505e2102f5c9bf3c1c572a1a9d56fe6dbf37"),
    # its replay line ends "--mode exhaustive", forge's default search mode
    (("forge", "--k", "1", "--eps", "99/100"), "forge-k1.cert.json",
     "a4fb1606c6a5233ffff66eafab5ea06247510a7904eac82e704423ee1fba4df3"),
]


@pytest.mark.parametrize("argv, out, digest", REPLAY_GOLDEN, ids=["search", "certify", "forge"])
def test_replay_line_certificates_are_byte_identical(tmp_path, monkeypatch, argv, out, digest):
    monkeypatch.chdir(tmp_path)
    write_digraph(cayley(7, ResidueSet.from_members(7, [1, 2, 4])), tmp_path / "paley7.dg")
    assert run(*argv) == 0
    assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == digest
    assert run("reverify", "--cert", out) == 0

# ---------------------------------------------------------------------------
# One outcome per step: a subcommand prints the detail of the Stage that the
# pipeline's step function returns, on the same stream and with its exit code
# ---------------------------------------------------------------------------

PALEY7 = cayley(7, ResidueSet.from_members(7, [1, 2, 4]))
TRIANGLE = cayley(3, ResidueSet.from_members(3, [2]))

OUTCOMES = {
    "search-found": (["search", "--kappa", "3", "--q-max", "7"], "out", 0,
                     lambda: search(SearchSpec(3, 2, 7))),
    "search-settled": (["search", "--kappa", "4", "--q-min", "13", "--q-max", "13"], "err", 3,
                       lambda: search(SearchSpec(4, 13, 13))),
    "search-out-of-budget": (["search", "--kappa", "4", "--q-min", "13", "--q-max", "13", "--budget", "100"],
                             "err", 3, lambda: search(SearchSpec(4, 13, 13, budget=100))),
    "certify-verified": (["certify", "--in", "paley7.dg", "--k", "3", "--l", "2"], "out", 0,
                         lambda: certify(PALEY7, 3, 2)),
    "certify-short-cycle": (["certify", "--in", "paley7.dg", "--k", "4", "--l", "2"], "out", 4,
                            lambda: certify(PALEY7, 4, 2)),
    "certify-undominated": (["certify", "--in", "triangle.dg", "--k", "3", "--l", "2"], "out", 4,
                            lambda: certify(TRIANGLE, 3, 2)),
    "exhaust-refuted": (["exhaust", "--game", "paley7.wl", "--k", "1", "--eps", "99/100"], "out", 0,
                        lambda: exhaust(bipartify(PALEY7), 1, Fraction(99, 100))),
    "exhaust-witness": (["exhaust", "--game", "paley7.wl", "--k", "2", "--eps", "1/2"], "out", 0,
                        lambda: exhaust(bipartify(PALEY7), 2, Fraction(1, 2))),
}


@pytest.mark.parametrize("argv, stream, code, step", OUTCOMES.values(), ids=OUTCOMES)
def test_subcommand_prints_the_detail_of_its_step(tmp_path, monkeypatch, capsys, argv, stream, code, step):
    monkeypatch.chdir(tmp_path)
    write_digraph(PALEY7, "paley7.dg")
    write_digraph(TRIANGLE, "triangle.dg")
    write_game(bipartify(PALEY7), "paley7.wl")
    assert run(*argv) == code
    printed = capsys.readouterr()
    stage = step()
    assert stage.name == argv[0]
    assert {"out": printed.out, "err": printed.err} == {"out": "", "err": "", stream: stage.detail + "\n"}


@pytest.fixture()
def witness_k2(forged_k1, tmp_path):
    """The triangle game and exhaust's witness at k = 2, eps = 1/2: p = (1/2,
    1/2, 0), q = (1/4, 3/4, 0)."""
    game, _ = forged_k1
    wit = tmp_path / "w.json"
    assert run("exhaust", "--game", str(game), "--k", "2", "--eps", "1/2", "--out", str(wit)) == 0
    return game, wit


# Every line `check` prints, byte for byte, at three eps.
CHECK_OUTPUT = {
    "1/2": (0, "valid at eps=1/2 (row best 1, col best 1/2)\n"),
    "1/4": (4, "INVALID at eps=1/4:\n  col 1 pays 0, short by 1/4\n"),
    "0": (4, "INVALID at eps=0:\n  row 1 pays 3/4, short by 1/4\n  col 1 pays 0, short by 1/2\n"),
}


def test_check_verdicts(witness_k2, capsys):
    game, wit = witness_k2
    capsys.readouterr()
    for eps, expected in CHECK_OUTPUT.items():
        code = run("check", "--game", str(game), "--strategy", str(wit), "--eps", eps)
        assert (code, capsys.readouterr().out) == expected, eps


@pytest.mark.parametrize(
    "eps, detail",
    [("1/4", "col 1 pays 0, short by 1/4"), ("0", "row 1 pays 3/4, short by 1/4")],
)
def test_reverify_names_the_first_witness_violation(witness_k2, tmp_path, capsys, eps, detail):
    _, wit = witness_k2
    doc = json.loads(wit.read_text())
    doc["payload"]["eps"] = eps
    tampered = tmp_path / "t.json"
    tampered.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("reverify", "--cert", str(tampered)) == 4
    assert capsys.readouterr().out == f"FAILED [wsne_witness] {detail}\n"


def test_check_dimension_mismatch_is_usage_error(witness_k2, tmp_path):
    _, wit = witness_k2
    other = tmp_path / "one.wl"
    other.write_text("1 1\n1\n\n1\n")
    assert run("check", "--game", str(other), "--strategy", str(wit), "--eps", "1/2") == 2


def test_certificate_of_another_kind_is_a_usage_error(witness_k2, tmp_path, capsys):
    game, wit = witness_k2
    haight = tmp_path / "h.json"
    assert run("search", "--kappa", "3", "--q-max", "7", "--out", str(haight)) == 0
    capsys.readouterr()
    assert run("cayley", "--cert", str(wit)) == 2
    assert capsys.readouterr() == ("", f"error: {wit} is a wsne_witness certificate, expected haight\n")
    assert run("check", "--game", str(game), "--strategy", str(haight), "--eps", "1/2") == 2
    assert capsys.readouterr() == ("", f"error: {haight} is a haight certificate, expected wsne_witness\n")


def test_reverify_all_emitted_kinds(forged_k1, tmp_path):
    game, cert = forged_k1
    for path in (cert,):
        assert run("reverify", "--cert", str(path)) == 0
    tampered = tmp_path / "t.json"
    tampered.write_text(cert.read_text().replace('"pairs_refuted": 9', '"pairs_refuted": 5'))
    assert run("reverify", "--cert", str(tampered)) == 4


def test_unknown_command_is_usage_error():
    assert run("frobnicate") == 2
    assert run() == 2


def test_reverify_char_none_with_zero_out_degree_exits_4(forged_k1, tmp_path, capsys):
    _, cert = forged_k1
    doc = json.loads(cert.read_text())
    doc["payload"]["a"][0] = "0" * doc["payload"]["n"]
    tampered = tmp_path / "t.json"
    tampered.write_text(json.dumps(doc))
    assert run("reverify", "--cert", str(tampered)) == 4
    assert "out-degree >= 1: r0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# hostile sizes: rejected as malformed input before any work is done
# ---------------------------------------------------------------------------


def test_power_rejects_huge_vertex_count(tmp_path, capsys):
    dg = tmp_path / "huge.dg"
    dg.write_text("100000000 0\n")
    code, seconds = run_timed("power", "--in", str(dg), "--t", "2")
    assert code == 2 and seconds < 1
    assert "vertex count 100000000" in capsys.readouterr().err


def test_reverify_rejects_huge_haight_modulus(tmp_path, capsys):
    payload = {"q": 10**18, "y": [1], "kappa": 3}
    cert = write_raw_certificate(tmp_path / "h.json", "haight", payload)
    code, seconds = run_timed("reverify", "--cert", str(cert))
    assert code == 2 and seconds < 1
    assert "payload.q" in capsys.readouterr().err


def test_reverify_rejects_huge_kl_vertex_count(tmp_path, capsys):
    cert = write_raw_certificate(
        tmp_path / "kl.json", "kl_digraph", {"n": 10**8, "arcs": [], "k": 3, "l": 1, "girth": None}
    )
    code, seconds = run_timed("reverify", "--cert", str(cert))
    assert code == 2 and seconds < 1
    assert "payload.n" in capsys.readouterr().err


def test_reverify_rejects_kl_claim_over_max_work(tmp_path, capsys):
    # C(40, 20) ~ 1.4e11 subsets of the complete digraph to scan
    arcs = [[u, v] for u in range(40) for v in range(40) if u != v]
    payload = {"n": 40, "arcs": arcs, "k": 2, "l": 20, "girth": 2}
    cert = write_raw_certificate(tmp_path / "kl.json", "kl_digraph", payload)
    code, seconds = run_timed("reverify", "--cert", str(cert))
    assert code == 2 and seconds < 1
    assert "payload.l" in capsys.readouterr().err


def test_reverify_rejects_nonexistence_claim_over_max_work(tmp_path, capsys):
    ones = ["1" * 40] * 40
    payload = {"m": 40, "n": 40, "a": ones, "b": ones, "k": 20, "eps": "1/2", "pairs_refuted": 1}
    cert = write_raw_certificate(tmp_path / "n.json", "nonexistence", payload)
    code, seconds = run_timed("reverify", "--cert", str(cert))
    assert code == 2 and seconds < 1
    assert "payload.k" in capsys.readouterr().err


def test_exhaust_out_refuses_a_claim_over_max_work_before_the_scan(tmp_path, capsys):
    # The Paley tournament of Z_151 at k = 2: 11476^2 > MAX_WORK support pairs,
    # a refutation reverify would refuse, so exhaust --out does not scan for it.
    residues = sorted({x * x % 151 for x in range(1, 151)})
    game = tmp_path / "p151.wl"
    write_game(bipartify(cayley(151, ResidueSet.from_members(151, residues))), game)
    out = tmp_path / "p151.json"
    code, seconds = run_timed("exhaust", "--game", str(game), "--k", "2", "--eps", "1/4", "--out", str(out))
    assert code == 2 and seconds < 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert "refuted" not in captured.out
    assert "--k: the support pairs of size <= 2 of a 151 x 151 game exceed" in captured.err


def test_exhaust_without_out_refuses_a_scan_over_max_work(tmp_path, capsys):
    # The Paley tournament of Z_151 at k = 3: without the bound, exhaust would
    # scan the orbit representatives of its C(151, <= 3)^2 support pairs for
    # minutes, writing nothing.
    residues = sorted({x * x % 151 for x in range(1, 151)})
    game = tmp_path / "p151.wl"
    write_game(bipartify(cayley(151, ResidueSet.from_members(151, residues))), game)
    code, seconds = run_timed("exhaust", "--game", str(game), "--k", "3", "--eps", "1/4")
    assert code == 2 and seconds < 1
    captured = capsys.readouterr()
    assert "refuted" not in captured.out
    assert "--k: the support pairs of size <= 3 of a 151 x 151 game exceed" in captured.err


def test_exhaust_refuses_a_k_far_above_the_game_at_once(tmp_path):
    # The work limit counts the support sizes up to min(k, m), not up to k, so
    # a huge --k reaches exhaustive_search's own check at once. A subprocess,
    # so that a loop over range(k) fails the test instead of hanging it.
    game = tmp_path / "g.wl"
    write_game(bipartify(Digraph.from_arcs(2, [(0, 1), (1, 0)])), game)
    start = time.perf_counter()
    done = run_python("-m", "wsforge", "exhaust", "--game", str(game), "--k", str(10**12),
                      "--eps", "1/2", timeout=10)
    assert done.returncode == 2 and time.perf_counter() - start < 1
    assert "need 1 <= k <= min(m, n) = 2" in done.stderr


def test_certify_out_refuses_a_claim_over_max_work_before_the_scan(tmp_path, capsys):
    # The complete digraph on 30 vertices at l = 15: C(30, 15) > MAX_WORK
    # subsets, a certificate reverify would refuse, so certify --out does not
    # scan for it.
    dg = tmp_path / "k30.dg"
    write_digraph(Digraph(30, tuple(((1 << 30) - 1) & ~(1 << v) for v in range(30))), dg)
    out = tmp_path / "k30.json"
    code, seconds = run_timed("certify", "--in", str(dg), "--k", "1", "--l", "15", "--out", str(out))
    assert code == 2 and seconds < 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert "verified" not in captured.out
    assert "--l: the 15-subsets of 30 vertices exceed" in captured.err


def test_certify_without_out_refuses_a_scan_over_max_work(tmp_path, capsys):
    # Vertex 0 has an arc to every vertex, itself included, so it dominates
    # every set: an unbounded certify would scan all C(4096, 2000) subsets.
    dg = tmp_path / "star.dg"
    write_digraph(Digraph(MAX_ORDER, ((1 << MAX_ORDER) - 1,) + (0,) * (MAX_ORDER - 1)), dg)
    code, seconds = run_timed("certify", "--in", str(dg), "--k", "1", "--l", "2000")
    assert code == 2 and seconds < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--l: the 2000-subsets of {MAX_ORDER} vertices exceed" in captured.err


def test_forge_refuses_a_game_over_max_work_before_its_certify(tmp_path, monkeypatch, capsys):
    # A set found at q = 300 gives a 300 x 300 game with about 2 * 10^9
    # support pairs at k = 2, which exhaust and reverify refuse, so forge
    # refuses it before it certifies the digraph.
    found = HaightCertificate(300, ResidueSet.from_members(300, [1, 2]), 5, 1)
    monkeypatch.setattr("wsforge.residues.search_haight_set", lambda spec: found)
    monkeypatch.chdir(tmp_path)
    code, seconds = run_timed("forge", "--k", "2", "--eps", "1/4")
    assert code == 2 and seconds < 1
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert "[certify]" not in captured.out + captured.err
    assert "--k: the support pairs of size <= 2 of a 300 x 300 game exceed" in captured.err


@pytest.mark.parametrize("field, m, n", [("p", 1024, 1), ("q", 1, 1024)])
def test_witness_strategy_over_the_bit_cap_is_refused_at_once(tmp_path, capsys, int_digit_limit, field, m, n):
    # 1,024 distinct 1000-digit denominators, 3.4 million bits: taking their
    # lcm alone would cost minutes.
    int_digit_limit(4300)
    hostile = [f"1/{10**999 + i}" for i in range(1024)]
    payload = {"m": m, "n": n, "a": ["1" * n] * m, "b": ["1" * n] * m, "p": ["1"], "q": ["1"], "eps": "0"}
    payload[field] = hostile
    cert = write_raw_certificate(tmp_path / "w.json", "wsne_witness", payload)
    game = tmp_path / "ones.wl"
    game.write_text(f"{m} {n}\n" + ("1" * n + "\n") * m + "\n" + ("1" * n + "\n") * m)
    capsys.readouterr()
    for argv in (("reverify", "--cert", str(cert)),
                 ("check", "--game", str(game), "--strategy", str(cert), "--eps", "0")):
        code, seconds = run_timed(*argv)
        assert code == 2 and seconds < 1
        assert f"payload.{field}: common denominator over 57140 bits" in capsys.readouterr().err


@pytest.mark.parametrize("digits, limit", [(4300, 4300), (40_000, 0)])
def test_exhaust_witness_at_the_longest_eps_passes_the_strategy_cap(tmp_path, int_digit_limit, digits, limit):
    # eps = a / b with b as long as int() reads: the witness's q has
    # common denominator b, one literal long.
    int_digit_limit(limit)
    b = 10 ** (digits - 1) + 7
    game, wit = tmp_path / "tri.wl", tmp_path / "w.json"
    write_game(bipartify(TRIANGLE), game)
    assert run("exhaust", "--game", str(game), "--k", "2", "--eps", f"{b // 2 + 1}/{b}", "--out", str(wit)) == 0
    assert max(Fraction(x).denominator for x in read_certificate(wit).payload["q"]) == b
    assert run("reverify", "--cert", str(wit)) == 0


def test_reverify_rejects_nonexistence_game_over_max_order(tmp_path, capsys):
    payload = {"m": 10**8, "n": 1, "a": [], "b": [], "k": 1, "eps": "1/2", "pairs_refuted": 1}
    cert = write_raw_certificate(tmp_path / "n.json", "nonexistence", payload)
    code, seconds = run_timed("reverify", "--cert", str(cert))
    assert code == 2 and seconds < 1
    assert "payload.m" in capsys.readouterr().err


def test_reverify_rejects_deeply_nested_json(tmp_path, capsys):
    cert = tmp_path / "deep.json"
    cert.write_text("[" * 100000 + "]" * 100000)
    assert run("reverify", "--cert", str(cert)) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cayley_and_power_at_max_order_are_fast(tmp_path):
    dg = tmp_path / "big.dg"
    code, seconds = run_timed("cayley", "--q", str(MAX_ORDER), "--y", "1", "--out", str(dg))
    assert code == 0 and seconds < 1
    code, seconds = run_timed("power", "--in", str(dg), "--t", "1", "--out", str(tmp_path / "p.dg"))
    assert code == 0 and seconds < 1
    assert read_digraph(dg).arc_count() == MAX_ORDER


def test_power_of_the_longest_cycle_at_any_t_is_fast(tmp_path):
    # The 4096-cycle closes at t = 4095 into the complete digraph, 16.8
    # million arcs. On a 2-core host a search from every vertex took about
    # 21 s, and building the whole file as one string took 0.8-1.3 s and
    # 183 MiB already for the complete digraph on 1024 vertices.
    dg = tmp_path / "cycle.dg"
    assert run("cayley", "--q", str(MAX_ORDER), "--y", "1", "--out", str(dg)) == 0
    code, seconds = run_timed("power", "--in", str(dg), "--t", str(10**9), "--out", os.devnull)
    assert code == 0 and seconds < 5


def test_certify_and_reverify_long_directed_cycle_are_fast(tmp_path):
    # Girth MAX_ORDER: a search from every vertex up to the girth would take
    # about n^2 frontier steps; peeling walks the cycle once.
    dg = tmp_path / "cycle.dg"
    cert = tmp_path / "cycle.json"
    assert run("cayley", "--q", str(MAX_ORDER), "--y", "1", "--out", str(dg)) == 0
    code, seconds = run_timed("certify", "--in", str(dg), "--k", "3", "--l", "1", "--out", str(cert))
    assert code == 0 and seconds < 3
    code, seconds = run_timed("reverify", "--cert", str(cert))
    assert code == 0 and seconds < 3
    assert read_certificate(cert).payload["girth"] == MAX_ORDER


@pytest.mark.parametrize("module", ["wsforge", "wsforge.cli"])
def test_python_dash_m_runs_the_cli(module):
    # Importing the package registers wsforge.cli first, so runpy may warn
    # about running it as __main__; the warning goes to stderr beside the error.
    done = run_python("-m", module, "cayley", "--q", "7")
    assert done.returncode == 2
    assert "need --cert or both --q and --y" in done.stderr


def test_main_leaves_the_collector_alone(tmp_path):
    # Only the process entry point freezes the collector before exit.
    before = gc.get_freeze_count(), gc.isenabled()
    assert run("cayley", "--q", "7", "--y", "1,2,4", "--out", str(tmp_path / "d.dg")) == 0
    assert run("cayley", "--q", "7") == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def cayley_text(q: int, members: list[int]) -> str:
    buf = io.StringIO()
    write_digraph(cayley(q, ResidueSet.from_members(q, members)), buf)
    return buf.getvalue()


@pytest.mark.parametrize("argv, code, out, err", [
    # about 77 KB of stdout, more than a pipe holds, so the child blocks on it
    (["cayley", "--q", str(MAX_ORDER), "--y", "1,2"], 0, cayley_text(MAX_ORDER, [1, 2]), ""),
    (["cayley", "--q", "7"], 2, "", "need --cert or both --q and --y"),
    (["search", "--kappa", "3", "--q-max", "4"], 3, "", "no kappa=3 set exists in Z_q for 2 <= q <= 4"),
    (["certify", "--in", "loop.dg", "--k", "2", "--l", "1"], 4, "FAILED: cycle of length 1 < k=2: 0\n", ""),
], ids=["ok", "usage", "not-found", "failed"])
def test_process_exit_codes_and_complete_stdout(tmp_path, argv, code, out, err):
    # The entry point freezes the collector before exit; the process must
    # still flush all of stdout and exit with main's status.
    (tmp_path / "loop.dg").write_text("1 1\n0 0\n")
    done = run_python("-m", "wsforge", *argv, cwd=tmp_path)
    assert done.returncode == code
    assert done.stdout == out
    assert err in done.stderr


def test_entry_freezes_the_collector_and_keeps_exit_handlers(tmp_path):
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen' if gc.get_freeze_count() else 'not frozen'))\n"
        "from wsforge.cli import entry\n"
        "entry()\n"
    )
    done = run_python("-c", code, "search", "--kappa", "3", "--q-max", "7", cwd=tmp_path)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "frozen"
