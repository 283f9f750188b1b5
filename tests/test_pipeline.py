"""The library pipeline: stage records of `forge`, in order, ending at the
first failure."""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from wsforge import HaightCertificate, NoWitness, ResidueSet, SearchExhausted, bipartify, cayley, forge
from wsforge.cli import main

SEARCH = {"budget": 2000, "seed": 0, "q_min": 2, "q_max": 20, "mode": "randomized"}


def test_forge_k1_passes_every_stage():
    stages = list(forge(1, Fraction(99, 100), **SEARCH))
    assert [s.name for s in stages] == ["search", "certify", "bipartify", "char", "exhaust"]
    assert all(s.ok for s in stages)
    triangle = cayley(3, ResidueSet.from_members(3, [2]))
    assert stages[0].product == triangle
    assert stages[2].product == bipartify(triangle)
    assert stages[4].product == NoWitness(pairs_refuted=9)
    assert stages[4].detail == (
        "no eps-WSNE with supports of cardinality <= 1 at eps=99/100: refuted 9 support pairs"
    )


def test_forge_k2_stops_at_the_failed_search():
    # No q <= 24 leaves room for a kappa = 5 set, so the restarts run on 25..30.
    stages = list(forge(2, Fraction(3, 4), **{**SEARCH, "q_max": 30}))
    assert [(s.name, s.ok) for s in stages] == [("search", True), ("search", False)]
    assert stages[0].detail == "hunting a kappa=5 set in q range [2, 30]"
    assert stages[0].product is None
    assert stages[-1].detail == "not found within budget (evaluated 2000 candidates)"
    assert stages[-1].product == SearchExhausted(candidates_evaluated=2000)


def test_forge_says_when_the_search_settled_its_range():
    search = {**SEARCH, "budget": 10**5, "q_min": 25, "q_max": 25, "mode": "exhaustive"}
    stages = list(forge(2, Fraction(3, 4), **search))
    assert stages[-1].detail == "no kappa=5 set exists in Z_q for 25 <= q <= 25 (evaluated 9364 candidates)"
    assert stages[-1].product == SearchExhausted(candidates_evaluated=9364)


def test_forge_announces_the_hunt_before_searching():
    stages = forge(2, Fraction(3, 4), **{**SEARCH, "q_min": 30})
    assert next(stages).detail == "hunting a kappa=5 set in q range [30, 20]"
    with pytest.raises(ValueError, match="q_min <= q_max"):
        next(stages)


# A kappa = 4 set of Z_29: its Cayley digraph has 4-cycles. Returned by the
# search as a kappa = 5 or kappa = 13 set, it takes forge to a failed certify.
Z29_SET = ResidueSet.from_members(29, [8, 10, 12, 15, 18, 26, 27])


@pytest.mark.parametrize("k, failed", [
    (2, "FAILED: cycle of length 4 < k=5: 0 -> 2 -> 4 -> 15"),  # the power's (5, 2) claim
    (3, "FAILED: cycle of length 4 < k=13: 0 -> 2 -> 4 -> 15"),  # the base's (13, 2) claim
])
def test_forge_after_a_found_set_stops_at_the_failed_certify(tmp_path, monkeypatch, capsys, k, failed):
    monkeypatch.setattr(
        "wsforge.residues.search_haight_set", lambda spec: HaightCertificate(29, Z29_SET, spec.kappa, 1)
    )
    stages = list(forge(k, Fraction(1, 4), **SEARCH))
    assert [(s.name, s.ok) for s in stages] == [("search", True), ("search", True), ("certify", False)]
    assert stages[1].product.kappa == 2 * k * (k - 1) + 1
    assert stages[2].detail == failed
    monkeypatch.chdir(tmp_path)
    assert main(["forge", "--k", str(k), "--eps", "1/4"]) == 4
    assert capsys.readouterr().err == f"[certify] {failed}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k, eps", [(0, Fraction(1, 2)), (1, Fraction(1)), (1, Fraction(-1, 2))])
def test_forge_rejects_bad_arguments_when_called(k, eps):
    with pytest.raises(ValueError):
        forge(k, eps, **SEARCH)


def test_readme_library_example_prints_its_commented_output():
    # The README's forge example, run as written: what it prints must be the
    # "# " lines under it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S) if "import forge" in b]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {"Fraction": Fraction})
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert expected and out.getvalue().splitlines() == expected
