"""The paper's whole construction as one library call: a Haight set, its
Cayley digraph, the (k-1)-th power, the bipartite game, the graph
characterization and the exhaustive refutation, run in order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterator, NamedTuple

from . import digraph, game, residues, wsne


class Stage(NamedTuple):
    """One step of :func:`forge`: its name, whether it passed, one line of
    detail, and what it produced (None when it produced nothing)."""

    name: str
    ok: bool
    detail: str
    product: Any = None


def forge(
    k: int, eps: Fraction, *, budget: int, seed: int, q_min: int, q_max: int, mode: str
) -> Iterator[Stage]:
    """Build a win-lose game with no eps-WSNE of supports <= k, yielding one
    :class:`Stage` per step as it finishes. A failed stage is the last one.

    The stages and their products, in order:

    - ``search``: at k = 1 the built-in directed triangle (a ``Digraph``).
      Otherwise a first record (no product) announces the hunt for a set of
      kappa = 2k(k-1) + 1 in Z_q, q_min <= q <= q_max; the search then ends
      in a ``HaightCertificate``, or fails with ``SearchExhausted``: its detail
      says that no set exists in the range when the count is below the
      budget, and that the budget ran out otherwise.
    - ``certify``: at k >= 3 first the base digraph's (kappa, 2) claim, then
      the power's (2k+1, k) claim (``KLCertificate``, or ``KLFailure``).
    - ``bipartify``: the ``WinLoseGame``.
    - ``char``: None, or the cycle or undominated set found.
    - ``exhaust``: ``NoWitness``, or the witness pair of strategies.

    The search arguments are those of ``SearchSpec`` and are unused at k = 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= eps < 1:
        raise ValueError(f"eps must satisfy 0 <= eps < 1, got {eps}")
    return _stages(k, eps, budget, seed, q_min, q_max, mode)


def _stages(k, eps, budget, seed, q_min, q_max, mode) -> Iterator[Stage]:
    if k == 1:
        # Girth-3 triangle with every singleton dominated; no search needed.
        base = digraph.cayley(3, residues.ResidueSet.from_members(3, [2]))
        yield Stage("search", True, "k=1 uses the built-in directed triangle", base)
    else:
        kappa = 2 * k * (k - 1) + 1
        yield Stage("search", True, f"hunting a kappa={kappa} set in q range [{q_min}, {q_max}]")
        spec = residues.SearchSpec(kappa, q_min, q_max, budget, seed, mode)
        found = residues.search_haight_set(spec)
        if not isinstance(found, residues.HaightCertificate):
            if found.candidates_evaluated < budget:
                detail = (
                    f"no kappa={kappa} set exists in Z_q for {q_min} <= q <= {q_max}"
                    f" (evaluated {found.candidates_evaluated} candidates)"
                )
            else:
                detail = f"budget exhausted after {found.candidates_evaluated} candidates"
            yield Stage("search", False, f"{detail}; no certificate emitted", found)
            return
        members = ", ".join(map(str, found.y.members()))
        yield Stage(
            "search", True,
            f"found q={found.modulus} Y={{{members}}} ({found.candidates_evaluated} candidates)",
            found,
        )
        base = digraph.cayley(found.modulus, found.y)
        # At k = 2 the power below is the base itself (a Haight set has no 0, so
        # the base has no loops to strip) under the same (5,2) claim.
        if k >= 3:
            base_cert = digraph.certify_kl(base, kappa, 2)
            if isinstance(base_cert, digraph.KLFailure):
                yield Stage("certify", False, f"base digraph failed: {base_cert}", base_cert)
                return
            yield Stage("certify", True, f"base is a ({kappa},2)-digraph on {base.n} vertices", base_cert)

    target = digraph.power(base, k - 1) if k >= 2 else base
    target_cert = digraph.certify_kl(target, 2 * k + 1, k)
    if isinstance(target_cert, digraph.KLFailure):
        yield Stage("certify", False, f"power digraph failed: {target_cert}", target_cert)
        return
    yield Stage("certify", True, f"power is a ({2 * k + 1},{k})-digraph", target_cert)

    g = game.bipartify(target)
    yield Stage("bipartify", True, f"game is {g.m} x {g.n}", g)
    witness = game.char_decision(g, k)
    if witness is not None:
        yield Stage("char", False, f"unexpected structure found: {witness}", witness)
        return
    yield Stage("char", True, f"no cycle of length <= {2 * k} and no one-sided undominated {k}-set")

    result = wsne.exhaustive_search(g, k, eps)
    if not isinstance(result, wsne.NoWitness):
        p, q = result
        detail = f"unexpected witness: row support {list(p.support)}, col support {list(q.support)}"
        yield Stage("exhaust", False, detail, result)
        return
    yield Stage("exhaust", True, f"refuted all {result.pairs_refuted} support pairs at eps={eps}", result)
