"""The paper's whole construction as one library call: a Haight set, its
Cayley digraph, the (k-1)-th power, the bipartite game, the graph
characterization and the exhaustive refutation, run in order.

The steps that are also subcommands (:func:`search`, :func:`certify` and
:func:`exhaust`) each decide and word their outcome here, once, as a
:class:`Stage`; ``forge`` yields those records and the CLI prints them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from . import digraph, formats, game, residues, wsne

if TYPE_CHECKING:  # fractions stays out of the processes that parse no rational
    from fractions import Fraction


class Stage(NamedTuple):
    """One construction step: its name, whether it passed, one line of
    detail, and what it produced (None when it produced nothing)."""

    name: str
    ok: bool
    detail: str
    product: Any = None


def search(spec: residues.SearchSpec) -> Stage:
    """Run the Haight search; the product is the ``HaightCertificate``, or
    the ``SearchExhausted`` count. A count below the budget means that every
    tree was finished, so no set exists in the range."""
    found = residues.search_haight_set(spec)
    count = f"(evaluated {found.candidates_evaluated} candidates)"
    if isinstance(found, residues.HaightCertificate):
        members = ", ".join(map(str, found.y.members()))
        detail = f"found q={found.modulus} Y={{{members}}} kappa={found.kappa} {count}"
        return Stage("search", True, detail, found)
    if found.candidates_evaluated < spec.budget:
        verdict = f"no kappa={spec.kappa} set exists in Z_q for {spec.q_min} <= q <= {spec.q_max}"
    else:
        verdict = "not found within budget"
    return Stage("search", False, f"{verdict} {count}", found)


def certify(d: digraph.Digraph, k: int, l: int) -> Stage:
    """Certify ``d`` as a (k, l)-digraph; the product is the
    ``KLCertificate`` or the ``KLFailure``."""
    result = digraph.certify_kl(d, k, l)
    if isinstance(result, digraph.KLCertificate):
        girth = "acyclic" if result.girth_found is None else result.girth_found
        return Stage("certify", True, f"verified ({k},{l})-digraph: n={d.n} girth={girth}", result)
    if result.short_cycle is not None:
        cycle = result.short_cycle
        detail = f"FAILED: cycle of length {len(cycle)} < k={k}: " + " -> ".join(map(str, cycle))
        return Stage("certify", False, detail, result)
    members = ", ".join(map(str, result.undominated))
    return Stage("certify", False, f"FAILED: undominated {l}-set: {{{members}}}", result)


def exhaust(g: game.WinLoseGame, k: int, eps: Fraction) -> Stage:
    """Refute every support pair of size <= k at ``eps``; the product is the
    ``NoWitness``, or the witness pair of strategies (a failed stage)."""
    result = wsne.exhaustive_search(g, k, eps)
    if isinstance(result, wsne.NoWitness):
        detail = f"no eps-WSNE with supports of cardinality <= {k} at eps={eps}"
        return Stage("exhaust", True, f"{detail}: refuted {result.pairs_refuted} support pairs", result)
    p, q = result
    detail = f"witness found at eps={eps}: row support {list(p.support)}, col support {list(q.support)}"
    return Stage("exhaust", False, detail, result)


def forge(
    k: int, eps: Fraction, *, budget: int, seed: int, q_min: int, q_max: int, mode: str
) -> Iterator[Stage]:
    """Build a win-lose game with no eps-WSNE of supports <= k, yielding one
    :class:`Stage` per step as it finishes. A failed stage is the last one.

    The stages and their products, in order:

    - ``search``: at k = 1 the built-in directed triangle (a ``Digraph``).
      Otherwise a first record (no product) announces the hunt for a set of
      kappa = 2k(k-1) + 1 in Z_q, q_min <= q <= q_max; then :func:`search`.
    - ``certify``: at k >= 3 first :func:`certify` of the base digraph's
      (kappa, 2) claim, then of the power's (2k+1, k) claim. Before the
      latter, a game with more support pairs than ``exhaust`` and
      ``reverify`` accept raises ``formats.CertificateError`` naming --k.
    - ``bipartify``: the ``WinLoseGame``.
    - ``char``: None, or the cycle or undominated set found.
    - ``exhaust``: :func:`exhaust`.

    The search arguments are those of ``SearchSpec`` and are unused at k = 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= eps < 1:
        raise ValueError(f"eps must satisfy 0 <= eps < 1, got {eps}")
    return _through_first_failure(_stages(k, eps, budget, seed, q_min, q_max, mode))


def _through_first_failure(stages: Iterator[Stage]) -> Iterator[Stage]:
    for stage in stages:
        yield stage
        if not stage.ok:
            return


def _stages(k, eps, budget, seed, q_min, q_max, mode) -> Iterator[Stage]:
    """Every step in order. The generator is never resumed after a failed
    stage (:func:`_through_first_failure` stops there), so each step may use
    the product of the stage before it."""
    if k == 1:
        # Girth-3 triangle with every singleton dominated; no search needed.
        base = digraph.cayley(3, residues.ResidueSet.from_members(3, [2]))
        yield Stage("search", True, "k=1 uses the built-in directed triangle", base)
    else:
        kappa = 2 * k * (k - 1) + 1
        yield Stage("search", True, f"hunting a kappa={kappa} set in q range [{q_min}, {q_max}]")
        found = search(residues.SearchSpec(kappa, q_min, q_max, budget, seed, mode))
        yield found
        base = digraph.cayley(found.product.modulus, found.product.y)
        # At k = 2 the power below is the base itself (a Haight set has no 0, so
        # the base has no loops to strip) under the same (5,2) claim.
        if k >= 3:
            yield certify(base, kappa, 2)

    target = digraph.power(base, k - 1) if k >= 2 else base
    # The limit of exhaust and reverify; it bounds certify's k-subsets too.
    formats.require_pairs_within_max_work(target.n, target.n, k, "--k")
    yield certify(target, 2 * k + 1, k)
    g = game.bipartify(target)
    yield Stage("bipartify", True, f"game is {g.m} x {g.n}", g)
    witness = game.char_decision(g, k)
    if witness is None:
        yield Stage("char", True, f"no cycle of length <= {2 * k} and no one-sided undominated {k}-set")
    else:
        yield Stage("char", False, f"unexpected structure found: {witness}", witness)
    yield exhaust(g, k, eps)
