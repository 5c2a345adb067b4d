"""Adaptive query policies: greedy selection rules and policy trees.

A policy tree queries one example per internal node and branches on the
observed label.  Trees built here are total over label outcomes; label
branches that no hypothesis can produce are marked unreachable (no
child).  Every tie anywhere breaks toward the lowest pool index, so
identical inputs always yield identical trees and transcripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    Hypothesis,
    Instance,
    Prior,
    _check_prior,
    label_marginals,
    posterior,
)
from .utilities import LossMatrix, _check_loss, zero_one_loss

CRITERIA = ("max_gibbs", "least_confidence", "max_entropy", "gbs", "worst_gen_gibbs")


@dataclass(frozen=True)
class PolicyNode:
    """Internal tree node: the example to query and one child slot per label."""

    example: str
    children: tuple["PolicyNode | None", ...]


@dataclass(frozen=True, eq=False)
class PolicyTree:
    """An adaptive querying strategy over a fixed instance.

    ``root is None`` is the empty policy (query nothing), the recursion
    base for zero budgets and already-identified version spaces.
    """

    instance: Instance
    root: PolicyNode | None


@dataclass(frozen=True, eq=False)
class Transcript:
    """The (example, label) sequence a run observed, plus the final posterior."""

    pairs: tuple[tuple[str, str], ...]
    final_posterior: Prior


def _entropy(row: np.ndarray) -> float:
    nz = row[row > 0]
    return float(-(nz * np.log(nz)).sum())


def select_from_marginals(
    criterion: str,
    marginals: np.ndarray,
    candidates: Sequence[int],
) -> int:
    """Pick a pool index from per-example label distributions.

    Supports the marginal-computable criteria; ``gbs`` uses the
    most-even-split rule on binary labels and falls back to least
    confidence on the version-space marginals otherwise.  First
    candidate wins ties (candidates must be in ascending pool order).
    """
    if len(candidates) == 0:
        raise ValueError("no examples available to select from")

    # score rows over every example, bitwise equal to per-row scalars on C-ordered rows
    m = np.ascontiguousarray(marginals)
    if criterion == "max_gibbs":
        scores, maximize = (1.0 - (m**2).sum(axis=1)).tolist(), True
    elif criterion == "least_confidence" or (criterion == "gbs" and m.shape[1] != 2):
        scores, maximize = m.max(axis=1).tolist(), False
    elif criterion == "max_entropy":
        scores, maximize = {xi: _entropy(m[xi]) for xi in candidates}, True
    elif criterion == "gbs":
        scores, maximize = np.abs(m[:, 1] - m[:, 0]).tolist(), False
    else:
        raise ValueError(f"criterion {criterion!r} is not marginal-computable")

    best_xi = None
    best = -math.inf if maximize else math.inf
    for xi in candidates:
        s = scores[xi]
        if (maximize and s > best) or (not maximize and s < best):
            best, best_xi = s, xi
    if best_xi is None:
        raise ValueError(f"criterion {criterion!r} scored no candidate: marginals are not finite")
    return best_xi


def _worst_gen_gibbs_gains(
    p: Prior, inst: Instance, candidates: Sequence[int], loss: LossMatrix
) -> np.ndarray:
    """Worst-case one-query generalized reduction of each candidate.

    The gain under an observable label y is the loss-weighted pair mass
    broken by that observation, qLq - q_in L q_in, with q_in the mass of
    q restricted to the y-branch; a candidate's score is the minimum over
    labels whose branch has positive mass.  A branch without mass gains
    all of qLq, the most any branch can, so it never sets the minimum
    and needs no test.

    q and the distinct vectors q_in are stacked as the rows of one matrix
    Q, so every quadratic form comes from a single ``Q @ L`` product that
    reads L once.  Bitwise identical vectors share a row, so identical
    splits score identically and a split that separates nothing scores
    exactly 0; ``np.argmax`` over the scores then picks the lowest pool
    index among exact ties.
    """
    q = p.probs
    cols = inst.label_matrix[:, candidates].T  # (C, H)
    q_in = np.where(cols[:, None, :] == np.arange(inst.n_labels)[:, None], q, 0.0)  # (C, Y, H)
    # distinct rows keyed by their bytes, in first-seen order, q first
    row_of = {q.tobytes(): 0}
    inverse = [row_of.setdefault(v.tobytes(), len(row_of)) for v in q_in.reshape(-1, q.size)]
    Q = np.frombuffer(b"".join(row_of), dtype=q.dtype).reshape(len(row_of), q.size)
    pair_mass = np.einsum("ij,ij->i", Q @ loss.values, Q)
    # qLq - m falls as m grows, so the worst label is the one keeping the most pair mass
    return pair_mass[0] - pair_mass[inverse].reshape(len(candidates), inst.n_labels).max(axis=1)


def _candidates(inst: Instance, available: Iterable[str]) -> list[int]:
    """Ascending pool indices of ``available``; unknown names raise ValueError."""
    try:
        return sorted(inst.example_index[x] for x in set(available))
    except KeyError as exc:
        raise ValueError(f"unknown example {exc.args[0]!r}") from None


def _select_index(
    criterion: str, q: Prior, inst: Instance, candidates: Sequence[int], loss: LossMatrix | None
) -> int:
    """``select`` on ascending pool indices, for a known criterion and a ``_checked_loss``."""
    if criterion == "worst_gen_gibbs":
        gains = _worst_gen_gibbs_gains(q, inst, candidates, loss)
        return candidates[int(np.argmax(gains))]
    return select_from_marginals(criterion, label_marginals(q, inst), candidates)


def _checked_loss(criterion: str, inst: Instance, loss: LossMatrix | None) -> LossMatrix | None:
    """``loss`` checked with ``criterion``; the 0-1 default built here, once, where needed."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
    _check_loss(loss, inst)
    return zero_one_loss(inst) if loss is None and criterion == "worst_gen_gibbs" else loss


def select(
    criterion: str,
    p: Prior,
    inst: Instance,
    available: Iterable[str],
    loss: LossMatrix | None = None,
) -> str:
    """Choose the next example to query from ``available``.

    Criteria: ``max_gibbs`` (greedy expected version-space reduction),
    ``least_confidence`` (its worst-case sibling), ``max_entropy``,
    ``gbs`` (most-even split), and ``worst_gen_gibbs`` (worst-case
    generalized reduction; ``loss`` defaults to 0-1).
    """
    _check_prior(p, inst)
    candidates = _candidates(inst, available)
    if not candidates:
        raise ValueError("no examples available to select from")
    loss = _checked_loss(criterion, inst, loss)
    return inst.examples[_select_index(criterion, p, inst, candidates, loss)]


def _joint_gibbs_error(p: Prior, inst: Instance, batch_idx: Sequence[int]) -> float:
    """Gibbs error of the joint label sequence of a batch: 1 - sum_y p[y;B]^2.

    Each hypothesis's labels on the batch become one integer code, first
    batch member most significant, re-ranked densely after every member
    so codes stay below n_hypotheses * n_labels.  Code order is the
    lexicographic order of the label rows, and ``np.bincount`` sums each
    joint label's mass in hypothesis order.
    """
    codes = np.zeros(inst.n_hypotheses, dtype=np.intp)
    for xi in batch_idx:
        codes = codes * inst.n_labels + inst.label_matrix[:, xi]
        ranks = np.cumsum(np.bincount(codes) > 0) - 1
        codes = ranks[codes]
    masses = np.bincount(codes, weights=p.probs)
    return 1.0 - float((masses**2).sum())


def select_batch_max_gibbs(
    p: Prior, inst: Instance, available: Iterable[str], batch_size: int
) -> tuple[str, ...]:
    """Greedily grow a batch maximizing the joint-label Gibbs error.

    Each step adds the available example whose joint Gibbs error with
    the batch so far is largest, the lowest pool index winning ties.
    Unknown example names raise ``ValueError``, as in ``select``.
    """
    _check_prior(p, inst)
    remaining = _candidates(inst, available)
    if not 1 <= batch_size <= len(remaining):
        raise ValueError(
            f"batch size {batch_size} out of range for {len(remaining)} available examples"
        )
    return tuple(inst.examples[i] for i in _select_batch_index(p, inst, remaining, batch_size))


def _select_batch_index(
    p: Prior, inst: Instance, candidates: Sequence[int], batch_size: int
) -> tuple[int, ...]:
    """``select_batch_max_gibbs`` on ascending pool indices, for a batch size that fits."""
    remaining = list(candidates)
    batch: list[int] = []
    for _ in range(batch_size):
        best_xi, best = None, -math.inf
        for xi in remaining:
            s = _joint_gibbs_error(p, inst, batch + [xi])
            if s > best:
                best, best_xi = s, xi
        batch.append(best_xi)
        remaining.remove(best_xi)
    return tuple(batch)


def _branch_posterior(q: Prior, V: np.ndarray, idx_xy: np.ndarray) -> Prior:
    """Posterior handed down a label branch.

    ``idx_xy`` indexes every hypothesis giving the branch's label and
    ``V`` the branch-consistent ones, both ascending.  A positive-mass
    branch gets the renormalized restriction of ``q``, its mass summed
    over all of ``idx_xy``: a sum over V alone can move the last bit.  A
    zero-mass branch, reachable only by zero-probability hypotheses,
    falls back to uniform over V so that worst-case traversals still
    have a well-defined selection rule below it.
    """
    inside = q.probs.take(idx_xy)
    mass = float(inside.sum())
    probs = np.zeros(q.probs.size)
    if mass > 0.0:
        probs[idx_xy] = inside / mass
    else:
        probs[V] = 1.0 / V.size
    return Prior._trusted(probs)


def _grow_rounds(
    p: Prior, inst: Instance, n_rounds: int, choose: Callable, stop_when_identified: bool = False
) -> PolicyTree:
    """The one tree grower behind both greedy builders.

    Each round ``choose(q, avail)`` returns a tuple of pool indices from
    the ascending tuple ``avail``; that batch is queried blind, in order,
    and the tree adapts only between rounds.  A node carries V, the
    ascending index array of its branch-consistent hypotheses, which
    holds its posterior's support.  ``stop_when_identified`` ends a path
    once the positive-mass version space is a singleton, read off the
    parent's posterior: only expanded nodes get one.  Callers check
    that ``n_rounds`` batches fit in the pool.
    """

    def is_leaf(q: Prior, V: np.ndarray, rounds_left: int) -> bool:
        # q is the posterior V was split under; a massless V would fall back to uniform
        identified = stop_when_identified and (np.count_nonzero(q.probs.take(V)) or V.size) <= 1
        return rounds_left == 0 or identified

    def grow(q: Prior, V: np.ndarray, avail: tuple[int, ...], rounds_left: int):
        batch = choose(q, avail)
        rest = tuple(i for i in avail if i not in batch)
        return within(q, V, batch, rest, rounds_left, 0)

    # queries batch[pos]; a closure made per node inside grow would be a cycle for the collector
    def within(q, V, batch, rest, rounds_left, pos):
        xi = batch[pos]
        labels = cols[xi].take(V)  # a contiguous row; each Vy of an ascending V is ascending
        last = pos + 1 == len(batch)
        children = []
        for yi in range(inst.n_labels):
            Vy = V[labels == yi]
            if not Vy.size or (last and is_leaf(q, Vy, rounds_left - 1)):
                children.append(None)
                continue
            q_child = _branch_posterior(q, Vy, idx[xi][yi])
            if last:
                children.append(grow(q_child, Vy, rest, rounds_left - 1))
            else:
                children.append(within(q_child, Vy, batch, rest, rounds_left, pos + 1))
        return PolicyNode(inst.examples[xi], tuple(children))

    cols = np.ascontiguousarray(inst.label_matrix.T)
    # idx[xi][yi]: the ascending indices of the hypotheses labeling example xi with label yi
    idx = [[(col == yi).nonzero()[0] for yi in range(inst.n_labels)] for col in cols]
    V = np.arange(inst.n_hypotheses)
    root = None if is_leaf(p, V, n_rounds) else grow(p, V, tuple(range(inst.n_examples)), n_rounds)
    del grow, within  # a cycle between them would keep choose, and any loss it holds, alive
    return PolicyTree(inst, root)


def build_policy(
    criterion: str,
    p: Prior,
    inst: Instance,
    budget: int,
    loss: LossMatrix | None = None,
    stop_when_identified: bool = False,
) -> PolicyTree:
    """Materialize the greedy adaptive policy as a tree of depth ``budget``.

    Paths have uniform length ``budget`` except when
    ``stop_when_identified`` is set (the identification mode used by
    ``gbs``), where a path ends as soon as the positive-mass version
    space is a singleton.
    """
    _check_prior(p, inst)
    if not 1 <= budget <= inst.n_examples:
        raise ValueError(f"budget must lie in [1, {inst.n_examples}], got {budget}")
    loss = _checked_loss(criterion, inst, loss)  # once per tree, not once per node

    def choose(q: Prior, avail: tuple[int, ...]) -> tuple[int, ...]:
        return (_select_index(criterion, q, inst, avail, loss),)

    return _grow_rounds(p, inst, budget, choose, stop_when_identified)


def build_batch_policy(
    p: Prior, inst: Instance, n_rounds: int, batch_size: int
) -> PolicyTree:
    """Greedy batch policy: per round, a jointly-chosen batch queried blind.

    Within a round the batch members are queried in selection order
    regardless of the labels seen; adaptation happens only between
    rounds.  Total depth is ``n_rounds * batch_size``.
    """
    _check_prior(p, inst)
    if n_rounds < 1 or batch_size < 1:
        raise ValueError("need at least one round and a positive batch size")
    if n_rounds * batch_size > inst.n_examples:
        raise ValueError("batch rounds exceed the pool size")

    def choose(q: Prior, avail: tuple[int, ...]) -> tuple[int, ...]:
        return _select_batch_index(q, inst, avail, batch_size)

    return _grow_rounds(p, inst, n_rounds, choose)


def run_policy(
    tree: PolicyTree, h: Hypothesis
) -> tuple[tuple[str, ...], tuple[str, ...], int]:
    """Follow ``h``'s labels down the tree: (queried, labels, cost)."""
    inst = tree.instance
    labeling = h.labeling
    queried: list[str] = []
    labels: list[str] = []
    node = tree.root
    while node is not None:
        x = node.example
        try:
            y = labeling[x]
        except KeyError:
            raise ValueError(f"hypothesis {h.id!r} does not label example {x!r}") from None
        queried.append(x)
        labels.append(y)
        node = node.children[inst.label_index[y]]
    return tuple(queried), tuple(labels), len(queried)


def greedy_transcript(
    criterion: str,
    p: Prior,
    inst: Instance,
    budget: int,
    truth: Hypothesis,
    loss: LossMatrix | None = None,
) -> Transcript:
    """Run the greedy criterion live against a ground-truth labeling.

    Equivalent to materializing the policy tree and following
    ``truth``'s path, but without building the unvisited branches.
    """
    _check_prior(p, inst)
    if not 0 <= budget <= inst.n_examples:
        raise ValueError(f"budget must lie in [0, {inst.n_examples}], got {budget}")
    loss = _checked_loss(criterion, inst, loss)  # once per run, not once per step
    q = p
    pairs: list[tuple[str, str]] = []
    avail = list(range(inst.n_examples))
    labeling = truth.labeling
    for _ in range(budget):
        xi = _select_index(criterion, q, inst, avail, loss)
        x = inst.examples[xi]
        q = posterior(q, inst, [(x, labeling[x])])
        pairs.append((x, labeling[x]))
        avail.remove(xi)
    return Transcript(tuple(pairs), q)


def policy_to_text(tree: PolicyTree) -> str:
    """Serialize a tree as one '<depth>,<example>,<edge-label>' line per node."""
    inst = tree.instance
    lines: list[str] = []

    def walk(node: PolicyNode, depth: int, edge: str) -> None:
        lines.append(f"{depth},{node.example},{edge}")
        for yi, child in enumerate(node.children):
            if child is not None:
                walk(child, depth + 1, inst.labels[yi])

    if tree.root is not None:
        walk(tree.root, 0, "")
    return "\n".join(lines) + ("\n" if lines else "")
