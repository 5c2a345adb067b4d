"""Adaptive query policies: greedy selection rules and policy trees.

A policy tree queries one example per internal node and branches on the
observed label.  Trees built here are total over label outcomes; label
branches that no hypothesis can produce are marked unreachable (no
child).  Every tie anywhere breaks toward the lowest pool index, so
identical inputs always yield identical trees and transcripts.

Greedy trees grow a level at a time: up to X * Y node posteriors are
scored together, from one stacked product that gives each row the bits
of ``label_marginals``; each child's mass stays a 1-D sum of its own.
A stack of priors grows as one forest, its roots the first level's nodes.
``select`` and ``greedy_transcript`` pick with the same code, one row at a time.
Under the built-in 0-1 loss, bounds on closed-form pair masses let
``utilities._certified_argmax`` decide most ``worst_gen_gibbs`` picks.
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
    _marginal_rows,
    label_marginals,  # unused here, but perfbench's tracer rebinds it in every importing module
    posterior,
)
from .utilities import LossMatrix, _certified_argmax, _check_loss, _pair_mass_bounds, zero_one_loss

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


def _row_scores(criterion: str, marginals: np.ndarray) -> np.ndarray:
    """Every example's score in a stack of (n_examples, n_labels) marginals, higher is better;
    on a C-ordered stack each is bitwise its scalar, or the scalar negated."""
    m = np.ascontiguousarray(marginals)
    if criterion == "max_gibbs":
        return 1.0 - (m**2).sum(axis=-1)
    if criterion == "least_confidence" or (criterion == "gbs" and m.shape[-1] != 2):
        return -m.max(axis=-1)
    if criterion == "max_entropy":  # summed over the positive entries only, so row by row
        return np.array([[_entropy(r) for r in rows] for rows in m])
    if criterion == "gbs":
        return -np.abs(m[..., 1] - m[..., 0])
    raise ValueError(f"criterion {criterion!r} is not marginal-computable")


def select_from_marginals(criterion: str, marginals: np.ndarray, candidates: Sequence[int]) -> int:
    """Pick a pool index from per-example label distributions.

    Supports the marginal-computable criteria; ``gbs`` uses the
    most-even-split rule on binary labels and falls back to least
    confidence on the version-space marginals otherwise.  First
    candidate wins ties (candidates must be in ascending pool order).
    """
    if len(candidates) == 0:
        raise ValueError("no examples available to select from")
    scores = _row_scores(criterion, np.asarray(marginals)[None])[0].tolist()
    best_xi, best = None, -math.inf
    for xi in candidates:
        if scores[xi] > best:
            best, best_xi = scores[xi], xi
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
    cols = inst.label_columns.take(candidates, axis=0)  # (C, H)
    q_in = np.where(cols[:, None, :] == np.arange(inst.n_labels)[:, None], q, 0.0)  # (C, Y, H)
    # distinct rows keyed by their bytes, in first-seen order, q first
    row_of = {q.tobytes(): 0}
    inverse = [row_of.setdefault(v.tobytes(), len(row_of)) for v in q_in.reshape(-1, q.size)]
    Q = np.frombuffer(b"".join(row_of), dtype=q.dtype).reshape(len(row_of), q.size)
    pair_mass = np.einsum("ij,ij->i", Q @ loss.values, Q)
    # qLq - m falls as m grows, so the worst label is the one keeping the most pair mass
    return pair_mass[0] - pair_mass[inverse].reshape(len(candidates), inst.n_labels).max(axis=1)


def _worst_gen_gibbs_picks(
    inst: Instance, P: np.ndarray, avail: np.ndarray, loss: LossMatrix
) -> np.ndarray:
    """Each row's ``worst_gen_gibbs`` pick among the examples its ``avail`` row flags.

    Under the 0-1 loss, ``_pair_mass_bounds`` bounds the pair mass of every label branch, and
    of the row (each example's branch sums, summed), from two stacked products.  Rounding is
    monotone, so each gain of ``_worst_gen_gibbs_gains`` lies in [lo_row − max hi, hi_row −
    max lo] on any BLAS kernel, and ``_certified_argmax`` decides from those brackets.  Rows it
    leaves open, and other losses, take the argmax of the dense gains.
    """
    picks = np.full(len(P), -1)
    if loss._zero_one:
        sums = _marginal_rows(inst, np.concatenate([P, P * P])).reshape(2, *avail.shape, -1)
        sums = np.concatenate([sums, sums.sum(axis=3, keepdims=True)], axis=3)  # + the row's
        lo, hi = _pair_mass_bounds(*sums, inst.n_hypotheses)  # (rows, X, Y + 1)
        gain_lo = np.where(avail, lo[..., -1] - hi[..., :-1].max(axis=2), -math.inf)
        gain_hi = np.where(avail, hi[..., -1] - lo[..., :-1].max(axis=2), -math.inf)
        picks = _certified_argmax(gain_lo, gain_hi)
    for i in np.flatnonzero(picks < 0):
        candidates = avail[i].nonzero()[0]
        gains = _worst_gen_gibbs_gains(Prior._trusted(P[i]), inst, candidates, loss)
        picks[i] = candidates[np.argmax(gains)]
    return picks


def _picks(criterion: str, inst: Instance, P: np.ndarray, avail: np.ndarray, loss) -> np.ndarray:
    """Each row's greedy pick among the examples its ``avail`` row flags, the lowest pool index
    winning ties; for a known criterion and a ``_checked_loss``."""
    if criterion == "worst_gen_gibbs":
        return _worst_gen_gibbs_picks(inst, P, avail, loss)
    scores = _row_scores(criterion, _marginal_rows(inst, P))
    return np.where(avail, scores, -math.inf).argmax(axis=1)


def _candidates(inst: Instance, available: Iterable[str]) -> list[int]:
    """Ascending pool indices of ``available``; unknown names raise ValueError."""
    try:
        return sorted(inst.example_index[x] for x in set(available))
    except KeyError as exc:
        raise ValueError(f"unknown example {exc.args[0]!r}") from None


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
    avail = np.bincount(candidates, minlength=inst.n_examples)[None] > 0
    return inst.examples[int(_picks(criterion, inst, p.probs[None], avail, loss)[0])]


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
        codes = codes * inst.n_labels + inst.label_columns[xi]
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


def _densify(node: np.ndarray, hyp: np.ndarray, val: np.ndarray, n: int, H: int) -> np.ndarray:
    """Read-only dense posteriors of ``n`` frontier nodes: row ``node[k]`` holds ``val[k]`` at
    hypothesis ``hyp[k]`` and +0.0 elsewhere, the doubles a dense branch update writes."""
    P = np.zeros((n, H))
    P[node, hyp] = val
    P.setflags(write=False)
    return P


def _grow_rounds(
    stack: np.ndarray, inst: Instance, n_rounds: int, choose: Callable, stop_when_identified: bool = False
) -> list[PolicyTree]:
    """The one tree grower behind both greedy builders: a forest, one tree per row of the (k, H)
    ``stack`` of priors, grown a level at a time.

    Per round ``choose(P, avail)`` gives a batch of pool indices for each row
    of ``P``, a node's dense posterior, from the examples its ``avail`` row
    flags; a batch, which callers check fits, is queried blind.  Between
    levels the frontier is compact, one (node, hypothesis, value) entry per
    branch-consistent hypothesis; level 0 holds the roots, whose rows are the
    priors themselves, and each node below is densified once, at most X * Y
    rows at a time.  A child's mass is the 1-D sum of its parent's row over
    the whole label column; a massless child is uniform over its consistent set.
    """
    X, Y, H = inst.n_examples, inst.n_labels, inst.n_hypotheses
    n_trees = len(stack)  # under stop_when_identified, a root with one entry of mass stays empty
    roots = np.flatnonzero(np.count_nonzero(stack, axis=1) > stop_when_identified)
    stack = stack[roots]
    columns: dict = {}  # (xi, yi): the ascending indices of the hypotheses labeling xi with yi
    node, hyp, val = np.repeat(np.arange(roots.size), H), np.tile(np.arange(H), roots.size), stack.ravel()
    avail = np.ones((roots.size, X), dtype=bool)  # per node: the examples its path has not queried
    batch, pos, rounds_left, step, levels = None, 0, n_rounds, X * Y, []
    while len(avail):
        n, cuts, chunks, grown = len(avail), [0, node.size], [], []
        if n > step:  # a chunk is a run of nodes, so order the entries by node
            order = np.argsort(node, kind="stable")
            node, hyp, val = node[order], hyp[order], val[order]
            cuts[1:1] = node.searchsorted(range(step, n, step)).tolist()
        for c, c0 in enumerate(range(0, n, step)):
            m, e = min(step, n - c0), slice(cuts[c], cuts[c + 1])
            loc, h, v = (node[e] - c0, hyp[e], val[e]) if n > step else (node, hyp, val)
            P = _densify(loc, h, v, m, H) if levels else stack[c0 : c0 + m]
            bt = batch[c0 : c0 + m] if pos else np.asarray(choose(P, avail[c0 : c0 + m]), np.intp)
            xi, last, kids = bt[:, pos], pos + 1 == bt.shape[1], []
            grown.append((xi, kids))  # per chunk: each node's example, its slots holding a child
            if last and rounds_left == 1:  # every child is a leaf
                continue
            key = loc * Y + inst.label_columns[xi[loc], h]
            size = np.bincount(key, minlength=m * Y)
            identify = last and stop_when_identified  # leaf: one hypothesis with mass, or V of one
            nonzero = np.bincount(key[v != 0.0], minlength=m * Y).tolist() if identify else ()
            masses, rank, xs = [], [-1] * (m * Y), xi.tolist()
            for k, count in enumerate(sizes := size.tolist()):
                i, y = divmod(k, Y)
                if count and not (identify and (nonzero[k] or count) <= 1):
                    rank[k] = len(kids)
                    kids.append(k)
                    if (xs[i], y) not in columns:
                        columns[xs[i], y] = (inst.label_columns[xs[i]] == y).nonzero()[0]
                    masses.append(P[i].take(columns[xs[i], y]).sum())
            child = np.array(rank)[key]
            if len(kids) < len(sizes) - sizes.count(0):  # the leaves' entries leave the frontier
                kept = child >= 0
                child, h, v = child[kept], h[kept], v[kept]
            den = np.array(masses)[child]
            if 0.0 in masses:  # a massless child is uniform over its V
                v, den = np.where(den == 0.0, 1.0, v), np.where(den == 0.0, size[kids][child], den)
            parent = np.array(kids, dtype=np.intp) // Y
            sub = avail[c0 : c0 + m][parent]
            sub[np.arange(parent.size), xi[parent]] = False
            if chunks:
                child += sum(len(a) for _, _, _, a, _ in chunks)
            chunks.append((child, h, v / den, sub, None if last else bt[parent]))
        levels.append(grown)
        pos = (pos + 1) % bt.shape[1]
        rounds_left -= pos == 0
        if not chunks:
            break
        node, hyp, val, avail, batch = chunks[0] if len(chunks) == 1 else (
            None if a[0] is None else np.concatenate(a) for a in zip(*chunks)
        )
    below: list = []  # the next level's nodes, in order
    for grown in reversed(levels):
        slots, below = iter(below), []
        for xi, kids in grown:
            flat = [None] * (Y * len(xi))
            for k, child in zip(kids, slots):
                flat[k] = child
            names = [inst.examples[x] for x in xi.tolist()]
            below += map(PolicyNode, names, zip(*[iter(flat)] * Y))  # Y slots to a node
    tree_of = dict(zip(roots.tolist(), below))  # the first level's nodes are the roots, in order
    return [PolicyTree(inst, tree_of.get(i)) for i in range(n_trees)]


def _build_forest(criterion: str, priors: Sequence[Prior], inst: Instance, budget: int, loss, stop):
    """``build_policy`` on each of ``priors``, the trees grown together as one forest."""
    if not priors:
        raise ValueError("a forest needs at least one prior")
    for p in priors:
        _check_prior(p, inst)
    if not 1 <= budget <= inst.n_examples:
        raise ValueError(f"budget must lie in [1, {inst.n_examples}], got {budget}")
    loss = _checked_loss(criterion, inst, loss)  # once per forest, not once per node

    def choose(P: np.ndarray, avail: np.ndarray):
        return _picks(criterion, inst, P, avail, loss)[:, None]

    return _grow_rounds(np.array([p.probs for p in priors]), inst, budget, choose, stop)


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
    return _build_forest(criterion, [p], inst, budget, loss, stop_when_identified)[0]


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

    def choose(P: np.ndarray, avail: np.ndarray):
        rows = zip(map(Prior._trusted, P), avail)
        return [_select_batch_index(q, inst, a.nonzero()[0].tolist(), batch_size) for q, a in rows]

    return _grow_rounds(p.probs[None], inst, n_rounds, choose)[0]


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
    q, pairs, labeling = p, [], truth.labeling
    avail = np.ones((1, inst.n_examples), dtype=bool)
    for _ in range(budget):
        xi = int(_picks(criterion, inst, q.probs[None], avail, loss)[0])
        avail[0, xi] = False
        pairs.append((inst.examples[xi], labeling[inst.examples[xi]]))
        q = posterior(q, inst, pairs[-1:])
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
