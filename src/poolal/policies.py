"""Adaptive query policies: greedy selection rules and policy trees.

A policy tree queries one example per internal node and branches on the
observed label.  Trees built here are total over label outcomes; label
branches that no hypothesis can produce are marked unreachable (no
child).  Every tie anywhere breaks toward the lowest pool index, so
identical inputs always yield identical trees and transcripts.  A tree is
a breadth-first node table; its ``PolicyNode`` objects are built on demand.

Greedy trees grow a level at a time.  Up to X * Y nodes are scored from
one stacked product that gives each row the bits of ``label_marginals``.
A wider level picks from per-node label sums, bitwise those of the product
or bounded (``utilities._certified_argmax``), and densifies only the nodes
they leave open.  A stack of priors grows as one forest.  ``select`` and
``greedy_transcript`` pick with the same code, one row at a time.  Under
the 0-1 loss, bounds on closed-form pair masses decide most
``worst_gen_gibbs`` picks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass
from itertools import pairwise
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
from .utilities import LossMatrix, _certified_argmax, _check_loss, _gamma, _pair_mass_bounds, zero_one_loss

CRITERIA = ("max_gibbs", "least_confidence", "max_entropy", "gbs", "worst_gen_gibbs")


@dataclass(frozen=True)
class PolicyNode:
    """Internal tree node: the example to query and one child slot per label."""

    example: str
    children: tuple["PolicyNode | None", ...]


class PolicyTree:
    """An adaptive querying strategy over a fixed instance, as a breadth-first node table
    ``_table`` = (example, child, names, at): node k queries ``names[example[k]]``, its y-child is
    node ``child[k, y]`` or -1, and the root is node ``at``, -1 for the empty policy (``root is
    None``).  A forest's trees share one table.  ``root`` builds ``PolicyNode``s on first access;
    a tree given as nodes is flattened to a table on first use."""

    def __init__(self, instance: Instance, root: PolicyNode | None, _table: tuple | None = None):
        given = {"root": root} if _table is None else {"_table": _table}  # the other is built on demand
        self.__dict__.update(instance=instance, **given)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @functools.cached_property
    def root(self) -> PolicyNode | None:
        example, child, names, at = self._table
        ex, ch, rows, made = example.tolist(), child.tolist(), [at] if at >= 0 else [], {}
        for k in rows:  # grows while read: this tree's nodes, breadth first
            rows.extend(c for c in ch[k] if c >= 0)
        for k in reversed(rows):  # children first; made.get(-1) is None
            made[k] = PolicyNode(names[ex[k]], tuple(map(made.get, ch[k])))
        return made.get(at)

    @functools.cached_property
    def _table(self) -> tuple:
        Y, codes = self.instance.n_labels, dict(self.instance.example_index)  # unknown names next
        nodes, slots = [] if self.root is None else [self.root], []
        for node in nodes:  # grows while read: a breadth-first queue
            if len(node.children) != Y:
                raise ValueError(f"every policy node needs one child slot per label ({Y})")
            slots += node.children
            nodes += [c for c in node.children if c is not None]
        kid = np.array([c is not None for c in slots], dtype=bool)  # the k-th kid is node k + 1
        example = np.array([codes.setdefault(n.example, len(codes)) for n in nodes], dtype=np.intp)
        return example, np.where(kid, kid.cumsum(), -1).reshape(-1, Y), tuple(codes), 0 if nodes else -1


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
    confidence on the version-space marginals otherwise.  The lowest
    pool index wins ties, and a NaN score never wins.
    """
    if len(candidates) == 0:
        raise ValueError("no examples available to select from")
    cand = np.sort(np.asarray(candidates))
    scores = _row_scores(criterion, np.asarray(marginals)[None])[0][cand]
    scores = np.where(scores > -math.inf, scores, -math.inf)  # NaN never wins
    best = int(scores.argmax())  # the lowest index wins ties, as in ``_picks``
    if scores[best] == -math.inf:
        raise ValueError(f"criterion {criterion!r} scored no candidate: marginals are not finite")
    return int(cand[best])


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


def _worst_gen_gibbs_certified(s: np.ndarray, ss: np.ndarray, avail: np.ndarray, n: int) -> np.ndarray:
    """Each row's ``worst_gen_gibbs`` pick under the 0-1 loss, or -1, from sums s and ss of its
    ``n`` entries and their squares per (example, label), in any order: ``_pair_mass_bounds``
    bounds each branch's pair mass and the row's (the branches', summed), so by monotone rounding
    each gain lies in [lo_row − max hi, hi_row − max lo] on any BLAS kernel."""
    sums = np.stack([s, ss])
    sums = np.concatenate([sums, sums.sum(axis=3, keepdims=True)], axis=3)  # + the row's
    lo, hi = _pair_mass_bounds(*sums, n)  # (rows, X, Y + 1)
    gain_lo = np.where(avail, lo[..., -1] - hi[..., :-1].max(axis=2), -math.inf)
    gain_hi = np.where(avail, hi[..., -1] - lo[..., :-1].max(axis=2), -math.inf)
    return _certified_argmax(gain_lo, gain_hi)


def _worst_gen_gibbs_picks(
    inst: Instance, P: np.ndarray, avail: np.ndarray, loss: LossMatrix
) -> np.ndarray:
    """Each row's ``worst_gen_gibbs`` pick among the examples its ``avail`` row flags: certified
    under the 0-1 loss from two stacked products, else the argmax of the dense gains."""
    picks = np.full(len(P), -1)
    if loss._zero_one:
        sums = _marginal_rows(inst, np.concatenate([P, P * P])).reshape(2, *avail.shape, -1)
        picks = _worst_gen_gibbs_certified(*sums, avail, inst.n_hypotheses)
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


def _level_sums(inst: Instance, node, hyp, val, n: int, squares: bool = False) -> list:
    """Per frontier node, example and label, (n, X, Y): the sum S of the node's ``val`` entries
    with that label in entry order, whether at most two of its terms are positive, and with
    ``squares`` the sum of their squares.  S sums the exact products of ``label_onehot @ row``
    in another order, so with at most two positive terms (a + b commutes, adding +0.0 is exact)
    it is bitwise the product's entry, but for the sign of a zero."""
    X, Y = inst.n_examples, inst.n_labels
    key = ((node * X)[:, None] + np.arange(X)) * Y + inst.label_matrix[hyp]  # (E, X), by entry
    few = np.bincount(key[val > 0.0].ravel(), minlength=n * X * Y) <= 2
    sums = [np.bincount(key.ravel(), v.repeat(X), n * X * Y) for v in [val, val * val][: 1 + squares]]
    return [s.reshape(n, X, Y) for s in (sums[0], few, *sums[1:])]


def _marginal_bounds(S: np.ndarray, few: np.ndarray, H: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) on each entry of ``label_onehot @ row`` on any BLAS kernel, from its
    ``_level_sums`` S and ``few``: exact where ``few`` holds.  Any other S and the entry are
    within γ_H·T of the exact sum T, so the entry lies in [S(1 − δ), S(1 + δ)], δ = 4γ_{H+2}
    (the slack covers the rounding of S·δ, 2⁻¹⁰⁷⁰ its underflow); lo is clipped at 0."""
    err = S * (4 * _gamma(H + 2)) + 2.0**-1070
    err[few] = 0.0
    hi = S + err
    return np.maximum(np.subtract(S, err, out=err), 0.0, out=err), hi


def _compact_picks(criterion: str, inst: Instance, node, hyp, val, avail: np.ndarray, loss):
    """A wide level's picks from ``_level_sums``, -1 where they cannot decide.  Rows whose
    needed sums have at most two positive terms each are scored exactly, the others certified
    from ``_marginal_bounds``: scores fall as a marginal rises, so by monotone rounding the
    ends' scores bracket the score (``gbs``' |m1 − m0| from the difference's ends).
    ``max_entropy`` and losses other than 0-1 decide nothing."""
    n, H = len(avail), inst.n_hypotheses
    if criterion == "max_entropy" or (criterion == "worst_gen_gibbs" and not loss._zero_one):
        return np.full(n, -1)
    S, few, *SS = _level_sums(inst, node, hyp, val, n, criterion == "worst_gen_gibbs")
    if SS:
        return _worst_gen_gibbs_certified(S, *SS, avail, H)
    lo, hi = _marginal_bounds(S, few, H)
    del S  # a wide level's arrays are the largest the grower holds
    if criterion == "gbs" and inst.n_labels == 2:
        d_lo, d_hi = lo[..., 1] - hi[..., 0], hi[..., 1] - lo[..., 0]
        lo, hi = -np.maximum(-d_lo, d_hi), -np.maximum(np.maximum(d_lo, -d_hi), 0.0)
    else:
        lo, hi = _row_scores(criterion, hi), _row_scores(criterion, lo)
    lo[~avail], hi[~avail] = -math.inf, -math.inf
    exact = (few | ~avail[..., None]).all(axis=(1, 2))
    return np.where(exact, lo.argmax(axis=1), _certified_argmax(lo, hi))


def _candidates(inst: Instance, available: Iterable[str]) -> list[int]:
    """Ascending pool indices of ``available``; unknown names raise ValueError."""
    return sorted(inst.example_index[x] for x in set(available))


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


def _joint_gibbs_scores(q: np.ndarray, inst: Instance, codes: np.ndarray, n_codes: int, remaining):
    """Each candidate's joint Gibbs error 1 - sum_y p[y;B]^2 with the batch B whose label rows
    ``codes`` ranks densely (lexicographically, below ``n_codes``), its joint codes and the codes
    used: one ``bincount`` over (candidate, code * Y + label) sums each joint label's mass in
    hypothesis order; each candidate squares and sums its used codes only, in code order."""
    c, width = len(remaining), n_codes * inst.n_labels
    joint = codes * inst.n_labels + inst.label_columns[remaining]  # (c, H)
    bins = (joint + (np.arange(c) * width)[:, None]).ravel()
    masses = np.bincount(bins, np.tile(q, c), c * width).reshape(c, width)
    used = np.bincount(bins, minlength=c * width).reshape(c, width) > 0
    scores, n_used = np.empty(c), used.sum(axis=1)
    for k in np.unique(n_used).tolist():  # equal-length rows sum with the 1-D sum's bits
        rows = np.flatnonzero(n_used == k)
        scores[rows] = 1.0 - (masses[rows][used[rows]].reshape(-1, k) ** 2).sum(axis=1)
    return scores, joint, used


def _select_batch_index(
    p: Prior, inst: Instance, candidates: Sequence[int], batch_size: int
) -> tuple[int, ...]:
    """``select_batch_max_gibbs`` on ascending pool indices, for a batch size that fits."""
    remaining, batch = np.array(candidates, dtype=np.intp), []
    codes, n_codes = np.zeros(inst.n_hypotheses, dtype=np.intp), 1
    for _ in range(batch_size):
        scores, joint, used = _joint_gibbs_scores(p.probs, inst, codes, n_codes, remaining)
        best = int(np.argmax(scores))  # the lowest pool index among ties
        batch.append(int(remaining[best]))
        remaining = np.delete(remaining, best)
        codes, n_codes = (np.cumsum(used[best]) - 1)[joint[best]], int(used[best].sum())
    return tuple(batch)


def _densify(node: np.ndarray, hyp: np.ndarray, val: np.ndarray, n: int, H: int) -> np.ndarray:
    """Read-only dense posteriors of ``n`` frontier nodes: row ``node[k]`` holds ``val[k]`` at
    hypothesis ``hyp[k]`` and +0.0 elsewhere, the doubles a dense branch update writes."""
    P = np.zeros((n, H))
    P[node, hyp] = val
    P.setflags(write=False)
    return P


def _by_row(rows: np.ndarray, key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(r, e): the entries e whose ``key`` (below ``size``) is one of ``rows``, stably sorted
    by r, their key's position in ``rows``."""
    rank = np.full(size, -1)
    rank[rows] = np.arange(rows.size)
    r = rank[key]
    e = np.argsort(r, kind="stable")[np.count_nonzero(r < 0) :]
    return r[e], e


def _dense_chunks(inst: Instance, frontier: tuple, rows: np.ndarray):
    """(part, ``_densify`` rows) for the ascending frontier nodes ``rows``, X * Y at a time."""
    node, hyp, val, step = *frontier, inst.n_examples * inst.n_labels
    if not rows.size:
        return
    r, e = _by_row(rows, node, int(node.max()) + 1)
    for a in range(0, rows.size, step):
        part, sl = rows[a : a + step], slice(*r.searchsorted([a, a + step]).tolist())
        yield part, _densify(r[sl] - a, hyp[e[sl]], val[e[sl]], part.size, inst.n_hypotheses)


def _child_masses(kids, key, hyp, val, nonzero, xi, column: Callable, step: int) -> np.ndarray:
    """Each child's mass on a wide level, the bits of its parent's dense row summed over the
    child's label column ``column(x, y)`` (``take().sum()``): ``bincount``'s where at most two
    terms are positive (exact in any order), else the row sum of the child's entries scattered
    into its column, zeros elsewhere, in a C-contiguous block of at most ``step`` rows of one
    (example, label); numpy gives such row sums the 1-D sums' bits."""
    Y = nonzero.size // len(xi)
    mass = np.bincount(key, val, nonzero.size)
    big = kids[nonzero[kids] > 2]
    if big.size:
        big = big[np.argsort(xi[big // Y] * Y + big % Y, kind="stable")]
        group = xi[big // Y] * Y + big % Y  # each big child's (example, label): its column
        r, e = _by_row(big, key, nonzero.size)
        h, v = hyp[e], val[e]
        starts = np.flatnonzero(np.diff(group, prepend=-1)).tolist() + [big.size]
        cuts = [c for a, b in pairwise(starts) for c in range(a, b, step)] + [big.size]
        for (r0, r1), (e0, e1) in zip(pairwise(cuts), pairwise(r.searchsorted(cuts).tolist())):
            col = column(*divmod(int(group[r0]), Y))
            block = np.zeros((r1 - r0, col.size))
            block[r[e0:e1] - r0, col.searchsorted(h[e0:e1])] = v[e0:e1]
            mass[big[r0:r1]] = block.sum(axis=1)
    return mass[kids]


def _frontier(kids, masses, key, hyp, val, size, avail, batch, pos: int, Y: int):
    """The next level's frontier (node, hyp, val, avail, batch) below picks ``batch[:, pos]``,
    its nodes the expanded children ``kids``: each entry over its child's mass, a massless child
    uniform over its V; the batch carries on to the children unless ``pos`` was its last."""
    rank = np.full(size.size, -1)
    rank[kids] = np.arange(kids.size)
    child = rank[key]
    if kids.size < np.count_nonzero(size):  # the leaves' entries leave the frontier
        kept = child >= 0
        child, hyp, val = child[kept], hyp[kept], val[kept]
    den = masses[child]
    if (masses == 0.0).any():
        val, den = np.where(den == 0.0, 1.0, val), np.where(den == 0.0, size[kids][child], den)
    parent = kids // Y
    sub = avail[parent]
    sub[np.arange(parent.size), batch[parent, pos]] = False
    return child, hyp, val / den, sub, None if pos + 1 == batch.shape[1] else batch[parent]


def _grow_rounds(
    stack: np.ndarray, inst: Instance, n_rounds: int, choose: Callable, stop_when_identified: bool = False
) -> list[PolicyTree]:
    """The one tree grower behind both greedy builders: a forest, one tree per row of the (k, H)
    ``stack`` of priors, grown a level at a time from a compact frontier, one (node, hypothesis,
    value) entry per branch-consistent hypothesis; level 0 holds the roots.  Per round
    ``choose(P, frontier, avail)`` gives each node a batch of pool indices among the examples
    its ``avail`` row flags, queried blind; ``P`` holds a level's dense rows if it has at most
    X * Y nodes, else is None.  A child's mass has the bits of its parent's dense row summed over
    the whole label column; a massless child is uniform over its consistent set.  The levels'
    picks and expanded slots become the forest's one node table, its trees' roots on level 0."""
    X, Y, H = inst.n_examples, inst.n_labels, inst.n_hypotheses
    # under stop_when_identified, a root with one entry of mass stays empty
    roots = np.flatnonzero(np.count_nonzero(stack, axis=1) > stop_when_identified)
    column = functools.cache(lambda x, y: (inst.label_columns[x] == y).nonzero()[0])  # ascending
    node, hyp, val = np.arange(roots.size).repeat(H), np.tile(np.arange(H), roots.size), stack[roots].ravel()
    avail = np.ones((roots.size, X), dtype=bool)  # per node: the examples its path has not queried
    batch, pos, rounds_left, levels = None, 0, n_rounds, []
    while len(avail):
        n = len(avail)
        P = _densify(node, hyp, val, n, H) if n <= X * Y else None
        bt = batch if pos else np.asarray(choose(P, (node, hyp, val), avail), np.intp)
        xi, last, kids = bt[:, pos], pos + 1 == bt.shape[1], np.arange(0)
        if not (last and rounds_left == 1):  # else every child is a leaf
            key = node * Y + inst.label_columns[xi[node], hyp]
            size = np.bincount(key, minlength=n * Y)
            identify = last and stop_when_identified  # leaf: one hypothesis with mass, or V of one
            nonzero = np.bincount(key[val > 0.0], minlength=n * Y) if identify or P is None else None
            kids = np.flatnonzero(np.where(nonzero > 0, nonzero, size) > 1 if identify else size)
            if P is None:  # on a narrow level one take().sum() per child costs fewer numpy calls
                masses = _child_masses(kids, key, hyp, val, nonzero, xi, column, X * Y)
            else:
                masses = np.array([P[k // Y].take(column(xi[k // Y], k % Y)).sum() for k in kids.tolist()])
        levels.append((xi, kids))
        if not kids.size:
            break
        node, hyp, val, avail, batch = _frontier(kids, masses, key, hyp, val, size, avail, bt, pos, Y)
        pos = (pos + 1) % bt.shape[1]
        rounds_left -= pos == 0
    example, top = np.concatenate([np.arange(0), *(xi for xi, _ in levels)]), 0
    child = np.full((example.size, Y), -1)
    for xi, kids in levels:  # a level's expanded children are the next level's nodes, in order
        np.put(child, top * Y + kids, top + len(xi) + np.arange(kids.size))  # kids: slots k * Y + y
        top += len(xi)
    at = dict(zip(roots.tolist(), range(roots.size)))  # level 0 holds the roots, in order
    return [PolicyTree(inst, None, (example, child, inst.examples, at.get(i, -1))) for i in range(len(stack))]


def _build_forest(criterion: str, priors: Sequence[Prior], inst: Instance, budget: int, loss, stop):
    """``build_policy`` on each of ``priors``, the trees grown together as one forest: a wide
    level picks from ``_compact_picks`` and densifies only the rows it leaves open."""
    if not priors:
        raise ValueError("a forest needs at least one prior")
    for p in priors:
        _check_prior(p, inst)
    if not 1 <= budget <= inst.n_examples:
        raise ValueError(f"budget must lie in [1, {inst.n_examples}], got {budget}")
    loss = _checked_loss(criterion, inst, loss)  # once per forest, not once per node

    def choose(P, frontier: tuple, avail: np.ndarray):
        if P is not None:
            return _picks(criterion, inst, P, avail, loss)[:, None]
        picks = _compact_picks(criterion, inst, *frontier, avail, loss)
        for rows, Q in _dense_chunks(inst, frontier, np.flatnonzero(picks < 0)):
            picks[rows] = _picks(criterion, inst, Q, avail[rows], loss)
        return picks[:, None]

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

    def choose(P, frontier: tuple, avail: np.ndarray):  # a wide level's rows X * Y at a time
        chunks = [(None, P)] if P is not None else _dense_chunks(inst, frontier, np.arange(len(avail)))
        rows = zip((Prior._trusted(q) for _, Q in chunks for q in Q), avail)
        return [_select_batch_index(q, inst, a.nonzero()[0], batch_size) for q, a in rows]

    return _grow_rounds(p.probs[None], inst, n_rounds, choose)[0]


def run_policy(tree: PolicyTree, h: Hypothesis) -> tuple[tuple[str, ...], tuple[str, ...], int]:
    """Follow ``h``'s labels down the tree: (queried, labels, cost)."""
    inst, labeling = tree.instance, h.labeling
    example, child, names, k = tree._table
    queried, labels = [], []
    while k >= 0:
        x = names[example[k]]
        if x not in labeling:
            raise ValueError(f"hypothesis {h.id!r} does not label example {x!r}")
        y = labeling[x]
        k = child[k, inst.label_index[y]]
        queried.append(x)
        labels.append(y)
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
    labels = Hypothesis.from_mapping(truth.id, truth.labeling, inst.examples).labels  # in pool order
    q, pairs = p, []
    avail = np.ones((1, inst.n_examples), dtype=bool)
    for _ in range(budget):
        xi = int(_picks(criterion, inst, q.probs[None], avail, loss)[0])
        avail[0, xi] = False
        pairs.append((inst.examples[xi], labels[xi]))
        q = posterior(q, inst, pairs[-1:])
    return Transcript(tuple(pairs), q)


def policy_to_text(tree: PolicyTree) -> str:
    """Serialize a tree as one '<depth>,<example>,<edge-label>' line per node, in pre-order."""
    example, child, names, at = tree._table
    labels, Y = tree.instance.labels, tree.instance.n_labels
    ex, ch, lines, backwards = example.tolist(), child.tolist(), [], range(Y - 1, -1, -1)
    stack = [] if at < 0 else [(at, 0, "")]
    while stack:  # children pushed in reverse label order, so they pop in label order
        k, depth, edge = stack.pop()
        lines.append(f"{depth},{names[ex[k]]},{edge}")
        for yi in backwards:
            if (c := ch[k][yi]) >= 0:
                stack.append((c, depth + 1, labels[yi]))
    return "\n".join(lines) + ("\n" if lines else "")
