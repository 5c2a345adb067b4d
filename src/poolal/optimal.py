"""Policy values and exact optimal policies on small instances.

f_avg, f_worst and c_avg route all hypotheses down a tree's node table at once
and evaluate the utility once per leaf, whose hypotheses share one agreement
set: O(H * depth).  The oracles' ``PolicyNode`` trees are flattened on first use.
Under the built-in 0-1 loss, f_worst evaluates only the leaves whose pair-mass
bounds keep them in contention for the min (``utilities._certified_argmax``'s test).

Three oracles: maximum expected utility, maximum worst-case utility,
and minimum expected identification cost.  They exist to verify
approximation ratios and robustness bounds at desk scale, so instance
sizes are capped.  The memoized recursions key on the pair
(consistent-hypothesis set, available-example set), each an ascending
tuple of indices, and split a set on an example's labels with
:func:`_split`; the queried set is recoverable from the key, so no float
ever enters a cache key.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, Prior, _check_prior
from .policies import PolicyNode, PolicyTree, policy_to_text
from .utilities import GeneralizedReduction, Utility, _contenders, _pair_mass_bounds, _set_utility_fn

EXAMPLE_CAP = 6
HYPOTHESIS_CAP = 16
BUDGET_CAP = 4


class SizeCapError(ValueError):
    """Instance exceeds the exhaustive-search size caps."""


class IdentificationError(ValueError):
    """A policy (or the pool itself) cannot separate two positive-mass hypotheses."""


def _no_separator(inst: Instance, V: tuple[int, ...]) -> IdentificationError:
    a, b = (inst.ids[hi] for hi in V[:2])
    return IdentificationError(f"no example separates {a!r} from {b!r}")


@dataclass(frozen=True, eq=False)
class OptResult:
    """An optimal value, a policy attaining it, and the search effort."""

    value: float
    policy: PolicyTree
    nodes_explored: int

    def to_text(self) -> str:
        return f"value={self.value!r}\n" + policy_to_text(self.policy)


def _route(tree: PolicyTree) -> tuple[np.ndarray, np.ndarray]:
    """Each hypothesis's leaf key and depth: all move down one level per step.

    A leaf is keyed by its slot k * Y + y, label y of node k in the tree's
    node table; an unknown example raises ``ValueError`` once a hypothesis reaches it.
    """
    inst = tree.instance
    H, X, Y = inst.n_hypotheses, inst.n_examples, inst.n_labels
    key, depth = np.zeros(H, dtype=np.intp), np.zeros(H, dtype=np.intp)
    examples, child, names, root = tree._table  # the empty tree (root -1) routes no one
    hyp, at, level = np.arange(H if root >= 0 else 0), np.full(H, root), 0
    while hyp.size:
        xs, level = examples.take(at), level + 1
        if xs.max() >= X:  # names past the pool's examples are unknown
            raise ValueError(f"unknown example {names[xs[np.argmax(xs >= X)]]!r}")
        slot = at * Y + inst.label_matrix.take(hyp * X + xs)  # take() reads arrays flat
        nxt = child.take(slot)
        done = nxt < 0
        key[hyp[done]], depth[hyp[done]] = slot[done], level
        hyp, at = hyp[~done], nxt[~done]
    return key, depth


def _leaves(tree: PolicyTree, key: np.ndarray | None = None) -> list[np.ndarray]:
    """V for every reached leaf, ascending: its agreement set, by ``_route`` keys (routed if None)."""
    key = _route(tree)[0] if key is None else key
    order = np.argsort(key, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), key.size]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def _leaf_utilities(p: Prior, u: Utility, tree: PolicyTree) -> list[float]:
    """Each hypothesis's utility at the end of its path: one evaluation per leaf."""
    _check_prior(p, tree.instance)
    value = _set_utility_fn(u, p, tree.instance)
    vals = np.empty(tree.instance.n_hypotheses)
    for V in _leaves(tree):
        vals[V] = value(V)
    return vals.tolist()


def f_avg(p: Prior, u: Utility, tree: PolicyTree) -> float:
    """Expected utility of a policy: E_{h~p}[ f_p(queried-on-h, h) ].

    The utility's internal prior is the same ``p`` the expectation is
    taken under.  One tree walk, one utility evaluation per leaf,
    O(H * depth); the sum runs in hypothesis order.
    """
    total = 0.0
    for prob, v in zip(p.probs.tolist(), _leaf_utilities(p, u, tree)):
        total += prob * v
    return total


def f_worst(p: Prior, u: Utility, tree: PolicyTree) -> float:
    """Worst-case utility of a policy: the min over every hypothesis.

    The min ranges over all hypotheses in the instance, including
    zero-probability ones.  Like :func:`f_avg`, one tree walk with one
    utility evaluation per leaf, O(H * depth).

    Under the 0-1 loss a leaf's value, total − q_in L q_in, falls as its
    pair mass grows, rounded or not, so only the ``_contenders`` for the
    greatest pair mass (``_pair_mass_bounds`` of per-leaf sums of q and q²)
    can hold the min, and only they are evaluated.  A one-hypothesis leaf's
    q_in L q_in is exactly 0 (a loss has a zero diagonal), so every such leaf
    is worth exactly total and one of them is evaluated.
    """
    if not (isinstance(u, GeneralizedReduction) and u.loss._zero_one):
        return min(_leaf_utilities(p, u, tree))
    _check_prior(p, tree.instance)
    value, key, q = _set_utility_fn(u, p, tree.instance), _route(tree)[0], p.probs
    lo, hi = _pair_mass_bounds(np.bincount(key, q), np.bincount(key, q * q), q.size)
    hi[(size := np.bincount(key)) == 0] = -math.inf  # slots no hypothesis reaches; their lo is <= 0
    contenders = _contenders(lo, hi)
    contenders[np.flatnonzero(contenders & (size == 1))[1:]] = False  # one singleton for all
    return min(value(np.flatnonzero(key == k)) for k in np.flatnonzero(contenders))


def c_avg(p: Prior, tree: PolicyTree) -> float:
    """Expected identification cost of a policy under ``p``.

    Every positive-mass hypothesis must end its path as the unique
    consistent member of the support, else the policy does not identify
    and an :class:`IdentificationError` names an unresolved pair: the
    smallest support index that shares its leaf with another, and the
    next support index at that leaf.  One tree walk, O(H * depth); the
    cost is summed in support order.
    """
    inst = tree.instance
    _check_prior(p, inst)
    key, depth = _route(tree)
    support = p.support
    by_leaf = support[np.argsort(key[support], kind="stable")]  # each leaf's group ascending
    shared = np.flatnonzero(np.diff(key[by_leaf]) == 0)
    if shared.size:  # the least member with a successor at its leaf heads its group
        first = shared[np.argmin(by_leaf[shared])]
        a, b = (inst.ids[hi] for hi in by_leaf[first : first + 2])
        raise IdentificationError(f"policy does not separate {a!r} from {b!r}")
    total = 0.0
    for prob, cost in zip(p.probs[support].tolist(), depth[support].tolist()):
        total += prob * cost
    return total


def _split(col: list[int], V: tuple[int, ...], n_labels: int) -> tuple[tuple[int, ...], ...]:
    """V's members per label in ``col``, a row of ``label_columns.tolist()``; parts ascending."""
    return tuple(tuple(hi for hi in V if col[hi] == yi) for yi in range(n_labels))


def _check_caps(inst: Instance, example_cap: int, hypothesis_cap: int) -> None:
    if inst.n_examples > example_cap:
        raise SizeCapError(
            f"{inst.n_examples} examples exceeds the exhaustive-search cap {example_cap}"
        )
    if inst.n_hypotheses > hypothesis_cap:
        raise SizeCapError(
            f"{inst.n_hypotheses} hypotheses exceeds the exhaustive-search cap {hypothesis_cap}"
        )


def _opt_coverage(
    p: Prior,
    u: Utility,
    inst: Instance,
    budget: int,
    worst_case: bool,
    example_cap: int,
    hypothesis_cap: int,
    budget_cap: int,
) -> OptResult:
    _check_prior(p, inst)
    _check_caps(inst, example_cap, hypothesis_cap)
    if budget > budget_cap:
        raise SizeCapError(f"budget {budget} exceeds the exhaustive-search cap {budget_cap}")
    if not 1 <= budget <= inst.n_examples:
        raise ValueError(f"budget must lie in [1, {inst.n_examples}], got {budget}")
    return _search_rounds(p, u, inst, budget, 1, worst_case)


def _search_rounds(
    p: Prior, u: Utility, inst: Instance, n_rounds: int, batch_size: int, worst_case: bool
) -> OptResult:
    """Best policy that queries ``batch_size`` examples per round, ``n_rounds`` rounds.

    Within a round the batch is fixed; the policy adapts between rounds,
    so ``batch_size == 1`` is the fully adaptive search.  A branch's
    value is the sum (or, with ``worst_case``, the min) of its children.
    """
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, PolicyNode | None]] = {}
    explored = 0
    utility = _set_utility_fn(u, p, inst)
    cols = inst.label_columns.tolist()

    def leaf_value(V: tuple[int, ...]) -> float:
        # V is every member's agreement set on the queried examples
        v = utility(np.array(V))
        if worst_case:
            return v
        return sum(float(p.probs[hi]) * v for hi in V)

    def expand(V: tuple[int, ...], batch: tuple[int, ...], rest: tuple[int, ...], pos: int):
        # queries batch[pos], then the rest of the batch, then searches on with ``rest``
        if pos == len(batch):
            return search(V, rest)
        xi = batch[pos]
        agg = math.inf if worst_case else 0.0
        children: list[PolicyNode | None] = []
        for Vy in _split(cols[xi], V, inst.n_labels):
            if not Vy:
                children.append(None)
                continue
            val, node = expand(Vy, batch, rest, pos + 1)
            children.append(node)
            agg = min(agg, val) if worst_case else agg + val
        return agg, PolicyNode(inst.examples[xi], tuple(children))

    def search(V: tuple[int, ...], avail: tuple[int, ...]) -> tuple[float, PolicyNode | None]:
        key = (V, avail)
        if key in memo:
            return memo[key]
        nonlocal explored
        explored += 1
        if (inst.n_examples - len(avail)) // batch_size == n_rounds:
            memo[key] = (leaf_value(V), None)
            return memo[key]
        best_val, best_node = -math.inf, None
        for batch in itertools.combinations(avail, batch_size):
            val, node = expand(V, batch, tuple(i for i in avail if i not in batch), 0)
            if val > best_val:
                best_val, best_node = val, node
        memo[key] = (best_val, best_node)
        return memo[key]

    value, root = search(tuple(range(inst.n_hypotheses)), tuple(range(inst.n_examples)))
    del search, expand  # each refers to itself: cycles that would keep memo alive until collected
    return OptResult(value, PolicyTree(inst, root), explored)


def opt_avg(
    p: Prior,
    u: Utility,
    inst: Instance,
    budget: int,
    example_cap: int = EXAMPLE_CAP,
    hypothesis_cap: int = HYPOTHESIS_CAP,
    budget_cap: int = BUDGET_CAP,
) -> OptResult:
    """Exact maximizer of the expected utility over depth-``budget`` policies."""
    return _opt_coverage(p, u, inst, budget, False, example_cap, hypothesis_cap, budget_cap)


def opt_worst(
    p: Prior,
    u: Utility,
    inst: Instance,
    budget: int,
    example_cap: int = EXAMPLE_CAP,
    hypothesis_cap: int = HYPOTHESIS_CAP,
    budget_cap: int = BUDGET_CAP,
) -> OptResult:
    """Exact maximizer of the worst-case utility over depth-``budget`` policies."""
    return _opt_coverage(p, u, inst, budget, True, example_cap, hypothesis_cap, budget_cap)


def opt_min_cost(
    p: Prior,
    inst: Instance,
    example_cap: int = EXAMPLE_CAP,
    hypothesis_cap: int = HYPOTHESIS_CAP,
) -> OptResult:
    """Exact minimum expected number of queries to identify the truth.

    Dynamic program over version-space subsets of the support; a path
    stops as soon as the positive-mass version space is a singleton
    (zero-probability hypotheses do not extend paths).
    """
    _check_prior(p, inst)
    _check_caps(inst, example_cap, hypothesis_cap)

    memo: dict[tuple[int, ...], tuple[float, PolicyNode | None]] = {}
    explored = 0
    cols = inst.label_columns.tolist()

    def search(V: tuple[int, ...]) -> tuple[float, PolicyNode | None]:
        # returns the support-mass-weighted remaining cost (unnormalized)
        if V in memo:
            return memo[V]
        nonlocal explored
        explored += 1
        if len(V) <= 1:
            memo[V] = (0.0, None)
            return memo[V]
        mass = float(p.probs[list(V)].sum())
        best_val, best_node = math.inf, None
        for xi, col in enumerate(cols):
            parts = _split(col, V, inst.n_labels)
            if sum(1 for Vy in parts if Vy) < 2:
                continue  # xi does not split V
            val = mass
            children: list[PolicyNode | None] = []
            for Vy in parts:
                if not Vy:
                    children.append(None)
                    continue
                sub_val, sub_node = search(Vy)
                val += sub_val
                children.append(sub_node)
            if val < best_val:
                best_val = val
                best_node = PolicyNode(inst.examples[xi], tuple(children))
        if best_node is None:
            raise _no_separator(inst, V)
        memo[V] = (best_val, best_node)
        return memo[V]

    value, root = search(tuple(p.support.tolist()))
    del search  # it refers to itself: a cycle that would keep memo alive until collected
    return OptResult(value, PolicyTree(inst, root), explored)


# ---------------------------------------------------------------------------
# Naive reference oracles: explicit policy enumeration evaluated through the
# policy-level evaluators.  Exponential; meant for |X| <= 3 cross-checks.


def _all_coverage_nodes(inst: Instance, avail: tuple[int, ...], depth_left: int):
    if depth_left == 0 or not avail:
        yield None
        return
    for xi in avail:
        rest = tuple(i for i in avail if i != xi)
        child_choices = [list(_all_coverage_nodes(inst, rest, depth_left - 1))] * inst.n_labels
        for kids in itertools.product(*child_choices):
            yield PolicyNode(inst.examples[xi], tuple(kids))


def opt_avg_naive(p: Prior, u: Utility, inst: Instance, budget: int) -> float:
    """Enumerate every depth-``budget`` policy and take the best expected utility."""
    roots = _all_coverage_nodes(inst, tuple(range(inst.n_examples)), budget)
    return max(f_avg(p, u, PolicyTree(inst, root)) for root in roots)


def opt_worst_naive(p: Prior, u: Utility, inst: Instance, budget: int) -> float:
    """Enumerate every depth-``budget`` policy and take the best worst-case utility."""
    roots = _all_coverage_nodes(inst, tuple(range(inst.n_examples)), budget)
    return max(f_worst(p, u, PolicyTree(inst, root)) for root in roots)


def _all_identification_nodes(
    inst: Instance, cols: list[list[int]], V: tuple[int, ...], avail: tuple[int, ...]
):
    if len(V) <= 1:
        yield None
        return
    for xi in avail:
        parts = _split(cols[xi], V, inst.n_labels)
        if sum(1 for Vy in parts if Vy) < 2:
            continue
        rest = tuple(i for i in avail if i != xi)
        per_label = []
        for Vy in parts:
            if not Vy:
                per_label.append([None])
            else:
                per_label.append(list(_all_identification_nodes(inst, cols, Vy, rest)))
        for kids in itertools.product(*per_label):
            yield PolicyNode(inst.examples[xi], tuple(kids))


def opt_min_cost_naive(p: Prior, inst: Instance) -> float:
    """Enumerate every identification tree over the support and take the cheapest."""
    support = tuple(p.support.tolist())
    cols = inst.label_columns.tolist()
    roots = _all_identification_nodes(inst, cols, support, tuple(range(inst.n_examples)))
    costs = [c_avg(p, PolicyTree(inst, root)) for root in roots]
    if not costs:  # a singleton support yields the empty tree, so this needs a pair
        raise _no_separator(inst, support)
    return min(costs)


def opt_avg_batch(
    p: Prior,
    u: Utility,
    inst: Instance,
    n_rounds: int,
    batch_size: int,
    example_cap: int = EXAMPLE_CAP,
    hypothesis_cap: int = HYPOTHESIS_CAP,
) -> OptResult:
    """Exact maximizer of expected utility over batch policies."""
    _check_prior(p, inst)
    _check_caps(inst, example_cap, hypothesis_cap)
    if n_rounds < 1 or batch_size < 1:
        raise ValueError("need at least one round and a positive batch size")
    if n_rounds * batch_size > inst.n_examples:
        raise SizeCapError("batch rounds exceed the pool size")
    return _search_rounds(p, u, inst, n_rounds, batch_size, False)
