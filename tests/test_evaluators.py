"""Routed policy values against a depth-first reference walk.

``reference_leaves`` is the depth-first evaluator the routed one
replaced: it carries V, the ascending index array of the hypotheses
consistent with a node's path, and splits it on every queried label.
``f_avg``, ``f_worst`` and ``c_avg`` must equal the values computed
from its leaves, float for float, and fail with the same messages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal.optimal import IdentificationError, _leaves, _route, c_avg, f_avg, f_worst
from poolal.policies import (
    PolicyNode,
    PolicyTree,
    build_batch_policy,
    build_policy,
    policy_to_text,
    run_policy,
)
from poolal.utilities import (
    GeneralizedReduction,
    PruningCount,
    VersionSpaceReduction,
    _set_utility_fn,
    hamming_loss,
    zero_one_loss,
)


def reference_leaves(tree):
    inst = tree.instance
    stack = [(tree.root, np.arange(inst.n_hypotheses), 0)]
    while stack:
        node, V, depth = stack.pop()
        if node is None:
            yield V, depth
            continue
        try:
            xi = inst.example_index[node.example]
        except KeyError:
            raise ValueError(f"unknown example {node.example!r}") from None
        col = inst.label_matrix[:, xi][V]
        for yi in range(inst.n_labels):
            Vy = V[col == yi]
            if Vy.size:
                stack.append((node.children[yi], Vy, depth + 1))


def reference_leaf_utilities(p, u, tree):
    value = _set_utility_fn(u, p, tree.instance)
    vals = np.empty(tree.instance.n_hypotheses)
    for V, _ in reference_leaves(tree):
        vals[V] = value(V)
    return vals.tolist()


def reference_f_avg(p, u, tree):
    total = 0.0
    for prob, v in zip(p.probs.tolist(), reference_leaf_utilities(p, u, tree)):
        total += prob * v
    return total


def reference_f_worst(p, u, tree):
    return min(reference_leaf_utilities(p, u, tree))


def reference_c_avg(p, tree):
    inst = tree.instance
    in_support = p.probs > 0
    depth = np.empty(inst.n_hypotheses, dtype=int)
    pair = None
    for V, d in reference_leaves(tree):
        depth[V] = d
        shared = V[in_support[V]]
        if shared.size > 1 and (pair is None or shared[0] < pair[0]):
            pair = (int(shared[0]), int(shared[1]))
    if pair is not None:
        raise IdentificationError(
            f"policy does not separate {inst.ids[pair[0]]!r} from {inst.ids[pair[1]]!r}"
        )
    costs = depth.tolist()
    total = 0.0
    for hi in p.support.tolist():
        total += float(p.probs[hi]) * costs[hi]
    return total


def outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def utilities_for(inst):
    return (
        VersionSpaceReduction(),
        GeneralizedReduction(zero_one_loss(inst)),
        GeneralizedReduction(hamming_loss(inst)),
        PruningCount(0.05),
    )


def assert_same_values(p, tree, utilities=None):
    for u in utilities or utilities_for(tree.instance):
        assert outcome(f_avg, p, u, tree) == outcome(reference_f_avg, p, u, tree)
        assert outcome(f_worst, p, u, tree) == outcome(reference_f_worst, p, u, tree)
    assert outcome(c_avg, p, tree) == outcome(reference_c_avg, p, tree)
    assert outcome(routed_leaves, tree) == outcome(walked_leaves, tree)


def routed_leaves(tree):
    depth = _route(tree)[1]
    return sorted((V.tolist(), int(depth[V[0]])) for V in _leaves(tree))


def walked_leaves(tree):
    return sorted((V.tolist(), d) for V, d in reference_leaves(tree))


def random_tree(inst, rng, max_depth):
    """Early leaves, empty child slots and repeated examples, all at random."""

    def node(depth):
        if depth == max_depth or rng.random() < 0.2:
            return None
        xi = int(rng.integers(inst.n_examples))
        kids = [None if rng.random() < 0.2 else node(depth + 1) for _ in range(inst.n_labels)]
        return PolicyNode(inst.examples[xi], tuple(kids))

    return PolicyTree(inst, node(0))


def random_prior(inst, rng):
    mass = rng.dirichlet(np.ones(inst.n_hypotheses))
    kind = rng.integers(3)
    if kind == 0:
        mass[rng.random(mass.size) < 0.4] = 0.0
        if mass.sum() == 0.0:
            mass[0] = 1.0
    elif kind == 1:
        mass[:] = 1.0
    return pl.Prior(mass / mass.sum())


def random_case(seed):
    rng = np.random.default_rng(seed)
    n_labels = int(rng.integers(2, 4))
    n_x = int(rng.integers(1, 6))
    n_h = int(rng.integers(1, min(16, n_labels**n_x) + 1))
    inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
    return inst, random_prior(inst, rng), rng


class TestAgainstDepthFirstWalk:
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_random_trees(self, seed):
        inst, p, rng = random_case(seed)
        for max_depth in (1, 3, 7):
            assert_same_values(p, random_tree(inst, rng, max_depth))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_generated_random_trees(self, seed, max_depth):
        inst, p, rng = random_case(seed)
        assert_same_values(p, random_tree(inst, rng, max_depth))

    @pytest.mark.parametrize("seed", range(12))
    def test_greedy_trees(self, seed):
        inst, p, _ = random_case(seed)
        X = inst.n_examples
        for criterion in pl.CRITERIA:
            assert_same_values(p, build_policy(criterion, p, inst, X, stop_when_identified=True))
            assert_same_values(p, build_policy(criterion, p, inst, max(1, X // 2)))
        assert_same_values(p, build_batch_policy(p, inst, 1, X))

    def test_trees_workload_instance(self):
        rng = np.random.default_rng([12, 1000, 0])
        inst = pl.random_instance(12, 1000, 2, rng=rng)
        p = pl.random_prior(inst, rng)
        # the 8 MB loss matrices of the generalized utility are left to the small cases
        u = (VersionSpaceReduction(),)
        assert_same_values(p, build_policy("gbs", p, inst, 12, stop_when_identified=True), u)
        assert_same_values(p, build_policy("max_gibbs", p, inst, 4), u)


class TestEdgeCases:
    def test_empty_tree(self, square):
        p = pl.Prior(np.array([0.1, 0.2, 0.3, 0.4]))
        tree = PolicyTree(square, None)
        assert_same_values(p, tree)
        with pytest.raises(IdentificationError, match="'h1' from 'h2'"):
            c_avg(p, tree)
        assert c_avg(pl.point_mass(square, 2), tree) == 0.0

    def test_unknown_example_reached(self, square):
        p = pl.uniform_prior(square)
        tree = PolicyTree(square, PolicyNode("x0", (None, PolicyNode("zz", (None, None)))))
        assert_same_values(p, tree)
        with pytest.raises(ValueError, match="unknown example 'zz'"):
            f_avg(p, VersionSpaceReduction(), tree)
        with pytest.raises(ValueError, match="unknown example 'zz'"):
            c_avg(p, tree)

    def test_unknown_example_unreached(self, chain):
        # only h0 labels x0 with 0, and h0 labels x1 with 0: slot (x1, 1) is never reached
        p = pl.uniform_prior(chain)
        below = PolicyNode("x1", (None, PolicyNode("zz", (None, None))))
        tree = PolicyTree(chain, PolicyNode("x0", (below, PolicyNode("x1", (None, None)))))
        assert_same_values(p, tree)
        assert c_avg(p, tree) == reference_c_avg(p, tree)

    @pytest.mark.parametrize("n_slots", [1, 3])
    def test_node_needs_one_slot_per_label(self, square, n_slots):
        tree = PolicyTree(square, PolicyNode("x0", (None,) * n_slots))
        for evaluate in (lambda: c_avg(pl.uniform_prior(square), tree), lambda: _leaves(tree)):
            with pytest.raises(ValueError, match="one child slot per label"):
                evaluate()

    def test_slot_counts_are_checked_per_node(self, square):
        # 3 + 1 slots over two nodes: the right total, the wrong shape
        tree = PolicyTree(square, PolicyNode("x0", (PolicyNode("x1", (None,)), None, None)))
        with pytest.raises(ValueError, match="one child slot per label"):
            _leaves(tree)

    @pytest.mark.parametrize("n_slots", [1, 3])
    def test_run_policy_needs_one_slot_per_label(self, square, n_slots):
        tree = PolicyTree(square, PolicyNode("x0", (None,) * n_slots))
        with pytest.raises(ValueError, match=r"one child slot per label \(2\)"):
            run_policy(tree, square.hypothesis(3))

    @pytest.mark.parametrize("n_slots", [1, 3])
    def test_policy_to_text_needs_one_slot_per_label(self, square, n_slots):
        tree = PolicyTree(square, PolicyNode("x0", (None, PolicyNode("x1", (None,) * n_slots))))
        with pytest.raises(ValueError, match=r"one child slot per label \(2\)"):
            policy_to_text(tree)

    def test_run_policy_unknown_label(self, square):
        tree = PolicyTree(square, PolicyNode("x0", (None, None)))
        with pytest.raises(ValueError, match="unknown label '9'"):
            run_policy(tree, pl.Hypothesis("hz", ("x0", "x1"), ("9", "0")))

    def test_deep_chain_prints_without_recursion(self, square):
        node = None
        for _ in range(3000):
            node = PolicyNode("x0", (node, None))
        text = policy_to_text(PolicyTree(square, node))
        assert text == "0,x0,\n" + "".join(f"{d},x0,0\n" for d in range(1, 3000))

    def test_deep_chain_does_not_recurse(self, square):
        node = None
        for _ in range(3000):
            node = PolicyNode("x0", (node, None))
        tree = PolicyTree(square, node)
        p = pl.Prior(np.array([0.1, 0.2, 0.3, 0.4]))
        assert_same_values(p, tree, (VersionSpaceReduction(),))
        assert routed_leaves(tree) == [([0, 2], 3000), ([1, 3], 1)]
