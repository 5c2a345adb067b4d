"""The greedy tree grower against a dense-mask reference, plus golden trees.

``reference_tree`` is the dense-mask grower: a depth-first recursion
with a boolean consistent set per node and a boolean label mask per
branch.  The package's level-at-a-time grower must build the same tree
and hold in its compact frontier, for every node it expands below the
root, exactly the same posterior, bit for bit and in breadth-first order
(each node densified here, the entries it holds plus +0.0 elsewhere),
which pins both the mass summed over the whole label column (numpy's
pairwise sum groups elements by position, so a sum over the consistent
set alone can move the last bit from eight elements on) and the uniform
fallback over the branch-consistent set.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal import policies
from poolal.core import Prior
from poolal.policies import (
    PolicyNode,
    PolicyTree,
    build_batch_policy,
    build_policy,
    policy_to_text,
    select,
    select_batch_max_gibbs,
)
from poolal.utilities import hamming_loss, zero_one_loss


def reference_branch_posterior(q, consistent, mask_xy):
    mass = float(q.probs[mask_xy].sum())
    if mass > 0.0:
        return Prior._trusted(np.where(mask_xy, q.probs, 0.0) / mass)
    return Prior._trusted(consistent / np.count_nonzero(consistent))


def reference_tree(p, inst, n_rounds, choose, stop_when_identified=False):
    """(tree, the posterior of every expanded non-root node, breadth first).

    A leaf's posterior is built here to decide that it is a leaf, then
    dropped from the record: the package builds none for leaves.  Nodes
    are ordered by depth, then by the label path from the root, the
    order in which a level-at-a-time grower meets them.
    """
    made = []

    def grow(q, consistent, avail, rounds_left, path):
        if rounds_left == 0 or (stop_when_identified and np.count_nonzero(q.probs) <= 1):
            return None
        batch = choose(q, avail)
        rest = tuple(i for i in avail if i not in batch)

        def within(q2, cons2, pos, path):
            if pos == len(batch):
                return grow(q2, cons2, rest, rounds_left - 1, path)
            xi = batch[pos]
            children = []
            for yi, mask_xy in enumerate(masks[xi]):
                on_branch = cons2 & mask_xy
                if not on_branch.any():
                    children.append(None)
                    continue
                where = (len(path) + 1, path + (yi,))  # depth, then label path: breadth first
                made.append([where, reference_branch_posterior(q2, on_branch, mask_xy)])
                slot = len(made) - 1
                children.append(within(made[slot][1], on_branch, pos + 1, path + (yi,)))
                if children[-1] is None:
                    made[slot][1] = None
            return PolicyNode(inst.examples[xi], tuple(children))

        return within(q, consistent, 0, path)

    masks = inst.label_matrix.T[:, None, :] == np.arange(inst.n_labels)[:, None]
    everyone = np.ones(inst.n_hypotheses, dtype=bool)
    root = grow(p, everyone, tuple(range(inst.n_examples)), n_rounds, ())
    return PolicyTree(inst, root), [q for _, q in sorted(made, key=lambda r: r[0]) if q is not None]


def reference_policy(criterion, p, inst, budget, loss=None, stop_when_identified=False):
    def choose(q, avail):
        x = select(criterion, q, inst, [inst.examples[i] for i in avail], loss)
        return (inst.example_index[x],)

    return reference_tree(p, inst, budget, choose, stop_when_identified)


def reference_batch_policy(p, inst, n_rounds, batch_size):
    def choose(q, avail):
        batch = select_batch_max_gibbs(q, inst, [inst.examples[i] for i in avail], batch_size)
        return tuple(inst.example_index[x] for x in batch)

    return reference_tree(p, inst, n_rounds, choose)


def make_prior(inst, kind, rng):
    n = inst.n_hypotheses
    if kind == "uniform":
        return pl.Prior(np.full(n, 1.0 / n))
    mass = rng.dirichlet(np.ones(n))
    if kind == "zero_mass":
        mass[rng.random(n) < 0.4] = 0.0
        if mass.sum() == 0.0:
            mass[int(rng.integers(n))] = 1.0
    return pl.Prior(mass / mass.sum())


def record_frontiers(monkeypatch):
    """Every compact frontier the grower builds from now on, in order: one per level below the
    roots, whose nodes are that level's expanded nodes."""
    levels = []
    real = policies._frontier

    def frontier(*args):
        level = real(*args)
        levels.append(level)
        return level

    monkeypatch.setattr(policies, "_frontier", frontier)
    return levels


def densified(levels, n_hypotheses):
    """Each recorded frontier node's dense posterior, breadth first: the node's entries, +0.0
    elsewhere."""
    rows = []
    for node, hyp, val, avail, _ in levels:
        P = np.zeros((len(avail), n_hypotheses))
        P[node, hyp] = val
        rows.extend(P)
    return rows


def assert_same_growth(monkeypatch, build, reference):
    """``build()`` and ``reference()`` give one tree and bitwise-equal branch posteriors."""
    with monkeypatch.context() as patch:
        levels = record_frontiers(patch)
        tree = build()
    ref_tree, ref_made = reference()
    assert policy_to_text(tree) == policy_to_text(ref_tree)
    made = densified(levels, tree.instance.n_hypotheses)
    assert len(made) == len(ref_made)
    for q, ref in zip(made, ref_made):
        assert q.tobytes() == ref.probs.tobytes()  # -0.0 and +0.0 differ here


def check_every_mode(monkeypatch, inst, p):
    X = inst.n_examples
    for criterion in policies.CRITERIA:
        loss = zero_one_loss(inst) if criterion == "worst_gen_gibbs" else None
        for budget, stop in ((X, False), (max(1, X // 2), False), (X, True)):
            assert_same_growth(
                monkeypatch,
                lambda: build_policy(criterion, p, inst, budget, loss, stop),
                lambda: reference_policy(criterion, p, inst, budget, loss, stop),
            )
    for n_rounds, batch_size in ((1, 1), (1, X), (X // 2, 2)):
        if n_rounds >= 1:
            assert_same_growth(
                monkeypatch,
                lambda: build_batch_policy(p, inst, n_rounds, batch_size),
                lambda: reference_batch_policy(p, inst, n_rounds, batch_size),
            )


def small_case(seed, n_labels, kind):
    rng = np.random.default_rng(seed)
    n_x = int(rng.integers(1, 6))
    n_h = int(rng.integers(2, min(12, n_labels**n_x) + 1))
    inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
    return inst, make_prior(inst, kind, rng)


KINDS = ("zero_mass", "uniform", "dirichlet")


class TestAgainstDenseReference:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_labels", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded(self, monkeypatch, seed, n_labels, kind):
        check_every_mode(monkeypatch, *small_case(seed, n_labels, kind))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from(KINDS))
    @settings(max_examples=40, deadline=None)
    def test_generated(self, seed, n_labels, kind):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_every_mode(monkeypatch, *small_case(seed, n_labels, kind))

    @pytest.mark.parametrize(
        "n_x, n_h, n_labels, kind, seed",
        [(10, 600, 2, "zero_mass", 0), (10, 600, 2, "dirichlet", 1), (7, 400, 3, "zero_mass", 2)],
    )
    def test_large(self, monkeypatch, n_x, n_h, n_labels, kind, seed):
        # hundreds of summed elements, so a sum over another set would move bits
        rng = np.random.default_rng(seed)
        inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
        p = make_prior(inst, kind, rng)
        assert_same_growth(
            monkeypatch,
            lambda: build_policy("gbs", p, inst, n_x, stop_when_identified=True),
            lambda: reference_policy("gbs", p, inst, n_x, stop_when_identified=True),
        )
        assert_same_growth(
            monkeypatch,
            lambda: build_policy("max_gibbs", p, inst, 4),
            lambda: reference_policy("max_gibbs", p, inst, 4),
        )
        assert_same_growth(
            monkeypatch,
            lambda: build_batch_policy(p, inst, 2, 2),
            lambda: reference_batch_policy(p, inst, 2, 2),
        )


def forest_stack(inst, rng, n_trees):
    """``n_trees`` priors for one forest: seeded kinds, with repeats and point masses."""
    stack = []
    for _ in range(n_trees):
        draw = rng.random()
        if stack and draw < 0.2:  # the same prior object again
            stack.append(stack[int(rng.integers(len(stack)))])
        elif draw < 0.35:  # a root that identification leaves empty
            stack.append(pl.point_mass(inst, int(rng.integers(inst.n_hypotheses))))
        else:
            stack.append(make_prior(inst, KINDS[int(rng.integers(3))], rng))
    if len(stack) > 1:  # and an equal copy
        stack[-1] = pl.Prior(stack[0].probs.copy())
    return stack


def check_forest(inst, stack):
    """Every criterion's forest over ``stack`` against one ``build_policy`` call per prior."""
    X = inst.n_examples
    runs = [(c, None) for c in policies.CRITERIA]
    runs += [("worst_gen_gibbs", zero_one_loss(inst)), ("worst_gen_gibbs", hamming_loss(inst))]
    for criterion, loss in runs:
        for budget, stop in ((X, False), (max(1, X // 2), False), (X, True)):
            forest = policies._build_forest(criterion, stack, inst, budget, loss, stop)
            assert len(forest) == len(stack)
            for tree, p in zip(forest, stack):
                alone = build_policy(criterion, p, inst, budget, loss, stop)
                assert policy_to_text(tree) == policy_to_text(alone)


class TestForests:
    """A stack of priors grows as one forest, tree for tree the trees grown one at a time."""

    @pytest.mark.parametrize("n_labels", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded(self, seed, n_labels):
        rng = np.random.default_rng([seed, n_labels, 13])
        inst = small_case(seed, n_labels, "dirichlet")[0]
        for n_trees in (1, 2, 5, inst.n_examples * n_labels + 3):  # the last makes level 0 wide
            check_forest(inst, forest_stack(inst, rng, n_trees))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_generated(self, seed, n_labels, n_trees):
        inst = small_case(seed, n_labels, "uniform")[0]
        check_forest(inst, forest_stack(inst, np.random.default_rng(seed), n_trees))

    def test_identified_roots_stay_empty(self):
        rng = np.random.default_rng(3)
        inst = pl.random_instance(3, 6, 2, rng=rng)
        stack = [pl.point_mass(inst, 2), pl.random_prior(inst, rng), pl.point_mass(inst, 4)]
        forest = policies._build_forest("gbs", stack, inst, 3, None, True)
        assert [t.root is None for t in forest] == [True, False, True]
        singles = [pl.point_mass(inst, i) for i in range(6)]
        assert all(t.root is None for t in policies._build_forest("gbs", singles, inst, 3, None, True))

    def test_rejects_an_empty_stack(self):
        inst = pl.random_instance(2, 3, 2, rng=0)
        with pytest.raises(ValueError, match="a forest needs at least one prior"):
            policies._build_forest("max_gibbs", [], inst, 1, None, False)

    def test_rejects_a_row_of_another_length(self):
        inst = pl.random_instance(2, 3, 2, rng=0)
        short = pl.Prior([0.5, 0.5])
        with pytest.raises(ValueError) as alone:
            build_policy("max_gibbs", short, inst, 1)
        with pytest.raises(ValueError) as forest:
            policies._build_forest("max_gibbs", [pl.uniform_prior(inst), short], inst, 1, None, False)
        assert str(forest.value) == str(alone.value) == "prior has 2 entries for 3 hypotheses"


def widest_level(tree):
    level, widest = [tree.root], 0
    while level:
        level = [c for node in level if node is not None for c in node.children if c is not None]
        widest = max(widest, len(level))
    return widest


class TestWideLevels:
    """Levels of more than X * Y nodes, which grow from their compact frontier: picks from
    per-level sums, child masses from column rows."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_x, n_h, n_labels", [(6, 64, 2), (8, 256, 2), (5, 120, 3)])
    def test_chunked_levels(self, monkeypatch, n_x, n_h, n_labels, kind):
        rng = np.random.default_rng([n_x, n_h, n_labels])
        inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
        p = make_prior(inst, kind, rng)
        gbs = build_policy("gbs", p, inst, n_x, stop_when_identified=True)
        assert widest_level(gbs) > n_x * n_labels  # the compact path is exercised
        for criterion in policies.CRITERIA:
            loss = zero_one_loss(inst) if criterion == "worst_gen_gibbs" else None
            for stop in (False, True):
                assert_same_growth(
                    monkeypatch,
                    lambda: build_policy(criterion, p, inst, n_x, loss, stop),
                    lambda: reference_policy(criterion, p, inst, n_x, loss, stop),
                )
        assert_same_growth(
            monkeypatch,
            lambda: build_batch_policy(p, inst, 2, 2),
            lambda: reference_batch_policy(p, inst, 2, 2),
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_wide_batch_level(self, monkeypatch, kind):
        # 27 joint labels of a 3-member ternary batch outnumber the 18 (example, label) rows
        rng = np.random.default_rng(6)
        inst = pl.random_instance(6, 300, 3, rng=rng)
        p = make_prior(inst, kind, rng)
        seen, real = [], policies._dense_chunks
        with monkeypatch.context() as patch:
            patch.setattr(policies, "_dense_chunks", lambda *a: seen.append(a) or real(*a))
            assert_same_growth(
                monkeypatch,
                lambda: build_batch_policy(p, inst, 2, 3),
                lambda: reference_batch_policy(p, inst, 2, 3),
            )
        assert any(len(rows) > inst.n_examples * inst.n_labels for _, _, rows in seen)


def test_identification_tree_memory():
    """A level holds at most X * Y dense rows at once, the size of the one-hot matrix.

    At 12 x 4,096 the widest level has about 2,048 nodes; densifying it
    whole would take 64 MB against the 0.75 MB one-hot matrix.
    """
    inst = pl.random_instance(12, 4096, 2, rng=7)
    p = pl.random_prior(inst, 8)
    onehot = inst.label_onehot  # cached before the count starts
    tracemalloc.start()
    try:
        tree = build_policy("gbs", p, inst, inst.n_examples, stop_when_identified=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert widest_level(tree) > 1000
    assert peak < 4 * onehot.nbytes


def count_nodes(tree):
    n, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        if node is not None:
            n += 1
            stack.extend(node.children)
    return n


class TestPosteriorCount:
    """One branch posterior per expanded node below the root, none for leaves."""

    def assert_once_per_expanded_node(self, monkeypatch, build):
        with monkeypatch.context() as patch:
            levels = record_frontiers(patch)
            tree = build()
        assert sum(len(level[3]) for level in levels) == max(count_nodes(tree) - 1, 0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded(self, monkeypatch, seed, kind):
        inst, p = small_case(seed, 2 + seed % 2, kind)
        X = inst.n_examples
        for criterion in policies.CRITERIA:
            for budget, stop in ((X, False), (X, True), (max(1, X // 2), False)):
                self.assert_once_per_expanded_node(
                    monkeypatch, lambda: build_policy(criterion, p, inst, budget, None, stop)
                )
        for n_rounds, batch_size in ((1, X), (X // 2, 2)):
            if n_rounds >= 1:
                self.assert_once_per_expanded_node(
                    monkeypatch, lambda: build_batch_policy(p, inst, n_rounds, batch_size)
                )

    def test_trees_workload_identification_tree(self, monkeypatch):
        inst, p = trees_case(0)
        self.assert_once_per_expanded_node(
            monkeypatch, lambda: grow_golden("gbs", inst, p)
        )


# sha256 of policy_to_text for the benchmark's `trees` inputs at 12 x 1,000:
# rng = default_rng([12, 1000, ident]), random_instance then random_prior.
GOLDEN_TREES = {
    "gbs": [
        "e54da5c57e4acd4cfaa23e616a87ddae6d89158fae46c3c0fb9278d0665fbbe5",
        "059461ccfeac340b6a098ea38f7b07b90ed29e29da39a6eb71e4886811b0dbeb",
        "a6c567d43c2134ec8c0041e3443eeff19aaeab7ac3aa95a5f2723ff260bababf",
        "33d0360df490f1475d5eecad63d66aab68f16953cfe209caf951e18a4500a6bd",
    ],
    "max_gibbs": [
        "497d81859991403b63c1ff2b016f834ead1bf0a73ed66e6ce2998d11c7710ac3",
        "9c3bbfdb0a2269ca84372025b9ae71c119caddc6eedeca231bc8846cbcb6c933",
        "a562abcd8eaa093fcbab41faf892b1f7526cd1fc260830d95d5593de638b7213",
        "a295d03c8a7d25ff4c74b674c687f9dc6f7aa200456aba72236b29a33948d001",
    ],
    "batch": [
        "fdbd805986db7f97d4cfac8d00c57b3bf5c29efa133e25f5abdd2ee20879ba7d",
        "78f4a82054e4a58f87c0d1165250d935fcec6ea0759b76cbf453a36cea971387",
        "d19790a86c69388f32780e09c58a37ef8e651aeafb684e02f8193f92b11586ea",
        "66826e43a789bdaa337cd1920ed8b12782cc9aa4dd664deae01494f613e16f50",
    ],
}


def trees_case(ident):
    rng = np.random.default_rng([12, 1000, ident])
    inst = pl.random_instance(12, 1000, 2, rng=rng)
    return inst, pl.random_prior(inst, rng)


def grow_golden(kind, inst, p):
    if kind == "gbs":
        return build_policy("gbs", p, inst, inst.n_examples, stop_when_identified=True)
    if kind == "max_gibbs":
        return build_policy("max_gibbs", p, inst, 4)
    return build_batch_policy(p, inst, 2, 2)


class TestGoldenTrees:
    """Trees depend on no BLAS-summed float, so these hold on every OpenBLAS kernel."""

    @pytest.mark.parametrize("ident", range(4))
    @pytest.mark.parametrize("kind", sorted(GOLDEN_TREES))
    def test_trees_workload_digest(self, kind, ident):
        inst, p = trees_case(ident)
        text = policy_to_text(grow_golden(kind, inst, p))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TREES[kind][ident]
