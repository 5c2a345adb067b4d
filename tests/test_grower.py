"""The greedy tree grower against a dense-mask reference, plus golden trees.

``reference_tree`` is the dense-mask grower: a boolean consistent set
per node and a boolean label mask per branch.  The package's
index-array grower must build the same tree and hand every branch it
expands exactly the same posterior, bit for bit, which pins both the mass
summed over the whole label column (numpy's pairwise sum groups
elements by position, so a sum over the consistent set alone can move
the last bit from eight elements on) and the uniform fallback over the
branch-consistent set.
"""

import hashlib

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
from poolal.utilities import zero_one_loss


def reference_branch_posterior(q, consistent, mask_xy):
    mass = float(q.probs[mask_xy].sum())
    if mass > 0.0:
        return Prior._trusted(np.where(mask_xy, q.probs, 0.0) / mass)
    return Prior._trusted(consistent / np.count_nonzero(consistent))


def reference_tree(p, inst, n_rounds, choose, stop_when_identified=False):
    """(tree, the posterior of every expanded non-root node, in growth order).

    A leaf's posterior is built here to decide that it is a leaf, then
    dropped from the record: the package builds none for leaves.
    """
    made = []

    def grow(q, consistent, avail, rounds_left):
        if rounds_left == 0 or (stop_when_identified and np.count_nonzero(q.probs) <= 1):
            return None
        batch = choose(q, avail)
        rest = tuple(i for i in avail if i not in batch)

        def within(q2, cons2, pos):
            if pos == len(batch):
                return grow(q2, cons2, rest, rounds_left - 1)
            xi = batch[pos]
            children = []
            for mask_xy in masks[xi]:
                on_branch = cons2 & mask_xy
                if not on_branch.any():
                    children.append(None)
                    continue
                made.append(reference_branch_posterior(q2, on_branch, mask_xy))
                slot = len(made) - 1
                children.append(within(made[slot], on_branch, pos + 1))
                if children[-1] is None:
                    made[slot] = None
            return PolicyNode(inst.examples[xi], tuple(children))

        return within(q, consistent, 0)

    masks = inst.label_matrix.T[:, None, :] == np.arange(inst.n_labels)[:, None]
    root = grow(p, np.ones(inst.n_hypotheses, dtype=bool), tuple(range(inst.n_examples)), n_rounds)
    return PolicyTree(inst, root), [q for q in made if q is not None]


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


def assert_same_growth(monkeypatch, build, reference):
    """``build()`` and ``reference()`` give one tree and bitwise-equal branch posteriors."""
    made = []
    real = policies._branch_posterior
    monkeypatch.setattr(policies, "_branch_posterior", lambda *a: made.append(real(*a)) or made[-1])
    tree = build()
    monkeypatch.setattr(policies, "_branch_posterior", real)
    ref_tree, ref_made = reference()
    assert policy_to_text(tree) == policy_to_text(ref_tree)
    assert len(made) == len(ref_made)
    for q, ref in zip(made, ref_made):
        assert q.probs.tobytes() == ref.probs.tobytes()  # -0.0 and +0.0 differ here


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
        calls = []
        real = policies._branch_posterior
        monkeypatch.setattr(policies, "_branch_posterior", lambda *a: calls.append(a) or real(*a))
        tree = build()
        assert len(calls) == max(count_nodes(tree) - 1, 0)

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
