"""The bit facts behind the grower's wide levels, each checked on its own.

A level of more than X * Y nodes grows from its compact (node, hypothesis,
value) arrays instead of dense rows:

- ``policies._level_sums`` takes every node's label sums with
  ``bincount``, whose bins never mix examples.  A sum with at most two
  positive terms must be bitwise the entry of the stacked one-hot product
  (``_marginal_rows``), on every OpenBLAS kernel.
- ``policies._marginal_bounds`` brackets every product entry from its
  sum on any kernel; ``policies._compact_picks`` scores the exact rows
  and certifies the others from those brackets.  Every pick it makes
  must be the dense ``_picks`` pick, near-ties told apart by one
  hypothesis of mass 10⁻ᵏ must fall on both sides of the bound, and the
  share it leaves open is pinned.
- ``policies._child_masses`` sums a child's label column as a row of a
  C-contiguous block; numpy must give each row sum the bits of the 1-D
  ``take().sum()`` the dense grower computes.
"""

import numpy as np
import pytest

import poolal as pl
from poolal import policies
from poolal.core import _marginal_rows
from poolal.policies import (
    _compact_picks,
    _dense_chunks,
    _densify,
    _level_sums,
    _marginal_bounds,
    _picks,
    build_policy,
)
from poolal.utilities import zero_one_loss


def random_frontier(inst, n_nodes, rng):
    """A level of ``n_nodes`` random nodes, each holding a few hypotheses in ascending order
    with Dirichlet, zero and tiny masses; many sums have one or two positive terms."""
    node, hyp, val = [], [], []
    H = inst.n_hypotheses
    for i in range(n_nodes):
        size = int(rng.integers(1, min(H, 40) + 1))
        members = np.sort(rng.choice(H, size, replace=False))
        mass = rng.dirichlet(np.ones(size))
        mass[rng.random(size) < rng.random()] = 0.0
        mass[rng.random(size) < 0.1] *= 2.0**-1000
        mass[rng.random(size) < 0.02] = 2.0**-1070  # so S·δ underflows
        node += [i] * size
        hyp += members.tolist()
        val += mass.tolist()
    return np.array(node), np.array(hyp), np.array(val)


def wide_levels(build):
    """Every wide level ``build()`` picks on: (criterion, inst, frontier, avail, loss, picks)."""
    seen = []
    real = policies._compact_picks

    def compact(criterion, inst, node, hyp, val, avail, loss):
        made = real(criterion, inst, node, hyp, val, avail, loss)
        seen.append((criterion, inst, (node, hyp, val), avail, loss, made.copy()))
        return made

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policies, "_compact_picks", compact)
        build()
    return seen


def dense_picks(criterion, inst, frontier, avail, loss):
    chunks = _dense_chunks(inst, frontier, np.arange(len(avail)))
    return np.concatenate([_picks(criterion, inst, Q, avail[rows], loss) for rows, Q in chunks])


def trees_pool():
    """The ``trees`` benchmark's four instances (12 x 1,000) and their priors."""
    for ident in range(4):
        rng = np.random.default_rng([12, 1000, ident])
        inst = pl.random_instance(12, 1000, 2, rng=rng)
        yield inst, pl.random_prior(inst, rng)


def build_trees_unit(inst, p):
    build_policy("worst_gen_gibbs", p, inst, 4, loss=zero_one_loss(inst))
    build_policy("max_gibbs", p, inst, 4)
    build_policy("gbs", p, inst, inst.n_examples, stop_when_identified=True)
    pl.build_batch_policy(p, inst, 2, 2)


class TestExactSums:
    @pytest.mark.parametrize("n_labels", [2, 3])
    @pytest.mark.parametrize("n_h", [7, 100, 1000, 4096])
    def test_few_term_sums_are_the_product(self, n_h, n_labels):
        rng = np.random.default_rng([n_h, n_labels])
        n_x = 2
        while n_labels**n_x < n_h:
            n_x += 1
        inst = pl.random_instance(n_x + 1, n_h, n_labels, rng=rng)
        n = 3 * inst.n_examples * n_labels
        node, hyp, val = random_frontier(inst, n, rng)
        S, few = _level_sums(inst, node, hyp, val, n)
        dense = _marginal_rows(inst, _densify(node, hyp, val, n, n_h))
        assert few.any() and not few.all()
        assert S[few].tobytes() == dense[few].tobytes()

    def test_trees_pool_wide_levels(self):
        checked = 0
        for inst, p in trees_pool():
            for _, _, (node, hyp, val), avail, _, _ in wide_levels(lambda: build_trees_unit(inst, p)):
                S, few = _level_sums(inst, node, hyp, val, len(avail))
                dense = _marginal_rows(inst, _densify(node, hyp, val, len(avail), 1000))
                assert S[few].tobytes() == dense[few].tobytes()
                checked += int(few.sum())
        assert checked > 10_000


def assert_bounds_hold(inst, node, hyp, val, n):
    S, few = _level_sums(inst, node, hyp, val, n)
    lo, hi = _marginal_bounds(S, few, inst.n_hypotheses)
    dense = _marginal_rows(inst, _densify(node, hyp, val, n, inst.n_hypotheses))
    assert np.all(lo <= dense) and np.all(dense <= hi)
    assert lo[few].tobytes() == hi[few].tobytes() == dense[few].tobytes()
    assert np.all(lo >= 0.0)


class TestMarginalBounds:
    @pytest.mark.parametrize("n_labels", [2, 3])
    @pytest.mark.parametrize("n_h", [7, 100, 1000, 4096])
    def test_random_levels(self, n_h, n_labels):
        rng = np.random.default_rng([n_h, n_labels, 1])
        n_x = 2
        while n_labels**n_x < n_h:
            n_x += 1
        inst = pl.random_instance(n_x + 1, n_h, n_labels, rng=rng)
        n = 3 * inst.n_examples * n_labels
        assert_bounds_hold(inst, *random_frontier(inst, n, rng), n)

    def test_trees_pool_wide_levels(self):
        for inst, p in trees_pool():
            for _, _, frontier, avail, _, _ in wide_levels(lambda: build_trees_unit(inst, p)):
                assert_bounds_hold(inst, *frontier, len(avail))


def assert_certified_picks(levels):
    decided = 0
    for criterion, inst, frontier, avail, loss, made in levels:
        dense = dense_picks(criterion, inst, frontier, avail, loss)
        open_ = made < 0
        assert np.array_equal(made[~open_], dense[~open_])
        decided += int(np.count_nonzero(~open_))
    return decided


class TestCertifiedPicks:
    def test_trees_pool(self):
        """Every wide-level pick of the ``trees`` pool is the dense pick, and the share left
        to dense rows is pinned: a loosened bound, or moved inputs, change it."""
        rows = open_ = 0
        for inst, p in trees_pool():
            levels = wide_levels(lambda: build_trees_unit(inst, p))
            assert {c for c, *_ in levels} == {"gbs"}  # the only tree with wide levels
            assert_certified_picks(levels)
            rows += sum(len(made) for *_, made in levels)
            open_ += sum(int(np.count_nonzero(made < 0)) for *_, made in levels)
        assert (open_, rows) == (118, 3829)

    @pytest.mark.parametrize("kind", ["uniform", "dirichlet", "zero_mass"])
    @pytest.mark.parametrize("n_x, n_h, n_labels", [(6, 64, 2), (8, 256, 2), (5, 120, 3)])
    def test_wide_level_instances(self, n_x, n_h, n_labels, kind):
        # the instances and priors of test_grower.py's TestWideLevels
        rng = np.random.default_rng([n_x, n_h, n_labels])
        inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
        if kind == "uniform":
            p = pl.uniform_prior(inst)
        else:
            mass = rng.dirichlet(np.ones(n_h))
            if kind == "zero_mass":
                mass[rng.random(n_h) < 0.4] = 0.0
            p = pl.Prior(mass / mass.sum())
        for criterion in policies.CRITERIA:
            loss = zero_one_loss(inst) if criterion == "worst_gen_gibbs" else None
            for stop in (False, True):
                levels = wide_levels(lambda: build_policy(criterion, p, inst, n_x, loss, stop))
                assert levels
                decided = assert_certified_picks(levels)
                assert (decided == 0) == (criterion == "max_entropy")


class TestNearTies:
    @pytest.mark.parametrize("criterion", ["max_gibbs", "least_confidence", "gbs"])
    @pytest.mark.parametrize("n_labels", [2, 3])
    def test_copied_column_apart_by_one_tiny_mass(self, criterion, n_labels):
        """Example x0 and its copy, which differs at one hypothesis of mass 10⁻ᵏ, are the only
        candidates; the bound decides for small k and leaves large k to the dense rows."""
        rng = np.random.default_rng(n_labels)
        n_x = 8 if n_labels == 2 else 6
        base = pl.random_instance(n_x, 200, n_labels, rng=rng)
        h = int(rng.integers(200))
        copy = base.label_matrix[:, 0].astype(str).copy()
        copy[h] = str((int(copy[h]) + 1) % n_labels)
        examples = base.examples + ("copy",)
        rows = [pl.Hypothesis(f"h{i}", examples, tuple(map(str, r)) + (copy[i],))
                for i, r in enumerate(base.label_matrix)]
        inst = pl.Instance(examples, base.labels, rows)
        ks = np.arange(1, 41)
        mass = rng.dirichlet(np.ones(200), size=ks.size)
        mass[:, h] = 10.0 ** -ks.astype(float)
        mass /= mass.sum(axis=1, keepdims=True)
        node, hyp = np.repeat(np.arange(ks.size), 200), np.tile(np.arange(200), ks.size)
        avail = np.zeros((ks.size, inst.n_examples), dtype=bool)
        avail[:, [0, n_x]] = True
        made = _compact_picks(criterion, inst, node, hyp, mass.ravel(), avail, None)
        dense = dense_picks(criterion, inst, (node, hyp, mass.ravel()), avail, None)
        decided = made >= 0
        assert np.array_equal(made[decided], dense[decided])
        assert decided[:3].all() and not decided[-10:].any()


def column_rows(n_rows, length, rng):
    """C-contiguous rows of ``length``: a few positive masses of mixed magnitude among zeros,
    as a child's entries scattered into its label column."""
    block = np.zeros((n_rows, length))
    for row in block:
        k = int(rng.integers(1, length + 1))
        at = rng.choice(length, k, replace=False)
        row[at] = rng.dirichlet(np.ones(k)) * 2.0 ** rng.integers(-60, 1, k)
    return block


class TestColumnRowSums:
    @pytest.mark.parametrize(
        "length", [*range(1, 10), 127, 128, 129, 255, 256, 257, 2048, 4096]
    )
    def test_row_sums_are_the_1d_sums(self, length):
        rng = np.random.default_rng(length)
        for n_rows in (1, 2, 7, 24):
            block = column_rows(n_rows, length, rng)
            sums = block.sum(axis=1)
            for i, row in enumerate(block):
                alone = row.take(np.arange(length)).sum()  # the grower's 1-D sum
                assert sums[i].tobytes() == alone.tobytes()
            for a, b in ((0, n_rows), (n_rows // 2, n_rows), (1, max(1, n_rows - 1))):
                for i, s in enumerate(block[a:b].sum(axis=1)):
                    assert s.tobytes() == sums[a + i].tobytes()
