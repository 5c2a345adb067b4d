"""The stacked kernels the tree grower uses against their one-row forms, bit for bit.

``core._marginal_rows`` multiplies the one-hot matrix by a stack of
posterior rows at once; every row must come out exactly as
``label_onehot @ row`` does alone, whichever OpenBLAS kernel runs, or the
greedy trees would depend on how many nodes share a chunk.  Scores of a
stack must equal the scores of each row alone, and the grower's pick
(argmax over the available examples) what ``select_from_marginals`` picks.
"""

import numpy as np
import pytest

import poolal as pl
from poolal.core import _marginal_rows
from poolal.mixture import grid_task
from poolal.policies import CRITERIA, _row_scores, select_from_marginals


def make_rows(n_rows, n_h, rng):
    """Uniform, zero-mass and Dirichlet probability rows, in turn."""
    rows = np.empty((n_rows, n_h))
    for i in range(n_rows):
        kind = i % 3
        if kind == 0:
            rows[i] = 1.0 / n_h
            continue
        mass = rng.dirichlet(np.ones(n_h))
        if kind == 1:
            mass[rng.random(n_h) < 0.4] = 0.0
            if mass.sum() == 0.0:
                mass[int(rng.integers(n_h))] = 1.0
        rows[i] = mass / mass.sum()
    return rows


def case(n_h, n_labels, seed):
    n_x = 2
    while n_labels**n_x < n_h:
        n_x += 1
    rng = np.random.default_rng([n_h, n_labels, seed])
    return pl.random_instance(n_x, n_h, n_labels, rng=rng), rng


def assert_rows_match(inst, P):
    stacked = _marginal_rows(inst, P)
    assert stacked.shape == (len(P), inst.n_examples, inst.n_labels)
    for row, marg in zip(P, stacked):
        alone = (inst.label_onehot @ row).reshape(inst.n_examples, inst.n_labels)
        assert marg.tobytes() == alone.tobytes()


@pytest.mark.parametrize("n_labels", [2, 3, 4, 5])
@pytest.mark.parametrize("n_h", [1, 7, 8, 1000])
def test_stacked_marginals_are_the_per_row_products(n_h, n_labels):
    inst, rng = case(n_h, n_labels, 0)
    chunk = inst.n_examples * inst.n_labels
    for n_rows in (1, chunk):
        P = make_rows(n_rows, n_h, rng)
        assert_rows_match(inst, P)
        assert_rows_match(inst, P[:1])  # a row of a larger stack, alone
    assert np.array_equal(pl.label_marginals(pl.Prior(P[0]), inst), _marginal_rows(inst, P[:1])[0])


def test_grid_task_components():
    inst, components = grid_task(16, 4)
    chunk = inst.n_examples * inst.n_labels
    rng = np.random.default_rng(16)
    P = np.empty((chunk, inst.n_hypotheses))
    for i in range(chunk):  # each component, and posteriors restricted to half its support
        probs = components[i % len(components)].probs
        if i >= len(components):
            probs = np.where(rng.random(probs.size) < 0.5, probs, 0.0)
            probs = probs / probs.sum()
        P[i] = probs
    assert_rows_match(inst, P)
    assert_rows_match(inst, P[:1])


MARGINAL_CRITERIA = [c for c in CRITERIA if c != "worst_gen_gibbs"]


@pytest.mark.parametrize("n_labels", [2, 3, 5, 9, 17])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_scores_are_the_per_row_scores(seed, n_labels):
    rng = np.random.default_rng([seed, n_labels])
    m = rng.dirichlet(np.ones(n_labels), size=(24, 12))
    m[rng.random(m.shape) < 0.2] = 0.0  # zero entries, as on a split version space
    m[::5] = m[0]  # exact ties between examples and between rows
    for criterion in MARGINAL_CRITERIA:
        stacked = _row_scores(criterion, m)
        for row, scores in zip(m, stacked):
            assert scores.tobytes() == _row_scores(criterion, row[None])[0].tobytes()


@pytest.mark.parametrize("n_labels", [2, 3, 5])
@pytest.mark.parametrize("seed", range(6))
def test_stacked_picks_are_the_per_row_picks(seed, n_labels):
    inst, rng = case(60, n_labels, seed)
    P = make_rows(inst.n_examples * inst.n_labels, inst.n_hypotheses, rng)
    marginals = _marginal_rows(inst, P)
    avail = rng.random((len(P), inst.n_examples)) < 0.6
    avail[np.arange(len(P)), rng.integers(inst.n_examples, size=len(P))] = True
    for criterion in MARGINAL_CRITERIA:
        picks = np.where(avail, _row_scores(criterion, marginals), -np.inf).argmax(axis=1)
        for marg, ok, pick in zip(marginals, avail, picks.tolist()):
            assert pick == select_from_marginals(criterion, marg, np.flatnonzero(ok).tolist())
