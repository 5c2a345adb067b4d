"""The instance builders, held bit for bit to plain reference builders.

``Instance._from_codes``, ``Instance.label_onehot`` and ``induce_prior``
work one example column at a time.  The references below are the direct
(H x X) formulations: the ``code // Y**j % Y`` digit decode, the one-hot
matrix scattered from flat indices, and the per-hypothesis row product
(with its log-space fallback).  Every array must come out with the same
bytes, and the builders must stay within a small transient allocation.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal.core import InstanceFormatError
from poolal.mixture import grid_task, step_predictor_ensemble


def reference_rows(codes, n_x, n_y):
    return (codes[:, None] // n_y ** np.arange(n_x) % n_y).astype(np.int16)


def reference_onehot(label_matrix, n_y):
    n_h, n_x = label_matrix.shape
    flat = np.arange(n_x) * n_y + label_matrix
    onehot = np.zeros((n_x * n_y, n_h))
    onehot[flat.ravel(), np.repeat(np.arange(n_h), n_x)] = 1.0
    return onehot


def reference_induce(ens, inst):
    """The induced masses from (H, X) factor matrices, or None for zero total mass."""
    cols = np.arange(inst.n_examples)
    mass = np.zeros(inst.n_hypotheses)
    underflow = False
    for m in range(ens.n_members):
        per_example = ens.probs[m][cols[None, :], inst.label_matrix]
        term = ens.weights[m] * per_example.prod(axis=1)
        mass += term
        if ens.weights[m] > 0.0 and (per_example[term == 0.0] > 0.0).all(axis=1).any():
            underflow = True
    if underflow:
        factors = ens.probs[:, cols[None, :], inst.label_matrix]
        with np.errstate(divide="ignore"):
            logs = np.log(ens.weights)[:, None] + np.log(factors).sum(axis=2)
        mass = np.exp(logs - logs.max()).sum(axis=0)
    total = float(mass.sum())
    return None if total <= 0.0 else mass / total


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def build_case(n_x, n_y, n_h, seed):
    """A full space (``n_h`` None) or a seeded random instance, and its codes."""
    if n_h is None:
        codes = np.arange(n_y**n_x)
        inst = pl.full_hypothesis_space([f"x{i}" for i in range(n_x)], [str(y) for y in range(n_y)])
    else:
        codes = np.random.default_rng(seed).choice(n_y**n_x, size=n_h, replace=False)
        inst = pl.random_instance(n_x, n_h, n_y, rng=seed)
    return inst, codes


def random_ensemble(inst, n_members, seed, zero_weight=False, zero_factors=False):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_members))
    if zero_weight and n_members > 1:
        weights[0] = 0.0
        weights /= weights.sum()
    table = rng.dirichlet(np.ones(inst.n_labels), size=(n_members, inst.n_examples))
    if zero_factors:  # one label of some examples becomes impossible, per member
        hit = rng.random((n_members, inst.n_examples)) < 0.3
        table[hit, 0] = 0.0
        table /= table.sum(axis=2, keepdims=True)
    return pl.ModelEnsemble(inst, weights, table)


def check_builders(inst, codes):
    n_x, n_y = inst.n_examples, inst.n_labels
    assert_same_bytes(inst.label_matrix, reference_rows(codes, n_x, n_y))
    assert inst.label_matrix.flags.c_contiguous and not inst.label_matrix.flags.writeable
    assert_same_bytes(inst.label_columns, np.ascontiguousarray(inst.label_matrix.T))
    assert inst.label_columns.flags.c_contiguous and not inst.label_columns.flags.writeable
    assert_same_bytes(inst.label_onehot, reference_onehot(inst.label_matrix, n_y))
    assert np.unique(inst.label_matrix, axis=0).shape[0] == inst.n_hypotheses
    assert inst.ids == tuple(f"h{i}" for i in range(inst.n_hypotheses))


def check_induce(ens, inst):
    expected = reference_induce(ens, inst)
    if expected is None:
        with pytest.raises(ValueError, match="zero mass to every hypothesis"):
            pl.induce_prior(ens, inst)
    else:
        assert_same_bytes(pl.induce_prior(ens, inst).probs, expected)


class TestInstanceBuilders:
    @pytest.mark.parametrize(
        "n_x, n_y, n_h",
        [(1, 2, None), (1, 4, None), (5, 3, None), (8, 4, None), (16, 2, None),
         (1, 3, 2), (7, 2, 100), (12, 3, 1000), (16, 4, 500), (16, 2, 65536)],
    )
    def test_seeded(self, n_x, n_y, n_h):
        inst, codes = build_case(n_x, n_y, n_h, seed=n_x * 10 + n_y)
        check_builders(inst, codes)

    @given(st.integers(1, 16), st.integers(2, 4), st.integers(1, 300), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_generated(self, n_x, n_y, n_h, full, seed):
        full = full and n_y**n_x <= 4096
        inst, codes = build_case(n_x, n_y, None if full else min(n_h, n_y**n_x), seed)
        check_builders(inst, codes)

    def test_grid_task(self):
        inst, components = grid_task(16, 4)
        check_builders(inst, np.arange(2**16))
        for j, prior in enumerate(components):
            ens = step_predictor_ensemble(inst, 16 / 4 * (j + 0.5))
            assert_same_bytes(prior.probs, reference_induce(ens, inst))


class TestInducedPriors:
    @pytest.mark.parametrize("n_x, n_y, n_h", [(4, 3, None), (9, 2, None), (10, 3, 400), (16, 2, 2000)])
    @pytest.mark.parametrize("n_members", [1, 3])
    @pytest.mark.parametrize("zero_factors", [False, True])
    def test_seeded(self, n_x, n_y, n_h, n_members, zero_factors):
        inst, _ = build_case(n_x, n_y, n_h, seed=n_x)
        ens = random_ensemble(inst, n_members, n_x + n_members, zero_weight=True,
                              zero_factors=zero_factors)
        check_induce(ens, inst)

    @given(st.integers(1, 16), st.integers(2, 4), st.integers(1, 300), st.integers(1, 4),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_generated(self, n_x, n_y, n_h, n_members, zero_weight, zero_factors, seed):
        inst, _ = build_case(n_x, n_y, min(n_h, n_y**n_x), seed)
        check_induce(random_ensemble(inst, n_members, seed, zero_weight, zero_factors), inst)

    def test_underflow_gives_the_uniform_prior(self):
        # 0.5 ** 1200 underflows to 0.0 for every hypothesis: the log-space path
        examples = tuple(f"x{i}" for i in range(1200))
        rows = [("0",) * 1200, ("1",) * 1200, ("0", "1") * 600]
        inst = pl.Instance(
            examples, ("0", "1"), [pl.Hypothesis(f"h{k}", examples, r) for k, r in enumerate(rows)]
        )
        ens = pl.ModelEnsemble(inst, [1.0], np.full((1, 1200, 2), 0.5))
        probs = pl.induce_prior(ens, inst).probs
        np.testing.assert_array_equal(probs, [1 / 3] * 3)
        assert_same_bytes(probs, reference_induce(ens, inst))


class TestChecksKept:
    """Only generated instances skip the duplicate searches."""

    EX = ("x0", "x1")

    def test_instance_rejects_duplicate_ids(self):
        hyps = [pl.Hypothesis(i, self.EX, ls) for i, ls in zip("aba", [("0", "0"), ("1", "0"), ("0", "1")])]
        with pytest.raises(ValueError, match=r"^duplicate hypothesis id 'a'$"):
            pl.Instance(self.EX, ("0", "1"), hyps)

    def test_instance_rejects_duplicate_labelings(self):
        hyps = [pl.Hypothesis(i, self.EX, ls) for i, ls in zip("abc", [("0", "0"), ("1", "0"), ("1", "0")])]
        with pytest.raises(ValueError, match=r"^hypotheses 'b' and 'c' are the same labeling$"):
            pl.Instance(self.EX, ("0", "1"), hyps)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("h,a,0.5,0,1\nh,a,0.5,1,0\n", r"^duplicate hypothesis id 'a'$"),
            ("h,a,0.5,0,1\nh,b,0.5,0,1\n", r"^hypotheses 'a' and 'b' are the same labeling$"),
        ],
    )
    def test_load_instance_rejects_duplicates(self, tmp_path, body, message):
        path = tmp_path / "dup.csv"
        path.write_text("examples,x0,x1\nlabels,0,1\n" + body)
        with pytest.raises(InstanceFormatError, match=message):
            pl.load_instance(path)

    def test_full_space_rejects_duplicate_given_ids(self):
        with pytest.raises(ValueError, match=r"^duplicate hypothesis id 'b'$"):
            pl.full_hypothesis_space(self.EX, ("0", "1"), ids=("a", "b", "c", "b"))


def transient_bytes(build):
    """Peak traced allocation during ``build()`` beyond what its result keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return peak - current


class TestTransientAllocation:
    def test_full_space_and_onehot(self):
        def build():
            inst = pl.full_hypothesis_space([f"x{i}" for i in range(16)], ("0", "1"))
            return inst, inst.label_onehot

        assert transient_bytes(build) <= 4_000_000

    def test_induce_prior(self):
        inst = pl.full_hypothesis_space([f"x{i}" for i in range(16)], ("0", "1"))
        ens = step_predictor_ensemble(inst, 6.0)
        assert transient_bytes(lambda: pl.induce_prior(ens, inst)) <= 5_000_000
