import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal.utilities import (
    GeneralizedReduction,
    PruningCount,
    VersionSpaceReduction,
    eval_utility,
    hamming_loss,
    lipschitz_constant,
    lipschitz_probe,
    load_loss_matrix,
    set_utility,
    threshold_straddle_pair,
    zero_one_loss,
)


class TestLossMatrix:
    def test_zero_one(self, square):
        lm = zero_one_loss(square)
        assert lm.bound == 1.0
        assert lm.values[0, 0] == 0.0
        assert lm.values[0, 3] == 1.0

    def test_hamming(self, square):
        lm = hamming_loss(square)
        # h1=(0,0) vs h4=(1,1): disagree everywhere; vs h2=(1,0): half
        assert lm.values[0, 3] == 1.0
        assert lm.values[0, 1] == 0.5
        assert lm.bound == 1.0

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            pl.LossMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="self-loss"):
            pl.LossMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pl.LossMatrix(np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            pl.LossMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), bound=bad)

    def test_file_roundtrip(self, tmp_path, square):
        path = tmp_path / "loss.csv"
        lm = hamming_loss(square)
        path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in lm.values) + "\n"
        )
        loaded = load_loss_matrix(path, square)
        np.testing.assert_array_equal(loaded.values, lm.values)

    def test_file_rejects_asymmetry(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("0,1.0\n0.9999,0\n")
        with pytest.raises(ValueError, match="symmetric"):
            load_loss_matrix(path)

    @pytest.mark.parametrize("text, message", [
        ("0,1\n-1,0\n", "line 2: losses must be nonnegative"),
        ("0,1,1\n1,0,1\n\n1,2,0\n", r"line 2: loss matrix must be symmetric \(tolerance 1e-9\)"),
        ("0,1\n\n1,0.5\n", "line 3: self-loss must be exactly 0"),
    ])
    def test_file_entry_checks_report_line(self, tmp_path, text, message):
        # the line of the first row holding an offending entry, blank lines counted
        path = tmp_path / "loss.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_loss_matrix(path)

    def test_file_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("0,1\n\nzz,0\n")
        with pytest.raises(ValueError, match=r"^line 3: could not convert string to float: 'zz'"):
            load_loss_matrix(path)

    def test_file_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("0,1\n1,0,1\n")
        with pytest.raises(ValueError, match=r"^line 2: expected 2 entries, got 3"):
            load_loss_matrix(path)

    def test_file_non_finite_entry_reports_line(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("0,nan\n1,0\n")
        with pytest.raises(ValueError, match=r"^line 1: non-finite"):
            load_loss_matrix(path)


class TestVersionSpaceReduction:
    def test_empty_set_is_zero(self, square):
        u = VersionSpaceReduction()
        p = pl.random_prior(square, rng=0)
        for h in square.hypotheses:
            assert eval_utility(u, p, square, (), h) == 0.0

    def test_single_query(self, square):
        u = VersionSpaceReduction()
        p = pl.uniform_prior(square)
        assert eval_utility(u, p, square, ("x0",), square.hypotheses[0]) == pytest.approx(0.5)

    def test_monotone_in_queried_set(self, square):
        u = VersionSpaceReduction()
        for seed in range(20):
            p = pl.random_prior(square, rng=seed)
            for h in square.hypotheses:
                v1 = eval_utility(u, p, square, ("x0",), h)
                v2 = eval_utility(u, p, square, ("x0", "x1"), h)
                assert v2 >= v1 - 1e-12

    def test_range(self, square):
        u = VersionSpaceReduction()
        p = pl.random_prior(square, rng=7)
        for h in square.hypotheses:
            assert 0.0 <= eval_utility(u, p, square, ("x0", "x1"), h) <= 1.0

    def test_unknown_hypothesis(self, chain):
        u = VersionSpaceReduction()
        p = pl.uniform_prior(chain)
        foreign = pl.Hypothesis("zz", ("x0", "x1"), ("0", "1"))  # not in the chain
        with pytest.raises(ValueError, match="not part of this instance"):
            eval_utility(u, p, chain, ("x0",), foreign)


class TestGeneralizedReduction:
    def test_pair_mass_zero_one(self, square):
        # 12 ordered unequal pairs, minus the 2 inside the consistent set
        # {h1, h3}, each weighted 1/16
        u = GeneralizedReduction(zero_one_loss(square))
        p = pl.uniform_prior(square)
        got = eval_utility(u, p, square, ("x0",), square.hypotheses[0])
        assert got == pytest.approx(0.625)

    def test_empty_set_is_zero(self, square):
        u = GeneralizedReduction(zero_one_loss(square))
        for seed in range(10):
            p = pl.random_prior(square, rng=seed)
            for h in square.hypotheses:
                assert eval_utility(u, p, square, (), h) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_loss_bound(self, square):
        u = GeneralizedReduction(hamming_loss(square))
        p = pl.random_prior(square, rng=3)
        for h in square.hypotheses:
            v = eval_utility(u, p, square, ("x0", "x1"), h)
            assert 0.0 <= v <= u.loss.bound + 1e-12

    def test_brute_force_pair_sum(self, square):
        # independent oracle: explicit double sum over ordered pairs
        u = GeneralizedReduction(hamming_loss(square))
        p = pl.random_prior(square, rng=11)
        h = square.hypotheses[2]
        S = ("x1",)
        expected = 0.0
        for i, hi in enumerate(square.hypotheses):
            for j, hj in enumerate(square.hypotheses):
                si = tuple(hi.labeling[x] for x in S)
                sj = tuple(hj.labeling[x] for x in S)
                sh = tuple(h.labeling[x] for x in S)
                if si != sh or sj != sh:
                    expected += (
                        float(p.probs[i]) * u.loss.values[i, j] * float(p.probs[j])
                    )
        assert eval_utility(u, p, square, S, h) == pytest.approx(expected, abs=1e-12)


class TestPruningCount:
    def test_concentrated_prior_prunes_nothing_on_x1(self, square):
        u = PruningCount(0.0)
        p = pl.Prior([0.5, 0.5, 0.0, 0.0])
        assert eval_utility(u, p, square, ("x1",), square.hypotheses[0]) == 0.0

    def test_mu_zero_counts_support_disagreements(self, square):
        u = PruningCount(0.0)
        for seed in range(10):
            p = pl.random_prior(square, rng=seed)
            for h in square.hypotheses:
                got = eval_utility(u, p, square, ("x0",), h)
                support = {i for i in range(4) if p.probs[i] > 0}
                agree = {
                    i
                    for i in support
                    if square.hypotheses[i].labeling["x0"] == h.labeling["x0"]
                }
                assert got == len(support) - len(agree)

    def test_threshold_is_strict(self, square):
        u = PruningCount(0.25)
        p = pl.Prior([0.5, 0.25, 0.25, 0.0])
        # h2 and h3 sit exactly at the threshold: excluded
        assert eval_utility(u, p, square, ("x0",), square.hypotheses[0]) == 0.0

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            PruningCount(-0.1)


class TestLipschitzConstants:
    def test_version_space(self):
        assert lipschitz_constant(VersionSpaceReduction()) == (1.0, 1.0)

    def test_generalized(self, square):
        assert lipschitz_constant(GeneralizedReduction(zero_one_loss(square))) == (2.0, 1.0)

    def test_pruning_is_non_lipschitz(self):
        assert lipschitz_constant(PruningCount(0.0)) == (None, None)


class TestLipschitzProbe:
    def test_version_space_within_bound(self):
        inst = pl.random_instance(4, 8, 2, rng=1)
        assert lipschitz_probe(VersionSpaceReduction(), inst, 2000, seed=11) <= 1.0 + 1e-9

    def test_generalized_within_bound(self):
        inst = pl.random_instance(4, 8, 2, rng=1)
        u = GeneralizedReduction(zero_one_loss(inst))
        assert lipschitz_probe(u, inst, 2000, seed=12) <= 2.0 + 1e-9

    def test_pruning_ratio_unbounded(self, square):
        pair = threshold_straddle_pair(square, 0.25, gap=0.004)
        ratio = lipschitz_probe(
            PruningCount(0.25), square, 200, seed=13, pair_sampler=lambda rng: pair
        )
        assert ratio > 100.0

    def test_deterministic(self, square):
        u = VersionSpaceReduction()
        a = lipschitz_probe(u, square, 500, seed=3)
        b = lipschitz_probe(u, square, 500, seed=3)
        assert a == b


class TestPointwiseStability:
    def test_version_space_is_1_lipschitz_pointwise(self, square):
        u = VersionSpaceReduction()
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = pl.random_prior(square, rng)
            q = pl.random_prior(square, rng)
            h = square.hypotheses[int(rng.integers(4))]
            S = ("x0",) if rng.integers(2) else ("x0", "x1")
            diff = abs(eval_utility(u, p, square, S, h) - eval_utility(u, q, square, S, h))
            assert diff <= pl.l1_distance(p, q) + 1e-12

    def test_generalized_is_2m_lipschitz_pointwise(self, square):
        u = GeneralizedReduction(hamming_loss(square))
        rng = np.random.default_rng(6)
        for _ in range(500):
            p = pl.random_prior(square, rng)
            q = pl.random_prior(square, rng)
            h = square.hypotheses[int(rng.integers(4))]
            S = ("x1",) if rng.integers(2) else ("x0", "x1")
            diff = abs(eval_utility(u, p, square, S, h) - eval_utility(u, q, square, S, h))
            assert diff <= 2.0 * u.loss.bound * pl.l1_distance(p, q) + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_set_utility_mask_and_index_agree_with_mask_formulas(seed):
    # the per-mask formulas set_utility replaced, written out: a mask and an
    # ascending index array of the same set must give the identical double
    rng = np.random.default_rng(seed)
    inst = pl.random_instance(4, int(rng.integers(1, 17)), 2, rng=rng)
    q = rng.dirichlet(np.ones(inst.n_hypotheses))
    q[rng.random(inst.n_hypotheses) < 0.3] = 0.0
    p = pl.Prior(q / q.sum() if q.any() else np.full(q.size, 1.0 / q.size))
    agree = rng.random(inst.n_hypotheses) < 0.5
    index = np.flatnonzero(agree)
    loss = hamming_loss(inst)
    mu = float(np.median(p.probs))
    q = p.probs
    q_in = np.where(agree, q, 0.0)
    expected = [
        (VersionSpaceReduction(), 1.0 - float(p.probs[agree].sum())),
        (
            GeneralizedReduction(loss),
            float(q @ loss.values @ q) - float(q_in @ loss.values @ q_in),
        ),
        (PruningCount(mu), float(np.count_nonzero((p.probs > mu) & ~agree))),
    ]
    for u, value in expected:
        assert set_utility(u, p, inst, agree) == value
        assert set_utility(u, p, inst, index) == value
