import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal.core import EmptyVersionSpaceError, InstanceFormatError, instance_text
from poolal.mixture import grid_task


def test_instance_rejects_duplicate_labelings():
    examples = ("x0",)
    hyps = [
        pl.Hypothesis("a", examples, ("0",)),
        pl.Hypothesis("b", examples, ("0",)),
    ]
    with pytest.raises(ValueError, match="same labeling"):
        pl.Instance(examples, ("0", "1"), hyps)


def test_instance_rejects_single_label():
    with pytest.raises(ValueError, match="two labels"):
        pl.Instance(("x0",), ("0",), [pl.Hypothesis("a", ("x0",), ("0",))])


def test_hypothesis_must_be_total():
    with pytest.raises(ValueError, match="exactly one label"):
        pl.Hypothesis("a", ("x0", "x1"), ("0",))


def test_full_space_orders_first_example_fastest(square):
    assert [h.labels for h in square.hypotheses] == [
        ("0", "0"),
        ("1", "0"),
        ("0", "1"),
        ("1", "1"),
    ]
    assert square.hypotheses[1].labeling == {"x0": "1", "x1": "0"}


def test_prior_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        pl.Prior([0.5, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        pl.Prior([1.5, -0.5])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_prior_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        pl.Prior([bad, 1.0])


class TestLabelSeqProb:
    def test_uniform_single_query(self, square):
        p = pl.uniform_prior(square)
        assert pl.label_seq_prob(p, square, ("x0",), ("0",)) == pytest.approx(0.5)

    def test_empty_sequence_is_one(self, square):
        p = pl.random_prior(square, rng=0)
        assert pl.label_seq_prob(p, square, (), ()) == 1.0

    def test_unique_matching_hypothesis(self, square):
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        assert pl.label_seq_prob(p, square, ("x0", "x1"), ("0", "1")) == pytest.approx(0.2)

    def test_distribution_over_label_sequences(self, square):
        p = pl.random_prior(square, rng=3)
        total = sum(
            pl.label_seq_prob(p, square, ("x0", "x1"), (a, b))
            for a in square.labels
            for b in square.labels
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_errors(self, square):
        p = pl.uniform_prior(square)
        with pytest.raises(ValueError, match="examples but"):
            pl.label_seq_prob(p, square, ("x0",), ("0", "1"))
        with pytest.raises(ValueError, match="unknown example"):
            pl.label_seq_prob(p, square, ("nope",), ("0",))
        with pytest.raises(ValueError, match="unknown label"):
            pl.label_seq_prob(p, square, ("x0",), ("9",))


class TestPosterior:
    def test_indicator_bayes(self, square):
        p = pl.uniform_prior(square)
        q = pl.posterior(p, square, [("x0", "0")])
        np.testing.assert_allclose(q.probs, [0.5, 0.0, 0.5, 0.0])

    def test_empty_observation_is_identity(self, square):
        p = pl.random_prior(square, rng=5)
        assert pl.posterior(p, square, []) is p

    def test_renormalizes(self, square):
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        q = pl.posterior(p, square, [("x1", "0")])
        np.testing.assert_allclose(q.probs, [0.4 / 0.7, 0.3 / 0.7, 0.0, 0.0])

    def test_empty_version_space(self, square):
        p = pl.Prior([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(EmptyVersionSpaceError):
            pl.posterior(p, square, [("x1", "1")])

    def test_order_independence(self, square):
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        ab = pl.posterior(pl.posterior(p, square, [("x0", "1")]), square, [("x1", "0")])
        both = pl.posterior(p, square, [("x0", "1"), ("x1", "0")])
        np.testing.assert_allclose(ab.probs, both.probs, atol=1e-12)

    def test_chain_rule(self, square):
        # p[y ++ y'; S ++ S'] = p[y;S] * posterior(p, (S,y))[y';S']
        for seed in range(20):
            p = pl.random_prior(square, rng=seed)
            joint = pl.label_seq_prob(p, square, ("x0", "x1"), ("1", "0"))
            first = pl.label_seq_prob(p, square, ("x0",), ("1",))
            if first == 0.0:
                continue
            rest = pl.label_seq_prob(
                pl.posterior(p, square, [("x0", "1")]), square, ("x1",), ("0",)
            )
            assert joint == pytest.approx(first * rest, abs=1e-12)


class TestL1:
    def test_zero_on_equal(self, square):
        p = pl.random_prior(square, rng=1)
        assert pl.l1_distance(p, p) == 0.0

    def test_shifted_mass(self):
        p0 = pl.Prior([0.5, 0.5, 0.0, 0.0])
        p1 = pl.Prior([0.4, 0.4, 0.1, 0.1])
        assert pl.l1_distance(p0, p1) == pytest.approx(0.4)

    def test_disjoint_support_is_two(self):
        assert pl.l1_distance(pl.Prior([1.0, 0.0]), pl.Prior([0.0, 1.0])) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            pl.l1_distance(pl.Prior([1.0]), pl.Prior([0.5, 0.5]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (pl.Prior(rng.dirichlet(np.ones(6))) for _ in range(3))
        assert pl.l1_distance(a, c) <= pl.l1_distance(a, b) + pl.l1_distance(b, c) + 1e-12


class TestInducePrior:
    def test_fair_coins_give_uniform(self, square):
        ens = pl.ModelEnsemble(square, [1.0], np.full((1, 2, 2), 0.5))
        np.testing.assert_allclose(pl.induce_prior(ens, square).probs, [0.25] * 4)

    def test_point_mass_members(self, square):
        # two deterministic predictors matching h1 and h2
        t = np.zeros((2, 2, 2))
        t[0, :, 0] = 1.0  # labels (0, 0) -> h1
        t[1, 0, 1] = 1.0  # x0 -> 1
        t[1, 1, 0] = 1.0  # x1 -> 0, i.e. h2
        ens = pl.ModelEnsemble(square, [0.7, 0.3], t)
        np.testing.assert_allclose(pl.induce_prior(ens, square).probs, [0.7, 0.3, 0.0, 0.0])

    def test_product_rule(self, square):
        ens = pl.ModelEnsemble(square, [1.0], np.array([[[0.1, 0.9], [0.8, 0.2]]]))
        np.testing.assert_allclose(
            pl.induce_prior(ens, square).probs, [0.08, 0.72, 0.02, 0.18]
        )

    @staticmethod
    def _long_pool(n_examples=1200):
        examples = tuple(f"x{i}" for i in range(n_examples))
        rows = [("0",) * n_examples, ("1",) * n_examples, ("0", "1") * (n_examples // 2)]
        hyps = [pl.Hypothesis(f"h{k}", examples, row) for k, row in enumerate(rows)]
        return pl.Instance(examples, ("0", "1"), hyps)

    def test_underflowing_products_fall_back_to_log_space(self):
        # 0.5 ** 1200 underflows to 0.0 for every hypothesis
        inst = self._long_pool()
        ens = pl.ModelEnsemble(inst, [1.0], np.full((1, inst.n_examples, 2), 0.5))
        np.testing.assert_array_equal(pl.induce_prior(ens, inst).probs, [1 / 3] * 3)

    def test_log_space_mixes_members(self):
        inst = self._long_pool()
        table = np.empty((2, inst.n_examples, 2))
        table[0] = 0.5
        table[1, :, 0], table[1, :, 1] = 0.51, 0.49
        ens = pl.ModelEnsemble(inst, [0.25, 0.75], table)
        n = inst.n_examples
        logs = [  # log-mass per (hypothesis, member), written out by hand
            [n * np.log(0.5), n * np.log(0.51)],
            [n * np.log(0.5), n * np.log(0.49)],
            [n * np.log(0.5), n / 2 * (np.log(0.51) + np.log(0.49))],
        ]
        log_w = np.log([0.25, 0.75])
        expected = np.array([np.logaddexp(*(np.array(row) + log_w)) for row in logs])
        expected = np.exp(expected - np.logaddexp.reduce(expected))
        np.testing.assert_allclose(pl.induce_prior(ens, inst).probs, expected, rtol=1e-9)

    def test_exact_zero_factor_stays_zero_in_log_space(self):
        inst = self._long_pool()
        table = np.full((1, inst.n_examples, 2), 0.5)
        table[0, 1] = (1.0, 0.0)  # x1 is surely '0': the alternating labeling is impossible
        ens = pl.ModelEnsemble(inst, [1.0], table)
        probs = pl.induce_prior(ens, inst).probs
        assert probs[2] == 0.0 and probs[1] == 0.0
        assert probs[0] == 1.0

    def test_no_underflow_keeps_the_plain_product(self):
        inst = pl.full_hypothesis_space(("x0", "x1", "x2", "x3"), ("0", "1", "2"))
        rng = np.random.default_rng(4)
        table = rng.dirichlet(np.ones(3), size=(3, 4))
        ens = pl.ModelEnsemble(inst, [0.2, 0.3, 0.5], table)
        cols = np.arange(inst.n_examples)
        mass = np.zeros(inst.n_hypotheses)
        for m in range(3):
            mass += ens.weights[m] * table[m][cols[None, :], inst.label_matrix].prod(axis=1)
        np.testing.assert_array_equal(pl.induce_prior(ens, inst).probs, mass / mass.sum())

    def test_marginals_match_ensemble(self):
        inst = pl.full_hypothesis_space(("x0", "x1", "x2"), ("0", "1"))
        rng = np.random.default_rng(9)
        raw = rng.uniform(0.05, 0.95, size=(2, 3, 1))
        table = np.concatenate([1.0 - raw, raw], axis=2)
        ens = pl.ModelEnsemble(inst, [0.4, 0.6], table)
        induced = pl.induce_prior(ens, inst)
        marg = pl.label_marginals(induced, inst)
        for xi, x in enumerate(inst.examples):
            for yi, y in enumerate(inst.labels):
                assert marg[xi, yi] == pytest.approx(ens.label_prob(x, y), abs=1e-12)

    @pytest.mark.parametrize("x, y, bad", [("nope", "0", "nope"), ("x0", "7", "7")])
    def test_label_prob_names_an_unknown_name(self, square, x, y, bad):
        ens = pl.ModelEnsemble(square, [1.0], np.full((1, 2, 2), 0.5))
        kind = "example" if bad == x else "label"
        with pytest.raises(ValueError, match=f"^unknown {kind} '{bad}'$"):
            ens.label_prob(x, y)

    def test_ensemble_validation(self, square):
        with pytest.raises(ValueError, match="sum to 1"):
            pl.ModelEnsemble(square, [1.0], np.full((1, 2, 2), 0.4))

    def test_ensemble_rejects_non_finite(self, square):
        table = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError, match="finite"):
            pl.ModelEnsemble(square, [float("nan"), 1.0], table)
        table[0, 0, 0] = float("nan")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            pl.ModelEnsemble(square, [0.5, 0.5], table)

    def test_from_predictors(self, square):
        def predictor(x, y):
            p_one = 0.9 if x == "x0" else 0.2
            return p_one if y == "1" else 1.0 - p_one

        ens = pl.ModelEnsemble.from_predictors(square, [(1.0, predictor)])
        np.testing.assert_allclose(
            pl.induce_prior(ens, square).probs, [0.08, 0.72, 0.02, 0.18]
        )


class TestPerturb:
    def test_zero_radius_identity(self, square):
        p = pl.random_prior(square, rng=2)
        assert pl.perturb(p, 0.0, seed=0) is p

    def test_deterministic_in_seed(self, square):
        p = pl.random_prior(square, rng=2)
        a = pl.perturb(p, 0.5, seed=42)
        b = pl.perturb(p, 0.5, seed=42)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_radius_and_validity_sweep(self):
        inst = pl.random_instance(3, 8, 2, rng=0)
        p = pl.random_prior(inst, rng=1)
        for seed in range(1000):
            q = pl.perturb(p, 0.3, seed=seed)
            assert pl.l1_distance(p, q) <= 0.3
            assert float(q.probs.sum()) == pytest.approx(1.0, abs=1e-9)
            assert (q.probs >= 0).all()

    def test_radius_out_of_range(self, square):
        p = pl.uniform_prior(square)
        with pytest.raises(ValueError, match="radius"):
            pl.perturb(p, 2.5, seed=0)


class TestInstanceFile:
    def test_roundtrip(self, tmp_path, square):
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        path = tmp_path / "inst.csv"
        pl.save_instance(path, square, p)
        inst2, p2 = pl.load_instance(path)
        assert inst2.examples == square.examples
        assert inst2.labels == square.labels
        assert [h.labels for h in inst2.hypotheses] == [h.labels for h in square.hypotheses]
        np.testing.assert_allclose(p2.probs, p.probs, atol=1e-12)

    def test_bad_probability_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("examples,x0\nlabels,0,1\nh,a,oops,0\n")
        with pytest.raises(InstanceFormatError, match="line 3"):
            pl.load_instance(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_probability_reports_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"examples,x0\nlabels,0,1\nh,a,{bad},0\nh,b,1.0,1\n")
        with pytest.raises(InstanceFormatError, match="line 3: non-finite"):
            pl.load_instance(path)

    def test_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("examples,x0\nlabels,0,1\nh,a,0.5,0\nh,b,0.5\n")
        with pytest.raises(InstanceFormatError, match="line 4"):
            pl.load_instance(path)

    def test_sum_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("examples,x0\nlabels,0,1\nh,a,0.6,0\nh,b,0.6,1\n")
        with pytest.raises(InstanceFormatError, match="sum"):
            pl.load_instance(path)

    @pytest.mark.parametrize("n_x, n_h, n_y, seed", [(1, 2, 2, 0), (4, 30, 3, 1), (9, 200, 2, 2)])
    def test_reload_gives_the_same_text(self, tmp_path, n_x, n_h, n_y, seed):
        inst = pl.random_instance(n_x, n_h, n_y, rng=seed)
        p = pl.random_prior(inst, seed)
        path = tmp_path / "inst.csv"
        pl.save_instance(path, inst, p)
        inst2, p2 = pl.load_instance(path)
        assert instance_text(inst2, p2) == instance_text(inst, p)  # the saved prior, not an ulp off
        assert inst2.label_matrix.dtype == np.int16
        assert not inst2.label_matrix.flags.writeable

    def test_round_trip_keeps_every_bit(self, tmp_path):
        # a file that sums to 1 within NORM_TOL is read as written, not divided by its total
        path = tmp_path / "inst.csv"
        for seed in range(200):
            inst = pl.random_instance(5, 20, 2 + seed % 2, rng=seed)
            p = pl.random_prior(inst, seed)
            pl.save_instance(path, inst, p)
            inst2, p2 = pl.load_instance(path)
            assert p2.probs.tobytes() == p.probs.tobytes()
            assert instance_text(inst2, p2) == instance_text(inst, p)

    def test_files_off_by_more_than_norm_tol_are_renormalized(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("examples,x0\nlabels,0,1\nh,a,0.5000004,0\nh,b,0.5,1\n")
        _, p = pl.load_instance(path)
        np.testing.assert_array_equal(p.probs, np.array([0.5000004, 0.5]) / (0.5000004 + 0.5))

    def test_load_builds_no_hypothesis(self, tmp_path, monkeypatch):
        inst, components = grid_task(8, 2)
        path = tmp_path / "grid.csv"
        pl.save_instance(path, inst, components[0])
        built = []
        original = pl.Hypothesis.__post_init__
        monkeypatch.setattr(pl.Hypothesis, "__post_init__", lambda h: built.append(h) or original(h))
        inst2, _ = pl.load_instance(path)
        assert built == []
        np.testing.assert_array_equal(inst2.label_matrix, inst.label_matrix)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("h,a,0.5,0,1\nh,b,0.5,1,2\n", r"^hypothesis 'b' uses unknown label '2'$"),
            ("h,a,0.5,0,1\nh,a,0.5,1,0\n", r"^duplicate hypothesis id 'a'$"),
            ("h,a,0.2,0,1\nh,b,0.4,1,1\nh,c,0.4,0,1\n", r"^hypotheses 'a' and 'c' are the same labeling$"),
            ("h,a,0.5,0,z\nh,a,0.5,0,1\n", r"^hypothesis 'a' uses unknown label 'z'$"),
        ],
    )
    def test_instance_errors_from_a_file(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("examples,x0,x1\nlabels,0,1\n" + body)
        with pytest.raises(InstanceFormatError, match=message) as info:
            pl.load_instance(path)
        assert info.value.line_no is None


def test_labeled_set_rejects_repeats():
    with pytest.raises(ValueError, match="repeats"):
        pl.LabeledSet((("x0", "0"), ("x0", "1")))


def name_takers(inst):
    """Every public entry point that takes an example or label name, as call(x, y)."""
    p = pl.uniform_prior(inst)
    state = pl.initial_state(inst, [p])
    h = inst.hypotheses[0]
    tree = pl.PolicyTree(inst, pl.PolicyNode(inst.examples[0], (None,) * inst.n_labels))
    ens = pl.ModelEnsemble(inst, [1.0], np.full((1, inst.n_examples, inst.n_labels), 0.5))
    return {
        "posterior": lambda x, y: pl.posterior(p, inst, [(x, y)]),
        "label_seq_prob": lambda x, y: pl.label_seq_prob(p, inst, [x], [y]),
        "eval_utility": lambda x, y: pl.eval_utility(pl.VersionSpaceReduction(), p, inst, [x], h),
        "select": lambda x, y: pl.select("max_gibbs", p, inst, [x]),
        "select_batch_max_gibbs": lambda x, y: pl.select_batch_max_gibbs(p, inst, [x], 1),
        "run_policy": lambda x, y: pl.run_policy(tree, pl.Hypothesis("t", inst.examples,
                                                                     (y,) * inst.n_examples)),
        "mixture_observe": lambda x, y: pl.mixture_observe(state, x, y),
        "mixture_marginal": lambda x, y: pl.mixture_marginal(state, x, y),
        "map_approx_marginal": lambda x, y: pl.map_approx_marginal(state, 0, x, y),
        "mixture_predict": lambda x, y: pl.mixture_predict(state, x),
        "ModelEnsemble.label_prob": lambda x, y: ens.label_prob(x, y),
        "example_index": lambda x, y: inst.example_index[x],
        "label_index": lambda x, y: inst.label_index[y],
    }


BOTH = ("example", "label")
NAME_KINDS = {  # each of name_takers: the kinds of name it reads, and so can reject
    "posterior": BOTH, "label_seq_prob": BOTH, "eval_utility": ("example",),
    "select": ("example",), "select_batch_max_gibbs": ("example",), "run_policy": ("label",),
    "mixture_observe": BOTH, "mixture_marginal": BOTH, "map_approx_marginal": BOTH,
    "mixture_predict": ("example",), "ModelEnsemble.label_prob": BOTH,
    "example_index": ("example",), "label_index": ("label",),
}


@pytest.mark.parametrize("entry, kind", [(e, k) for e, kinds in NAME_KINDS.items() for k in kinds])
def test_every_name_taker_rejects_an_unknown_name(square, entry, kind):
    x, y = ("zz", "0") if kind == "example" else ("x0", "zz")
    with pytest.raises(ValueError, match=f"^unknown {kind} 'zz'$"):  # never KeyError
        name_takers(square)[entry](x, y)


def test_name_maps_answer_membership_without_raising(square):
    assert "zz" not in square.example_index and square.label_index.get("zz") is None
    assert dict(square.example_index) == {"x0": 0, "x1": 1}
    assert dict(square.label_index) == {"0": 0, "1": 1}


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=10))
@settings(max_examples=60, deadline=None)
def test_normalized_prior_from_weights(weights):
    arr = np.array(weights)
    p = pl.Prior(arr / arr.sum())
    assert float(p.probs.sum()) == pytest.approx(1.0, abs=1e-9)


def reference_full_space(examples, labels, ids=None):
    """One Hypothesis per labeling, first example varying fastest."""
    return [
        pl.Hypothesis(f"h{i}" if ids is None else ids[i], tuple(examples), combo[::-1])
        for i, combo in enumerate(itertools.product(labels, repeat=len(examples)))
    ]


def reference_random(n_examples, n_hypotheses, n_labels, seed):
    """The same draw as random_instance, decoded one labeling at a time."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(n_labels**n_examples, size=n_hypotheses, replace=False)
    examples = tuple(f"x{i}" for i in range(n_examples))
    hyps = []
    for k, code in enumerate(codes):
        row, c = [], int(code)
        for _ in range(n_examples):
            row.append(str(c % n_labels))
            c //= n_labels
        hyps.append(pl.Hypothesis(f"h{k}", examples, tuple(row)))
    return hyps


def assert_matches_reference(inst, hyps):
    assert inst.ids == tuple(h.id for h in hyps)
    assert inst.hypotheses == tuple(hyps)
    assert inst.label_matrix.dtype == np.int16
    expected = [[inst.labels.index(y) for y in h.labels] for h in hyps]
    np.testing.assert_array_equal(inst.label_matrix, np.array(expected).reshape(len(hyps), -1))
    again = pl.Instance(inst.examples, inst.labels, inst.hypotheses)
    np.testing.assert_array_equal(again.label_matrix, inst.label_matrix)
    assert again.ids == inst.ids


class TestMatrixInstance:
    @pytest.mark.parametrize(
        "n_x, n_h, n_y, seed",
        [(1, 2, 2, 0), (3, 5, 3, 1), (4, 16, 2, 2), (6, 40, 3, 3), (12, 300, 2, 4)],
    )
    def test_random_instance_matches_reference(self, n_x, n_h, n_y, seed):
        inst = pl.random_instance(n_x, n_h, n_y, rng=seed)
        assert_matches_reference(inst, reference_random(n_x, n_h, n_y, seed))

    @pytest.mark.parametrize("n_x, labels", [(1, ("0", "1")), (3, ("a", "b", "c")), (5, ("0", "1"))])
    @pytest.mark.parametrize("named", [False, True])
    def test_full_space_matches_reference(self, n_x, labels, named):
        examples = tuple(f"e{i}" for i in range(n_x))
        ids = [f"id{i}" for i in range(len(labels) ** n_x)] if named else None
        inst = pl.full_hypothesis_space(examples, labels, ids=ids)
        assert_matches_reference(inst, reference_full_space(examples, labels, ids))

    def test_hypotheses_built_on_first_use(self, square):
        assert "hypotheses" not in vars(square)
        assert square.hypothesis(2) == pl.Hypothesis("h3", ("x0", "x1"), ("0", "1"))
        assert square.hypotheses is square.hypotheses

    def test_duplicate_id_names_the_first_repeat(self):
        ex = ("x0", "x1")
        labelings = [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")]
        hyps = [pl.Hypothesis(i, ex, ls) for i, ls in zip("abba", labelings)]
        with pytest.raises(ValueError, match=r"^duplicate hypothesis id 'b'$"):
            pl.Instance(ex, ("0", "1"), hyps)

    def test_duplicate_labeling_names_the_original(self):
        ex = ("x0", "x1")
        labelings = [("0", "0"), ("1", "0"), ("0", "1"), ("1", "0"), ("0", "0")]
        hyps = [pl.Hypothesis(i, ex, ls) for i, ls in zip("abcde", labelings)]
        with pytest.raises(ValueError, match=r"^hypotheses 'b' and 'd' are the same labeling$"):
            pl.Instance(ex, ("0", "1"), hyps)

    def test_unknown_label(self):
        ex = ("x0", "x1")
        hyps = [pl.Hypothesis("a", ex, ("0", "1")), pl.Hypothesis("b", ex, ("1", "2"))]
        with pytest.raises(ValueError, match=r"^hypothesis 'b' uses unknown label '2'$"):
            pl.Instance(ex, ("0", "1"), hyps)

    def test_hypothesis_index(self, square, chain):
        reordered = pl.Hypothesis("q", ("x1", "x0"), ("1", "0"))  # x0 = 0, x1 = 1
        assert square.hypothesis_index(reordered) == 2
        with pytest.raises(ValueError, match=r"^hypothesis 'q' is not part of this instance$"):
            chain.hypothesis_index(reordered)
        foreign = pl.Hypothesis("z", ("x0", "x1"), ("0", "2"))
        with pytest.raises(ValueError, match=r"^hypothesis 'z' is not part of this instance$"):
            square.hypothesis_index(foreign)
        inst = pl.random_instance(5, 40, 3, rng=7)
        assert [inst.hypothesis_index(h) for h in inst.hypotheses] == list(range(40))

    def test_generators_build_no_hypothesis(self, monkeypatch):
        built = []
        original = pl.Hypothesis.__post_init__

        def counting(self):
            built.append(self.id)
            original(self)

        monkeypatch.setattr(pl.Hypothesis, "__post_init__", counting)
        inst, _ = grid_task.__wrapped__(16, 4)  # past the per-process cache
        pl.random_instance(12, 1000, rng=0)
        pl.full_hypothesis_space(("x0", "x1"), ("0", "1"))
        assert built == []
        inst.hypothesis(5)
        assert built == ["h5"]

    @pytest.mark.parametrize("n_x, n_y", [(63, 2), (40, 3)])
    def test_random_instance_rejects_undrawable_spaces(self, n_x, n_y):
        with pytest.raises(ValueError, match=r"must be smaller than 2\*\*63"):
            pl.random_instance(n_x, 5, n_y, rng=0)

    @pytest.mark.parametrize(
        "n_x, n_y, message",
        [(0, 2, "at least one example"), (-1, 2, "at least one example"),
         (3, 1, "at least two labels"), (2, 0, "at least two labels"), (0, 1, "at least one example")],
    )
    def test_random_instance_checks_the_pool_before_the_space(self, n_x, n_y, message):
        with pytest.raises(ValueError, match=f"^an instance needs {message}$"):
            pl.random_instance(n_x, 6, n_y, rng=0)

    def test_random_instance_at_the_largest_drawable_space(self):
        inst = pl.random_instance(62, 5, rng=0)
        assert_matches_reference(inst, reference_random(62, 5, 2, 0))
