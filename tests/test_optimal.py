import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal.optimal import (
    IdentificationError,
    SizeCapError,
    c_avg,
    f_avg,
    f_worst,
    opt_avg,
    opt_avg_batch,
    opt_avg_naive,
    opt_min_cost,
    opt_min_cost_naive,
    opt_worst,
    opt_worst_naive,
)
from poolal.policies import (
    CRITERIA,
    PolicyNode,
    PolicyTree,
    build_batch_policy,
    build_policy,
    run_policy,
)
from poolal.utilities import (
    GeneralizedReduction,
    PruningCount,
    VersionSpaceReduction,
    eval_utility,
    hamming_loss,
    zero_one_loss,
)


def single_query_tree(inst, example):
    return PolicyTree(inst, PolicyNode(example, (None,) * inst.n_labels))


@pytest.fixture
def pruning_priors():
    p_true = pl.Prior([0.5, 0.5, 0.0, 0.0])
    p_shifted = pl.Prior([0.4, 0.4, 0.1, 0.1])
    return p_true, p_shifted


class TestFAvg:
    def test_uniform_version_space_single_query(self, square):
        tree = single_query_tree(square, "x0")
        got = f_avg(pl.uniform_prior(square), VersionSpaceReduction(), tree)
        assert got == pytest.approx(0.5)

    def test_pruning_shifted_prior_on_x1(self, square, pruning_priors):
        _, p_shifted = pruning_priors
        got = f_avg(p_shifted, PruningCount(0.0), single_query_tree(square, "x1"))
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_pruning_true_prior_on_x0(self, square, pruning_priors):
        p_true, _ = pruning_priors
        got = f_avg(p_true, PruningCount(0.0), single_query_tree(square, "x0"))
        assert got == pytest.approx(1.0, abs=1e-9)


class TestFWorst:
    def test_uniform_version_space(self, square):
        tree = single_query_tree(square, "x0")
        got = f_worst(pl.uniform_prior(square), VersionSpaceReduction(), tree)
        assert got == pytest.approx(0.5)

    def test_pruning_values(self, square):
        mu = 0.01
        p_true = pl.Prior([0.5 - mu, 0.5 - mu, mu, mu])
        p_shifted = pl.Prior([0.5 - mu - 0.1, 0.5 - mu - 0.1, mu + 0.1, mu + 0.1])
        pi1 = single_query_tree(square, "x1")
        assert f_worst(p_shifted, PruningCount(mu), pi1) == pytest.approx(2.0, abs=1e-9)
        assert f_worst(p_true, PruningCount(mu), pi1) == pytest.approx(0.0, abs=1e-9)

    def test_min_covers_zero_mass_hypotheses(self, square):
        # a point mass still gets min'd over every labeling
        p = pl.point_mass(square, 0)
        tree = single_query_tree(square, "x0")
        vals = [
            pl.eval_utility(VersionSpaceReduction(), p, square, ("x0",), h)
            for h in square.hypotheses
        ]
        assert f_worst(p, VersionSpaceReduction(), tree) == pytest.approx(min(vals))


class TestCAvg:
    def test_uniform_full_tree(self, square):
        tree = build_policy("gbs", pl.uniform_prior(square), square, 2, stop_when_identified=True)
        assert c_avg(pl.uniform_prior(square), tree) == pytest.approx(2.0)

    def test_point_mass_weights_single_path(self, square):
        tree = build_policy("gbs", pl.uniform_prior(square), square, 2, stop_when_identified=True)
        assert c_avg(pl.point_mass(square, 0), tree) == pytest.approx(2.0)

    def test_chain_optimal_cost(self, chain):
        p = pl.Prior([0.5, 0.25, 0.25])
        tree = build_policy("gbs", p, chain, 2, stop_when_identified=True)
        assert c_avg(p, tree) == pytest.approx(1.5)

    def test_non_identifying_policy_names_pair(self, square):
        tree = single_query_tree(square, "x0")  # h1 and h3 agree on x0
        with pytest.raises(IdentificationError, match="h1.*h3"):
            c_avg(pl.uniform_prior(square), tree)


class TestOptAvg:
    def test_budget_one_uniform(self, square):
        r = opt_avg(pl.uniform_prior(square), VersionSpaceReduction(), square, 1)
        assert r.value == pytest.approx(0.5)

    def test_full_budget_equals_gibbs_error_of_prior(self, random_cases):
        u = VersionSpaceReduction()
        for inst, p in random_cases(10, seed=31, max_examples=3):
            r = opt_avg(p, u, inst, inst.n_examples, budget_cap=4)
            assert r.value == pytest.approx(1.0 - float((p.probs**2).sum()), abs=1e-9)

    def test_pruning_tie_breaks_to_x0(self, square, pruning_priors):
        _, p_shifted = pruning_priors
        r = opt_avg(p_shifted, PruningCount(0.0), square, 1)
        assert r.value == pytest.approx(2.0, abs=1e-9)
        assert r.policy.root.example == "x0"  # both queries tie at 2

    def test_value_matches_policy_score(self, random_cases):
        u = VersionSpaceReduction()
        for inst, p in random_cases(10, seed=32):
            b = min(2, inst.n_examples)
            r = opt_avg(p, u, inst, b)
            assert f_avg(p, u, r.policy) == pytest.approx(r.value, abs=1e-9)

    def test_caps_enforced(self):
        inst = pl.random_instance(4, 8, 2, rng=0)
        p = pl.uniform_prior(inst)
        with pytest.raises(SizeCapError, match="hypotheses"):
            opt_avg(p, VersionSpaceReduction(), inst, 2, hypothesis_cap=4)
        with pytest.raises(SizeCapError, match="budget"):
            opt_avg(p, VersionSpaceReduction(), inst, 4, budget_cap=3)


class TestOptWorst:
    def test_budget_one_uniform(self, square):
        r = opt_worst(pl.uniform_prior(square), VersionSpaceReduction(), square, 1)
        assert r.value == pytest.approx(0.5)

    def test_pruning_true_prior_prefers_x0(self, square):
        mu = 0.01
        p_true = pl.Prior([0.5 - mu, 0.5 - mu, mu, mu])
        r = opt_worst(p_true, PruningCount(mu), square, 1)
        assert r.value == pytest.approx(1.0, abs=1e-9)
        assert r.policy.root.example == "x0"

    def test_value_matches_policy_score(self, random_cases):
        u = VersionSpaceReduction()
        for inst, p in random_cases(10, seed=33):
            b = min(2, inst.n_examples)
            r = opt_worst(p, u, inst, b)
            assert f_worst(p, u, r.policy) == pytest.approx(r.value, abs=1e-9)

    def test_single_support_prior_agrees_with_naive(self, square):
        p = pl.point_mass(square, 2)
        u = VersionSpaceReduction()
        r = opt_worst(p, u, square, 1)
        assert r.value == pytest.approx(opt_worst_naive(p, u, square, 1), abs=1e-12)


class TestOptMinCost:
    def test_uniform_square_needs_two(self, square):
        r = opt_min_cost(pl.uniform_prior(square), square)
        assert r.value == pytest.approx(2.0)

    def test_point_mass_costs_nothing(self, square):
        r = opt_min_cost(pl.point_mass(square, 1), square)
        assert r.value == 0.0
        assert r.policy.root is None

    def test_chain(self, chain):
        r = opt_min_cost(pl.Prior([0.5, 0.25, 0.25]), chain)
        assert r.value == pytest.approx(1.5)
        assert r.policy.root.example == "x0"

    def test_value_matches_policy_score(self, random_cases):
        for inst, p in random_cases(10, seed=34):
            r = opt_min_cost(p, inst)
            assert c_avg(p, r.policy) == pytest.approx(r.value, abs=1e-9)


class TestOracleDominance:
    def test_greedy_never_beats_oracle(self, random_cases):
        u = VersionSpaceReduction()
        for inst, p in random_cases(30, seed=35):
            b = min(2, inst.n_examples)
            tree = build_policy("max_gibbs", p, inst, b)
            assert f_avg(p, u, tree) <= opt_avg(p, u, inst, b).value + 1e-9
            tree = build_policy("least_confidence", p, inst, b)
            assert f_worst(p, u, tree) <= opt_worst(p, u, inst, b).value + 1e-9
            tree = build_policy("gbs", p, inst, inst.n_examples, stop_when_identified=True)
            assert c_avg(p, tree) >= opt_min_cost(p, inst).value - 1e-9

    def test_approximation_ratios_hold(self, random_cases):
        u = VersionSpaceReduction()
        alpha = 1.0 - 1.0 / math.e
        for inst, p in random_cases(40, seed=36):
            b = min(2, inst.n_examples)
            tree = build_policy("max_gibbs", p, inst, b)
            assert f_avg(p, u, tree) >= alpha * opt_avg(p, u, inst, b).value - 1e-9
            tree = build_policy("least_confidence", p, inst, b)
            assert f_worst(p, u, tree) >= alpha * opt_worst(p, u, inst, b).value - 1e-9
            tree = build_policy("gbs", p, inst, inst.n_examples, stop_when_identified=True)
            assert c_avg(p, tree) <= pl.gbs_alpha(p) * opt_min_cost(p, inst).value + 1e-9


class TestNaiveAgreement:
    def test_memoized_matches_enumeration(self, square, chain, random_cases):
        u = VersionSpaceReduction()
        cases = [(square, pl.uniform_prior(square)), (chain, pl.Prior([0.5, 0.25, 0.25]))]
        cases += random_cases(10, seed=37, max_examples=3)
        for inst, p in cases:
            b = min(2, inst.n_examples)
            assert opt_avg(p, u, inst, b).value == pytest.approx(
                opt_avg_naive(p, u, inst, b), abs=1e-12
            )
            assert opt_worst(p, u, inst, b).value == pytest.approx(
                opt_worst_naive(p, u, inst, b), abs=1e-12
            )
            assert opt_min_cost(p, inst).value == pytest.approx(
                opt_min_cost_naive(p, inst), abs=1e-12
            )


class TestBatchOracle:
    def test_batch_greedy_never_beats_batch_oracle(self, random_cases):
        u = VersionSpaceReduction()
        for inst, p in random_cases(10, seed=38, max_examples=4):
            if inst.n_examples < 4:
                continue
            tree = build_batch_policy(p, inst, n_rounds=1, batch_size=2)
            r = opt_avg_batch(p, u, inst, n_rounds=1, batch_size=2)
            assert f_avg(p, u, tree) <= r.value + 1e-9

    def test_batch_oracle_below_adaptive_oracle(self, square):
        u = VersionSpaceReduction()
        p = pl.random_prior(square, rng=8)
        batch = opt_avg_batch(p, u, square, n_rounds=1, batch_size=2)
        adaptive = opt_avg(p, u, square, 2)
        assert batch.value <= adaptive.value + 1e-12


@pytest.mark.parametrize("seed, shape, explored", [
    (0, (4, 10, 2), (60, 33, 46, 35)),
    (1, (5, 14, 2), (124, 51, 92, 96)),
    (2, (4, 16, 3), (110, 58, 62, 62)),
    (3, (6, 12, 2), (210, 73, 95, 202)),
])
def test_nodes_explored_is_the_number_of_distinct_states_searched(seed, shape, explored):
    # opt_avg at budget 3, opt_worst at 2 under the 0-1 loss, opt_min_cost, and opt_avg_batch at
    # 2 rounds of 2: each counts a search state once, however often the search reaches it
    rng = np.random.default_rng([seed, 61])
    inst = pl.random_instance(*shape, rng=rng)
    p = pl.random_prior(inst, rng)
    got = (
        opt_avg(p, VersionSpaceReduction(), inst, 3),
        opt_worst(p, GeneralizedReduction(zero_one_loss(inst)), inst, 2),
        opt_min_cost(p, inst),
        opt_avg_batch(p, VersionSpaceReduction(), inst, 2, 2),
    )
    assert tuple(r.nodes_explored for r in got) == explored


def test_opt_result_serialization(square):
    r = opt_min_cost(pl.uniform_prior(square), square)
    text = r.to_text()
    assert text.splitlines()[0] == "value=2.0"
    assert text.splitlines()[1] == "0,x0,"


# ---------------------------------------------------------------------------
# Differential tests: the tree-walk evaluators against a per-hypothesis
# replay of every path, compared with ==.


def ref_f_avg(p, u, tree):
    inst = tree.instance
    total = 0.0
    for h, prob in zip(inst.hypotheses, p.probs):
        queried, _, _ = run_policy(tree, h)
        total += float(prob) * eval_utility(u, p, inst, queried, h)
    return total


def ref_f_worst(p, u, tree):
    inst = tree.instance
    return min(eval_utility(u, p, inst, run_policy(tree, h)[0], h) for h in inst.hypotheses)


def ref_c_avg(p, tree):
    inst = tree.instance
    support = set(int(i) for i in p.support)
    total = 0.0
    for hi in sorted(support):
        h = inst.hypotheses[hi]
        queried, _, cost = run_policy(tree, h)
        q_idx = [inst.example_index[x] for x in queried]
        for other in sorted(support - {hi}):
            if all(inst.label_matrix[other, xi] == inst.label_matrix[hi, xi] for xi in q_idx):
                raise IdentificationError(
                    f"policy does not separate {h.id!r} from {inst.hypotheses[other].id!r}"
                )
        total += float(p.probs[hi]) * cost
    return total


def ref_oracle_value(p, u, tree, worst_case):
    """Re-add an oracle's tree the way its search does, each leaf member by member."""
    inst = tree.instance

    def value(node, V, queried):
        if node is None:
            vals = [eval_utility(u, p, inst, queried, inst.hypotheses[hi]) for hi in V]
            if worst_case:
                return min(vals)
            return sum(float(p.probs[hi]) * v for hi, v in zip(V, vals))
        xi = inst.example_index[node.example]
        acc = math.inf if worst_case else 0.0
        for yi, child in enumerate(node.children):
            Vy = [hi for hi in V if inst.label_matrix[hi, xi] == yi]
            if Vy:
                val = value(child, Vy, queried + (node.example,))
                acc = min(acc, val) if worst_case else acc + val
        return acc

    return value(tree.root, list(range(inst.n_hypotheses)), ())


def random_tree(inst, rng, max_depth=4):
    """Arbitrary tree: any example at any node (repeats allowed), random early leaves."""

    def grow(depth):
        if depth == max_depth or rng.random() < 0.3:
            return None
        x = inst.examples[int(rng.integers(inst.n_examples))]
        return PolicyNode(x, tuple(grow(depth + 1) for _ in range(inst.n_labels)))

    return PolicyTree(inst, grow(0))


def sparse_prior(inst, rng):
    """Random prior with a random set of zero-mass hypotheses."""
    w = rng.dirichlet(np.ones(inst.n_hypotheses))
    w[rng.random(inst.n_hypotheses) < 0.3] = 0.0
    if not w.any():
        w[int(rng.integers(inst.n_hypotheses))] = 1.0
    return pl.Prior(w / w.sum())


def all_utilities(inst, p):
    return (
        VersionSpaceReduction(),
        GeneralizedReduction(zero_one_loss(inst)),
        GeneralizedReduction(hamming_loss(inst)),
        PruningCount(0.0),
        PruningCount(float(np.median(p.probs))),
    )


def all_trees(inst, p, rng):
    b = min(3, inst.n_examples)
    trees = [build_policy(c, p, inst, b) for c in CRITERIA]
    trees.append(build_policy("gbs", p, inst, inst.n_examples, stop_when_identified=True))
    if inst.n_examples >= 2:
        trees.append(build_batch_policy(p, inst, 1, 2))
    trees += [random_tree(inst, rng) for _ in range(3)]
    trees.append(PolicyTree(inst, None))
    return trees


def assert_evaluators_match(inst, p, rng):
    for tree in all_trees(inst, p, rng):
        for u in all_utilities(inst, p):
            assert f_avg(p, u, tree) == ref_f_avg(p, u, tree)
            assert f_worst(p, u, tree) == ref_f_worst(p, u, tree)
        try:
            expected = ref_c_avg(p, tree)
        except IdentificationError as exc:
            with pytest.raises(IdentificationError) as got:
                c_avg(p, tree)
            assert str(got.value) == str(exc)
        else:
            assert c_avg(p, tree) == expected


def random_case(rng):
    n_labels = int(rng.integers(2, 4))
    n_x = int(rng.integers(1, 5))
    n_h = int(rng.integers(1, min(16, n_labels**n_x) + 1))
    inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
    prior = pl.random_prior(inst, rng) if rng.random() < 0.5 else sparse_prior(inst, rng)
    return inst, prior


class TestEvaluatorsMatchReplay:
    def test_seeded_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(15):
            inst, p = random_case(rng)
            assert_evaluators_match(inst, p, rng)

    def test_fixtures(self, square, chain):
        rng = np.random.default_rng(5)
        for inst in (square, chain):
            for p in (pl.uniform_prior(inst), pl.point_mass(inst, 1), sparse_prior(inst, rng)):
                assert_evaluators_match(inst, p, rng)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_generated_cases(self, seed):
        rng = np.random.default_rng(seed)
        inst, p = random_case(rng)
        assert_evaluators_match(inst, p, rng)

    def test_unresolved_pair_is_smallest_shared_leaf(self, square):
        # h2 and h4 share a leaf, as do h1 and h3; the pair named starts at h1
        tree = single_query_tree(square, "x0")
        p = pl.Prior([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(IdentificationError, match="'h1' from 'h3'"):
            c_avg(p, tree)
        p = pl.Prior([0.0, 0.5, 0.0, 0.5])
        with pytest.raises(IdentificationError, match="'h2' from 'h4'"):
            c_avg(p, tree)

    def test_unknown_example_in_tree(self, square):
        tree = single_query_tree(square, "zz")
        with pytest.raises(ValueError, match="unknown example 'zz'"):
            f_avg(pl.uniform_prior(square), VersionSpaceReduction(), tree)


class TestOracleLeavesMatchReplay:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_oracle_values(self, seed):
        rng = np.random.default_rng(seed)
        inst, p = random_case(rng)
        b = min(2, inst.n_examples)
        for u in all_utilities(inst, p):
            r = opt_avg(p, u, inst, b)
            assert r.value == ref_oracle_value(p, u, r.policy, worst_case=False)
            r = opt_worst(p, u, inst, b)
            assert r.value == ref_oracle_value(p, u, r.policy, worst_case=True)
            if inst.n_examples >= 2:
                r = opt_avg_batch(p, u, inst, n_rounds=1, batch_size=2)
                assert r.value == ref_oracle_value(p, u, r.policy, worst_case=False)


class TestNoCyclicGarbage:
    """The exact oracles free their memo and closures by reference counting alone."""

    @staticmethod
    def cyclic_garbage(call):
        gc.collect()
        gc.disable()
        try:
            call()
            return gc.collect()
        finally:
            gc.enable()

    def test_oracles(self):
        rng = np.random.default_rng(0)
        inst = pl.random_instance(4, 8, 2, rng=rng)
        p, u = pl.random_prior(inst, rng), VersionSpaceReduction()
        for call in (
            lambda: opt_avg(p, u, inst, 2),
            lambda: opt_worst(p, u, inst, 2),
            lambda: opt_min_cost(p, inst),
            lambda: opt_avg_batch(p, u, inst, 2, 2),
        ):
            assert self.cyclic_garbage(call) == 0

    def test_verify_unit(self, tmp_path):
        from poolal import cli

        argv = ["verify", "--trials", "1", "--seed", "3", "--out", str(tmp_path / "v.csv")]
        assert self.cyclic_garbage(lambda: cli.main(argv)) == 0
