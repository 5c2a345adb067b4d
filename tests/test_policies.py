import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal import policies
from poolal.policies import (
    PolicyNode,
    PolicyTree,
    _select_batch_index,
    _worst_gen_gibbs_gains,
    build_policy,
    greedy_transcript,
    policy_to_text,
    run_policy,
    select,
    select_batch_max_gibbs,
    select_from_marginals,
)


class TestDefaultLoss:
    @pytest.mark.parametrize("criterion, builds", [("worst_gen_gibbs", 1), ("max_gibbs", 0)])
    def test_default_loss_built_once_per_call(self, monkeypatch, criterion, builds):
        inst = pl.random_instance(6, 40, 2, rng=8)
        p = pl.random_prior(inst, 9)
        calls = []
        real = pl.policies.zero_one_loss
        monkeypatch.setattr(pl.policies, "zero_one_loss", lambda i: calls.append(1) or real(i))
        tree = build_policy(criterion, p, inst, 3)
        assert len(calls) == builds
        greedy_transcript(criterion, p, inst, 3, inst.hypotheses[0])
        assert len(calls) == 2 * builds
        monkeypatch.undo()
        explicit = real(inst) if builds else None
        assert policy_to_text(tree) == policy_to_text(build_policy(criterion, p, inst, 3, loss=explicit))


class TestCheckedBeforeGrowing:
    """Inputs a tree cannot use are named before any node is grown."""

    @pytest.mark.parametrize("entry", ["select", "build_policy", "greedy_transcript"])
    def test_loss_of_another_instance_is_named(self, entry):
        inst = pl.random_instance(4, 8, 2, rng=3)
        p = pl.random_prior(inst, 4)
        loss = pl.zero_one_loss(pl.random_instance(4, 6, 2, rng=5))
        call = {
            "select": lambda: select("worst_gen_gibbs", p, inst, inst.examples, loss),
            "build_policy": lambda: build_policy("worst_gen_gibbs", p, inst, 2, loss),
            "greedy_transcript": lambda: greedy_transcript(
                "worst_gen_gibbs", p, inst, 2, inst.hypotheses[0], loss
            ),
        }[entry]
        with pytest.raises(ValueError, match="^loss matrix does not match the instance$"):
            call()

    def test_unknown_criterion_rejected_even_with_nothing_to_grow(self, square):
        identified = pl.Prior([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="budget"):
            build_policy("bogus", identified, square, 0)
        with pytest.raises(ValueError, match="unknown criterion 'bogus'"):
            build_policy("bogus", identified, square, 2, stop_when_identified=True)


class TestSelect:
    def test_max_gibbs_prefers_even_split(self, square):
        # Gibbs error 0.48 at x0 vs 0.42 at x1
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        assert select("max_gibbs", p, square, square.examples) == "x0"

    def test_least_confidence(self, square):
        # max-label prob 0.6 at x0 < 0.7 at x1
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        assert select("least_confidence", p, square, square.examples) == "x0"

    @pytest.mark.parametrize(
        "criterion", ["max_gibbs", "least_confidence", "max_entropy", "gbs", "worst_gen_gibbs"]
    )
    def test_uniform_breaks_ties_to_lowest_index(self, square, criterion):
        assert select(criterion, pl.uniform_prior(square), square, square.examples) == "x0"

    def test_empty_available_rejected(self, square):
        with pytest.raises(ValueError, match="available"):
            select("max_gibbs", pl.uniform_prior(square), square, ())

    def test_non_finite_marginals_rejected(self):
        marginals = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="scored no candidate"):
            select_from_marginals("max_gibbs", marginals, [0, 1])

    @pytest.mark.parametrize("candidates", [[0, 7], [7], [5, 3]])
    def test_candidate_past_the_pool_rejected(self, candidates):
        with pytest.raises(IndexError):
            select_from_marginals("max_gibbs", np.full((3, 2), 0.5), candidates)

    def test_unknown_criterion(self, square):
        with pytest.raises(ValueError, match="criterion"):
            select("bogus", pl.uniform_prior(square), square, square.examples)

    def test_max_gibbs_matches_gbs_on_unique_optimum(self):
        # binary noiseless: both pick the most even split
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 50:
            inst = pl.random_instance(4, 8, 2, rng=rng)
            p = pl.uniform_prior(inst)
            marg = pl.label_marginals(p, inst)
            gaps = sorted(abs(marg[xi, 1] - marg[xi, 0]) for xi in range(4))
            if gaps[1] - gaps[0] < 1e-9:
                continue  # tied optimum, tie-breaks may differ
            assert select("max_gibbs", p, inst, inst.examples) == select(
                "gbs", p, inst, inst.examples
            )
            checked += 1


class TestSelectBatch:
    def test_batch_of_one_reduces_to_select(self, square):
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        assert select_batch_max_gibbs(p, square, square.examples, 1) == (
            select("max_gibbs", p, square, square.examples),
        )

    def test_full_batch_returns_everything(self, square):
        p = pl.random_prior(square, rng=1)
        batch = select_batch_max_gibbs(p, square, square.examples, 2)
        assert sorted(batch) == ["x0", "x1"]

    def test_uniform_three_pool_joint_error(self):
        inst = pl.full_hypothesis_space(("x0", "x1", "x2"), ("0", "1"))
        p = pl.uniform_prior(inst)
        batch = select_batch_max_gibbs(p, inst, inst.examples, 2)
        assert batch == ("x0", "x1")  # all pairs tie at 0.75, lowest indices win
        # oracle: every pair's joint Gibbs error by enumeration
        for pair in itertools.combinations(range(3), 2):
            mass = {}
            for hi, h in enumerate(inst.hypotheses):
                key = tuple(h.labels[xi] for xi in pair)
                mass[key] = mass.get(key, 0.0) + float(p.probs[hi])
            assert 1.0 - sum(v**2 for v in mass.values()) == pytest.approx(0.75)

    def test_batch_size_out_of_range(self, square):
        with pytest.raises(ValueError, match="batch size"):
            select_batch_max_gibbs(pl.uniform_prior(square), square, square.examples, 3)

    def test_unknown_example_rejected(self, square):
        with pytest.raises(ValueError, match="unknown example 'zz'"):
            select_batch_max_gibbs(pl.uniform_prior(square), square, ["zz"], 1)


class TestBuildPolicy:
    def test_budget_one_single_node(self, square):
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        tree = build_policy("max_gibbs", p, square, 1)
        assert tree.root.example == "x0"
        assert tree.root.children == (None, None)

    def test_budget_two_queries_both(self, square):
        tree = build_policy("max_gibbs", pl.uniform_prior(square), square, 2)
        assert tree.root.example == "x0"
        assert all(child.example == "x1" for child in tree.root.children)

    def test_budget_out_of_range(self, square):
        with pytest.raises(ValueError, match="budget"):
            build_policy("max_gibbs", pl.uniform_prior(square), square, 0)
        with pytest.raises(ValueError, match="budget"):
            build_policy("max_gibbs", pl.uniform_prior(square), square, 3)

    def test_identification_stops_early(self, chain):
        # one hypothesis is pinned down after a single query
        p = pl.uniform_prior(chain)
        tree = build_policy("gbs", p, chain, 2, stop_when_identified=True)
        costs = sorted(run_policy(tree, h)[2] for h in chain.hypotheses)
        assert costs == [1, 2, 2]

    def test_determinism(self, square):
        p = pl.random_prior(square, rng=9)
        a = build_policy("least_confidence", p, square, 2)
        b = build_policy("least_confidence", p, square, 2)
        assert policy_to_text(a) == policy_to_text(b)

    def test_unreachable_branches_are_leaves(self, chain):
        # the chain has no hypothesis labeling x0=0, x1=1
        tree = build_policy("max_gibbs", pl.uniform_prior(chain), chain, 2)
        assert tree.root.example == "x0"
        zero_branch = tree.root.children[chain.label_index["0"]]
        assert zero_branch.children[chain.label_index["1"]] is None

    def test_paths_respect_budget_and_distinctness(self, random_cases):
        for inst, p in random_cases(20, seed=4):
            budget = min(2, inst.n_examples)
            tree = build_policy("max_gibbs", p, inst, budget)
            for h in inst.hypotheses:
                queried, _, cost = run_policy(tree, h)
                assert cost <= budget
                assert len(set(queried)) == len(queried)

    def test_criterion_consistency_along_tree(self, random_cases):
        # re-evaluating the criterion at any node reproduces its example
        for inst, p in random_cases(10, seed=12):
            budget = min(2, inst.n_examples)
            tree = build_policy("max_gibbs", p, inst, budget)

            def walk(node, q, consistent, avail):
                if node is None:
                    return
                assert (
                    select("max_gibbs", q, inst, [inst.examples[i] for i in avail])
                    == node.example
                )
                xi = inst.example_index[node.example]
                rest = avail - {xi}
                for yi, child in enumerate(node.children):
                    if child is None:
                        continue
                    mask = inst.label_matrix[:, xi] == yi
                    on_branch = consistent & mask
                    mass = float(q.probs[mask].sum())
                    if mass > 0:
                        q2 = pl.Prior(np.where(mask, q.probs, 0.0) / mass)
                    else:
                        fallback = np.where(on_branch, 1.0, 0.0)
                        q2 = pl.Prior(fallback / fallback.sum())
                    walk(child, q2, on_branch, rest)

            walk(
                tree.root,
                p,
                np.ones(inst.n_hypotheses, dtype=bool),
                set(range(inst.n_examples)),
            )


class TestRunPolicy:
    def test_single_query_path(self, square):
        tree = PolicyTree(square, PolicyNode("x0", (None, None)))
        queried, labels, cost = run_policy(tree, square.hypotheses[1])  # h2 = (1, 0)
        assert (queried, labels, cost) == (("x0",), ("1",), 1)

    def test_empty_tree_costs_nothing(self, square):
        tree = PolicyTree(square, None)
        assert run_policy(tree, square.hypotheses[0]) == ((), (), 0)

    def test_identification_needs_both_examples(self, square):
        p = pl.uniform_prior(square)
        tree = build_policy("gbs", p, square, 2, stop_when_identified=True)
        for h in square.hypotheses:
            assert run_policy(tree, h)[2] == 2


class TestGreedyTranscript:
    def test_matches_materialized_tree(self, random_cases):
        for inst, p in random_cases(15, seed=21):
            budget = min(2, inst.n_examples)
            tree = build_policy("max_gibbs", p, inst, budget)
            for h in inst.hypotheses:
                queried, labels, _ = run_policy(tree, h)
                t = greedy_transcript("max_gibbs", p, inst, budget, h)
                assert t.pairs == tuple(zip(queried, labels))

    def test_final_posterior_consistent(self, square):
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        t = greedy_transcript("max_gibbs", p, square, 2, square.hypotheses[0])
        np.testing.assert_allclose(
            t.final_posterior.probs, pl.posterior(p, square, t.pairs).probs
        )

    @pytest.mark.parametrize("budget", [0, 3])
    def test_truth_missing_a_label_is_named_before_the_first_pick(self, budget):
        inst = pl.random_instance(3, 5, 2, rng=0)
        truth = pl.Hypothesis("t", ("x0", "x1"), ("0", "1"))
        with pytest.raises(ValueError, match=r"^hypothesis 't' misses labels for \['x2'\]$"):
            greedy_transcript("max_gibbs", pl.uniform_prior(inst), inst, budget, truth)


def test_policy_text_golden(square):
    tree = build_policy("max_gibbs", pl.uniform_prior(square), square, 2)
    assert policy_to_text(tree) == "0,x0,\n1,x1,0\n1,x1,1\n"
    assert policy_to_text(PolicyTree(square, None)) == ""


# ---------------------------------------------------------------------------
# Golden trees: sha256 of policy_to_text (first 16 hex digits) for seeded
# instances larger than ``square``, so any change to a built tree shows here.


def _golden_instance(name):
    n_x, n_h, n_y, seed, zero_mass = {
        "binary": (6, 24, 2, 11, False),
        "ternary": (5, 30, 3, 12, False),
        "zero_mass": (6, 20, 2, 13, True),
    }[name]
    rng = np.random.default_rng(seed)
    inst = pl.random_instance(n_x, n_h, n_y, rng=rng)
    probs = pl.random_prior(inst, rng).probs.copy()
    if zero_mass:
        probs[np.arange(n_h) % 3 != 0] = 0.0
        probs /= probs.sum()
    return inst, pl.Prior(probs)


def _golden_tree(case):
    name, kind = case.split("/")
    inst, p = _golden_instance(name)
    if kind in pl.CRITERIA:
        return build_policy(kind, p, inst, 3)
    if kind == "identify":
        return build_policy("gbs", p, inst, inst.n_examples, stop_when_identified=True)
    n_rounds, batch_size = {"batch2x2": (2, 2), "batch1x3": (1, 3)}[kind]
    return pl.build_batch_policy(p, inst, n_rounds, batch_size)


GOLDEN_TREE_DIGESTS = {
    "binary/max_gibbs": "3b3ced61696efab2",
    "binary/least_confidence": "3b3ced61696efab2",
    "binary/max_entropy": "3b3ced61696efab2",
    "binary/gbs": "3b3ced61696efab2",
    "binary/worst_gen_gibbs": "753466f33aae137d",
    "binary/identify": "336dc1340fe3483f",
    "binary/batch2x2": "7a68b51fc268a620",
    "binary/batch1x3": "279b296485770e3c",
    "ternary/max_gibbs": "224e5ebf85d9786d",
    "ternary/least_confidence": "224e5ebf85d9786d",
    "ternary/max_entropy": "f35fbc3e1dbc43d5",
    "ternary/gbs": "224e5ebf85d9786d",
    "ternary/worst_gen_gibbs": "b283fbe9e4870586",
    "ternary/identify": "301316c8d67954b1",
    "ternary/batch2x2": "3c1f39e80b821182",
    "ternary/batch1x3": "795d138feddf4e42",
    "zero_mass/max_gibbs": "7d7d21a9cf2e81e6",
    "zero_mass/least_confidence": "7d7d21a9cf2e81e6",
    "zero_mass/max_entropy": "7d7d21a9cf2e81e6",
    "zero_mass/gbs": "7d7d21a9cf2e81e6",
    "zero_mass/worst_gen_gibbs": "82fd4538ac5a582d",
    "zero_mass/identify": "5775fb3551b216c9",
    "zero_mass/batch2x2": "13597091e7e9d6c5",
    "zero_mass/batch1x3": "7d7d21a9cf2e81e6",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TREE_DIGESTS))
def test_policy_tree_golden_digest(case):
    text = policy_to_text(_golden_tree(case))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == GOLDEN_TREE_DIGESTS[case]


# ---------------------------------------------------------------------------
# The selection kernels against the formulas they replaced: a lexicographic
# row sort for the joint Gibbs error, one q_in @ L @ q_in per branch for the
# worst-case generalized gain.


def ref_joint_gibbs_error(p, inst, batch_idx):
    rows = inst.label_matrix[:, tuple(batch_idx)]
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    masses = np.bincount(inverse, weights=p.probs)
    return 1.0 - float((masses**2).sum())


def ref_worst_gen_gibbs_gains(p, inst, candidates, loss):
    L, q = loss.values, p.probs
    total = float(q @ L @ q)
    gains = []
    for xi in candidates:
        worst = math.inf
        for yi in range(inst.n_labels):
            consistent = inst.label_matrix[:, xi] == yi
            if float(q[consistent].sum()) <= 0.0:
                continue
            q_in = np.where(consistent, q, 0.0)
            worst = min(worst, total - float(q_in @ L @ q_in))
        gains.append(worst)
    return gains


def kernel_case(rng, max_examples=6, max_hypotheses=40):
    """2 or 3 labels; a uniform, a random or a random prior with zero-mass hypotheses."""
    n_y = int(rng.integers(2, 4))
    n_x = int(rng.integers(1, max_examples + 1))
    n_h = min(int(rng.integers(2, max_hypotheses + 1)), n_y**n_x)
    inst = pl.random_instance(n_x, n_h, n_y, rng=rng)
    kind = int(rng.integers(3))
    if kind == 0:
        return inst, pl.uniform_prior(inst)
    probs = pl.random_prior(inst, rng).probs.copy()
    if kind == 2:
        probs[rng.permutation(n_h)[: n_h // 2]] = 0.0
        probs /= probs.sum()
    return inst, pl.Prior(probs)


def assert_batch_scores_match(p, inst, candidates, batch_size):
    """Every candidate's score at every step of ``_select_batch_index`` is bitwise the joint
    Gibbs error of the batch so far plus that candidate, its members in selection order."""
    steps = []
    real = policies._joint_gibbs_scores

    def spy(q, inst_, codes, n_codes, remaining):
        out = real(q, inst_, codes, n_codes, remaining)
        steps.append(list(zip(remaining.tolist(), out[0].tolist())))
        return out

    with mock.patch.object(policies, "_joint_gibbs_scores", spy):
        batch = _select_batch_index(p, inst, candidates, batch_size)
    assert len(steps) == batch_size
    for k, step in enumerate(steps):
        assert [c for c, _ in step] == [c for c in candidates if c not in batch[:k]]
        for c, score in step:
            assert score == ref_joint_gibbs_error(p, inst, list(batch[:k]) + [c])
        assert batch[k] == max(step, key=lambda cs: cs[1])[0]  # the first of the best


def assert_kernels_match(inst, p, rng):
    for k in range(1, min(3, inst.n_examples) + 1):
        rng.permutation(inst.n_examples)  # the draw the batch used to take keeps the cases below
        assert_batch_scores_match(p, inst, list(range(inst.n_examples)), k)
    n_cand = int(rng.integers(1, inst.n_examples + 1))
    candidates = sorted(int(i) for i in rng.permutation(inst.n_examples)[:n_cand])
    for loss in (pl.zero_one_loss(inst), pl.hamming_loss(inst)):
        ref = ref_worst_gen_gibbs_gains(p, inst, candidates, loss)
        got = _worst_gen_gibbs_gains(p, inst, candidates, loss)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
        top = sorted(ref)
        if len(top) == 1 or top[-1] - top[-2] > 1e-12:
            picked = select("worst_gen_gibbs", p, inst, [inst.examples[i] for i in candidates], loss)
            assert picked == inst.examples[candidates[int(np.argmax(ref))]]


class TestSelectionKernelsMatchReference:
    def test_seeded_cases(self):
        rng = np.random.default_rng(2016)
        for _ in range(300):
            inst, p = kernel_case(rng)
            assert_kernels_match(inst, p, rng)

    def test_large_case(self):
        rng = np.random.default_rng(1603)
        for _ in range(3):
            inst, p = kernel_case(rng, max_examples=10, max_hypotheses=600)
            assert_kernels_match(inst, p, rng)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_generated_cases(self, seed):
        rng = np.random.default_rng(seed)
        inst, p = kernel_case(rng)
        assert_kernels_match(inst, p, rng)

    def test_joint_codes_stay_small(self):
        # 40 ternary members would need codes up to 3**40 without re-ranking
        rng = np.random.default_rng(7)
        examples = tuple(f"x{i}" for i in range(40))
        rows = rng.integers(0, 3, size=(50, 40))
        hyps = [pl.Hypothesis(f"h{k}", examples, tuple(map(str, row))) for k, row in enumerate(rows)]
        inst = pl.Instance(examples, ("0", "1", "2"), hyps)
        p = pl.random_prior(inst, rng)
        assert_batch_scores_match(p, inst, list(range(40)), 40)

    @pytest.mark.parametrize("loss_fn", [pl.zero_one_loss, pl.hamming_loss])
    def test_split_that_separates_nothing_scores_zero(self, loss_fn):
        # the support agrees on x0..x3, so querying them breaks no pair
        rng = np.random.default_rng(9)
        inst = pl.random_instance(9, 300, 2, rng=rng)
        agree = (inst.label_matrix[:, :4] == inst.label_matrix[0, :4]).all(axis=1)
        probs = np.where(agree, rng.random(inst.n_hypotheses), 0.0)
        p = pl.Prior(probs / probs.sum())
        gains = _worst_gen_gibbs_gains(p, inst, range(inst.n_examples), loss_fn(inst))
        assert np.count_nonzero(agree) > 1
        assert list(gains[:4]) == [0.0] * 4
        assert (gains[4:] > 0).all()

    @pytest.mark.parametrize("loss_fn", [pl.zero_one_loss, pl.hamming_loss])
    def test_identical_columns_tie_to_lowest_index(self, loss_fn):
        # a copy of the best column, inserted before and after it, at H = 600
        rng = np.random.default_rng(5)
        base = pl.random_instance(10, 600, 2, rng=rng)
        p = pl.random_prior(base, rng)
        best = base.example_index[select("worst_gen_gibbs", p, base, base.examples, loss_fn(base))]
        for pos in (0, base.n_examples):
            examples = list(base.examples)
            examples.insert(pos, "copy")
            hyps = []
            for h in base.hypotheses:
                labels = list(h.labels)
                labels.insert(pos, h.labels[best])
                hyps.append(pl.Hypothesis(h.id, tuple(examples), tuple(labels)))
            inst = pl.Instance(examples, base.labels, hyps)
            loss = loss_fn(inst)
            lo, hi = sorted((inst.example_index["copy"], inst.example_index[base.examples[best]]))
            gains = _worst_gen_gibbs_gains(p, inst, range(inst.n_examples), loss)
            assert gains[lo] == gains[hi] == gains.max()
            assert select("worst_gen_gibbs", p, inst, inst.examples, loss) == inst.examples[lo]


# select_from_marginals against the per-candidate scan it replaced: one
# Python float per candidate, strict improvements only, so ties go to the
# first candidate and NaN never wins.


def ref_select_from_marginals(criterion, marginals, candidates):
    def entropy(row):
        nz = row[row > 0]
        return float(-(nz * np.log(nz)).sum())

    score, maximize = {
        "max_gibbs": (lambda xi: 1.0 - float((marginals[xi] ** 2).sum()), True),
        "least_confidence": (lambda xi: float(marginals[xi].max()), False),
        "max_entropy": (lambda xi: entropy(marginals[xi]), True),
        "gbs": (
            (lambda xi: abs(float(marginals[xi, 1] - marginals[xi, 0])))
            if marginals.shape[1] == 2
            else (lambda xi: float(marginals[xi].max())),
            False,
        ),
    }[criterion]
    best_xi, best = None, -math.inf if maximize else math.inf
    for xi in candidates:
        s = score(xi)
        if (maximize and s > best) or (not maximize and s < best):
            best, best_xi = s, xi
    if best_xi is None:
        raise ValueError(f"criterion {criterion!r} scored no candidate: marginals are not finite")
    return best_xi


def marginals_case(rng):
    """Rows on the simplex with zeros and a few non-finite entries.

    Some rows repeat one row (exact ties) and some permute it, so that
    their sums differ only by summation order and the pick rests on the
    last bits.
    """
    n_x, n_y = int(rng.integers(1, 40)), int(rng.integers(2, 18))
    m = rng.dirichlet(np.ones(n_y), size=n_x)
    m[rng.random(m.shape) < 0.2] = 0.0
    source = m[int(rng.integers(n_x))].copy()
    for xi in np.flatnonzero(rng.random(n_x) < 0.5):
        m[xi] = source if rng.random() < 0.5 else rng.permutation(source)
    if rng.random() < 0.3:
        m[rng.random(m.shape) < 0.1] = rng.choice([np.nan, np.inf, -np.inf])
    candidates = sorted(int(i) for i in rng.permutation(n_x)[: int(rng.integers(1, n_x + 1))])
    return m, candidates


def assert_same_pick(m, candidates):
    for criterion in ("max_gibbs", "least_confidence", "max_entropy", "gbs"):
        for layout in (m, np.asfortranarray(m)):  # a column-major copy sums rows in another order
            try:
                expected = ref_select_from_marginals(criterion, layout, candidates)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    select_from_marginals(criterion, layout, candidates)
                assert str(got.value) == str(exc)
                continue
            assert select_from_marginals(criterion, layout, candidates) == expected


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf is NaN in both
class TestSelectFromMarginalsMatchesScan:
    def test_seeded(self):
        rng = np.random.default_rng(1603)
        for _ in range(500):
            assert_same_pick(*marginals_case(rng))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_generated(self, seed):
        assert_same_pick(*marginals_case(np.random.default_rng(seed)))
