import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal import mixture
from poolal.mixture import (
    ImpossibleObservationError,
    MixtureState,
    flattened_prior,
    grid_task,
    initial_state,
    map_approx_marginal,
    mixture_marginal,
    mixture_marginals,
    mixture_observe,
    mixture_predict,
    mixture_step,
    mixture_trajectories,
    run_mixture,
    sample_truth,
    step_predictor_ensemble,
)
from poolal.policies import greedy_transcript


@pytest.fixture
def two_priors(square):
    return pl.Prior([0.4, 0.3, 0.2, 0.1]), pl.uniform_prior(square)


class TestMarginals:
    def test_identical_components_equal_common_marginal(self, square):
        p = pl.random_prior(square, rng=1)
        state = initial_state(square, [p, p])
        for x in square.examples:
            for y in square.labels:
                expected = pl.label_seq_prob(p, square, (x,), (y,))
                assert mixture_marginal(state, x, y) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_weights_pick_one_component(self, square, two_priors):
        c0, c1 = two_priors
        state = initial_state(square, [c0, c1], weights=[1.0, 0.0])
        for x in square.examples:
            for y in square.labels:
                expected = pl.label_seq_prob(c0, square, (x,), (y,))
                assert mixture_marginal(state, x, y) == expected

    def test_even_mix_averages_marginals(self, square):
        # component marginals 0.8 and 0.4 for (x0, '0') average to 0.6
        c0 = pl.Prior([0.5, 0.1, 0.3, 0.1])  # p[0;x0] = 0.8
        c1 = pl.Prior([0.2, 0.3, 0.2, 0.3])  # p[0;x0] = 0.4
        state = initial_state(square, [c0, c1])
        assert mixture_marginal(state, "x0", "0") == pytest.approx(0.6, abs=1e-12)
        # cross-check against the flattened joint distribution
        flat = flattened_prior(state)
        assert pl.label_seq_prob(flat, square, ("x0",), ("0",)) == pytest.approx(0.6, abs=1e-12)

    def test_marginals_normalize(self, square, two_priors):
        state = initial_state(square, list(two_priors))
        marg = mixture_marginals(state)
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-12)

    def test_marginals_are_shared_read_only_and_equal_a_fresh_sum(self, random_cases):
        rng = np.random.default_rng(61)
        for inst, p in random_cases(20, seed=60, n_labels=3):
            comps = [p, pl.random_prior(inst, rng), pl.uniform_prior(inst)]
            state = initial_state(inst, comps, weights=[0.5, 0.0, 0.5])
            state = mixture_observe(state, inst.examples[0], inst.labels[inst.label_matrix[0, 0]])
            marg = mixture_marginals(state)
            assert mixture_marginals(state) is marg
            assert not marg.flags.writeable
            with pytest.raises(ValueError):
                marg[0, 0] = 0.0
            fresh = np.zeros((inst.n_examples, inst.n_labels))
            for w, comp in state.components:
                if w != 0.0:
                    fresh += w * pl.label_marginals(comp, inst)
            np.testing.assert_array_equal(marg, fresh)


class TestObserve:
    def test_weight_update_hand_computed(self, square, two_priors):
        # likelihoods 0.6 and 0.5 for (x0, '0') rescale (1/2, 1/2) to (6/11, 5/11)
        state = mixture_observe(initial_state(square, list(two_priors)), "x0", "0")
        np.testing.assert_allclose(state.weights, [6 / 11, 5 / 11], atol=1e-12)
        assert state.step == 1
        assert state.transcript.pairs == (("x0", "0"),)

    def test_prior_chain_equals_core_posterior_exactly(self, random_cases):
        rng = np.random.default_rng(62)
        for inst, p in random_cases(20, seed=63, n_labels=3):
            q = pl.random_prior(inst, rng)
            truth = inst.hypotheses[int(rng.integers(inst.n_hypotheses))]
            state = initial_state(inst, [p, q])
            for x in inst.examples[:3]:
                pair = [(x, truth.label_of(x))]
                state = mixture_observe(state, *pair[0])
                p, q = pl.posterior(p, inst, pair), pl.posterior(q, inst, pair)
                assert state.posteriors[0].probs.tolist() == p.probs.tolist()
                assert state.posteriors[1].probs.tolist() == q.probs.tolist()

    def test_posteriors_updated_individually(self, square, two_priors):
        c0, c1 = two_priors
        state = mixture_observe(initial_state(square, [c0, c1]), "x0", "0")
        np.testing.assert_allclose(
            state.posteriors[0].probs, pl.posterior(c0, square, [("x0", "0")]).probs
        )
        np.testing.assert_allclose(
            state.posteriors[1].probs, pl.posterior(c1, square, [("x0", "0")]).probs
        )

    def test_component_with_zero_likelihood_dies(self, square):
        c0 = pl.uniform_prior(square)
        c1 = pl.Prior([0.5, 0.0, 0.5, 0.0])  # labels x0 = '0' surely
        state = mixture_observe(initial_state(square, [c0, c1]), "x0", "1")
        np.testing.assert_allclose(state.weights, [1.0, 0.0])
        assert state.posteriors[1] is c1  # kept untouched at weight zero

    def test_impossible_observation(self, square):
        c0 = pl.Prior([0.5, 0.0, 0.5, 0.0])
        c1 = pl.Prior([0.6, 0.0, 0.4, 0.0])
        state = initial_state(square, [c0, c1])
        with pytest.raises(ImpossibleObservationError):
            mixture_observe(state, "x0", "1")

    def test_requery_rejected(self, square, two_priors):
        state = mixture_observe(initial_state(square, list(two_priors)), "x0", "0")
        with pytest.raises(ValueError, match="already queried"):
            mixture_observe(state, "x0", "0")


class TestStepAndPredict:
    def test_single_component_reduces_to_posterior(self, square):
        p = pl.Prior([0.4, 0.3, 0.2, 0.1])
        truth = square.hypotheses[0]
        state = mixture_step(initial_state(square, [p]), "max_gibbs", truth.label_of)
        assert state.weights[0] == 1.0
        pair = state.transcript.pairs[0]
        np.testing.assert_array_equal(
            state.posteriors[0].probs, pl.posterior(p, square, [pair]).probs
        )

    def test_predict_after_observation(self, square, two_priors):
        state = mixture_observe(initial_state(square, list(two_priors)), "x0", "0")
        assert mixture_predict(state, "x1") == "0"

    def test_predict_tie_breaks_to_lowest_label(self, square):
        state = initial_state(square, [pl.uniform_prior(square)])
        assert mixture_predict(state, "x0") == "0"

    def test_worst_gen_gibbs_not_marginal_computable(self, square, two_priors):
        state = initial_state(square, list(two_priors))
        with pytest.raises(ValueError, match="marginal"):
            mixture_step(state, "worst_gen_gibbs", lambda x: "0")


class TestMapApproximation:
    def test_point_mass_is_exact(self, square):
        state = initial_state(square, [pl.point_mass(square, 1)])
        for x in square.examples:
            for y in square.labels:
                assert map_approx_marginal(state, 0, x, y) == mixture_marginal(state, x, y)

    def test_mode_rounds_to_indicator(self, square):
        # posterior (0.6, 0.4) over h1, h2 which disagree at x0
        comp = pl.Prior([0.6, 0.4, 0.0, 0.0])
        state = initial_state(square, [comp])
        assert map_approx_marginal(state, 0, "x0", "0") == 1.0
        assert mixture_marginal(state, "x0", "0") == pytest.approx(0.6)

    def test_probabilistic_component_uses_top_member(self, square):
        table = np.stack([np.full((2, 2), 0.5), np.array([[0.9, 0.1], [0.9, 0.1]])])
        ens = pl.ModelEnsemble(square, [0.3, 0.7], table)
        state = initial_state(square, [ens])
        assert map_approx_marginal(state, 0, "x0", "0") == pytest.approx(0.9)

    def test_exact_marginals_bypass(self, square):
        # use_map=False everywhere is the default: selection sees exact values
        comp = pl.Prior([0.6, 0.4, 0.0, 0.0])
        state = initial_state(square, [comp])
        exact = mixture_marginals(state, use_map=False)
        approx = mixture_marginals(state, use_map=True)
        assert exact[0, 0] == pytest.approx(0.6)
        assert approx[0, 0] == 1.0

    def test_unknown_example_rejected_like_mixture_marginal(self, square):
        state = initial_state(square, [pl.uniform_prior(square)])
        with pytest.raises(ValueError, match="unknown example 'nope'"):
            map_approx_marginal(state, 0, "nope", "0")
        with pytest.raises(ValueError, match="unknown example 'nope'"):
            mixture_marginal(state, "nope", "0")

    def test_unknown_label_rejected_like_mixture_marginal(self, square):
        state = initial_state(square, [pl.uniform_prior(square)])
        with pytest.raises(ValueError, match="unknown label '7'"):
            map_approx_marginal(state, 0, "x0", "7")
        with pytest.raises(ValueError, match="unknown label '7'"):
            mixture_marginal(state, "x0", "7")


class TestProbabilisticComponents:
    def test_member_reweighting(self, square):
        table = np.stack(
            [np.array([[0.9, 0.1], [0.5, 0.5]]), np.array([[0.2, 0.8], [0.5, 0.5]])]
        )
        ens = pl.ModelEnsemble(square, [0.5, 0.5], table)
        state = mixture_observe(initial_state(square, [ens]), "x0", "0")
        updated = state.posteriors[0]
        np.testing.assert_allclose(updated.weights, [0.9 / 1.1, 0.2 / 1.1], atol=1e-12)

    def test_update_chain_equals_the_member_reweighting_formula(self):
        inst = pl.random_instance(5, 20, 3, rng=3)
        rng = np.random.default_rng(4)
        table = rng.dirichlet(np.ones(3), size=(4, 5))
        ens = pl.ModelEnsemble(inst, rng.dirichlet(np.ones(4)), table)
        truth = inst.hypotheses[7]
        state = initial_state(inst, [ens, pl.random_prior(inst, rng)])
        weights = ens.weights
        for x in ("x3", "x0", "x4", "x1"):
            state = mixture_observe(state, x, truth.label_of(x))
            # the update before it moved into mixture_observe, kept here as the reference
            new_w = weights * table[:, inst.example_index[x], inst.label_index[truth.label_of(x)]]
            weights = new_w / float(new_w.sum())
            assert state.posteriors[0].weights.tolist() == weights.tolist()

    def test_single_member_marginals_are_static(self, square):
        # one probabilistic predictor: observations reweight nothing
        ens = step_predictor_ensemble(square, offset=0.5)
        state = initial_state(square, [ens])
        before = mixture_marginals(state)
        after = mixture_marginals(mixture_observe(state, "x0", "1"))
        np.testing.assert_allclose(before, after)


class TestRunMixture:
    def test_zero_budget_returns_initial_state(self, square, two_priors):
        state = run_mixture(square, list(two_priors), None, "max_gibbs", 0, lambda x: "0")
        assert state.step == 0
        assert state.transcript.pairs == ()

    def test_single_prior_transcript_matches_greedy(self, random_cases):
        for inst, p in random_cases(10, seed=41):
            truth = inst.hypotheses[0]
            budget = min(2, inst.n_examples)
            state = run_mixture(inst, [p], None, "max_gibbs", budget, truth.label_of)
            t = greedy_transcript("max_gibbs", p, inst, budget, truth)
            assert state.transcript.pairs == t.pairs
            np.testing.assert_array_equal(
                state.posteriors[0].probs, t.final_posterior.probs
            )

    def test_true_component_gains_weight_in_expectation(self, square, two_priors):
        c0, c1 = two_priors
        expectation = 0.0
        for hi, h in enumerate(square.hypotheses):
            if c0.probs[hi] == 0:
                continue
            state = run_mixture(square, [c0, c1], None, "max_gibbs", 2, h.label_of)
            expectation += float(c0.probs[hi]) * float(state.weights[0])
        assert expectation >= 0.5  # the initial weight of component 0

    def test_normalization_invariants_every_step(self, random_cases):
        rng = np.random.default_rng(55)
        for inst, _ in random_cases(10, seed=42):
            k = int(rng.integers(1, 4))
            comps = [pl.random_prior(inst, rng) for _ in range(k)]
            truth = inst.hypotheses[int(rng.integers(inst.n_hypotheses))]
            state = initial_state(inst, comps)
            for _ in range(min(2, inst.n_examples)):
                state = mixture_step(state, "max_gibbs", truth.label_of)
                assert float(state.weights.sum()) == pytest.approx(1.0, abs=1e-9)
                for w, comp in state.components:
                    if w > 0:
                        assert float(comp.probs.sum()) == pytest.approx(1.0, abs=1e-9)


class TestTrajectories:
    def test_rows_follow_mixture_step_and_the_passive_order(self):
        inst, comps = grid_task(6, 2)
        rows, means = mixture_trajectories(inst, comps, 3, 2, with_passive=True, seed=5)
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (s, m, k) for s in range(2) for m in ("al", "passive") for k in (1, 2, 3)
        ]
        for s in range(2):
            rng = np.random.default_rng([5, s])
            truth = sample_truth(inst, comps, rng)
            order = rng.permutation(inst.n_examples)
            state = run_mixture(inst, comps, None, "max_gibbs", 3, truth.label_of)
            al = [r for r in rows if r[:2] == (s, "al")]
            passive = [r for r in rows if r[:2] == (s, "passive")]
            assert [(r[3], r[4]) for r in al] == list(state.transcript.pairs)
            assert al[-1][5].tolist() == state.weights.tolist()
            assert [r[3] for r in passive] == [inst.examples[i] for i in order[:3]]
        assert set(means) == {"al", "passive"}

    @pytest.mark.parametrize("budget", [0, -1, 7])
    def test_budget_outside_the_pool_rejected(self, budget):
        inst, comps = grid_task(6, 2)
        with pytest.raises(ValueError, match="pool size 6"):
            mixture_trajectories(inst, comps, budget, 1)

    def test_no_seeds_rejected(self):
        inst, comps = grid_task(6, 2)
        with pytest.raises(ValueError, match="seed"):
            mixture_trajectories(inst, comps, 2, 0)


class TestFlattenedEquivalence:
    @pytest.mark.parametrize("criterion", ["max_gibbs", "least_confidence", "gbs"])
    def test_query_sequence_matches_flat_prior(self, criterion, random_cases):
        rng = np.random.default_rng(77)
        for inst, _ in random_cases(8, seed=43):
            k = int(rng.integers(2, 4))
            comps = [pl.random_prior(inst, rng) for _ in range(k)]
            truth = inst.hypotheses[int(rng.integers(inst.n_hypotheses))]
            flat0 = flattened_prior(initial_state(inst, comps))
            if pl.label_seq_prob(flat0, inst, truth.examples, truth.labels) == 0.0:
                continue  # truth outside the mixture support
            budget = min(2, inst.n_examples)
            state = run_mixture(inst, comps, None, criterion, budget, truth.label_of)
            t = greedy_transcript(criterion, flat0, inst, budget, truth)
            assert state.transcript.pairs == t.pairs
            # the factorized posterior flattens back to the flat-prior posterior
            np.testing.assert_allclose(
                flattened_prior(state).probs, t.final_posterior.probs, atol=1e-9
            )

    def test_mixture_components_satisfy_cost_bounds(self, square, two_priors):
        reports = pl.check_mixture_bounds(square, list(two_priors), 0)
        assert all(r.holds for r in reports)


class TestGridTask:
    def test_components_are_valid_full_support_priors(self):
        inst, comps = grid_task(6, 3)
        assert inst.n_hypotheses == 64
        for c in comps:
            assert float(c.probs.sum()) == pytest.approx(1.0, abs=1e-9)
            assert (c.probs > 0).all()

    def test_offsets_order_marginals(self):
        inst, comps = grid_task(6, 2)
        # early-offset component flips to label '1' sooner
        early = pl.label_marginals(comps[0], inst)
        late = pl.label_marginals(comps[1], inst)
        assert early[3, 1] > late[3, 1]

    def test_sample_truth_deterministic(self):
        inst, comps = grid_task(6, 3)
        a = sample_truth(inst, comps, np.random.default_rng(5))
        b = sample_truth(inst, comps, np.random.default_rng(5))
        assert a.id == b.id


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_state_rejects_non_finite_weights(square, bad):
    comps = [pl.uniform_prior(square), pl.Prior([0.4, 0.3, 0.2, 0.1])]
    with pytest.raises(ValueError, match="finite"):
        initial_state(square, comps, [bad, 1.0])


def dense_observe(state, x, y):
    """The whole-column reference update: every prior posterior with a positive likelihood is
    rewritten over the observed label's whole column.  Returns (weights, likelihoods,
    posteriors), or None when the observation is impossible."""
    inst = state.instance
    xi, yi = inst.example_index[x], inst.label_index[y]
    idx = np.flatnonzero(inst.label_columns[xi] == yi)
    likes = np.array([
        float(c.probs.take(idx).sum()) if isinstance(c, pl.Prior)
        else float(c.weights @ c.probs[:, xi, yi])
        for c in state.posteriors
    ])
    new_weights = state.weights * likes
    total = float(new_weights.sum())
    if total <= 0.0:
        return None
    posteriors = []
    for c, like in zip(state.posteriors, likes):
        if not like > 0.0:
            posteriors.append(c)
        elif isinstance(c, pl.Prior):
            probs = np.zeros(c.probs.size)
            probs[idx] = c.probs.take(idx) / like
            posteriors.append(pl.Prior._trusted(probs))
        else:
            w = c.weights * c.probs[:, xi, yi]
            posteriors.append(c.reweighted(w / float(w.sum())))
    return new_weights / total, likes, posteriors


def component_bytes(c):
    return (c.probs if isinstance(c, pl.Prior) else c.weights).tobytes()


def observe_like_dense(state, x, y):
    """``mixture_observe(state, x, y)``, checked byte for byte against ``dense_observe``; None
    when both find the observation impossible."""
    expected = dense_observe(state, x, y)
    likes = []
    real = mixture._component_likelihood

    def spy(*args):
        likes.append(real(*args))
        return likes[-1]

    with mock.patch.object(mixture, "_component_likelihood", spy):
        try:
            new = mixture_observe(state, x, y)
        except ImpossibleObservationError:
            assert expected is None
            return None
    weights, want_likes, posteriors = expected
    assert np.array(likes).tobytes() == want_likes.tobytes()
    assert new.weights.tobytes() == weights.tobytes()
    assert [component_bytes(c) for c in new.posteriors] == [component_bytes(c) for c in posteriors]
    if all(isinstance(c, pl.Prior) for c in posteriors):
        flat = np.zeros(state.instance.n_hypotheses)  # the flattened prior's own sum, in order
        for w, c in zip(weights.tolist(), posteriors):
            flat += c.probs * w
        assert flattened_prior(new).probs.tobytes() == flat.tobytes()
    return new


def observe_all(state, truth, order):
    """Observe ``truth``'s labels in ``order`` through ``observe_like_dense``; the last state."""
    for xi in order:
        x = state.instance.examples[xi]
        new = observe_like_dense(state, x, truth.label_of(x))
        if new is None:
            break
        state = new
    return state


def sparse_prior(inst, rng, alpha=0.3, zeros=0.5):
    probs = rng.dirichlet(np.full(inst.n_hypotheses, alpha))
    probs[rng.random(inst.n_hypotheses) < zeros] = 0.0
    if probs.sum() == 0.0:
        probs[int(rng.integers(inst.n_hypotheses))] = 1.0
    return pl.Prior(probs / probs.sum())


def random_ensemble(inst, rng, n_members=3):
    table = rng.dirichlet(np.ones(inst.n_labels), size=(n_members, inst.n_examples))
    return pl.ModelEnsemble(inst, rng.dirichlet(np.ones(n_members)), table)


class TestObserveBytes:
    """The version-space update of ``mixture_observe`` against the whole-column dense update."""

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_trajectories(self, seed):
        inst, components = grid_task(12, 4)
        rng = np.random.default_rng([seed, 31])
        truth = sample_truth(inst, components, rng)
        observe_all(initial_state(inst, components), truth, rng.permutation(inst.n_examples))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_generated_mixtures(self, seed, n_labels, n_priors, ensemble):
        rng = np.random.default_rng(seed)
        n_examples = int(rng.integers(2, 6))
        inst = pl.random_instance(
            n_examples, min(int(rng.integers(1, 60)), n_labels**n_examples), n_labels, rng=rng
        )
        components = [sparse_prior(inst, rng) for _ in range(n_priors)]
        if ensemble:
            components.insert(int(rng.integers(n_priors + 1)), random_ensemble(inst, rng))
        weights = rng.dirichlet(np.ones(len(components)))
        weights[rng.random(len(components)) < 0.2] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
        state = initial_state(inst, components, weights / weights.sum())
        truth = inst.hypothesis(int(rng.integers(inst.n_hypotheses)))
        observe_all(state, truth, rng.permutation(n_examples))

    def test_dead_component_revived_by_a_later_label(self):
        # the second prior gives x0 = '1' no mass, so it dies holding mass where x0 = '0', outside
        # V; observing x1 then gives it a positive likelihood, and it is updated over the whole
        # column at weight 0
        inst = pl.full_hypothesis_space(("x0", "x1", "x2"), ("0", "1"))
        x0_is_0 = inst.label_columns[0] == 0
        rng = np.random.default_rng(3)
        probs = np.where(x0_is_0, rng.random(inst.n_hypotheses), 0.0)
        dying = pl.Prior(probs / probs.sum())
        state = initial_state(inst, [pl.uniform_prior(inst), dying])
        state = observe_like_dense(state, "x0", "1")
        assert state.weights[1] == 0.0 and state.posteriors[1] is dying
        state = observe_like_dense(state, "x1", "0")
        revived = state.posteriors[1].probs
        assert np.any(revived[~x0_is_0] == 0.0) and np.any(revived[x0_is_0] > 0.0)
        observe_like_dense(state, "x2", "1")

    @pytest.mark.parametrize("n_examples, n_labels, sizes", [
        (6, 2, (16, 8, 4, 2, 1)),  # H = 64: V' above H/8, at it, then below
        (5, 3, (27, 9, 3, 1)),  # H = 243: V' = 27 just below H/8
    ])
    def test_full_spaces_around_an_eighth_with_a_dead_prior_between(self, n_examples, n_labels,
                                                                     sizes):
        # past the first query, V''s positions in the column are flagged over H once it holds H/8
        # hypotheses and binary-searched below that; the middle prior dies at the second query and
        # is revived at the third, read at its own V between two live priors that share a buffer
        inst = pl.full_hypothesis_space(tuple(f"x{i}" for i in range(n_examples)),
                                        tuple(str(y) for y in range(n_labels)))
        rng = np.random.default_rng([n_examples, n_labels, 47])
        truth = inst.hypothesis(int(rng.integers(inst.n_hypotheses)))
        order = rng.permutation(n_examples).tolist()
        dying = dying_prior(inst, rng, order[1], inst.label_index[truth.label_of(
            inst.examples[order[1]])])
        state = initial_state(inst, [sparse_prior(inst, rng, alpha=1.0, zeros=0.0), dying,
                                     pl.uniform_prior(inst)])
        seen = []
        for step, xi in enumerate(order):
            x = inst.examples[xi]
            mask = inst.label_columns[xi] == inst.label_index[truth.label_of(x)]
            idx = np.flatnonzero(mask)
            col = mixture._Column.at(state._carried[0], mask, idx)
            if col.pos is not None:
                assert col.pos.tobytes() == np.searchsorted(idx, col.new_V).tobytes()
                seen.append(col.new_V.size)
            before = state.posteriors[1]
            state = observe_like_dense(state, x, truth.label_of(x))
            assert (state.weights[1] == 0.0) == (step >= 1)
            assert (state.posteriors[1] is before) == (step == 1)  # revived from the third on
        assert tuple(seen) == sizes

    def test_weights_underflowing_to_zero(self):
        inst, (a, b, c, d) = grid_task(8, 4)
        # c and d give x0 = '1' about 0.02, so their subnormal weights round to 0
        weights = [1.0 - 2.0**-60, 2.0**-60 - 2.0**-1073, 2.0**-1074, 2.0**-1074]
        state = initial_state(inst, [a, b, c, d], weights)
        new = observe_like_dense(state, "x0", "1")
        assert new.weights[2] == 0.0 < state.weights[2]  # updated, then dead at weight 0
        assert new.posteriors[2] is not c
        truth = inst.hypothesis(int(np.flatnonzero(inst.label_columns[0] == 1)[77]))
        observe_all(new, truth, range(1, inst.n_examples))

    def test_hand_built_state_with_mass_off_the_transcript(self, square):
        # a state whose transcript says x0 = '0' while its posteriors still hold mass where
        # x0 = '1': its version space must cover every hypothesis
        p, q = pl.Prior([0.1, 0.2, 0.3, 0.4]), pl.Prior([0.4, 0.0, 0.0, 0.6])
        state = MixtureState(square, np.array([0.5, 0.5]), (p, q), 1, pl.LabeledSet((("x0", "0"),)))
        new = observe_like_dense(state, "x1", "1")
        assert new.posteriors[0].probs.tolist() == [0.0, 0.0, 0.3 / 0.7, 0.4 / 0.7]

    def test_negative_zero_entries(self):
        inst = pl.full_hypothesis_space(("x0", "x1", "x2"), ("0", "1"))
        probs = np.linspace(1.0, 2.0, inst.n_hypotheses)
        probs[[1, 2, 5, 6]] = -0.0
        p = pl.Prior(probs / probs.sum())
        point = np.full(inst.n_hypotheses, -0.0)
        point[0] = 1.0
        state = initial_state(inst, [p, pl.Prior(point), pl.uniform_prior(inst)])
        for x, y in (("x0", "1"), ("x1", "0"), ("x2", "1")):
            state = observe_like_dense(state, x, y)
            assert np.signbit(state.posteriors[0].probs).any()  # a -0.0 inside V keeps its sign


def densified(comp):
    """Whether a posterior carried at V has built its dense ``probs``."""
    return "probs" in vars(comp)


def dense_of(comp):
    """A prior's dense vector; a posterior carried at V builds it without keeping it."""
    if isinstance(comp, mixture._PosteriorAtV):
        return mixture._PosteriorAtV.probs.func(comp)
    return comp.probs


def observe_compact(state, x, y):
    """``mixture_observe(state, x, y)`` against ``dense_observe``, byte for byte: each live prior
    is read and updated at V only, without building a dense vector, and its dense vector is
    read-only with the dense update's bytes.  None when both find the observation impossible."""
    inst = state.instance
    carried = [c for c in state.posteriors if isinstance(c, mixture._PosteriorAtV)]
    built = [densified(c) for c in carried]
    likes = []
    real = mixture._component_likelihood

    def spy(*args):
        likes.append(real(*args))
        return likes[-1]

    with mock.patch.object(mixture, "_component_likelihood", spy):
        try:
            new = mixture_observe(state, x, y)
        except ImpossibleObservationError:
            new = None
    V = state._carried[0]
    for c, was in zip(carried, built):  # only a dead component, or one off V, was densified
        alive = any(c is p for w, p in state.components if w != 0.0)
        assert densified(c) == was or not (alive and c.V is V)
    shadow = tuple(pl.Prior._trusted(dense_of(c)) if isinstance(c, pl.Prior) else c
                   for c in state.posteriors)  # so the reference builds no kept vector
    expected = dense_observe(dataclasses.replace(state, posteriors=shadow), x, y)
    if new is None:
        assert expected is None
        return None
    weights, want_likes, posteriors = expected
    assert np.array(likes).tobytes() == want_likes.tobytes()
    assert new.weights.tobytes() == weights.tobytes()
    xi, yi = inst.example_index[x], inst.label_index[y]
    mask = inst.label_columns[xi] == yi
    for w, c, like, got, want in zip(state.weights, state.posteriors, likes, new.posteriors,
                                     posteriors):
        if not isinstance(c, pl.Prior):
            assert got.weights.tobytes() == want.weights.tobytes()
            continue
        assert len(got) == inst.n_hypotheses
        if w != 0.0 and like > 0.0:  # updated at its own V: carried at that V's new V, compact
            own = c.V if isinstance(c, mixture._PosteriorAtV) else None
            read_at = mixture._Column.at(own, mask, np.flatnonzero(mask)).new_V
            assert isinstance(got, mixture._PosteriorAtV)
            assert got.V.tobytes() == read_at.tobytes()
            assert got.V is new._carried[0] or not (own is V or own is None)
            assert not densified(got)
            assert not got.values.flags.writeable
        dense = dense_of(got)
        assert dense.tobytes() == want.probs.tobytes() and not dense.flags.writeable
    return new


def compact_chain(state, truth, order):
    """Observe ``truth``'s labels in ``order`` through ``observe_compact``; every state reached."""
    states = [state]
    for xi in order:
        x = state.instance.examples[xi]
        new = observe_compact(states[-1], x, truth.label_of(x))
        if new is None:
            break
        states.append(new)
    return states


def dying_prior(inst, rng, xi, yi):
    """A sparse prior with no mass where example ``xi`` carries label ``yi``; any sparse prior
    when every hypothesis carries it there."""
    others = inst.label_columns[xi] != yi
    if not others.any():
        return sparse_prior(inst, rng)
    probs = np.where(others, rng.dirichlet(np.full(inst.n_hypotheses, 0.5)), 0.0)
    if probs.sum() == 0.0:
        probs[int(np.flatnonzero(others)[0])] = 1.0
    return pl.Prior(probs / probs.sum())


class TestCompactPosteriors:
    """Posteriors carried at V (``mixture._PosteriorAtV``) against the dense update."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 4), st.booleans(),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_generated_chains(self, seed, n_labels, n_priors, ensemble, subnormal):
        rng = np.random.default_rng(seed)
        n_examples = int(rng.integers(2, 7))
        inst = pl.random_instance(
            n_examples, min(int(rng.integers(1, 400)), n_labels**n_examples), n_labels, rng=rng
        )
        truth = inst.hypothesis(int(rng.integers(inst.n_hypotheses)))
        order = rng.permutation(n_examples)
        # the last prior dies at the second query if live: it gives the truth's label no mass
        components = [sparse_prior(inst, rng) for _ in range(n_priors - 1)]
        second = int(order[min(1, n_examples - 1)])
        components.append(dying_prior(inst, rng, second, inst.label_index[truth.label_of(
            inst.examples[second])]))
        if ensemble:
            components.insert(int(rng.integers(n_priors + 1)), random_ensemble(inst, rng))
        weights = rng.dirichlet(np.ones(len(components)))
        if subnormal:  # weights that underflow to 0 after an update
            weights[-1] = 2.0**-1074
        weights[rng.random(len(components)) < 0.2] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
        state = initial_state(inst, components, weights / weights.sum())
        compact_chain(state, truth, order)

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_chains(self, seed):
        inst, components = grid_task(12, 4)
        rng = np.random.default_rng([seed, 37])
        truth = sample_truth(inst, components, rng)
        states = compact_chain(initial_state(inst, components), truth,
                               rng.permutation(inst.n_examples))
        assert len(states) == inst.n_examples + 1
        assert not any(densified(c) for s in states[1:] for c in s.posteriors)
        for c in states[-1].posteriors:  # built once, on first read, and kept
            dense = c.probs
            assert densified(c) and c.probs is dense and not dense.flags.writeable
            assert dense.tobytes() == dense_of(c).tobytes() and len(c) == dense.size

    def test_dead_component_revived_by_a_later_label(self):
        # the second prior dies at x0 = '1' while carried at V, holding mass outside the next V;
        # x1 = '0' revives it, read and updated at weight 0 at its own V, still compact
        inst = pl.full_hypothesis_space(("x0", "x1", "x2", "x3"), ("0", "1", "2"))
        rng = np.random.default_rng(5)
        x0_is_1 = inst.label_columns[0] == 1
        probs = np.where(x0_is_1, 0.0, rng.random(inst.n_hypotheses))
        dying = pl.Prior(probs / probs.sum())
        state = initial_state(inst, [pl.uniform_prior(inst), dying])
        state = observe_compact(state, "x3", "2")
        carried = state.posteriors[1]
        assert isinstance(carried, mixture._PosteriorAtV)
        state = observe_compact(state, "x0", "1")
        assert state.weights[1] == 0.0 and state.posteriors[1] is carried
        assert not densified(carried)
        state = observe_compact(state, "x1", "0")
        revived = state.posteriors[1]
        assert not densified(carried) and isinstance(revived, mixture._PosteriorAtV)
        assert revived.probs[~x0_is_1 & (inst.label_columns[1] == 0)].sum() > 0.0
        observe_compact(state, "x2", "1")

    def test_weights_underflowing_to_zero(self):
        inst, (a, b, c, d) = grid_task(8, 4)
        weights = [1.0 - 2.0**-60, 2.0**-60 - 2.0**-1073, 2.0**-1074, 2.0**-1074]
        state = observe_compact(initial_state(inst, [a, b, c, d], weights), "x0", "1")
        underflowed = state.posteriors[2]
        assert state.weights[2] == 0.0 and isinstance(underflowed, mixture._PosteriorAtV)
        truth = inst.hypothesis(int(np.flatnonzero(inst.label_columns[0] == 1)[77]))
        compact_chain(state, truth, range(1, inst.n_examples))
        assert not densified(underflowed)  # dead, so read at its own V at the next observation

    @pytest.mark.parametrize("seed", range(6))
    def test_hand_built_states_mixing_compact_and_dense(self, seed):
        rng = np.random.default_rng([seed, 41])
        inst = pl.full_hypothesis_space(tuple(f"x{i}" for i in range(5)), ("0", "1", "2"))
        truth = inst.hypothesis(int(rng.integers(inst.n_hypotheses)))
        order = rng.permutation(inst.n_examples)
        start = initial_state(inst, [sparse_prior(inst, rng, zeros=0.2) for _ in range(3)])
        reached = compact_chain(start, truth, order[:2])[-1]
        compact = [c for c in reached.posteriors if isinstance(c, mixture._PosteriorAtV)]
        assert compact and not any(densified(c) for c in compact)
        mixed = (compact[0], sparse_prior(inst, rng, zeros=0.2), *compact[1:])
        weights = rng.dirichlet(np.ones(len(mixed)))
        # its V covers every hypothesis, so the carried posteriors are read whole
        state = MixtureState(inst, weights, mixed, reached.step, reached.transcript)
        assert state._carried[0].size == inst.n_hypotheses
        compact_chain(state, truth, order[2:])
        assert all(densified(c) for c in compact)


def marginal_like_dense(state, x, y):
    """``mixture_marginal(state, x, y)``, checked byte for byte against each live component's
    dense vector summed over the label's whole column."""
    inst = state.instance
    xi, yi = inst.example_index[x], inst.label_index[y]
    idx = np.flatnonzero(inst.label_columns[xi] == yi)
    want = 0.0
    for w, c in state.components:
        if w != 0.0:
            want += w * (float(dense_of(c).take(idx).sum()) if isinstance(c, pl.Prior)
                         else float(c.weights @ c.probs[:, xi, yi]))
    got = mixture_marginal(state, x, y)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestReadAtOwnV:
    """Each prior is read at the V it is zero outside, through one ``_Column`` per distinct V."""

    @pytest.mark.parametrize("seed", range(4))
    def test_hand_built_state_with_a_carried_a_dense_and_a_dead_prior(self, seed):
        # a posterior carried off the state's V (which holds every hypothesis), a dense prior and
        # a dead posterior carried at a third V, each read and updated at its own V
        rng = np.random.default_rng([seed, 53])
        inst = pl.full_hypothesis_space(tuple(f"x{i}" for i in range(5)), ("0", "1", "2"))
        truth = inst.hypothesis(int(rng.integers(inst.n_hypotheses)))
        order = [inst.examples[xi] for xi in rng.permutation(inst.n_examples)]

        def carried(x):
            start = initial_state(inst, [sparse_prior(inst, rng, alpha=1.0, zeros=0.0)])
            return observe_like_dense(start, x, truth.label_of(x)).posteriors[0]

        off, dead = carried(order[0]), carried(order[1])
        state = MixtureState(inst, np.array([0.6, 0.4, 0.0]),
                             (off, sparse_prior(inst, rng, alpha=1.0, zeros=0.0), dead), 1,
                             pl.LabeledSet(((order[0], truth.label_of(order[0])),)))
        assert off.V is not dead.V and state._carried[0].size == inst.n_hypotheses
        states = [state]
        for x in order[1:]:
            states.append(observe_like_dense(states[-1], x, truth.label_of(x)))
            assert states[-1].weights[2] == 0.0
            assert isinstance(states[-1].posteriors[2], mixture._PosteriorAtV)
        for state in states:
            for x in inst.examples:
                for y in inst.labels:
                    marginal_like_dense(state, x, y)

    @pytest.mark.parametrize("dying, counts", [
        (False, [2] + [1] * 7),  # dense priors at all, then every prior at the state's V
        (True, [2, 1] + [2] * 6),  # the prior that dies at x1 is read at its own V from x2 on
    ])
    def test_one_column_per_distinct_V(self, dying, counts):
        inst, components = grid_task(8, 4)
        rng = np.random.default_rng(59)
        truth = sample_truth(inst, components, rng)
        if dying:
            components += (dying_prior(inst, rng, 1, inst.label_index[truth.label_of("x1")]),)
        state, real, built = initial_state(inst, components), mixture._Column.at, []

        def at(V, mask, idx):
            built.append(V)
            return real(V, mask, idx)

        seen = []
        with mock.patch.object(mixture._Column, "at", at):
            for x in inst.examples:
                own = {id(getattr(c, "V", None)) for c in state.posteriors}
                built.clear()
                state = mixture_observe(state, x, truth.label_of(x))
                assert {id(V) for V in built} == own | {id(built[0])} and len(built) == len(
                    {id(V) for V in built})
                seen.append(len(built))
        assert seen == counts


class TestNothingDensified:
    """On states ``mixture_observe`` made, dead components included, neither an observation nor
    ``mixture_marginal`` builds a dense posterior: each prior posterior is a new
    ``_PosteriorAtV`` or, for a component that gave the label no mass, the one it held."""

    @staticmethod
    def check_chain(start, truth, order):
        states = compact_chain(start, truth, order)
        inst = start.instance
        for before, after in zip(states, states[1:]):
            for old, new in zip(before.posteriors, after.posteriors):
                assert (new is old or isinstance(new, mixture._PosteriorAtV)
                        or not isinstance(new, pl.Prior))
            for x in inst.examples:
                for y in inst.labels:
                    marginal_like_dense(after, x, y)
        carried = {id(c): c for s in states for c in s.posteriors
                   if isinstance(c, mixture._PosteriorAtV)}
        assert not any(densified(c) for c in carried.values())
        return states

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("weights", [None, (0.5, 0.0, 0.5, 0.0)])
    def test_grid_chains(self, seed, weights):
        inst, components = grid_task(12, 4)
        rng = np.random.default_rng([seed, 43])
        truth = sample_truth(inst, components, rng)
        states = self.check_chain(initial_state(inst, components, weights), truth,
                                  rng.permutation(inst.n_examples))
        assert len(states) == inst.n_examples + 1

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_generated_chains_with_dead_components(self, seed, n_labels, n_priors, ensemble):
        rng = np.random.default_rng(seed)
        n_examples = int(rng.integers(2, 6))
        inst = pl.random_instance(
            n_examples, min(int(rng.integers(1, 200)), n_labels**n_examples), n_labels, rng=rng
        )
        truth = inst.hypothesis(int(rng.integers(inst.n_hypotheses)))
        order = rng.permutation(n_examples)
        # one prior dies at the first query and one at the second; a third starts dead
        components = [sparse_prior(inst, rng) for _ in range(n_priors)]
        for xi in order[:2].tolist():
            components.append(dying_prior(inst, rng, xi, inst.label_index[truth.label_of(
                inst.examples[xi])]))
        if ensemble:
            components.insert(int(rng.integers(len(components) + 1)), random_ensemble(inst, rng))
        weights = rng.dirichlet(np.ones(len(components)))
        weights[int(rng.integers(len(components)))] = 0.0
        self.check_chain(initial_state(inst, components, weights / weights.sum()), truth, order)

    def test_marginal_of_an_unobserved_state_caches_nothing(self):
        inst, components = grid_task(12, 4)
        state = initial_state(inst, components, (0.5, 0.0, 0.5, 0.0))
        for x in inst.examples[:3]:
            for y in inst.labels:
                marginal_like_dense(state, x, y)
        assert state.__dict__.keys().isdisjoint({"_carried", "_bounds", "_marginals"})


class TestDensifications:
    """A ``grid`` unit builds a dense posterior only where a decision reads the dense table."""

    @staticmethod
    def run_unit(seed):
        states, fallbacks = [], []
        real_observe, real_table = mixture.mixture_observe, mixture._weighted_marginals

        def recording_observe(state, x, y):
            states.append(real_observe(state, x, y))
            return states[-1]

        def counting_table(state, use_map):
            fallbacks.append(state)
            return real_table(state, use_map)

        with mock.patch.object(mixture, "mixture_observe", recording_observe), \
                mock.patch.object(mixture, "_weighted_marginals", counting_table):
            mixture_trajectories(*grid_task(16, 4), 8, 1, with_passive=True, seed=seed)
        carried = {id(c): c for s in states for c in s.posteriors}
        return states, fallbacks, [c for c in carried.values() if densified(c)]

    def test_certified_unit_densifies_no_posterior(self):
        states, fallbacks, built = self.run_unit(0)
        assert len(states) == 16 and not fallbacks
        assert all(isinstance(c, mixture._PosteriorAtV) for s in states for c in s.posteriors)
        assert built == []

    def test_each_fallback_densifies_its_own_posteriors(self):
        _, fallbacks, built = self.run_unit(60)
        assert len(fallbacks) == 2
        assert {id(c) for c in built} == {id(c) for s in fallbacks for c in s.posteriors}
        assert len(built) == 8
