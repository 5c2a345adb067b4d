import math
from dataclasses import replace

import numpy as np
import pytest

import poolal as pl
from poolal.robustness import (
    ALPHA_GREEDY,
    BoundReport,
    _perturbed_with_support,
    _uncovered,
    check_avg_bound,
    check_batch_avg_bound,
    check_mincost_bound,
    check_mixture_bounds,
    check_worst_bound,
    counterexample_instance,
    gbs_alpha,
    sweep_reports,
)
from poolal.utilities import (
    GeneralizedReduction,
    PruningCount,
    VersionSpaceReduction,
    zero_one_loss,
)


class TestAvgBound:
    def test_unperturbed_reduces_to_bare_guarantee(self, square):
        p = pl.random_prior(square, rng=1)
        r = check_avg_bound(square, p, p, VersionSpaceReduction(), "max_gibbs", ALPHA_GREEDY, 2)
        assert r.holds
        assert r.rhs == pytest.approx(ALPHA_GREEDY * r.params["opt"])

    def test_shifted_prior_constant(self, square):
        # constant (alpha+1)(L+M) = 4 - 2/e at l1 distance 0.4
        p0 = pl.Prior([0.5, 0.5, 0.0, 0.0])
        p1 = pl.Prior([0.4, 0.4, 0.1, 0.1])
        r = check_avg_bound(square, p0, p1, VersionSpaceReduction(), "max_gibbs", ALPHA_GREEDY, 2)
        assert r.holds
        constant = 4.0 - 2.0 / math.e
        assert r.rhs == pytest.approx(
            ALPHA_GREEDY * r.params["opt"] - constant * r.params["l1"], abs=1e-12
        )

    def test_sweep_holds(self, random_cases):
        for i, (inst, p0) in enumerate(random_cases(25, seed=2)):
            b = min(2, inst.n_examples)
            for radius in (0.05, 0.1, 0.3, 0.5):
                p1 = pl.perturb(p0, radius, seed=i)
                r = check_avg_bound(
                    inst, p0, p1, VersionSpaceReduction(), "max_gibbs", ALPHA_GREEDY, b
                )
                assert r.holds, (i, radius, r)

    def test_non_lipschitz_rejected(self, square):
        p = pl.uniform_prior(square)
        with pytest.raises(ValueError, match="counterexample"):
            check_avg_bound(square, p, p, PruningCount(0.0), "max_gibbs", ALPHA_GREEDY, 1)


class TestWorstBound:
    def test_unperturbed_holds(self, square):
        p = pl.random_prior(square, rng=3)
        r = check_worst_bound(
            square, p, p, VersionSpaceReduction(), "least_confidence", ALPHA_GREEDY, 2
        )
        assert r.holds

    def test_adversarial_radius_on_square(self, square):
        p0 = pl.random_prior(square, rng=4)
        p1 = pl.perturb(p0, 0.5, seed=99)
        r = check_worst_bound(
            square, p0, p1, VersionSpaceReduction(), "least_confidence", ALPHA_GREEDY, 2
        )
        assert r.holds

    def test_generalized_gibbs_constant(self, random_cases):
        # (alpha+1) * 2m with m=1 gives 4 - 2/e
        for i, (inst, p0) in enumerate(random_cases(15, seed=5)):
            u = GeneralizedReduction(zero_one_loss(inst))
            b = min(2, inst.n_examples)
            p1 = pl.perturb(p0, 0.3, seed=i)
            r = check_worst_bound(inst, p0, p1, u, "worst_gen_gibbs", ALPHA_GREEDY, b)
            assert r.holds
            assert r.rhs == pytest.approx(
                ALPHA_GREEDY * r.params["opt"] - (4.0 - 2.0 / math.e) * r.params["l1"],
                abs=1e-12,
            )


class TestMinCostBound:
    def test_unperturbed_uniform_square(self, square):
        p = pl.uniform_prior(square)
        r = check_mincost_bound(square, p, p)
        assert r.holds
        assert r.lhs == pytest.approx(2.0)
        assert r.rhs == pytest.approx((math.log(4.0) + 1.0) * 2.0)

    def test_point_mass_inside_full_support(self, square):
        p0 = pl.point_mass(square, 0)
        p1 = pl.Prior([0.7, 0.1, 0.1, 0.1])
        r = check_mincost_bound(square, p0, p1)
        assert r.holds
        assert r.params["min_p1"] == pytest.approx(0.1)
        assert r.slack > 1.0  # plenty of headroom: opt cost is 0

    def test_support_violation_rejected(self, square):
        p0 = pl.uniform_prior(square)
        p1 = pl.Prior([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="support"):
            check_mincost_bound(square, p0, p1)

    def test_support_violation_names_the_first_uncovered_id(self, square):
        p0 = pl.Prior([0.1, 0.2, 0.3, 0.4])
        p1 = pl.Prior([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero mass to 'h1'"):
            check_mincost_bound(square, p0, p1)
        assert _uncovered(p0, p1).tolist() == [0, 2, 3]
        assert _uncovered(p1, p0).size == 0
        with pytest.raises(ValueError, match="prior has 3 entries for 4 hypotheses"):
            check_mincost_bound(square, p0, pl.Prior([0.5, 0.25, 0.25]))

    def test_K_defaults_to_pool_size(self, square):
        p0 = pl.uniform_prior(square)
        p1 = pl.perturb(p0, 0.2, seed=0)
        r = check_mincost_bound(square, p0, p1)
        assert r.params["K"] == 2.0


class TestBatchBound:
    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(6)
        u = VersionSpaceReduction()
        for i in range(10):
            inst = pl.random_instance(4, 8, 2, rng=rng)
            p0 = pl.random_prior(inst, rng)
            p1 = pl.perturb(p0, 0.3, seed=i)
            r = check_batch_avg_bound(inst, p0, p1, u, n_rounds=1, batch_size=2)
            assert r.holds
            alpha = 1.0 - math.exp(-(math.e - 1.0) / math.e)
            assert r.params["alpha"] == pytest.approx(alpha)


class TestMixtureBounds:
    def test_single_component_degenerates_to_mincost_check(self, square):
        p = pl.random_prior(square, rng=7)
        r_mix, r_true = check_mixture_bounds(square, [p], 0)
        plain = check_mincost_bound(square, p, p)
        assert r_mix.holds and r_true.holds
        assert r_mix.lhs == pytest.approx(plain.lhs, abs=1e-12)
        # k = 1: rhs is alpha * opt, the bare guarantee
        assert r_mix.rhs == pytest.approx(gbs_alpha(p) * r_mix.params["opt"], abs=1e-12)

    def test_two_components_on_square(self, square):
        comps = [pl.Prior([0.4, 0.3, 0.2, 0.1]), pl.uniform_prior(square)]
        r_mix, r_true = check_mixture_bounds(square, comps, 0)
        assert r_mix.holds and r_true.holds
        assert r_mix.params["num_components"] == 2
        assert r_mix.params["specialized_holds"]
        assert r_true.params["specialized_holds"]

    def test_random_component_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n_x = int(rng.integers(2, 5))
            n_h = min(int(rng.integers(3, 9)), 2**n_x)
            inst = pl.random_instance(n_x, n_h, 2, rng=rng)
            k = int(rng.integers(1, 5))
            comps = [pl.random_prior(inst, rng) for _ in range(k)]
            r_mix, r_true = check_mixture_bounds(inst, comps, int(rng.integers(k)))
            assert r_mix.holds and r_true.holds
            assert r_mix.params["specialized_holds"]
            assert r_true.params["specialized_holds"]

    def test_bad_index_rejected(self, square):
        with pytest.raises(ValueError, match="true_index"):
            check_mixture_bounds(square, [pl.uniform_prior(square)], 3)


class TestCounterexample:
    def test_avg_mode_golden_values(self):
        inst, p0, p1, report = counterexample_instance(0.1, mode="avg")
        p = report.params
        assert p["mu"] == 0.0  # forced in the average case
        assert p["f_p1_pi0"] == pytest.approx(2.0, abs=1e-9)
        assert p["f_p1_pi1"] == pytest.approx(2.0, abs=1e-9)
        assert p["f_p0_pi1"] == pytest.approx(0.0, abs=1e-9)
        assert p["f_p0_pi0"] == pytest.approx(1.0, abs=1e-9)
        assert p["l1"] == pytest.approx(0.4, abs=1e-9)
        np.testing.assert_allclose(p0.probs, [0.5, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(p1.probs, [0.4, 0.4, 0.1, 0.1])

    def test_worst_mode_golden_values(self):
        _, _, _, report = counterexample_instance(0.1, mu=0.01, mode="worst")
        p = report.params
        assert p["f_p1_pi0"] == pytest.approx(2.0, abs=1e-9)
        assert p["f_p1_pi1"] == pytest.approx(2.0, abs=1e-9)
        assert p["f_p0_pi1"] == pytest.approx(0.0, abs=1e-9)
        assert p["f_p0_pi0"] == pytest.approx(1.0, abs=1e-9)

    def test_violation_arithmetic(self):
        # with C = 1, alpha = 1: lhs 0 < 1*1 - 1*0.4 = 0.6
        _, _, _, report = counterexample_instance(0.1, mode="avg", C=1.0, alpha=1.0)
        assert not report.holds
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.6, abs=1e-9)

    def test_large_constant_rescues_bound(self):
        # C*4delta > alpha means the inequality is satisfiable again
        _, _, _, report = counterexample_instance(0.1, mode="avg", C=10.0, alpha=1.0)
        assert report.holds  # 0 >= 1 - 4.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="delta"):
            counterexample_instance(0.3, mode="avg")
        with pytest.raises(ValueError, match="mode"):
            counterexample_instance(0.1, mode="median")

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            counterexample_instance(0.1, mu=math.nan, mode="worst")

    @pytest.mark.parametrize("name", ["C", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constants_rejected(self, name, value):
        # a NaN right-hand side would otherwise read as a violation of the bound
        with pytest.raises(ValueError, match="C and alpha must be finite"):
            counterexample_instance(0.1, mode="avg", **{name: value})

    def test_instance_serializes_bit_for_bit(self, tmp_path):
        inst, p0, _, _ = counterexample_instance(0.1, mode="avg")
        path = tmp_path / "ce.csv"
        pl.save_instance(path, inst, p0)
        assert path.read_text() == (
            "examples,x0,x1\n"
            "labels,0,1\n"
            "h,h1,0.5,0,0\n"
            "h,h2,0.5,1,0\n"
            "h,h3,0.0,0,1\n"
            "h,h4,0.0,1,1\n"
        )


class TestStabilityLemmas:
    def test_avg_score_shift_bounded(self, random_cases):
        u = VersionSpaceReduction()
        L, M = pl.lipschitz_constant(u)
        for i, (inst, p0) in enumerate(random_cases(20, seed=9)):
            p1 = pl.perturb(p0, 0.4, seed=i)
            b = min(2, inst.n_examples)
            tree = pl.build_policy("max_gibbs", p0, inst, b)
            diff = abs(pl.f_avg(p0, u, tree) - pl.f_avg(p1, u, tree))
            assert diff <= (L + M) * pl.l1_distance(p0, p1) + 1e-9

    def test_cost_shift_bounded(self, random_cases):
        for i, (inst, p0) in enumerate(random_cases(20, seed=10)):
            p1 = pl.random_prior(inst, rng=i)
            tree = pl.build_policy(
                "gbs", pl.uniform_prior(inst), inst, inst.n_examples, stop_when_identified=True
            )
            diff = abs(pl.c_avg(p0, tree) - pl.c_avg(p1, tree))
            assert diff <= inst.n_examples * pl.l1_distance(p0, p1) + 1e-9

    def test_mixture_cost_sandwich(self, random_cases):
        for i, (inst, p0) in enumerate(random_cases(20, seed=11)):
            rng = np.random.default_rng(100 + i)
            k = int(rng.integers(2, 5))
            comps = [p0] + [pl.random_prior(inst, rng) for _ in range(k - 1)]
            p1 = pl.Prior(np.mean([c.probs for c in comps], axis=0))
            tree = pl.build_policy("gbs", p1, inst, inst.n_examples, stop_when_identified=True)
            c0, c1 = pl.c_avg(p0, tree), pl.c_avg(p1, tree)
            assert c0 <= k * c1 + 1e-9
            min_p0 = float(p0.probs.min())
            if min_p0 > 0:
                assert c1 <= (1.0 / k + (k - 1) / (k * min_p0)) * c0 + 1e-9


class TestSweep:
    def test_small_sweep_all_hold_and_tagged(self):
        reports = sweep_reports(n_instances=8, radii=(0.1, 0.3), seed=1)
        assert reports
        assert all(r.holds for r in reports)
        bound_ids = {r.bound for r in reports}
        assert {
            "avg_vsr_max_gibbs",
            "worst_vsr_least_confidence",
            "worst_gen_gibbs_01",
            "mincost_gbs",
            "mixture_vs_mixture_opt",
            "mixture_vs_true_opt",
        } <= bound_ids
        for r in reports:
            assert "trial" in r.params

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_sweep_is_an_error(self, n):
        # no reports would mean no failing report: the sweep would pass vacuously
        with pytest.raises(ValueError, match="n_instances must be a positive integer"):
            sweep_reports(n_instances=n)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 1e308])
    def test_radius_checked_before_it_seeds(self, radius):
        with pytest.raises(ValueError, match=r"perturbation radius must lie in \[0, 2\]"):
            sweep_reports(n_instances=1, radii=(0.1, radius))

    @pytest.mark.parametrize("seed", range(4))
    def test_forests_give_the_public_checks_reports(self, seed):
        # six radii on 2 x 4 instances: each forest's six roots outnumber the X * Y rows the
        # grower densifies at a time
        radii = (0.0, 0.05, 0.1, 0.3, 0.5, 2.0)
        got = sweep_reports(4, radii, seed, max_examples=2, max_hypotheses=4)
        want, rng, u_vsr = [], np.random.default_rng(seed), VersionSpaceReduction()
        for trial in range(4):  # the sweep's draws, each tree built alone from its name
            n_x = int(rng.integers(2, 3))
            inst = pl.random_instance(n_x, min(int(rng.integers(3, 5)), 2**n_x), 2, rng=rng)
            p0, b = pl.random_prior(inst, rng), min(2, n_x)
            u_gen = GeneralizedReduction(zero_one_loss(inst))
            for radius in radii:
                p1 = pl.perturb(p0, radius, seed=[seed, trial, int(radius * 1000)])
                p1_cov = _perturbed_with_support(p0, radius, [seed, trial, int(radius * 1000)])
                for name, r in (
                    ("avg_vsr_max_gibbs",
                     check_avg_bound(inst, p0, p1, u_vsr, "max_gibbs", ALPHA_GREEDY, b)),
                    ("worst_vsr_least_confidence",
                     check_worst_bound(inst, p0, p1, u_vsr, "least_confidence", ALPHA_GREEDY, b)),
                    ("worst_gen_gibbs_01",
                     check_worst_bound(inst, p0, p1, u_gen, "worst_gen_gibbs", ALPHA_GREEDY, b)),
                    ("mincost_gbs", check_mincost_bound(inst, p0, p1_cov, "gbs")),
                ):
                    want.append(replace(r, bound=name, params={**r.params, "trial": trial, "radius": radius}))
            k = int(rng.integers(1, 5))
            components = [pl.random_prior(inst, rng) for _ in range(k)]
            for r in check_mixture_bounds(inst, components, int(rng.integers(k))):
                want.append(replace(r, params={**r.params, "trial": trial}))
        assert len(got) == len(want) == 4 * (4 * len(radii) + 2)
        for g, w in zip(got, want):
            assert repr(g) == repr(w)  # every field, floats to the last bit

    def test_report_slack_orientation(self):
        up = BoundReport.at_least("x", 1.0, 0.5, {})
        assert up.holds and up.slack == 0.5
        down = BoundReport.at_most("x", 1.0, 0.5, {})
        assert not down.holds and down.slack == -0.5


class TestBoundsFromFirstPrinciples:
    """Each bound's sides recomputed from its formula, not from the report's own params: the
    greedy tree replayed hypothesis by hypothesis, alpha(p1) = ln(1 / min support p1) + 1 and
    the oracle's value, on instances where a misplaced prior or constant moves the number."""

    @staticmethod
    def mixture_case():
        # thresholds 000, 100, 110, 111 with half the mixture's mass on h0: greedy splitting asks
        # x0 first, so h0 is identified after one query and the others after two or three
        examples = ("x0", "x1", "x2")
        rows = [("0", "0", "0"), ("1", "0", "0"), ("1", "1", "0"), ("1", "1", "1")]
        inst = pl.Instance(examples, ("0", "1"),
                           [pl.Hypothesis(f"h{i}", examples, r) for i, r in enumerate(rows)])
        components = [pl.Prior([0.7, 0.1, 0.1, 0.1]), pl.Prior([0.3, 0.3, 0.2, 0.2]),
                      pl.Prior([0.5, 0.1, 0.2, 0.2])]
        return inst, components

    @staticmethod
    def alpha(p):
        return math.log(1.0 / float(p.probs[p.probs > 0].min())) + 1.0

    @pytest.mark.parametrize("true_index", [0, 1, 2])
    def test_mixture_lhs_is_the_true_priors_mean_depth(self, true_index):
        inst, components = self.mixture_case()
        p0, mix = components[true_index], pl.Prior(np.mean([c.probs for c in components], axis=0))
        tree = pl.build_policy("gbs", mix, inst, inst.n_examples, stop_when_identified=True)
        depth = [pl.run_policy(tree, inst.hypothesis(i))[2] for i in range(inst.n_hypotheses)]
        under = {name: sum(float(q.probs[i]) * depth[i] for i in range(inst.n_hypotheses))
                 for name, q in (("true", p0), ("mixture", mix))}
        assert abs(under["true"] - under["mixture"]) > 0.05  # the instance tells the priors apart
        for r in check_mixture_bounds(inst, components, true_index):
            assert r.lhs == pytest.approx(under["true"], rel=1e-12)

    @pytest.mark.parametrize("true_index", [0, 1, 2])
    def test_mixture_ceilings(self, true_index):
        inst, components = self.mixture_case()
        k, p0 = len(components), components[true_index]
        mix = pl.Prior(np.mean([c.probs for c in components], axis=0))
        opt_mix, opt_true = pl.opt_min_cost(mix, inst).value, pl.opt_min_cost(p0, inst).value
        min_p0 = float(p0.probs.min())
        alpha, alpha_spec = self.alpha(mix), math.log(k / min_p0) + 1.0
        r_mix, r_true = check_mixture_bounds(inst, components, true_index)
        assert r_mix.rhs == pytest.approx(alpha * k * opt_mix, rel=1e-12)
        assert r_true.rhs == pytest.approx(alpha * (1.0 + (k - 1) / min_p0) * opt_true, rel=1e-12)
        assert r_mix.params["specialized_rhs"] == pytest.approx(alpha_spec * k * opt_mix, rel=1e-12)
        assert r_true.params["specialized_rhs"] == pytest.approx(
            alpha_spec * (1.0 + (k - 1) / min_p0) * opt_true, rel=1e-12)

    @pytest.mark.parametrize("radius", [0.1, 0.3])
    def test_mincost_ceiling(self, radius):
        inst, components = self.mixture_case()
        p0 = components[0]
        p1 = _perturbed_with_support(p0, radius, [5, int(radius * 1000)])
        l1 = float(np.abs(p0.probs - p1.probs).sum())
        assert l1 > 0.0
        opt, alpha, K = pl.opt_min_cost(p0, inst).value, self.alpha(p1), inst.n_examples
        r = check_mincost_bound(inst, p0, p1)
        assert r.rhs == pytest.approx(alpha * opt + (alpha + 1.0) * K * l1, rel=1e-12)
