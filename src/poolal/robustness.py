"""Executable robustness checks for greedy policies under perturbed priors.

Each check runs its algorithm on a perturbed prior, scores the result
under the true prior with the exact oracle alongside, and reports both
sides of the corresponding degradation bound.  A companion constructor
builds the two-example, four-hypothesis pruning-count instance on which
no such bound can hold, demonstrating why prior-Lipschitz utilities are
the price of robustness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    Instance,
    Prior,
    _check_prior,
    full_hypothesis_space,
    l1_distance,
    perturb,
    random_instance,
    random_prior,
)
from .optimal import (
    OptResult,
    c_avg,
    f_avg,
    f_worst,
    opt_avg,
    opt_avg_batch,
    opt_min_cost,
    opt_worst,
)
from .policies import PolicyNode, PolicyTree, _build_forest, build_batch_policy, build_policy
from .utilities import (
    GeneralizedReduction,
    PruningCount,
    Utility,
    VersionSpaceReduction,
    lipschitz_constant,
    zero_one_loss,
)

SLACK_TOL = 1e-9

ALPHA_GREEDY = 1.0 - 1.0 / math.e
ALPHA_BATCH = 1.0 - math.exp(-(math.e - 1.0) / math.e)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: achieved value vs. guaranteed threshold.

    ``slack`` is oriented so that nonnegative means the bound holds
    (lhs - rhs for lower bounds on utilities, rhs - lhs for upper
    bounds on costs); ``holds`` allows slack down to -1e-9.
    """

    bound: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    params: dict = field(default_factory=dict)

    @classmethod
    def at_least(cls, bound: str, lhs: float, rhs: float, params: dict) -> "BoundReport":
        slack = lhs - rhs
        return cls(bound, lhs, rhs, slack, slack >= -SLACK_TOL, params)

    @classmethod
    def at_most(cls, bound: str, lhs: float, rhs: float, params: dict) -> "BoundReport":
        slack = rhs - lhs
        return cls(bound, lhs, rhs, slack, slack >= -SLACK_TOL, params)


def gbs_alpha(p: Prior) -> float:
    """Approximation factor of greedy splitting: ln(1/min support mass) + 1."""
    support_min = float(p.probs[p.support].min())
    return math.log(1.0 / support_min) + 1.0


def _check_constant(name: str, value: float | None) -> None:
    """Reject a bound's constant that is NaN, infinite or negative; None stands for its default."""
    if value is not None and not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _require_lipschitz(u: Utility) -> tuple[float, float]:
    L, M = lipschitz_constant(u)
    if L is None:
        raise ValueError(
            "utility is not Lipschitz continuous in the prior, so no degradation "
            "bound applies; see counterexample_instance() for why"
        )
    return L, M


def _build(
    algorithm,
    p: Prior,
    inst: Instance,
    budget: int,
    u: Utility | None = None,
    stop_when_identified: bool = False,
) -> tuple[PolicyTree, str]:
    if callable(algorithm):
        return algorithm(p), getattr(algorithm, "__name__", "custom")
    loss = u.loss if isinstance(u, GeneralizedReduction) else None
    tree = build_policy(algorithm, p, inst, budget, loss, stop_when_identified)
    return tree, algorithm


def _coverage_report(
    bound: str,
    lhs: float,
    p0: Prior,
    p1: Prior,
    name: str,
    alpha: float,
    constants: dict,
    opt: OptResult,
    **extra,
) -> BoundReport:
    """``lhs`` against alpha * opt - (alpha + 1) * C * l1(p0, p1), C the sum of ``constants``."""
    C = sum(constants.values())
    dist = l1_distance(p0, p1)
    rhs = alpha * opt.value - (alpha + 1.0) * C * dist
    params = {"algorithm": name, "alpha": alpha, **constants, "l1": dist, "opt": opt.value, **extra}
    return BoundReport.at_least(bound, lhs, rhs, params)


def check_avg_bound(
    inst: Instance,
    p0: Prior,
    p1: Prior,
    u: Utility,
    algorithm,
    alpha: float,
    budget: int,
    opt: OptResult | None = None,
) -> BoundReport:
    """Expected-utility degradation bound for an alpha-approximate algorithm.

    The algorithm sees only the perturbed prior ``p1``; scoring and the
    exact optimum use the true prior ``p0``.  The guaranteed floor is
    alpha * opt - (alpha + 1)(L + M) * l1(p0, p1).  ``opt`` may be
    passed in to reuse an oracle result across perturbation radii.
    """
    _check_constant("alpha", alpha)
    L, M = _require_lipschitz(u)
    tree, name = _build(algorithm, p1, inst, budget, u)
    lhs = f_avg(p0, u, tree)
    if opt is None:
        opt = opt_avg(p0, u, inst, budget)
    return _coverage_report(
        "avg_coverage", lhs, p0, p1, name, alpha, {"L": L, "M": M}, opt, budget=budget
    )


def check_worst_bound(
    inst: Instance,
    p0: Prior,
    p1: Prior,
    u: Utility,
    algorithm,
    alpha: float,
    budget: int,
    opt: OptResult | None = None,
) -> BoundReport:
    """Worst-case-utility degradation bound: floor alpha*opt - (alpha+1)*L*l1."""
    _check_constant("alpha", alpha)
    L, _ = _require_lipschitz(u)
    tree, name = _build(algorithm, p1, inst, budget, u)
    lhs = f_worst(p0, u, tree)
    if opt is None:
        opt = opt_worst(p0, u, inst, budget)
    return _coverage_report("worst_coverage", lhs, p0, p1, name, alpha, {"L": L}, opt, budget=budget)


def check_batch_avg_bound(
    inst: Instance,
    p0: Prior,
    p1: Prior,
    u: Utility,
    n_rounds: int,
    batch_size: int,
    opt: OptResult | None = None,
) -> BoundReport:
    """Average-case bound with both sides restricted to batch policies."""
    L, M = _require_lipschitz(u)
    tree = build_batch_policy(p1, inst, n_rounds, batch_size)
    lhs = f_avg(p0, u, tree)
    if opt is None:
        opt = opt_avg_batch(p0, u, inst, n_rounds, batch_size)
    return _coverage_report(
        "avg_coverage_batch", lhs, p0, p1, "batch_max_gibbs", ALPHA_BATCH, {"L": L, "M": M},
        opt, n_rounds=n_rounds, batch_size=batch_size,
    )


def _uncovered(p0: Prior, p1: Prior) -> np.ndarray:
    """Ascending indices in support(p0) outside support(p1): empty when p1's support covers p0's."""
    return np.flatnonzero((p0.probs > 0) & ~(p1.probs > 0))


def check_mincost_bound(
    inst: Instance,
    p0: Prior,
    p1: Prior,
    algorithm="gbs",
    alpha_of_p1: float | None = None,
    K: float | None = None,
    opt: OptResult | None = None,
) -> BoundReport:
    """Expected-identification-cost degradation bound.

    Requires the perturbed prior's support to cover the true prior's:
    a truth the algorithm's prior rules out can never be identified, so
    no cost bound is possible.  The ceiling is
    alpha(p1) * opt + (alpha(p1) + 1) * K * l1(p0, p1), with K the cost
    cap (defaults to the pool size).
    """
    _check_constant("alpha_of_p1", alpha_of_p1)
    _check_constant("K", K)
    for p in (p0, p1):
        _check_prior(p, inst)
    uncovered = _uncovered(p0, p1)
    if uncovered.size:
        raise ValueError(
            f"perturbed prior gives zero mass to {inst.ids[uncovered[0]]!r}, which the true prior "
            "can draw; identification on such truths never terminates, so the "
            "cost bound requires support(p0) within support(p1)"
        )
    tree, name = _build(algorithm, p1, inst, inst.n_examples, stop_when_identified=True)
    lhs = c_avg(p0, tree)
    if opt is None:
        opt = opt_min_cost(p0, inst)
    alpha = gbs_alpha(p1) if alpha_of_p1 is None else float(alpha_of_p1)
    cap = float(inst.n_examples) if K is None else float(K)
    dist = l1_distance(p0, p1)
    rhs = alpha * opt.value + (alpha + 1.0) * cap * dist
    params = {
        "algorithm": name,
        "alpha": alpha,
        "K": cap,
        "l1": dist,
        "opt": opt.value,
        "min_p1": float(p1.probs[p1.support].min()),
    }
    return BoundReport.at_most("min_cost", lhs, rhs, params)


def check_mixture_bounds(
    inst: Instance,
    components: Sequence[Prior],
    true_index: int,
    algorithm="gbs",
    alpha_of_p1: float | None = None,
) -> tuple[BoundReport, BoundReport]:
    """Cost bounds when the prior handed to the algorithm is a uniform mixture.

    The truth is drawn from one component; the algorithm runs on the
    uniform mixture of all of them.  Two ceilings are reported: k *
    alpha(p1) times the mixture's own optimal cost, and
    alpha(p1) * (1 + (k-1)/min_h p0[h]) times the true prior's optimal
    cost.  For greedy splitting, each report's params also carry the
    specialized ceiling with alpha(p1) replaced by
    ln(k / min_h p0[h]) + 1.
    """
    k = len(components)
    if not 0 <= true_index < k:
        raise ValueError(f"true_index {true_index} out of range for {k} components")
    _check_constant("alpha_of_p1", alpha_of_p1)
    p0 = components[true_index]
    mix = np.mean([c.probs for c in components], axis=0)
    p1 = Prior(mix)

    tree, name = _build(algorithm, p1, inst, inst.n_examples, stop_when_identified=True)
    lhs = c_avg(p0, tree)
    alpha = gbs_alpha(p1) if alpha_of_p1 is None else float(alpha_of_p1)
    opt_mix = opt_min_cost(p1, inst)
    opt_true = opt_min_cost(p0, inst)

    min_p0 = float(p0.probs.min())  # over every hypothesis; zero makes the
    # component-relative constants infinite and the bounds vacuous
    blowup = math.inf if min_p0 <= 0 else 1.0 + (k - 1) / min_p0
    alpha_spec = math.inf if min_p0 <= 0 else math.log(k / min_p0) + 1.0

    base = {
        "algorithm": name,
        "num_components": k,
        "alpha": alpha,
        "min_p0": min_p0,
        "l1": l1_distance(p0, p1),
    }

    def ceiling(bound: str, scale: float, opt: OptResult) -> BoundReport:
        params = dict(base, opt=opt.value)
        if name == "gbs":
            spec_rhs = alpha_spec * scale * opt.value
            params["specialized_rhs"] = spec_rhs
            params["specialized_holds"] = (spec_rhs - lhs) >= -SLACK_TOL
        return BoundReport.at_most(bound, lhs, alpha * scale * opt.value, params)

    return ceiling("mixture_vs_mixture_opt", k, opt_mix), ceiling("mixture_vs_true_opt", blowup, opt_true)


def counterexample_instance(
    delta: float,
    mu: float = 0.01,
    mode: str = "avg",
    C: float = 1.0,
    alpha: float = 1.0,
) -> tuple[Instance, Prior, Prior, BoundReport]:
    """The non-Lipschitz instance on which every degradation bound fails.

    Two examples, all four binary labelings, and the pruning-count
    utility.  The true prior concentrates on the two labelings agreeing
    on the second example; the perturbed prior shifts ``delta`` of that
    mass onto the other two.  Querying the second example is then
    exactly optimal under the perturbed prior yet scores 0 under the
    true one, while querying the first scores 1, so
    lhs >= alpha * opt - C * l1 fails whenever C * 4 * delta < alpha.

    ``mu`` is the pruning threshold (forced to 0 in ``avg`` mode); the
    report's params carry all four policy values plus the l1 distance.
    """
    if mode not in ("avg", "worst"):
        raise ValueError(f"mode must be 'avg' or 'worst', got {mode!r}")
    PruningCount(mu)  # rejects a negative, NaN or infinite mu in either mode
    if mode == "avg":
        mu = 0.0
    if not (math.isfinite(C) and math.isfinite(alpha)):
        raise ValueError(f"C and alpha must be finite, got C={C}, alpha={alpha}")
    if not 0.0 < delta < 0.25 - mu / 2.0:
        raise ValueError(f"delta must lie in (0, {0.25 - mu / 2.0}), got {delta}")

    inst = full_hypothesis_space(("x0", "x1"), ("0", "1"), ids=("h1", "h2", "h3", "h4"))
    p0 = Prior(np.array([0.5 - mu, 0.5 - mu, mu, mu]))
    p1 = Prior(np.array([0.5 - mu - delta, 0.5 - mu - delta, mu + delta, mu + delta]))
    u = PruningCount(mu)

    pi0, pi1 = (PolicyTree(inst, PolicyNode(x, (None, None))) for x in ("x0", "x1"))

    score = f_avg if mode == "avg" else f_worst
    oracle = opt_avg if mode == "avg" else opt_worst
    values = {
        "f_p1_pi0": score(p1, u, pi0),
        "f_p1_pi1": score(p1, u, pi1),
        "f_p0_pi1": score(p0, u, pi1),
        "f_p0_pi0": score(p0, u, pi0),
    }
    opt_p1 = oracle(p1, u, inst, budget=1)
    if values["f_p1_pi1"] < opt_p1.value - 1e-12:
        raise AssertionError("querying x1 should be exactly optimal under the perturbed prior")
    opt_p0 = oracle(p0, u, inst, budget=1)

    dist = l1_distance(p0, p1)
    lhs = values["f_p0_pi1"]
    rhs = alpha * opt_p0.value - C * dist
    params = {
        "mode": mode,
        "delta": delta,
        "mu": mu,
        "C": C,
        "alpha": alpha,
        "l1": dist,
        "opt_p0": opt_p0.value,
        "opt_p1": opt_p1.value,
        **values,
    }
    report = BoundReport.at_least("non_lipschitz_counterexample", lhs, rhs, params)
    return inst, p0, p1, report


# ---------------------------------------------------------------------------
# Seeded sweeps.  These verify guarantees, not statistics: one failing
# report fails the whole sweep, and every report carries enough
# parameters to replay the failing case.


def _perturbed_with_support(
    p0: Prior, radius: float, seed_base: Sequence[int]
) -> Prior:
    """A perturbation whose support still covers the true prior's."""
    for attempt in range(50):
        p1 = perturb(p0, radius, seed=list(seed_base) + [attempt])
        if not _uncovered(p0, p1).size:
            return p1
    raise RuntimeError("could not sample a support-covering perturbation")


def _grown(name: str, priors: list[Prior], *args):
    """``name`` as a check's ``algorithm``: given one of ``priors`` (a Prior hashes by identity),
    it hands back that prior's tree, every tree having grown in one forest."""
    trees = dict(zip(priors, _build_forest(name, priors, *args)))
    algorithm = functools.partial(dict.__getitem__, trees)
    algorithm.__name__ = name
    return algorithm


def sweep_reports(
    n_instances: int = 125,
    radii: Sequence[float] = (0.05, 0.1, 0.3, 0.5),
    seed: int = 0,
    budget: int = 2,
    max_examples: int = 4,
    max_hypotheses: int = 8,
    n_labels: int = 2,
    include_mixture: bool = True,
    max_components: int = 4,
) -> list[BoundReport]:
    """Run every bound family over seeded random instances and radii.

    Per instance, the true-prior oracles are computed once and reused
    across perturbation radii.  Report params carry (trial, radius) so
    a failing case can be replayed.
    """
    if n_instances < 1:  # an empty sweep would pass vacuously
        raise ValueError(f"n_instances must be a positive integer, got {n_instances}")
    if budget < 1:  # before a trial's pool size would bound it
        raise ValueError(f"budget must be a positive integer, got {budget}")
    for radius in radii:  # before a radius becomes a seed; NaN fails too
        if not 0.0 <= radius <= 2.0:
            raise ValueError(f"perturbation radius must lie in [0, 2], got {radius}")
    rng = np.random.default_rng(seed)
    u_vsr = VersionSpaceReduction()
    reports: list[BoundReport] = []

    for trial in range(n_instances):
        n_x = int(rng.integers(2, max_examples + 1))
        n_h = min(int(rng.integers(3, max_hypotheses + 1)), n_labels**n_x)
        inst = random_instance(n_x, n_h, n_labels, rng=rng)
        p0 = random_prior(inst, rng)
        b = min(budget, n_x)
        u_gen = GeneralizedReduction(zero_one_loss(inst))

        oracle_avg = opt_avg(p0, u_vsr, inst, b)
        oracle_worst = opt_worst(p0, u_vsr, inst, b)
        oracle_gen = opt_worst(p0, u_gen, inst, b)
        oracle_cost = opt_min_cost(p0, inst)

        p1s = [perturb(p0, radius, seed=[seed, trial, int(radius * 1000)]) for radius in radii]
        covs = [_perturbed_with_support(p0, radius, [seed, trial, int(radius * 1000)]) for radius in radii]
        max_gibbs = _grown("max_gibbs", p1s, inst, b, None, False)  # one forest over every radius
        least_confidence = _grown("least_confidence", p1s, inst, b, None, False)
        worst_gen_gibbs = _grown("worst_gen_gibbs", p1s, inst, b, u_gen.loss, False)
        gbs = _grown("gbs", covs, inst, n_x, None, True)
        for radius, p1, p1_cov in zip(radii, p1s, covs):
            for name, r in (
                ("avg_vsr_max_gibbs",
                 check_avg_bound(inst, p0, p1, u_vsr, max_gibbs, ALPHA_GREEDY, b, oracle_avg)),
                ("worst_vsr_least_confidence",
                 check_worst_bound(inst, p0, p1, u_vsr, least_confidence, ALPHA_GREEDY, b, oracle_worst)),
                ("worst_gen_gibbs_01",
                 check_worst_bound(inst, p0, p1, u_gen, worst_gen_gibbs, ALPHA_GREEDY, b, oracle_gen)),
                ("mincost_gbs", check_mincost_bound(inst, p0, p1_cov, gbs, opt=oracle_cost)),
            ):
                reports.append(replace(r, bound=name, params={**r.params, "trial": trial, "radius": radius}))

        if include_mixture:
            k = int(rng.integers(1, max_components + 1))
            components = [random_prior(inst, rng) for _ in range(k)]
            true_index = int(rng.integers(k))
            for r in check_mixture_bounds(inst, components, true_index):
                reports.append(replace(r, params={**r.params, "trial": trial}))

    return reports
