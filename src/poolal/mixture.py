"""Active learning with a mixture of priors, updated sequentially.

The state keeps one posterior per component plus a normalized weight
vector.  After each query the weights are reweighted by the components'
predictive probabilities for the observed label and each posterior does
its own Bayes update, so the state is an incremental factorization of
the posterior under the flattened mixture prior.  Components may be
deterministic (a prior over labelings) or probabilistic (a weighted
ensemble of per-example predictors).  Picks and predicted labels are
certified from one product of the flattened posterior Σ w·q plus a
rounding-error bound that holds for any summation order
(``MixtureState._bounds``, decided by ``utilities._certified_argmax``); only
what it cannot separate, exact ties included, reads the dense
per-component table, so no decision changes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    EmptyVersionSpaceError,
    Instance,
    LabeledSet,
    ModelEnsemble,
    NORM_TOL,
    Prior,
    _consistent_mask,
    full_hypothesis_space,
    induce_prior,
    label_marginals,
)
from .policies import _row_scores, select_from_marginals
from .utilities import _certified_argmax, _gamma

# Probabilistic components reuse the ensemble type: the member weights are
# the posterior over predictors and update by Bayes' rule like everything
# else here.
ProbabilisticEnsemble = ModelEnsemble

Component = Union[Prior, ModelEnsemble]


class ImpossibleObservationError(ValueError):
    """The oracle returned a label with zero probability under the mixture."""


@dataclass(frozen=True, eq=False)
class MixtureState:
    """Immutable snapshot of a mixture run: weights, posteriors, transcript."""

    instance: Instance
    weights: np.ndarray
    posteriors: tuple[Component, ...]
    step: int
    transcript: LabeledSet

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size != len(self.posteriors) or w.size == 0:
            raise ValueError("need one weight per component")
        if np.any(w < 0) or not abs(float(w.sum()) - 1.0) <= NORM_TOL:
            raise ValueError("component weights must be finite, nonnegative and sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def components(self) -> tuple[tuple[float, Component], ...]:
        return tuple(zip(self.weights.tolist(), self.posteriors))

    @property
    def n_components(self) -> int:
        return len(self.posteriors)

    @functools.cached_property
    def _marginals(self) -> np.ndarray:
        """The exact mixture marginals, summed once per state (read-only)."""
        marg = _weighted_marginals(self, use_map=False)
        marg.setflags(write=False)
        return marg

    @functools.cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (lo, hi) on every entry of ``_marginals`` on any BLAS kernel, from one product
        of the flattened posterior (k live components, H hypotheses, γ from ``_gamma``).  A
        table entry is ``out += w * t`` over the live components in order, each t summing at
        most H exact products (the one-hot entries are 0 or 1): Σ w·T·(1 + θ), |θ| <= γ_{H+k}, T
        exact.  The float m = (Σ w·q) @ onehot, plus each ensemble's ``w * table``, is within
        γ_{H+2k+1} of the same sum.  Products that underflow move the two by at most (H + 2)·k·
        2⁻¹⁰⁷⁵, so the entry lies in [m(1 − δ) − τ, m(1 + δ) + τ], δ = 2(γ_{H+k} + γ_{H+2k+1})
        and τ = 2(H + 1)·k·2⁻¹⁰⁷⁴: the factors 2 cover the rounding of this arithmetic.
        """
        inst, live = self.instance, [(w, c) for w, c in self.components if w != 0.0]
        m = np.zeros((inst.n_examples, inst.n_labels))
        if any(isinstance(c, Prior) for _, c in live):
            m = label_marginals(Prior._trusted(_flat_mass(live, inst.n_hypotheses)), inst)
        for w, comp in live:
            if not isinstance(comp, Prior):
                m += w * _component_marginals(comp, inst)
        n, k = inst.n_hypotheses, len(live)
        delta = 2 * sum(_gamma(j) for j in (n + k, n + 2 * k + 1))
        tau = 2 * (n + 1) * k * 2.0**-1074
        return np.maximum(m * (1 - delta) - tau, 0.0), m * (1 + delta) + tau


def initial_state(
    inst: Instance,
    components: Sequence[Component],
    weights: Sequence[float] | None = None,
) -> MixtureState:
    """Step-0 state; weights default to the uniform mixture."""
    comps = tuple(components)
    if not comps:
        raise ValueError("need at least one component")
    for c in comps:
        if isinstance(c, Prior):
            if len(c) != inst.n_hypotheses:
                raise ValueError("component prior does not match the instance")
        elif isinstance(c, ModelEnsemble):
            if c.instance.examples != inst.examples or c.instance.labels != inst.labels:
                raise ValueError("component ensemble is bound to a different pool")
        else:
            raise TypeError(f"unsupported component {c!r}")
    if weights is None:
        weights = np.full(len(comps), 1.0 / len(comps))
    return MixtureState(inst, np.asarray(weights, float), comps, 0, LabeledSet(()))


def _component_marginals(comp: Component, inst: Instance) -> np.ndarray:
    """Per-example label distribution of one component, shape (X, Y)."""
    if isinstance(comp, Prior):
        return label_marginals(comp, inst)
    return np.tensordot(comp.weights, comp.probs, axes=1)


def _component_likelihood(comp: Component, xi: int, yi: int, mask: np.ndarray) -> float:
    """One component's probability that example ``xi`` carries label ``yi``.

    ``mask`` flags (or lists) the hypotheses labeling ``xi`` with ``yi``; a
    prior sums its mass there, an ensemble averages its members' predictions.
    """
    if isinstance(comp, Prior):
        return float(comp.probs[mask].sum())
    return float(comp.weights @ comp.probs[:, xi, yi])


def _component_update(
    comp: Component, like: float, mask: np.ndarray, xi: int, yi: int, inside=None
) -> Component:
    """Bayes update of a component that gave label ``yi`` at ``xi`` probability ``like`` > 0."""
    if isinstance(comp, Prior):  # the doubles of core.posterior; ``inside``: probs[mask], if taken
        probs = np.zeros(comp.probs.size)
        probs[mask] = (comp.probs[mask] if inside is None else inside) / like  # 0 / like is 0 too
        return Prior._trusted(probs)
    # members keep their own normalizer: the dot product ``like`` may be an ulp off
    new_w = comp.weights * comp.probs[:, xi, yi]
    total = float(new_w.sum())
    if total <= 0.0:
        x, y = comp.instance.examples[xi], comp.instance.labels[yi]
        raise EmptyVersionSpaceError(f"ensemble assigns zero probability to {(x, y)}")
    return comp.reweighted(new_w / total)


def _weighted_marginals(state: MixtureState, use_map: bool) -> np.ndarray:
    """The weight-averaged component marginals; live components only."""
    inst = state.instance
    out = np.zeros((inst.n_examples, inst.n_labels))
    for i, (w, comp) in enumerate(state.components):
        if w != 0.0:
            out += w * (_map_component_marginals(state, i) if use_map else
                        _component_marginals(comp, inst))
    return out


def mixture_marginals(state: MixtureState, use_map: bool = False) -> np.ndarray:
    """Weighted per-example label distributions of the mixture, shape (X, Y).

    The exact table is computed once per state and shared, read-only.
    Picks and predictions read it only where ``MixtureState._bounds`` cannot.
    """
    return _weighted_marginals(state, use_map=True) if use_map else state._marginals


def mixture_marginal(state: MixtureState, x: str, y: str) -> float:
    """Mixture probability that ``x`` carries label ``y``."""
    inst = state.instance
    try:
        xi, yi = inst.example_index[x], inst.label_index[y]
    except KeyError as exc:
        raise ValueError(f"unknown example or label {exc.args[0]!r}") from None
    mask = inst.label_columns[xi] == yi
    total = 0.0
    for w, comp in state.components:
        if w != 0.0:
            total += w * _component_likelihood(comp, xi, yi, mask)
    return total


def _map_component_marginals(state: MixtureState, i: int) -> np.ndarray:
    """Component i's marginals with the posterior replaced by its mode."""
    inst = state.instance
    comp = state.posteriors[i]
    if isinstance(comp, Prior):
        h_map = int(np.argmax(comp.probs))  # first index wins ties
        table = np.zeros((inst.n_examples, inst.n_labels))
        table[np.arange(inst.n_examples), inst.label_matrix[h_map]] = 1.0
        return table
    m_map = int(np.argmax(comp.weights))
    return np.array(comp.probs[m_map])


def map_approx_marginal(state: MixtureState, i: int, x: str, y: str) -> float:
    """Component i's predictive probability at (x, y) under its mode.

    Cheap stand-in for the exact posterior marginal: exact when the
    posterior is a point mass, an indicator otherwise.
    """
    if not 0 <= i < state.n_components:
        raise ValueError(f"component index {i} out of range")
    inst = state.instance
    try:
        xi, yi = inst.example_index[x], inst.label_index[y]
    except KeyError as exc:
        raise ValueError(f"unknown example or label {exc.args[0]!r}") from None
    return float(_map_component_marginals(state, i)[xi, yi])


def mixture_observe(state: MixtureState, x: str, y: str) -> MixtureState:
    """Fold one labeled observation into the weights and every posterior.

    Weights pick up the components' predictive probabilities for the
    observed label and renormalize; components that gave it probability
    zero keep their old posterior at weight zero.
    """
    inst = state.instance
    idx = np.flatnonzero(_consistent_mask(inst, [(x, y)]))  # rejects an unknown example or label
    if x in state.transcript.examples:
        raise ValueError(f"example {x!r} was already queried")
    xi, yi = inst.example_index[x], inst.label_index[y]
    insides = [c.probs.take(idx) if isinstance(c, Prior) else None for c in state.posteriors]
    likelihoods = np.array([  # a prior's mass inside the mask, taken once, sums to its likelihood
        _component_likelihood(c, xi, yi, idx) if m is None else float(m.sum())
        for c, m in zip(state.posteriors, insides)
    ])
    new_weights = state.weights * likelihoods
    total = float(new_weights.sum())
    if total <= 0.0:
        raise ImpossibleObservationError(
            f"label {y!r} for example {x!r} has zero probability under the mixture"
        )
    new_posteriors = tuple(
        _component_update(comp, like, idx, xi, yi, m) if like > 0.0 else comp  # dead: weight 0
        for comp, like, m in zip(state.posteriors, likelihoods, insides)
    )
    return MixtureState(
        inst,
        new_weights / total,
        new_posteriors,
        state.step + 1,
        LabeledSet(state.transcript.pairs + ((x, y),)),
    )


def mixture_step(
    state: MixtureState,
    criterion: str,
    oracle: Callable[[str], str],
    use_map: bool = False,
) -> MixtureState:
    """Select one example by ``criterion`` on the mixture marginals and observe it.

    The pick is certified from ``MixtureState._bounds`` or read from the dense
    table.  ``use_map`` applies the mode approximation to the selection only;
    the weight and posterior updates use the exact predictive probabilities.
    """
    inst = state.instance
    queried = set(state.transcript.examples)
    candidates = [i for i, x in enumerate(inst.examples) if x not in queried]
    if not candidates:
        raise ValueError("no unqueried examples remain")
    x = inst.examples[_pick(state, criterion, candidates, use_map)]
    return mixture_observe(state, x, oracle(x))


def mixture_predict(state: MixtureState, x: str, use_map: bool = False) -> str:
    """Label with the highest mixture marginal at ``x`` (lowest index on ties): certified
    from ``MixtureState._bounds`` where it can be, else read from the dense table."""
    inst = state.instance
    if x not in inst.example_index:
        raise ValueError(f"unknown example {x!r}")
    return inst.labels[int(_argmax_labels(state, [inst.example_index[x]], use_map)[0])]


def _pick(state: MixtureState, criterion: str, candidates: list[int], use_map: bool) -> int:
    """``select_from_marginals`` on the dense table, certified from ``state._bounds`` for the
    criteria whose score never rises with a marginal: scoring hi and lo brackets the score."""
    if criterion in ("max_gibbs", "least_confidence") and not use_map:
        lo, hi = state._bounds
        best = int(_certified_argmax(*_row_scores(criterion, np.stack([hi, lo]))[:, candidates]))
        if best >= 0:
            return candidates[best]
    return select_from_marginals(criterion, mixture_marginals(state, use_map), candidates)


def _argmax_labels(state: MixtureState, rows: list[int], use_map: bool = False) -> np.ndarray:
    """``np.argmax`` over each row of the dense table, certified from ``state._bounds`` where it
    can be; the mode table has no bounds, so under ``use_map`` every row reads it."""
    labels = np.full(len(rows), -1)
    if not use_map:
        labels = _certified_argmax(*(b[rows] for b in state._bounds))
    open_ = labels < 0
    if open_.any():
        labels[open_] = np.argmax(mixture_marginals(state, use_map)[rows][open_], axis=1)
    return labels


def run_mixture(
    inst: Instance,
    components: Sequence[Component],
    weights: Sequence[float] | None,
    criterion: str,
    budget: int,
    oracle: Callable[[str], str],
    use_map: bool = False,
) -> MixtureState:
    """Run ``budget`` sequential mixture steps and return the final state."""
    if not 0 <= budget <= inst.n_examples:
        raise ValueError(f"budget must lie in [0, {inst.n_examples}], got {budget}")
    state = initial_state(inst, components, weights)
    for _ in range(budget):
        state = mixture_step(state, criterion, oracle, use_map=use_map)
    return state


def flattened_prior(state: MixtureState) -> Prior:
    """The weighted sum of deterministic component posteriors as one prior."""
    if not all(isinstance(c, Prior) for c in state.posteriors):
        raise TypeError("flattening requires deterministic (prior) components")
    return Prior(_flat_mass(state.components, state.instance.n_hypotheses))


def _flat_mass(components, n: int) -> np.ndarray:
    """Σ w·q over the prior components, in order, accumulated in one buffer."""
    flat, term = np.zeros(n), np.empty(n)
    for w, comp in components:
        if isinstance(comp, Prior):
            flat += np.multiply(comp.probs, w, out=term)
    return flat


# ---------------------------------------------------------------------------
# Synthetic parameter-grid task: one near-deterministic step predictor per
# grid point, differing in where the step sits.  The induced priors over
# the full labeling space serve as mixture components; marginal
# uncertainty then coincides with component disagreement, which is what
# gives adaptive querying its edge over passive selection.


def step_predictor_ensemble(
    inst: Instance, offset: float, noise: float = 0.02, sharpness: float = 4.0
) -> ModelEnsemble:
    """Single-member ensemble: P(label '1' at position i) steps up at ``offset``."""
    if inst.n_labels != 2:
        raise ValueError("step predictors are defined for binary labels")
    table = np.empty((1, inst.n_examples, 2))
    for i in range(inst.n_examples):
        p1 = noise + (1.0 - 2.0 * noise) / (1.0 + math.exp(-sharpness * (i - offset)))
        table[0, i, 1] = p1
        table[0, i, 0] = 1.0 - p1
    return ModelEnsemble(inst, [1.0], table)


@functools.lru_cache(maxsize=4)
def grid_task(
    n_examples: int = 16, n_components: int = 4
) -> tuple[Instance, tuple[Prior, ...]]:
    """A pool plus induced priors from an evenly spaced offset grid."""
    if n_examples < 2 or n_components < 1:
        raise ValueError("need at least two examples and one component")
    inst = full_hypothesis_space(
        tuple(f"x{i}" for i in range(n_examples)), ("0", "1")
    )
    spacing = n_examples / n_components
    offsets = [spacing * (j + 0.5) for j in range(n_components)]
    components = tuple(
        induce_prior(step_predictor_ensemble(inst, offset), inst) for offset in offsets
    )
    return inst, components


def sample_truth(
    inst: Instance,
    components: Sequence[Prior],
    rng: np.random.Generator,
    weights: Sequence[float] | None = None,
):
    """Draw a ground-truth labeling: pick a component, then a hypothesis from it."""
    k = len(components)
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, float)
    ci = int(rng.choice(k, p=w))
    hi = int(rng.choice(inst.n_hypotheses, p=components[ci].probs))
    return inst.hypothesis(hi)


def mixture_trajectories(
    inst: Instance,
    components: Sequence[Prior],
    budget: int,
    n_seeds: int,
    criterion: str = "max_gibbs",
    with_passive: bool = False,
    seed: int = 0,
):
    """Per-seed accuracy trajectories for adaptive and (optionally) passive runs.

    Each seed draws a truth from the mixture; both methods see the same
    truth.  Adaptive runs take ``mixture_step`` by ``criterion``; passive
    runs query a seeded random order.  Accuracy is measured on the
    still-unqueried pool after each step.  Returns (rows, mean final
    accuracy per method), one row (seed, method, step, example, label,
    weights, accuracy) per step.
    """
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    if not 1 <= budget <= inst.n_examples:
        raise ValueError(
            f"budget must lie between 1 and the pool size {inst.n_examples}, got {budget}"
        )
    methods = ("al", "passive") if with_passive else ("al",)
    finals: dict[str, list[float]] = {m: [] for m in methods}
    rows: list[tuple] = []
    for s in range(n_seeds):
        rng = np.random.default_rng([seed, s])
        truth = sample_truth(inst, components, rng)
        order = rng.permutation(inst.n_examples)  # passive query order
        actual = np.array([inst.label_index[y] for y in truth.labels])
        for method, accuracies in finals.items():
            state = initial_state(inst, components)
            for step in range(1, budget + 1):
                if method == "al":
                    state = mixture_step(state, criterion, truth.label_of)
                else:
                    x = inst.examples[order[step - 1]]
                    state = mixture_observe(state, x, truth.label_of(x))
                queried = set(state.transcript.examples)
                unqueried = [i for i, ex in enumerate(inst.examples) if ex not in queried]
                accuracy = 1.0
                if unqueried:
                    accuracy = float((_argmax_labels(state, unqueried) == actual[unqueried]).mean())
                x, y = state.transcript.pairs[-1]
                rows.append((s, method, step, x, y, state.weights.copy(), accuracy))
            accuracies.append(accuracy)
    return rows, {m: float(np.mean(v)) for m, v in finals.items()}
