"""Active learning with a mixture of priors, updated sequentially.

The state keeps one posterior per component plus a normalized weight
vector, an incremental factorization of the posterior under the
flattened mixture prior: after each query the weights are reweighted by
the components' predictive probabilities for the observed label and each
posterior does its own Bayes update.  Components may be deterministic (a
prior over labelings) or probabilistic (a weighted ensemble of
per-example predictors).  A state also carries its version space V and
Σ w·q at V.  A prior is read at the V it is zero outside: a posterior
``mixture_observe`` wrote (``_PosteriorAtV``) at its own, which for a live
one is the V of the state it made, a dense prior at every hypothesis.  An
observation reads each prior through one label column per distinct V,
whose zero-filled buffer sums the likelihood with the dense column's bits,
and hands the same entries to the update, which carries them at that V's
new V; a dense vector is built only where something reads ``probs``.
Picks and predicted labels are certified from one product of Σ w·q,
summed over V once V is small, plus a rounding-error bound that holds for
any summation order (``MixtureState._bounds``, decided by
``utilities._certified_argmax``); only what it cannot separate, exact ties
included, reads the dense per-component table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .core import (
    EmptyVersionSpaceError,
    Instance,
    LabeledSet,
    ModelEnsemble,
    NORM_TOL,
    Prior,
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
    def _carried(self) -> tuple[np.ndarray, np.ndarray, int, float]:
        """(V, F, r, a): ascending indices V outside which every live prior is zero, Σ w·q at V,
        and its error terms (see ``_bounds``).  ``mixture_observe`` carries them forward; a state
        built any other way starts here, from every hypothesis."""
        live = [(w, c) for w, c in self.components if w != 0.0]
        n, k = self.instance.n_hypotheses, len(live)
        return np.arange(n), _flat_mass(live, n), k, n * k * 2.0**-1074

    @functools.cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (lo, hi) on every entry of ``_marginals`` on any BLAS kernel, from one product of
        the carried Σ w·q, F (k live components, H hypotheses, Y labels, γ from ``_gamma``).  A
        table entry is ``out += w * t`` over the live components in order, each t summing at most H
        exact products (the one-hot entries are 0 or 1): Σ w·T·(1 + θ), |θ| <= γ_{H+k}, T exact, up
        to k·2⁻¹⁰⁷⁵ of underflow.  Each F[h] is within e[h] of Σ w·q[h]·(1 + θ_w), |θ_w| <= γ_r,
        with Σe <= a; ``_flat_mass`` starts at r = k and a = H·k·2⁻¹⁰⁷⁴.  An observation of total T
        divides F by T at V: each likelihood cancels in exact arithmetic, and the new weight,
        posterior entry and F[h] add four roundings (r += 4); their underflows, weights that
        underflow to 0 and e/T make a' = 2(a + (k + 1)(|V| + 2)·2⁻¹⁰⁷⁴)/T for the k live components
        before it; a posterior carried at V holds the dense entries' doubles there.  The float m,
        F times the first Y − 1 label rows of each example (``_flat_marginals`` sums over V or
        over H: at most H exact products, in any order) plus each ensemble's ``w * table``, is
        within γ_{H+k+1+r} and a + k·2⁻¹⁰⁷⁵ of the same sum, so the entry lies in
        [m(1 − δ) − τ, m(1 + δ) + τ], δ = 2(γ_{H+k} + γ_{H+k+1+r}) and τ = 2(a + k·2⁻¹⁰⁷⁴).
        The last label's entry, F's total s minus the others, adds 4(γ_{H+r+Y}·s + a) to τ.
        The factors 2 and 4 cover the rounding of this arithmetic.
        """
        inst, live = self.instance, [(w, c) for w, c in self.components if w != 0.0]
        V, F, r, a = self._carried
        m, s = np.zeros((inst.n_examples, inst.n_labels)), 0.0
        if any(isinstance(c, Prior) for _, c in live):
            m, s = _flat_marginals(inst, V, F)
        for w, comp in live:
            if not isinstance(comp, Prior):
                m += w * _component_marginals(comp, inst)
        n, k = inst.n_hypotheses, len(live)
        delta = 2 * sum(_gamma(j) for j in (n + k, n + k + 1 + r))
        tau = np.full(inst.n_labels, 2 * (a + k * 2.0**-1074))
        tau[-1] += 4 * (_gamma(n + r + inst.n_labels) * s + a)
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


class _PosteriorAtV(Prior):
    """A prior's posterior as its ``values`` at the version space ``V`` it is zero outside: every
    prior posterior ``mixture_observe`` writes, at the new V of the V it was read at.  The dense
    ``probs``, read-only, is built on first read (a dense-table fallback, ``flattened_prior``,
    user code) and kept; ``len`` builds nothing."""

    def __init__(self, V: np.ndarray, values: np.ndarray, n: int):
        values.setflags(write=False)
        for name, value in (("V", V), ("values", values), ("_n", n)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def probs(self) -> np.ndarray:
        probs = np.zeros(self._n)
        probs[self.V] = self.values
        probs.setflags(write=False)
        return probs

    def __len__(self) -> int:
        return self._n


class _Column(NamedTuple):
    """The observed label's column as a prior zero outside the version space ``V`` reads it: the
    new V, V's members among the hypotheses carrying the label, sits at ``keep`` in V and at
    ``pos`` in the column; ``buffer``, zero-filled and of the column's length, takes each read's
    entries at ``pos`` to be summed (``pos`` and ``buffer`` are None, and ``V`` may be, when V is
    every hypothesis)."""

    V: np.ndarray | None
    keep: np.ndarray
    new_V: np.ndarray
    pos: np.ndarray | None
    buffer: np.ndarray | None

    @classmethod
    def at(cls, V: np.ndarray | None, mask: np.ndarray, idx: np.ndarray) -> "_Column":
        """The column of the hypotheses ``mask`` flags, ``idx`` its indices, read at ``V``.  The
        new V's positions: at least H/8 hypotheses are flagged over H and the flags read at
        ``idx`` in one pass; fewer are binary-searched in ``idx``, cheaper there (the H/8 rule
        of ``_flat_marginals``)."""
        if V is None or V.size == mask.size:  # V of all: the new V is the column itself
            return cls(V, idx, idx, None, None)
        keep = np.flatnonzero(mask[V])
        new_V = V.take(keep)
        if 8 * new_V.size >= mask.size:
            flag = np.zeros(mask.size, dtype=bool)
            flag[new_V] = True
            pos = np.flatnonzero(flag.take(idx))
        else:
            pos = np.searchsorted(idx, new_V)
        return cls(V, keep, new_V, pos, np.zeros(idx.size))


def _read(comp: Component, mask: np.ndarray, idx: np.ndarray, columns: dict) -> tuple:
    """(column, entries at its new V) of a prior read at the V it is zero outside, its carried V
    or, dense, every hypothesis (None), through ``columns``' one ``_Column`` per distinct V, keyed
    by identity, of the column ``mask`` flags (``idx`` its indices); (None, None) for an ensemble."""
    if not isinstance(comp, Prior):
        return None, None
    V = comp.V if isinstance(comp, _PosteriorAtV) else None
    if id(V) not in columns:
        columns[id(V)] = _Column.at(V, mask, idx)
    col = columns[id(V)]
    return col, (comp.probs if V is None else comp.values).take(col.keep)


def _component_likelihood(comp: Component, xi: int, yi: int, col, inside) -> float:
    """One component's probability that example ``xi`` carries label ``yi``, from its ``_read``
    (``col``, ``inside``): an ensemble averages its members' predictions; a prior sums its
    entries at the new V, ``inside``, scattered into the column's buffer at ``pos``, the bytes of
    ``probs[column].sum()``."""
    if not isinstance(comp, Prior):
        return float(comp.weights @ comp.probs[:, xi, yi])
    if col.pos is None:
        return float(inside.sum())
    col.buffer[col.pos] = inside
    return float(col.buffer.sum())


def _component_update(comp: Component, like: float, xi: int, yi: int, col, inside) -> Component:
    """Bayes update of a component that gave label ``yi`` at ``xi`` probability ``like`` > 0, from
    its ``_read``: a prior keeps ``inside``, divided in place by like, at ``col``'s new V:
    ``core.posterior``'s doubles (0 / like is 0 too) at the new V only."""
    if isinstance(comp, Prior):
        return _PosteriorAtV(col.new_V, np.divide(inside, like, out=inside), len(comp))
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
    """Mixture probability that ``x`` carries label ``y``: each live component read as
    ``mixture_observe`` reads it."""
    inst = state.instance
    xi, yi = inst.example_index[x], inst.label_index[y]
    mask = inst.label_columns[xi] == yi
    idx, columns, total = np.flatnonzero(mask), {}, 0.0
    for w, comp in state.components:
        if w != 0.0:
            total += w * _component_likelihood(comp, xi, yi, *_read(comp, mask, idx, columns))
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
    return float(_map_component_marginals(state, i)[inst.example_index[x], inst.label_index[y]])


def mixture_observe(state: MixtureState, x: str, y: str) -> MixtureState:
    """Fold one labeled observation into the weights and every posterior.

    Weights pick up the components' predictive probabilities for the
    observed label and renormalize; components that gave it probability
    zero keep their old posterior at weight zero.
    """
    inst = state.instance
    xi, yi = inst.example_index[x], inst.label_index[y]
    if x in state.transcript.examples:
        raise ValueError(f"example {x!r} was already queried")
    mask = inst.label_columns[xi] == yi
    idx = np.flatnonzero(mask)
    V, F, r, a = state._carried
    col = _Column.at(V, mask, idx)
    columns = {id(V): col}  # the live priors' column: they are carried at the state's V
    reads = [_read(c, mask, idx, columns) for c in state.posteriors]
    likelihoods = np.array([
        _component_likelihood(c, xi, yi, *read) for c, read in zip(state.posteriors, reads)
    ])
    new_weights = state.weights * likelihoods
    total = float(new_weights.sum())
    if total <= 0.0:
        raise ImpossibleObservationError(
            f"label {y!r} for example {x!r} has zero probability under the mixture"
        )
    new_posteriors = tuple(
        _component_update(c, like, xi, yi, *read) if like > 0.0 else c
        for c, like, read in zip(state.posteriors, likelihoods.tolist(), reads)
    )
    new = MixtureState(
        inst,
        new_weights / total,
        new_posteriors,
        state.step + 1,
        LabeledSet(state.transcript.pairs + ((x, y),)),
    )
    k, V = np.count_nonzero(state.weights), col.new_V
    a = 2 * (a + (k + 1) * (V.size + 2) * 2.0**-1074) / total  # see ``MixtureState._bounds``
    F = F.take(col.keep)  # Σ w·q at the new V
    object.__setattr__(new, "_carried", (V, np.divide(F, total, out=F), r + 4, a))
    return new


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


def _flat_marginals(inst: Instance, V: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, float]:
    """Label marginals of F at V (zero elsewhere) and its float total s, from the first Y − 1
    label rows of each example; the last is s − the others.  A V of at most H/8 hypotheses sums
    over V, from its rows of ``label_matrix``; a larger one multiplies the strided rows of
    ``label_onehot`` by F spread over H, which was faster above H/8 (16 × 65,536 on a 2-vCPU
    x86-64 host, numpy 2.4.6).  ``MixtureState._bounds`` holds for either order."""
    n_y = inst.n_labels
    m = np.empty((inst.n_examples, n_y))
    if 8 * V.size <= inst.n_hypotheses:
        rows = inst.label_matrix.take(V, axis=0)  # (|V|, X)
        for yi in range(n_y - 1):
            m[:, yi] = F @ (rows == yi)
    else:
        flat = F  # V of all holds every hypothesis in order
        if V.size < inst.n_hypotheses:
            flat = np.zeros(inst.n_hypotheses)
            flat[V] = F
        for yi in range(n_y - 1):
            m[:, yi] = inst.label_onehot[yi::n_y] @ flat
    s = float(F.sum())
    m[:, -1] = s - m[:, :-1].sum(axis=1)
    return m, s


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


_GRID_BYTES = 2**30  # the most a grid task's arrays may take


def _grid_cap(n_components: int) -> int:
    """The largest pool whose 2^X labelings fit their arrays in ``_GRID_BYTES``: per labeling,
    X int16 entries each in ``label_matrix`` and ``label_columns``, 2X float64 in
    ``label_onehot`` and one float64 per component prior, 20X + 8k bytes."""
    cap = 0
    while 2 ** (cap + 1) * (20 * (cap + 1) + 8 * n_components) <= _GRID_BYTES:
        cap += 1
    return cap


@functools.lru_cache(maxsize=4)
def grid_task(
    n_examples: int = 16, n_components: int = 4
) -> tuple[Instance, tuple[Prior, ...]]:
    """A pool plus induced priors from an evenly spaced offset grid."""
    if n_examples < 2 or n_components < 1:
        raise ValueError("need at least two examples and one component")
    cap = _grid_cap(n_components)
    if n_examples > cap:  # before anything is allocated
        raise ValueError(
            f"pool size {n_examples} is over the cap of {cap} for {n_components} components: "
            f"its 2**{n_examples} labelings would take more than {_GRID_BYTES >> 30} GiB of arrays"
        )
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
