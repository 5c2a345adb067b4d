"""Certified mixture picks and predicted labels against the dense per-component table.

``mixture._pick`` and ``mixture._argmax_labels`` decide from
``MixtureState._bounds`` (one product of the flattened posterior, widened
by a rounding-error bound that holds for any summation order) and read
the dense table only where the bound cannot separate the answer.  The
dense table (``mixture_marginals``) is the reference: every pick must be
what ``select_from_marginals`` gives on it and every label what
``np.argmax`` gives, bit for bit, whichever path decided it.  The bound
itself is checked against the dense table on random states, and at sweep
size against the exact value in rational arithmetic.
"""

import dataclasses
import hashlib
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal import core, mixture
from poolal.mixture import (
    _argmax_labels,
    _component_marginals,
    _flat_mass,
    _pick,
    _weighted_marginals,
    grid_task,
    initial_state,
    mixture_marginals,
    mixture_observe,
    mixture_predict,
    mixture_step,
    mixture_trajectories,
)
from poolal.policies import select_from_marginals

CRITERIA = ("max_gibbs", "least_confidence", "max_entropy", "gbs")
BOUNDED = ("max_gibbs", "least_confidence")  # scores that never rise with a marginal
U = Fraction(1, 2**53)
TINY = Fraction(1, 2**1074)


class Uncertified(Exception):
    pass


@contextmanager
def dense_table_refused():
    """Inside the block, a state that asks for its exact dense table raises ``Uncertified``."""
    real = mixture._weighted_marginals

    def refuse(state, use_map):
        if not use_map:
            raise Uncertified
        return real(state, use_map)

    with mock.patch.object(mixture, "_weighted_marginals", refuse):
        yield


def certified(decide, state, *args):
    """What ``decide`` returns on ``state`` without its dense table, or None."""
    with dense_table_refused():
        try:
            return decide(state, *args)
        except Uncertified:
            return None


def fresh(state):
    """The same state with nothing cached."""
    return dataclasses.replace(state)


class Tally:
    """How many picks and labels the bound decided, of how many."""

    def __init__(self):
        self.picks = self.picks_certified = self.labels = self.labels_certified = 0


def check_state(state, criterion, tally, use_map=False):
    """Every decision on ``state`` against the dense table; returns the dense pick."""
    inst = state.instance
    queried = set(state.transcript.examples)
    rows = [i for i, x in enumerate(inst.examples) if x not in queried]
    dense = mixture_marginals(fresh(state), use_map)
    labels = np.argmax(dense[rows], axis=1)
    assert np.array_equal(_argmax_labels(fresh(state), rows, use_map), labels)
    for xi, yi in zip(rows, labels.tolist()):
        assert mixture_predict(fresh(state), inst.examples[xi], use_map) == inst.labels[yi]
    bare = fresh(state)  # bounds cached once, dense table never
    for xi, yi in zip(rows, labels.tolist()):
        got = certified(_argmax_labels, bare, [xi], use_map)
        assert got is None or got.tolist() == [yi]
        tally.labels += 1
        tally.labels_certified += got is not None
    pick = select_from_marginals(criterion, dense, rows)
    assert _pick(fresh(state), criterion, rows, use_map) == pick
    got = certified(_pick, bare, criterion, rows, use_map)
    assert got in (None, pick)
    if use_map or criterion not in BOUNDED:
        assert got == (pick if use_map else None)  # the mode table is dense; others fall back
    tally.picks += 1
    tally.picks_certified += got is not None
    return pick


def walk(inst, components, criterion, rng, weights=None, use_map=False, tally=None):
    """A whole seeded run, every state checked; the steps must take the dense picks."""
    tally = Tally() if tally is None else tally
    truth = inst.hypothesis(int(rng.integers(inst.n_hypotheses)))
    state = initial_state(inst, components, weights)
    for _ in range(inst.n_examples):
        pick = check_state(state, criterion, tally, use_map)
        try:
            state = mixture_step(state, criterion, truth.label_of, use_map=use_map)
        except mixture.ImpossibleObservationError:
            return tally  # the truth has no mass under the mixture: nothing left to decide
        assert state.transcript.pairs[-1][0] == inst.examples[pick]
    return tally


def dirichlet_prior(inst, rng, alpha=1.0):
    return pl.Prior(rng.dirichlet(np.full(inst.n_hypotheses, alpha)))


def random_ensemble(inst, rng, n_members=3):
    table = rng.dirichlet(np.ones(inst.n_labels), size=(n_members, inst.n_examples))
    return pl.ModelEnsemble(inst, rng.dirichlet(np.ones(n_members)), table)


def with_subnormals(inst, rng):
    """A prior whose smallest entries are subnormal or tiny normals; it still sums to 1."""
    probs = rng.dirichlet(np.ones(inst.n_hypotheses))
    small = rng.random(inst.n_hypotheses) < 0.5
    small[int(rng.integers(inst.n_hypotheses))] = False
    probs[small] *= 2.0 ** -rng.integers(1000, 1100, size=int(small.sum())).astype(float)
    probs[~small] /= probs[~small].sum()
    return pl.Prior(probs)


def mirror(inst, probs):
    """``probs`` moved onto the complementary labelings of a binary full space."""
    index = {row.tobytes(): h for h, row in enumerate(inst.label_matrix)}
    flipped = [index[(1 - row).astype(row.dtype).tobytes()] for row in inst.label_matrix]
    return pl.Prior(np.asarray(probs)[flipped])


def binary_space(n):
    return pl.full_hypothesis_space(tuple(f"x{i}" for i in range(n)), ("0", "1"))


class TestDifferential:
    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("n_components", [2, 3, 4])
    @pytest.mark.parametrize("n_examples", [8, 10, 12])
    def test_grid_tasks(self, n_examples, n_components, criterion):
        inst, components = grid_task(n_examples, n_components)
        rng = np.random.default_rng([n_examples, n_components])
        tally = walk(inst, components, criterion, rng)
        if criterion in BOUNDED:  # near-ties are rare on the grid: most picks certify
            assert tally.picks_certified * 2 > tally.picks
        assert tally.labels_certified * 2 > tally.labels

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_dirichlet_priors(self, seed, criterion):
        rng = np.random.default_rng([seed, 1])
        n_labels = int(rng.integers(2, 5))
        n_examples = int(rng.integers(3, 7))
        n_h = min(int(rng.integers(20, 300)), n_labels**n_examples)
        inst = pl.random_instance(n_examples, n_h, n_labels, rng=rng)
        alphas = rng.choice([0.1, 1.0, 5.0], size=int(rng.integers(2, 5)))
        components = [dirichlet_prior(inst, rng, alpha) for alpha in alphas]
        walk(inst, components, criterion, rng)

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("seed", range(6))
    def test_ensembles_mixed_with_priors(self, seed, criterion):
        rng = np.random.default_rng([seed, 2])
        n_labels = int(rng.integers(2, 5))
        inst = pl.random_instance(5, min(200, n_labels**5), n_labels, rng=rng)
        components = [dirichlet_prior(inst, rng), random_ensemble(inst, rng)]
        components.append(dirichlet_prior(inst, rng))
        walk(inst, components, criterion, rng)
        walk(inst, [random_ensemble(inst, rng), random_ensemble(inst, rng, 1)], criterion, rng)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_zero_weight_and_identical_components(self, criterion):
        inst, (a, b, c, d) = grid_task(10, 4)
        rng = np.random.default_rng(3)
        walk(inst, [a, b, c], criterion, rng, weights=[0.0, 0.5, 0.5])
        walk(inst, [b, b, b], criterion, rng)
        walk(inst, [a, a, d, d], criterion, rng, weights=[0.25, 0.25, 0.0, 0.5])

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_mirrored_components_tie_exactly_and_fall_back(self, criterion):
        inst = binary_space(6)
        rng = np.random.default_rng(4)
        point = np.zeros(inst.n_hypotheses)
        point[int(rng.integers(inst.n_hypotheses))] = 1.0
        cases = [[pl.Prior(point), mirror(inst, point)], [pl.uniform_prior(inst)]]
        q = rng.dirichlet(np.ones(inst.n_hypotheses))
        cases.append([pl.Prior(q), mirror(inst, q)])
        for components in cases:
            state = initial_state(inst, components)
            tally = Tally()
            check_state(state, criterion, tally)
            # every example's two labels have equal exact mass, so no bound can part them
            assert tally.labels_certified == 0 and tally.picks_certified == 0
            if len(components) == 2 and components[0].probs.max() == 1.0:
                assert np.all(mixture_marginals(state) == 0.5)
            walk(inst, components, criterion, rng)

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("seed", range(4))
    def test_subnormal_priors_and_tiny_weights(self, seed, criterion):
        rng = np.random.default_rng([seed, 5])
        inst = pl.random_instance(9, 400, 2 + seed % 2, rng=rng)
        components = [with_subnormals(inst, rng) for _ in range(3)] + [random_ensemble(inst, rng)]
        walk(inst, components, criterion, rng)
        weights = [1.0 - 2.0**-60, 2.0**-60 - 2.0**-1074, 2.0**-1074, 0.0]
        walk(inst, components, criterion, rng, weights=weights)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_use_map_reads_the_mode_table(self, criterion):
        inst, components = grid_task(8, 3)
        walk(inst, components, criterion, np.random.default_rng(6), use_map=True)
        rng = np.random.default_rng(7)
        inst = pl.random_instance(5, 100, 3, rng=rng)
        components = [dirichlet_prior(inst, rng), random_ensemble(inst, rng)]
        walk(inst, components, criterion, rng, use_map=True)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.integers(1, 4),
        st.sampled_from(CRITERIA),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_mixtures(self, seed, n_labels, n_components, criterion, ensemble):
        rng = np.random.default_rng(seed)
        n_examples = int(rng.integers(2, 6))
        n_h = min(int(rng.integers(1, 120)), n_labels**n_examples)
        inst = pl.random_instance(n_examples, n_h, n_labels, rng=rng)
        components = [dirichlet_prior(inst, rng, 0.3) for _ in range(n_components)]
        if ensemble:
            components.append(random_ensemble(inst, rng))
        walk(inst, components, criterion, rng)


def exact_table(state):
    """Σ w·T over the live components in rationals: T the exact sums of a prior's masses, an
    ensemble's float table taken as exact (both paths add its ``w * table``)."""
    inst = state.instance
    table = [[Fraction(0)] * inst.n_labels for _ in range(inst.n_examples)]
    for w, comp in state.components:
        if w == 0.0:
            continue
        if isinstance(comp, pl.Prior):
            for h, row in enumerate(inst.label_matrix.tolist()):
                for xi, yi in enumerate(row):
                    table[xi][yi] += Fraction(w) * Fraction(float(comp.probs[h]))
        else:
            for xi, row in enumerate(_component_marginals(comp, inst).tolist()):
                for yi, t in enumerate(row):
                    table[xi][yi] += Fraction(w) * Fraction(t)
    return table


def gamma(n):
    return n * U / (1 - n * U)


def random_start(rng, inst, n_components, subnormal):
    """A step-0 state of up to 8 components (priors, some with subnormal masses, and ensembles)
    with tiny weights among them, and a labeling its first prior gives positive mass."""
    components = [with_subnormals(inst, rng) if subnormal else dirichlet_prior(inst, rng)]
    for _ in range(n_components - 1):
        kind = rng.integers(3)
        components.append(
            random_ensemble(inst, rng) if kind == 0
            else with_subnormals(inst, rng) if kind == 1
            else dirichlet_prior(inst, rng, 0.2)
        )
    weights = rng.dirichlet(np.ones(n_components))
    if subnormal and n_components > 1:
        weights[1:] *= 2.0 ** -rng.integers(0, 1075, size=n_components - 1).astype(float)
        weights[0] = 1.0 - weights[1:].sum()
    truth = inst.label_matrix[int(np.argmax(components[0].probs))]
    return initial_state(inst, components, weights), truth


def random_state(rng, inst, n_components, subnormal):
    """A ``random_start`` state after a few observations."""
    state, truth = random_start(rng, inst, n_components, subnormal)
    for xi in rng.permutation(inst.n_examples)[: int(rng.integers(0, inst.n_examples))].tolist():
        state = mixture_observe(state, inst.examples[xi], inst.labels[truth[xi]])
    return state


class TestBound:
    @pytest.mark.parametrize("subnormal", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_dense_table_inside_bounds(self, seed, subnormal):
        rng = np.random.default_rng([seed, 8])
        n_labels = int(rng.integers(2, 5))
        n_h = min(int(rng.integers(50, 2000)), n_labels**6)
        inst = pl.random_instance(6, n_h, n_labels, rng=rng)
        state = random_state(rng, inst, int(rng.integers(1, 9)), subnormal)
        lo, hi = state._bounds
        dense = _weighted_marginals(state, False)
        assert np.all(lo <= dense) and np.all(dense <= hi)
        assert np.all(lo >= 0.0)

    @pytest.mark.parametrize("n_examples", [4, 12])
    def test_subnormal_marginals_need_the_absolute_term(self, n_examples):
        # the all-'0' labeling holds the mass and every other entry is a subnormal multiple of
        # 2⁻¹⁰⁷⁴: the label-'1' marginals are subnormal, w·q rounds to whole units there, and
        # the two sums part by more than δ covers
        inst = binary_space(n_examples)
        rng = np.random.default_rng(n_examples)
        components = []
        for _ in range(2):
            probs = rng.integers(1, 2**20, size=inst.n_hypotheses) * 2.0**-1074
            probs[0] = 1.0
            components.append(pl.Prior(probs))
        state = initial_state(inst, components, [0.3, 0.7])
        lo, hi = state._bounds
        dense = _weighted_marginals(state, False)
        assert np.all(lo <= dense) and np.all(dense <= hi)
        live = list(state.components)
        flat = pl.label_marginals(pl.Prior._trusted(_flat_mass(live, inst.n_hypotheses)), inst)
        assert np.any(dense != flat)  # a case the relative term alone would miss
        if inst.n_hypotheses <= 16:
            exact = exact_table(state)
            assert all(
                Fraction(float(lo[xi, yi])) <= exact[xi][yi] <= Fraction(float(hi[xi, yi]))
                for xi in range(inst.n_examples)
                for yi in range(inst.n_labels)
            )

    def test_grid_states_inside_bounds(self):
        inst, components = grid_task(12, 4)
        truth = inst.hypothesis(1234)
        state = initial_state(inst, components)
        for x in inst.examples:
            lo, hi = state._bounds
            dense = _weighted_marginals(state, False)
            assert np.all(lo <= dense) and np.all(dense <= hi)
            assert np.all(hi - lo <= 1e-9)  # tight enough to decide everything but near-ties
            state = mixture_observe(state, x, truth.label_of(x))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exact_value_inside_both_bounds(self, seed, n_components, subnormal):
        rng = np.random.default_rng(seed)
        n_labels = int(rng.integers(2, 4))
        n_examples = int(rng.integers(1, 5))
        n_h = min(int(rng.integers(1, 9)), n_labels**n_examples)
        inst = pl.random_instance(n_examples, n_h, n_labels, rng=rng)
        state = random_state(rng, inst, n_components, subnormal)
        exact = exact_table(state)
        live = [(w, c) for w, c in state.components if w != 0.0]
        H, k = inst.n_hypotheses, len(live)
        legacy = _weighted_marginals(state, False)
        flat = pl.label_marginals(pl.Prior._trusted(_flat_mass(live, H)), inst)
        for w, comp in live:
            if not isinstance(comp, pl.Prior):
                flat += w * _component_marginals(comp, inst)
        lo, hi = state._bounds
        for xi in range(inst.n_examples):
            for yi in range(inst.n_labels):
                e = exact[xi][yi]
                assert abs(Fraction(float(legacy[xi, yi])) - e) <= gamma(H + k) * e + k * TINY
                err = abs(Fraction(float(flat[xi, yi])) - e)
                assert err <= gamma(H + 2 * k + 1) * e + (H + 1) * k * TINY
                assert Fraction(float(lo[xi, yi])) <= e <= Fraction(float(hi[xi, yi]))
                assert lo[xi, yi] <= legacy[xi, yi] <= hi[xi, yi]


def exact_flat(state):
    """Σ w·q[h] over the live prior components, in rationals."""
    flat = [Fraction(0)] * state.instance.n_hypotheses
    for w, comp in state.components:
        if w != 0.0 and isinstance(comp, pl.Prior):
            for h, q in enumerate(comp.probs.tolist()):
                flat[h] += Fraction(w) * Fraction(q)
    return flat


def check_chained_bounds(state):
    """The carried flat within its stated error of the exact Σ w·q, and every exact table entry,
    the last label's (the complement) included, inside (lo, hi)."""
    V, F, r, a = state._carried
    carried = np.zeros(state.instance.n_hypotheses)
    carried[V] = F
    exact, inside = exact_flat(state), set(V.tolist())
    assert all(e == 0 for h, e in enumerate(exact) if h not in inside)
    beyond = sum(
        max(Fraction(0), abs(Fraction(f) - e) - gamma(r) * e)
        for f, e in zip(carried.tolist(), exact)
    )
    assert beyond <= Fraction(a)
    table = exact_table(state)
    lo, hi = state._bounds
    for xi, row in enumerate(table):
        for yi, e in enumerate(row):
            assert Fraction(float(lo[xi, yi])) <= e <= Fraction(float(hi[xi, yi]))
    return lo, hi


def chain(state, labels, order):
    """``state`` and every state after it as ``labels`` come in ``order``."""
    states = [state]
    for xi in order:
        x = state.instance.examples[xi]
        states.append(mixture_observe(states[-1], x, state.instance.labels[labels[xi]]))
    return states


class TestChainedBound:
    """``_bounds`` on states reached by up to 8 observations, each carrying the flat posterior
    forward, against the exact table in rational arithmetic."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_exact_value_inside_bounds(self, seed, n_components, subnormal):
        rng = np.random.default_rng(seed)
        n_labels = int(rng.integers(2, 4))
        n_examples = int(rng.integers(1, 9))
        inst = pl.random_instance(
            n_examples, min(int(rng.integers(1, 13)), n_labels**n_examples), n_labels, rng=rng
        )
        start, truth = random_start(rng, inst, n_components, subnormal)
        for state in chain(start, truth, rng.permutation(n_examples)):
            check_chained_bounds(state)

    @pytest.mark.parametrize("labels", [(0, 0, 0, 0, 0, 0, 0, 0), (1, 0, 1, 1, 0, 1, 0, 1)])
    def test_subnormal_masses_and_complement_entries(self, labels):
        # every labeling but the all-'0' one holds a subnormal mass, so the label-'1' entries,
        # which the bound reads as the total minus the label-'0' entry, are subnormal or tiny
        inst = binary_space(8)
        rng = np.random.default_rng(sum(labels))
        components = []
        for _ in range(2):
            probs = rng.integers(1, 2**20, size=inst.n_hypotheses) * 2.0**-1074
            probs[0] = 1.0
            components.append(pl.Prior(probs))
        start = initial_state(inst, components, [0.3, 0.7])
        for state in chain(start, labels, range(8)):
            lo, hi = check_chained_bounds(state)
            dense = _weighted_marginals(state, False)
            assert np.all(lo <= dense) and np.all(dense <= hi)


def test_grid_unit_makes_one_product_per_state():
    """The ``grid`` benchmark unit: one reduced product of the carried flat posterior per
    decided state, the four per-component products only where a decision falls back, and the
    parent's rows."""
    rows_made, fallbacks = [], []
    real_rows, real_flat, real_table = (
        core._marginal_rows, mixture._flat_marginals, mixture._weighted_marginals
    )

    def counting_rows(inst, P):
        rows_made.append(len(P))
        return real_rows(inst, P)

    def counting_flat(inst, V, F):
        rows_made.append(1)
        return real_flat(inst, V, F)

    def counting_table(state, use_map):
        fallbacks.append(state)  # only a decision the bound leaves open reads the dense table
        return real_table(state, use_map)

    with mock.patch.object(core, "_marginal_rows", counting_rows), mock.patch.object(
        mixture, "_flat_marginals", counting_flat
    ), mock.patch.object(mixture, "_weighted_marginals", counting_table):
        rows, means = mixture_trajectories(
            *grid_task(16, 4), budget=8, n_seeds=1, with_passive=True, seed=0
        )
    # 17 decided states: the adaptive run's first and 8 more, and the passive run's 8; the
    # dense table, where a state needs it, adds a product per component (4 live here)
    assert sum(rows_made) == 17 + 4 * len(fallbacks) < 68
    digest = hashlib.sha256(
        repr([(*r[:5], r[5].tobytes().hex(), r[6]) for r in rows]).encode()
    ).hexdigest()
    assert digest == "f817bfce6c5bea4d0ee9fd24a137b519ce082c7f6b093904c23c7329beb977de"
    assert means == {"al": 1.0, "passive": 1.0}


def test_grid_pool_reads_the_dense_table_six_times():
    """The ``grid`` benchmark's 64 pool units (seeds 0-63, budget 8, with passive): the bound
    leaves exactly 6 of their decisions to the dense per-component table."""
    fallbacks = []
    real_table = mixture._weighted_marginals

    def counting_table(state, use_map):
        fallbacks.append(state)
        return real_table(state, use_map)

    with mock.patch.object(mixture, "_weighted_marginals", counting_table):
        for seed in range(64):
            mixture_trajectories(*grid_task(16, 4), 8, 1, with_passive=True, seed=seed)
    assert len(fallbacks) == 6
