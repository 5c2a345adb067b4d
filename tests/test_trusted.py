"""Vectors the package derives from an already-validated prior skip the checks.

Posteriors, tree branches, mixture updates and the built-in losses are
wrapped without a copy or a re-validation.  These tests hold each such
vector to what the public constructors would have accepted, bit for bit,
and pin that the fast path is taken.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal import policies
from poolal.core import NORM_TOL
from poolal.mixture import grid_task, initial_state, mixture_observe
from poolal.policies import _grow_rounds, build_batch_policy, build_policy
from poolal.utilities import hamming_loss, zero_one_loss


def assert_prior_bits(probs):
    """``probs`` is what public ``Prior`` makes of the same array, bit for bit."""
    checked = pl.Prior(probs)
    assert np.array_equal(probs, checked.probs)
    assert probs.dtype == np.float64
    assert np.all(probs >= 0.0)
    assert abs(float(probs.sum()) - 1.0) <= NORM_TOL


def assert_trusted(probs):
    """``probs`` is a package-made vector with ``Prior``'s bits, read-only as a Prior's are."""
    assert_prior_bits(probs)
    assert not probs.flags.writeable


def record_densified(monkeypatch):
    """Every posterior row the tree grower densifies from now on, in order."""
    rows = []
    real = policies._densify

    def densify(*args):
        P = real(*args)
        assert not P.flags.writeable  # so every row of it is read-only
        rows.extend(P)
        return P

    monkeypatch.setattr(policies, "_densify", densify)
    return rows


def grower_branches(p, inst, xi):
    """The grower's posterior on each label branch of example ``xi``, in label order.

    One blind round queries ``xi`` twice, so every branch of the first
    query is expanded, and enters the next level's compact frontier,
    exactly once; each is densified here, +0.0 off its entries.
    """
    levels = []
    real = policies._frontier

    def frontier(*args):
        levels.append(real(*args))
        return levels[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policies, "_frontier", frontier)
        _grow_rounds(p.probs[None], inst, 1, lambda P, level, avail: [(xi, xi)] * len(avail))
    (node, hyp, val, avail, _), = levels
    rows = np.zeros((len(avail), inst.n_hypotheses))
    rows[node, hyp] = val
    return list(rows)


def case_with_zero_mass(seed, n_labels):
    """A random instance whose prior gives some hypotheses zero mass."""
    rng = np.random.default_rng(seed)
    n_x = int(rng.integers(1, 5))
    n_h = int(rng.integers(2, min(9, n_labels**n_x) + 1))
    inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
    mass = rng.dirichlet(np.ones(n_h))
    mass[rng.random(n_h) < 0.4] = 0.0
    if mass.sum() == 0.0:
        mass[int(rng.integers(n_h))] = 1.0
    return inst, pl.Prior(mass / mass.sum())


def check_every_branch(inst, p):
    """Every one-step posterior of ``p``, through all three trusted paths."""
    comp_state = initial_state(inst, [p])
    for xi, x in enumerate(inst.examples):
        branches = iter(grower_branches(p, inst, xi))
        for yi, y in enumerate(inst.labels):
            mask = inst.label_matrix[:, xi] == yi
            if not mask.any():
                continue
            mass = float(p.probs[mask].sum())
            branch = next(branches)
            assert_prior_bits(branch)
            if mass == 0.0:  # the uniform fallback over the branch
                np.testing.assert_array_equal(branch, np.where(mask, 1.0, 0.0) / mask.sum())
                continue
            expected = pl.Prior(np.where(mask, p.probs, 0.0) / mass)
            assert np.array_equal(branch, expected.probs)
            for derived in (
                pl.posterior(p, inst, [(x, y)]).probs,
                mixture_observe(comp_state, x, y).posteriors[0].probs,
            ):
                assert_trusted(derived)
                assert np.array_equal(derived, expected.probs)
        assert next(branches, None) is None


class TestTrustedPriors:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_labels", [2, 3])
    def test_seeded_branches(self, seed, n_labels):
        check_every_branch(*case_with_zero_mass(seed, n_labels))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_generated_branches(self, seed, n_labels):
        check_every_branch(*case_with_zero_mass(seed, n_labels))

    def test_zero_mass_branch_falls_back_to_uniform(self, square):
        p = pl.Prior([0.5, 0.5, 0.0, 0.0])  # x1 = 1 has no mass
        _, branch = grower_branches(p, square, 1)
        assert_prior_bits(branch)
        np.testing.assert_array_equal(branch, [0.0, 0.0, 0.5, 0.5])

    @pytest.mark.parametrize("seed", range(6))
    def test_every_branch_of_grown_trees(self, monkeypatch, seed):
        inst, p = case_with_zero_mass(seed, 2 + seed % 2)
        seen = record_densified(monkeypatch)
        for criterion in ("max_gibbs", "least_confidence", "gbs", "worst_gen_gibbs"):
            build_policy(criterion, p, inst, inst.n_examples)
        build_batch_policy(p, inst, 1, inst.n_examples)
        assert seen
        for q in seen:
            assert_trusted(q)


class TestTrustedLosses:
    @pytest.mark.parametrize("make", [zero_one_loss, hamming_loss])
    @pytest.mark.parametrize("n_x, n_h, n_y, seed", [(1, 2, 2, 0), (3, 9, 3, 1), (6, 40, 2, 2)])
    def test_built_in_losses_equal_the_checked_matrix(self, make, n_x, n_h, n_y, seed):
        loss = make(pl.random_instance(n_x, n_h, n_y, rng=seed))
        checked = pl.LossMatrix(loss.values, loss.bound)
        assert np.array_equal(loss.values, checked.values)
        assert loss.values.dtype == np.float64
        assert loss.bound == checked.bound == 1.0
        assert not loss.values.flags.writeable


def test_public_constructors_still_check():
    nan = float("nan")
    for bad, message in (([1.5, -0.5], "nonnegative"), ([nan, 1.0], "finite"), ([0.5, 0.4], "sum to 1")):
        with pytest.raises(ValueError, match=message):
            pl.Prior(bad)
    for bad, message in (
        ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
        ([[0.0, nan], [nan, 0.0]], "finite"),
        ([[0.0, 1.0], [0.5, 0.0]], "symmetric"),
        ([[0.5, 1.0], [1.0, 0.0]], "self-loss"),
    ):
        with pytest.raises(ValueError, match=message):
            pl.LossMatrix(np.array(bad))


@pytest.fixture
def count_validations(monkeypatch):
    """Counts of ``Prior`` and ``LossMatrix`` validations from now on."""
    counts = {"Prior": 0, "LossMatrix": 0}
    for cls in (pl.Prior, pl.LossMatrix):
        real = cls.__post_init__

        def counting(self, real=real, name=cls.__name__):
            counts[name] += 1
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


class TestFastPathTaken:
    def test_gbs_tree_validates_no_prior(self, count_validations):
        inst = pl.random_instance(12, 1000, 2, rng=0)
        p = pl.random_prior(inst, 1)
        count_validations["Prior"] = 0
        tree = build_policy("gbs", p, inst, inst.n_examples, stop_when_identified=True)
        assert tree.root is not None
        assert count_validations["Prior"] == 0

    def test_mixture_step_validates_no_prior(self, count_validations):
        inst, components = grid_task.__wrapped__(8, 2)
        state = initial_state(inst, components)
        count_validations["Prior"] = 0
        mixture_observe(state, "x3", "1")
        assert count_validations["Prior"] == 0

    def test_zero_one_loss_validates_nothing(self, count_validations):
        zero_one_loss(pl.random_instance(6, 40, 2, rng=0))
        assert count_validations == {"Prior": 0, "LossMatrix": 0}
