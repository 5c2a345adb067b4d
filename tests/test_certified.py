"""Certified worst-case picks and f_worst minima against the dense 0-1 products.

Under the built-in 0-1 loss, ``policies._worst_gen_gibbs_picks`` certifies
a pick, and ``optimal.f_worst`` rules leaves out of its min, from
closed-form pair masses and the rounding-error bound of
``utilities._pair_mass_bounds``.  The same matrix wrapped without the
0-1 marker takes the dense path everywhere, so it is the reference: every
pick, tree and value must match it bit for bit.  The bound itself is
checked in exact integer arithmetic (every double is a multiple of
2⁻¹⁰⁷⁴), against the closed form up to H = 65,536 and against both BLAS
routes (``v @ L @ v`` and the stacked ``Q @ L``) wherever the dense loss
fits in memory (H <= 4,096; at 65,536 it would take 34 GB).  The decision
rule every certified site shares, ``utilities._certified_argmax``, is
checked against a brute-force copy of the inline test it replaced, and the
share of picks it leaves to the dense product is pinned on fixed instances.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolal as pl
from poolal import optimal, policies
from poolal.robustness import sweep_reports
from poolal.optimal import _leaf_utilities, f_worst
from poolal.policies import (
    _worst_gen_gibbs_gains,
    _worst_gen_gibbs_picks,
    build_policy,
    policy_to_text,
    select,
)
from poolal.utilities import (
    GeneralizedReduction,
    LossMatrix,
    _certified_argmax,
    _contenders,
    _pair_mass_bounds,
    hamming_loss,
    load_loss_matrix,
    zero_one_loss,
)

PRIORS = ("dirichlet", "sparse_dirichlet", "uniform", "zero_mass")


def unmarked(loss):
    """The same 0-1 matrix without the marker: the dense path everywhere."""
    return LossMatrix._trusted(loss.values, loss.bound)


class Uncertified(Exception):
    pass


def certified_pick(inst, probs, avail, loss):
    """The pick ``_worst_gen_gibbs_picks`` makes without the dense product, or None."""

    def refuse(*args):
        raise Uncertified

    with mock.patch.object(policies, "_worst_gen_gibbs_gains", refuse):
        try:
            return int(_worst_gen_gibbs_picks(inst, probs[None], avail[None], loss)[0])
        except Uncertified:
            return None


@contextmanager
def leaf_evaluations():
    """The size of every V whose utility ``optimal`` evaluates inside the block."""
    real, sizes = optimal._set_utility_fn, []

    def counting(*args):
        value = real(*args)
        return lambda V: sizes.append(V.size) or value(V)

    with mock.patch.object(optimal, "_set_utility_fn", counting):
        yield sizes


def dense_pick(p, inst, candidates, loss):
    return candidates[int(np.argmax(_worst_gen_gibbs_gains(p, inst, candidates, loss)))]


def make_case(rng, n_x, n_y, n_h, prior):
    inst = pl.random_instance(n_x, min(n_h, n_y**n_x), n_y, rng=rng)
    H = inst.n_hypotheses
    if prior == "uniform":
        return inst, pl.uniform_prior(inst)
    probs = rng.dirichlet(np.full(H, 0.05 if prior == "sparse_dirichlet" else 1.0))
    if prior == "zero_mass":
        probs[rng.permutation(H)[: H // 2]] = 0.0
    return inst, pl.Prior(probs / probs.sum())


def check_pick(inst, p, rng, loss):
    """The pick with certification equals the dense argmax; True when it was certified."""
    avail = rng.random(inst.n_examples) < 0.7
    avail[rng.integers(inst.n_examples)] = True
    want = dense_pick(p, inst, np.flatnonzero(avail), loss)
    assert _worst_gen_gibbs_picks(inst, p.probs[None], avail[None], loss).tolist() == [want]
    got = certified_pick(inst, p.probs, avail, loss)
    assert got in (None, want)
    return got is not None


def check_trees(inst, p, budget, loss):
    """Trees and worst-case values against the unmarked loss, bit for bit."""
    tree = build_policy("worst_gen_gibbs", p, inst, budget, loss)
    ref = build_policy("worst_gen_gibbs", p, inst, budget, unmarked(loss))
    assert policy_to_text(tree) == policy_to_text(ref)
    u = GeneralizedReduction(loss)
    for t in (tree, build_policy("max_gibbs", p, inst, budget)):
        assert f_worst(p, u, t).hex() == min(_leaf_utilities(p, u, t)).hex()


class TestDifferential:
    def test_seeded_picks_trees_and_values(self):
        rng = np.random.default_rng(2024)
        certified = 0
        for case in range(160):
            n_x, n_y = int(rng.integers(1, 9)), int(rng.integers(2, 4))
            inst, p = make_case(rng, n_x, n_y, int(2 ** rng.uniform(0, 9)), PRIORS[case % 4])
            loss = zero_one_loss(inst)
            certified += check_pick(inst, p, rng, loss)
            check_trees(inst, p, int(rng.integers(1, n_x + 1)), loss)
        assert 0 < certified < 160  # uniform priors tie

    @pytest.mark.parametrize("n_h, budget", [(1000, 3), (4096, 1)])
    def test_large(self, n_h, budget):
        rng = np.random.default_rng(n_h)
        for prior in PRIORS:
            inst, p = make_case(rng, 8, 3, n_h, prior)
            loss = zero_one_loss(inst)
            check_pick(inst, p, rng, loss)
            check_trees(inst, p, budget, loss)

    def test_every_budget(self):
        rng = np.random.default_rng(77)
        for prior in PRIORS:
            inst, p = make_case(rng, 6, 2, 60, prior)
            for budget in range(1, 7):
                check_trees(inst, p, budget, zero_one_loss(inst))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([2, 3]),
           st.integers(0, 12), st.sampled_from(PRIORS), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_generated(self, seed, n_x, n_y, log_h, prior, budget):
        rng = np.random.default_rng(seed)
        inst, p = make_case(rng, n_x, n_y, 2**log_h, prior)
        loss = zero_one_loss(inst)
        check_pick(inst, p, rng, loss)
        # the dense reference pays H x H per node: deep trees only where that is cheap
        check_trees(inst, p, min(budget, n_x, 2 if inst.n_hypotheses > 512 else 8), loss)


class TestNearTies:
    """Gaps from 1e-4 down to subnormal: both sides of the bound, always the dense pick."""

    @pytest.mark.parametrize("pos", ["before", "after"])
    def test_copy_told_apart_by_one_hypothesis(self, pos):
        rng = np.random.default_rng(13)
        base = pl.random_instance(8, 200, 2, rng=rng)
        probs, h = rng.dirichlet(np.ones(200)), int(rng.integers(200))
        made, sides = {}, set()
        for k in range(4, 321):
            q = probs.copy()
            q[h] = 10.0**-k
            p = pl.Prior(q / q.sum())
            best = dense_pick(p, base, np.arange(8), zero_one_loss(base))
            if best not in made:  # a copy of the best column, except at h
                at = 0 if pos == "before" else 8
                examples = list(base.examples)
                examples.insert(at, "copy")
                hyps = []
                for i, hyp in enumerate(base.hypotheses):
                    labels = list(hyp.labels)
                    labels.insert(at, labels[best] if i != h else str(1 - int(labels[best])))
                    hyps.append(pl.Hypothesis(hyp.id, tuple(examples), tuple(labels)))
                made[best] = pl.Instance(examples, base.labels, hyps)
            inst = made[best]
            loss = zero_one_loss(inst)
            avail = np.ones(9, dtype=bool)
            want = dense_pick(p, inst, np.arange(9), loss)
            picks = _worst_gen_gibbs_picks(inst, p.probs[None], avail[None], loss)
            assert picks.tolist() == [want]
            got = certified_pick(inst, p.probs, avail, loss)
            assert got in (None, want)
            sides.add(got is None)
            assert select("worst_gen_gibbs", p, inst, inst.examples, loss) == inst.examples[want]
        assert sides == {True, False}

    def test_mirrored_leaves(self):
        # the two leaves of a depth-1 tree carry the same masses but for 10**-k at one hypothesis
        inst = pl.full_hypothesis_space(tuple(f"x{i}" for i in range(8)), ("0", "1"))
        tree = pl.PolicyTree(inst, pl.PolicyNode("x0", (None, None)))
        base = np.random.default_rng(3).dirichlet(np.ones(128))
        with leaf_evaluations() as evaluated:
            for k in range(0, 321, 4):
                q = np.repeat(base, 2)  # x0 is the lowest digit: hypotheses 2i and 2i + 1 mirror
                q[1] += 10.0**-k
                p = pl.Prior(q / q.sum())
                u = GeneralizedReduction(zero_one_loss(inst))
                del evaluated[:]
                assert f_worst(p, u, tree).hex() == min(_leaf_utilities(p, u, tree)).hex()
                if k == 0:
                    assert len(evaluated) == 1 + 2  # one leaf here, two in the reference
        assert len(evaluated) == 2 + 2  # an exact tie keeps both leaves


def exact_pair_mass(v):
    """(vᵀLv under the 0-1 loss, S = Σv), exactly."""
    # x = num / 2**e exactly, so x * 2**1074 is the integer num << (1074 - e)
    n = [num << (1075 - den.bit_length()) for num, den in map(float.as_integer_ratio, v.tolist())]
    S = sum(n)
    return Fraction(S * S - sum(k * k for k in n), 2**2148), Fraction(S, 2**1074)


def gamma(k):
    return Fraction(k, 2**53 - k)  # k·u / (1 − k·u), u = 2⁻⁵³


def rows(rng, n, count):
    """Rows of n entries: flat and uneven masses, masses far below 1, subnormal entries, zeros."""
    out = [rng.dirichlet(np.ones(n)), rng.dirichlet(np.full(n, 0.05)), np.zeros(n)]
    out.append(rng.dirichlet(np.ones(n)) * 1e-200)
    sub = rng.integers(0, 2**20, n) * 2.0**-1074  # every entry subnormal
    out += [sub, np.where(rng.random(n) < 0.5, sub, rng.dirichlet(np.ones(n)) * 1e-150)]
    while len(out) < count:
        out.append(rng.dirichlet(np.ones(n)) * 10.0 ** -rng.uniform(0, 300))
    return np.array(out[:count])


def check_bounds(V, blas=True):
    """Each row's exact pair mass is within the stated errors of the closed form and of the
    BLAS values, and the float bounds contain the BLAS values."""
    n = V.shape[1]
    s, ss = V.sum(axis=1), (V * V).sum(axis=1)
    lo, hi = _pair_mass_bounds(s, ss, n)
    closed = s * s - ss
    if blas:
        L = np.ones((n, n))
        np.fill_diagonal(L, 0.0)
        routes = [np.einsum("ij,ij->i", V @ L, V), np.array([float(v @ L @ v) for v in V])]
    for i, v in enumerate(V):
        T, S = exact_pair_mass(v)
        assert abs(Fraction(closed[i]) - T) <= gamma(3 * n + 4) * S * S + n * Fraction(1, 2**1074)
        for p_hat in (route[i] for route in routes) if blas else ():
            assert abs(Fraction(p_hat) - T) <= gamma(2 * n) * S * S + n * Fraction(1, 2**1074)
            assert lo[i] <= p_hat <= hi[i]


class TestPairMassBounds:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000, 4096])
    def test_blas_and_closed_form(self, n):
        check_bounds(rows(np.random.default_rng(n), n, 12))

    def test_closed_form_at_65536(self):
        check_bounds(rows(np.random.default_rng(1), 65536, 8), blas=False)

    @given(st.lists(st.floats(0.0, 1.0, allow_subnormal=True), min_size=1, max_size=8),
           st.integers(0, 1074))
    @settings(max_examples=200, deadline=None)
    def test_sweep_size_exact(self, entries, shift):
        v = np.array(entries) * 2.0**-shift  # masses anywhere down to the subnormal range
        check_bounds(v[None])


class TestCounts:
    """The trees workload's worst-case tree and value skip the dense products."""

    @pytest.mark.parametrize("ident", range(4))
    def test_trees_instances(self, ident):
        rng = np.random.default_rng([12, 1000, ident])
        inst = pl.random_instance(12, 1000, 2, rng=rng)
        p = pl.random_prior(inst, rng)
        loss = zero_one_loss(inst)
        with mock.patch.object(policies, "_worst_gen_gibbs_gains", side_effect=AssertionError):
            tree = build_policy("worst_gen_gibbs", p, inst, 4, loss)
        with leaf_evaluations() as evaluated:
            value = f_worst(p, GeneralizedReduction(loss), tree)
        assert len(evaluated) <= 2
        assert value == min(_leaf_utilities(p, GeneralizedReduction(loss), tree))

    def test_unreached_slots_are_never_evaluated(self, chain):
        # every leaf holds one hypothesis, so all tie at pair mass 0 and one stands for the
        # three; slots 0, 1 and 3 hold none
        tree = pl.PolicyTree(chain, pl.PolicyNode("x0", (pl.PolicyNode("x1", (None, None)),) * 2))
        p, u = pl.Prior([0.2, 0.3, 0.5]), GeneralizedReduction(zero_one_loss(chain))
        with leaf_evaluations() as evaluated:
            value = f_worst(p, u, tree)
        assert evaluated == [1]
        assert value == min(_leaf_utilities(p, u, tree))

    def test_one_singleton_leaf_is_evaluated(self):
        # verify-sized greedy trees, whose contending leaves mostly hold one hypothesis; under a
        # uniform prior they tie exactly
        skipped = 0
        for seed in range(40):
            rng = np.random.default_rng([seed, 17])
            n_x = int(rng.integers(2, 5))
            inst = pl.random_instance(n_x, min(int(rng.integers(3, 9)), 2**n_x), 2, rng=rng)
            p, u = pl.random_prior(inst, rng), GeneralizedReduction(zero_one_loss(inst))
            tree = build_policy("worst_gen_gibbs", p, inst, min(2, n_x))
            p0 = p if seed % 2 else pl.uniform_prior(inst)
            key, q = optimal._route(tree)[0], p0.probs
            lo, hi = _pair_mass_bounds(np.bincount(key, q), np.bincount(key, q * q), q.size)
            size = np.bincount(key)
            hi[size == 0] = -math.inf
            contenders = np.flatnonzero(_contenders(lo, hi))
            value = optimal._set_utility_fn(u, p0, inst)
            every = min(value(np.flatnonzero(key == k)) for k in contenders)
            with mock.patch.object(optimal, "_set_utility_fn") as make:
                make.return_value = mock.Mock(side_effect=value)
                got = f_worst(p0, u, tree)
            singles = int((size[contenders] == 1).sum())
            assert make.return_value.call_count == len(contenders) - max(singles - 1, 0)
            assert got == every  # the same double as evaluating every contender
            skipped += max(singles - 1, 0)
        assert skipped > 0

    def test_ties_and_other_losses_take_the_dense_product(self):
        rng = np.random.default_rng(5)
        inst = pl.random_instance(6, 50, 2, rng=rng)
        p = pl.uniform_prior(inst)
        avail = np.ones((1, 6), dtype=bool)
        for loss in (hamming_loss(inst), unmarked(zero_one_loss(inst))):
            dense = _worst_gen_gibbs_gains
            with mock.patch.object(policies, "_worst_gen_gibbs_gains", wraps=dense) as gains:
                _worst_gen_gibbs_picks(inst, p.probs[None], avail, loss)
            assert gains.call_count == 1
        # a column and its copy tie exactly: no certificate, the lowest index wins
        examples = inst.examples + ("copy",)
        hyps = [pl.Hypothesis(h.id, examples, h.labels + h.labels[:1]) for h in inst.hypotheses]
        twin = pl.Instance(examples, inst.labels, hyps)
        only = np.zeros(7, dtype=bool)
        only[[0, 6]] = True
        loss = zero_one_loss(twin)
        assert certified_pick(twin, p.probs, only, loss) is None
        assert _worst_gen_gibbs_picks(twin, p.probs[None], only[None], loss).tolist() == [0]

    def test_only_the_built_in_loss_is_marked(self, tmp_path):
        inst = pl.random_instance(3, 5, 2, rng=1)
        assert zero_one_loss(inst)._zero_one
        values = zero_one_loss(inst).values
        path = tmp_path / "loss.csv"
        path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in values))
        for loss in (LossMatrix(values), load_loss_matrix(path, inst), hamming_loss(inst)):
            assert not loss._zero_one


def brute_certified_argmax(lo_row, hi_row):
    """The inline certificate each site used to write: the argmax of lo wins when its lo is
    above every other entry's hi."""
    best = max(range(len(lo_row)), key=lambda j: (lo_row[j], -j))  # first index among ties
    others = [h for j, h in enumerate(hi_row) if j != best]
    return best if lo_row[best] > max(others, default=-math.inf) else -1


@st.composite
def brackets(draw):
    """(lo, hi) with lo <= hi, 1-D or 2-D; a small pool of values makes exact ties common, and
    -inf masks out entries (both ends) but never a whole row, as at every site."""
    rows, n = draw(st.sampled_from([None, 1, 2, 5])), draw(st.integers(1, 6))
    value = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(-4.0, 4.0)
    width = st.sampled_from([0.0, 0.0, 1e-300, 0.25]) | st.floats(0.0, 2.0)
    shape = (n,) if rows is None else (rows, n)
    size = int(np.prod(shape))
    lo = np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)
    hi = lo + np.array(draw(st.lists(width, min_size=size, max_size=size))).reshape(shape)
    masked = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)
    masked[..., draw(st.integers(0, n - 1))] = False
    lo[masked] = hi[masked] = -math.inf
    return lo, hi


class TestCertificationRule:
    @given(brackets())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_inline_certificate(self, bounds):
        lo, hi = bounds
        got, contenders = _certified_argmax(lo, hi), _contenders(lo, hi)
        assert got.shape == lo.shape[:-1] and contenders.shape == lo.shape
        for lo_row, hi_row, pick, flags in zip(
            lo.reshape(-1, lo.shape[-1]).tolist(), hi.reshape(-1, lo.shape[-1]).tolist(),
            got.reshape(-1).tolist(), contenders.reshape(-1, lo.shape[-1]).tolist(),
        ):
            assert flags == [h >= max(lo_row) for h in hi_row]
            assert pick == brute_certified_argmax(lo_row, hi_row)
            assert flags[lo_row.index(max(lo_row))]  # the argmax of lo always contends

    def test_ties_and_nan_stay_open(self):
        lo = np.array([[1.0, 1.0, 0.0], [2.0, math.nan, 0.0], [math.nan] * 3, [0.0, 1.0, 0.5]])
        hi = np.array([[1.0, 1.0, 0.5], [2.0, math.nan, 1.0], [math.nan] * 3, [0.0, 1.0, 0.99]])
        assert _certified_argmax(lo, hi).tolist() == [-1, -1, -1, 1]
        assert _certified_argmax(np.array([3.0]), np.array([3.0])).tolist() == 0


class TestFallbackShare:
    def test_verify_sized_share(self):
        """``poolal verify``'s worst-case trees leave a pinned share of their picks to the dense
        product: a loosened bound, or moved inputs, raises it and fails here.  A pick is made
        either from dense rows or, on a forest level wider than X * Y nodes, from that level's
        compact sums; the rows those leave open are dense rows too."""
        rows, dense = [], mock.Mock(wraps=_worst_gen_gibbs_gains)
        compact = policies._compact_picks

        def picks(inst, P, avail, loss):
            rows.append(len(P))
            return _worst_gen_gibbs_picks(inst, P, avail, loss)

        def compact_picks(criterion, *args):
            made = compact(criterion, *args)
            if criterion == "worst_gen_gibbs":
                rows.append(int(np.count_nonzero(made >= 0)))
            return made

        with mock.patch.object(policies, "_worst_gen_gibbs_picks", picks), \
                mock.patch.object(policies, "_compact_picks", compact_picks), \
                mock.patch.object(policies, "_worst_gen_gibbs_gains", dense):
            sweep_reports(n_instances=100, seed=0)
        assert (dense.call_count, sum(rows)) == (225, 1200)
