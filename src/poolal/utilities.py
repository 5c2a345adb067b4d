"""Utility functions over (queried set, hypothesis) pairs.

Three families: version-space reduction (the prior mass ruled out by
the observed labels), its loss-weighted generalization over hypothesis
pairs, and a pruning count with a hard probability threshold.  The
first two are Lipschitz continuous in the prior; the pruning count is
not, which is exactly what makes it useful as a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .core import (
    Hypothesis,
    Instance,
    Prior,
    _check_prior,
    _consistent_mask,
    random_prior,
)


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """Symmetric nonnegative loss between labelings, zero on the diagonal.

    ``bound`` is the constant m that caps every entry; it feeds the
    Lipschitz constant 2m of the generalized reduction.
    """

    values: np.ndarray
    bound: float = 0.0
    _zero_one = False  # not a field; set by zero_one_loss only: its pair masses have a closed form

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("loss matrix must be square")
        if not np.all(np.isfinite(arr)):
            raise ValueError("losses must be finite")
        _check_entries(arr)
        bound = float(self.bound) if self.bound else float(arr.max(initial=0.0))
        if not np.isfinite(bound):
            raise ValueError(f"loss bound must be finite, got {bound!r}")
        if np.any(arr > bound):
            raise ValueError(f"entries exceed the stated bound {bound}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "bound", bound)

    @classmethod
    def _trusted(cls, arr: np.ndarray, bound: float, zero_one: bool = False) -> "LossMatrix":
        """Wrap ``arr`` unchecked and uncopied: for losses valid by construction only."""
        arr.setflags(write=False)
        loss = object.__new__(cls)
        object.__setattr__(loss, "values", arr)
        object.__setattr__(loss, "bound", bound)
        object.__setattr__(loss, "_zero_one", zero_one)
        return loss


def _check_entries(arr: np.ndarray, line_nos: list[int] | None = None) -> None:
    """Raise on a square finite loss array's first failed check, at its first bad row's line."""
    for message, bad in (
        ("losses must be nonnegative", (arr < 0).any(1)),
        ("loss matrix must be symmetric (tolerance 1e-9)", (np.abs(arr - arr.T) > 1e-9).any(1)),
        ("self-loss must be exactly 0", np.diag(arr) != 0),
    ):
        if bad.any():
            raise ValueError(f"line {line_nos[bad.argmax()]}: {message}" if line_nos else message)


def zero_one_loss(inst: Instance) -> LossMatrix:
    """1 whenever two labelings differ anywhere, else 0 (m = 1)."""
    values = np.ones((inst.n_hypotheses, inst.n_hypotheses))
    np.fill_diagonal(values, 0.0)
    return LossMatrix._trusted(values, 1.0, zero_one=True)


def _gamma(k: int) -> float:
    """γ_k = ku/(1 − ku), u = 2⁻⁵³ (Higham, Accuracy and Stability of Numerical Algorithms)."""
    return k * 2.0**-53 / (1 - k * 2.0**-53)


def _contenders(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Along the last axis, the entries whose bracket [lo, hi] can hold the greatest value."""
    return hi >= lo.max(axis=-1, keepdims=True)


def _certified_argmax(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Along the last axis, the argmax of any values bracketed by lo <= hi where that is the
    only contender, else -1: exact ties in lo leave two or more, NaN bounds none."""
    c = _contenders(lo, hi)
    return np.where(c.sum(axis=-1) == 1, c.argmax(axis=-1), -1)


def _pair_mass_bounds(s: np.ndarray, ss: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) on the double any BLAS kernel gives for vᵀLv under the 0-1 loss L, from
    float sums s of v and ss of v*v (any order; elementwise), for v >= 0 of n entries.

    With S = Σv exactly, vᵀLv = S² − Σv².  The products in ``v @ L`` are exact and each entry
    sums at most n − 1 of them; the dot with v adds n rounded products.  So the BLAS double is
    within γ_2n·S² + n·2⁻¹⁰⁷⁴ of vᵀLv (the last term for underflow), the float s² − ss within
    γ_{3n+4}·S² + n·2⁻¹⁰⁷⁴, and S <= s·(1 + γ_n).  lo, hi = s² − ss ∓ twice their sum: the
    factor 2 covers the rounding of this arithmetic.
    """
    sq = s * s
    err = 2 * (_gamma(2 * n) + _gamma(3 * n + 4)) * (1 + _gamma(n)) ** 2 * sq + 4 * n * 2.0**-1074
    return sq - ss - err, sq - ss + err


def hamming_loss(inst: Instance) -> LossMatrix:
    """Fraction of the pool on which two labelings disagree (m = 1)."""
    lm = inst.label_matrix
    diff = (lm[:, None, :] != lm[None, :, :]).mean(axis=2)
    return LossMatrix._trusted(diff, 1.0)


def load_loss_matrix(path, inst: Instance | None = None) -> LossMatrix:
    """Read a comma-separated loss matrix in hypothesis order; errors name the line."""
    rows: dict[int, list[float]] = {}  # keyed by file line
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = [float(v) for v in line.strip().split(",")]
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            width = len(next(iter(rows.values()), row))
            if len(row) != width:
                raise ValueError(f"line {line_no}: expected {width} entries, got {len(row)}")
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"line {line_no}: non-finite loss in {line.strip()!r}")
            rows[line_no] = row
    arr = np.array(list(rows.values()), dtype=float)
    if inst is not None and arr.shape != (inst.n_hypotheses, inst.n_hypotheses):
        raise ValueError(
            f"loss matrix is {arr.shape}, instance has {inst.n_hypotheses} hypotheses"
        )
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:  # else LossMatrix names the shape
        _check_entries(arr, list(rows))
    return LossMatrix(arr)


@dataclass(frozen=True)
class VersionSpaceReduction:
    """f_p(S, h) = 1 - p[h(S); S]: prior mass eliminated by h's labels on S."""


@dataclass(frozen=True, eq=False)
class GeneralizedReduction:
    """Loss-weighted mass over hypothesis pairs not both consistent with S."""

    loss: LossMatrix


@dataclass(frozen=True)
class PruningCount:
    """Number of above-threshold hypotheses that disagree with h on S.

    The threshold comparison is a strict ``>`` on the stored doubles
    with no tolerance: hypotheses sitting exactly at ``mu`` are
    excluded, which is what breaks Lipschitz continuity.
    """

    mu: float = 0.01

    def __post_init__(self):
        if not self.mu >= 0:  # NaN too
            raise ValueError("threshold must be nonnegative")


Utility = Union[VersionSpaceReduction, GeneralizedReduction, PruningCount]


def eval_utility(
    u: Utility, p: Prior, inst: Instance, S: Iterable[str], h: Hypothesis
) -> float:
    """Evaluate a utility at (queried set ``S``, true labeling ``h``) under ``p``."""
    _check_prior(p, inst)
    inst.hypothesis_index(h)  # rejects a labeling that is not in the instance
    return set_utility(u, p, inst, _consistent_mask(inst, ((x, h.label_of(x)) for x in S)))


def _check_loss(loss: LossMatrix | None, inst: Instance) -> None:
    if loss is not None and loss.values.shape[0] != inst.n_hypotheses:
        raise ValueError("loss matrix does not match the instance")


def _set_utility_fn(u: Utility, p: Prior, inst: Instance) -> Callable[[np.ndarray], float]:
    """``agree -> set_utility(u, p, inst, agree)``, with the per-(u, p) constants bound once."""
    q = p.probs
    if isinstance(u, VersionSpaceReduction):
        return lambda agree: 1.0 - float(q[agree].sum())

    if isinstance(u, GeneralizedReduction):
        _check_loss(u.loss, inst)
        L = u.loss.values
        total = float(q @ L @ q)

        def generalized(agree: np.ndarray) -> float:
            q_in = np.zeros_like(q)
            q_in[agree] = q[agree]
            return total - float(q_in @ L @ q_in)

        return generalized

    if isinstance(u, PruningCount):
        above = q > u.mu
        n_above = np.count_nonzero(above)
        return lambda agree: float(n_above - np.count_nonzero(above[agree]))

    raise TypeError(f"unknown utility {u!r}")


def set_utility(u: Utility, p: Prior, inst: Instance, agree: np.ndarray) -> float:
    """Utility under ``p`` at any (S, h) whose agreement set is ``agree``.

    ``agree`` selects the hypotheses matching ``h`` on ``S``, as a boolean
    mask or an ascending index array; both give the same double.
    """
    return _set_utility_fn(u, p, inst)(agree)


def lipschitz_constant(u: Utility) -> tuple[float | None, float | None]:
    """(L, M): prior-Lipschitz constant and value bound, or (None, None).

    Version-space reduction is 1-Lipschitz and bounded by 1; the
    generalized form with loss bound m is 2m-Lipschitz and bounded by m.
    The pruning count has no finite Lipschitz constant.
    """
    if isinstance(u, VersionSpaceReduction):
        return 1.0, 1.0
    if isinstance(u, GeneralizedReduction):
        return 2.0 * u.loss.bound, u.loss.bound
    if isinstance(u, PruningCount):
        return None, None
    raise TypeError(f"unknown utility {u!r}")


def threshold_straddle_pair(
    inst: Instance, mu: float, gap: float = 0.004
) -> tuple[Prior, Prior]:
    """Two priors at l1 distance 2*gap whose second entry crosses ``mu``.

    One prior parks a hypothesis exactly at the threshold (excluded by
    the strict inequality), the other nudges it just above; the pruning
    count then jumps by a whole unit across an arbitrarily small l1
    step.
    """
    n = inst.n_hypotheses
    if n < 2:
        raise ValueError("need at least two hypotheses")
    if not 0.0 < mu < 0.5:
        raise ValueError("threshold must lie in (0, 0.5)")
    if not 0.0 < gap < (1.0 - 2.0 * mu) / 2.0:
        raise ValueError("gap too large for this threshold")
    low = np.zeros(n)
    low[0] = 1.0 - mu
    low[1] = mu
    high = np.zeros(n)
    high[0] = 1.0 - mu - gap
    high[1] = mu + gap
    return Prior(low), Prior(high)


def lipschitz_probe(
    u: Utility,
    inst: Instance,
    trials: int,
    seed: int,
    pair_sampler: Callable[[np.random.Generator], tuple[Prior, Prior]] | None = None,
) -> float:
    """Empirical lower bound on the prior-Lipschitz constant of ``u``.

    Samples (p, p', S, h) tuples and returns the largest observed
    ratio |f_p - f_p'| / l1(p, p'), skipping pairs closer than 1e-6.
    Deterministic given the seed.  ``pair_sampler`` overrides the
    default independent flat-simplex draws; use
    :func:`threshold_straddle_pair` to expose the pruning count's
    unbounded ratio.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        if pair_sampler is None:
            p, q = random_prior(inst, rng), random_prior(inst, rng)
        else:
            p, q = pair_sampler(rng)
        dist = float(np.abs(p.probs - q.probs).sum())
        if dist <= 1e-6:
            continue
        size = int(rng.integers(0, inst.n_examples + 1))
        S = tuple(
            inst.examples[i]
            for i in rng.choice(inst.n_examples, size=size, replace=False)
        )
        h = inst.hypothesis(int(rng.integers(inst.n_hypotheses)))
        diff = abs(eval_utility(u, p, inst, S, h) - eval_utility(u, q, inst, S, h))
        worst = max(worst, diff / dist)
    return worst
