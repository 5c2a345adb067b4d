"""Finite pools, labelings, and priors for Bayesian active learning.

The data model is deliberately explicit: a finite pool of examples, a
finite label set, and a concrete list of candidate labelings with a
probability vector over them.  Everything is immutable after
construction and all operations are pure functions; randomness always
flows through an explicit seed or :class:`numpy.random.Generator`, so
values are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# Normalization tolerance for probability vectors produced anywhere in
# the package.  The instance file loader is looser (1e-6) and renormalizes
# only a file whose total misses 1 by more than NORM_TOL.
NORM_TOL = 1e-9
FILE_NORM_TOL = 1e-6

Pair = tuple[str, str]


class EmptyVersionSpaceError(ValueError):
    """An observation left no consistent hypothesis with positive mass."""


class InstanceFormatError(ValueError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Hypothesis:
    """A total labeling of the pool, stored in pool order."""

    id: str
    examples: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.examples) != len(self.labels):
            raise ValueError(
                f"hypothesis {self.id!r} must assign exactly one label per example"
            )

    @classmethod
    def from_mapping(
        cls,
        id: str,
        labeling: Mapping[str, str],
        examples: Sequence[str] | None = None,
    ) -> "Hypothesis":
        order = tuple(examples) if examples is not None else tuple(labeling)
        missing = [x for x in order if x not in labeling]
        if missing:
            raise ValueError(f"hypothesis {id!r} misses labels for {missing}")
        return cls(id, order, tuple(labeling[x] for x in order))

    @property
    def labeling(self) -> dict[str, str]:
        return dict(zip(self.examples, self.labels))

    def label_of(self, example: str) -> str:
        try:
            return self.labels[self.examples.index(example)]
        except ValueError:
            raise ValueError(f"unknown example {example!r}") from None


class _Index(dict):
    """Name -> position; looking up a name that is not there raises ``ValueError``."""

    def __init__(self, names: tuple[str, ...], kind: str):
        super().__init__(zip(names, range(len(names))))
        self.kind = kind

    def __missing__(self, name):
        raise ValueError(f"unknown {self.kind} {name!r}")


class Instance:
    """A pool, its label set, and an explicit hypothesis list.

    Hypothesis ``i`` is stored once: its id ``ids[i]`` and its label
    indices ``label_matrix[i]``, whose transpose ``label_columns`` holds
    one contiguous row per example; :class:`Hypothesis` objects are built on
    demand.  Hypotheses keep their declaration order; every probability
    vector in this package is index-parallel to ``ids``.  Zero-probability
    hypotheses stay in the list: worst-case objectives and the
    pruning-count utility are sensitive to them.  ``example_index`` and
    ``label_index`` map names to positions, and looking up a name that is
    not there raises ``ValueError("unknown example 'x'")`` (or ``label``):
    every function that takes names rejects an unknown one that way.
    """

    def __init__(
        self,
        examples: Sequence[str],
        labels: Sequence[str],
        hypotheses: Sequence[Hypothesis],
    ):
        self._set_pool(examples, labels, len(hypotheses))
        labelings = [
            h.labels if h.examples == self.examples
            else Hypothesis.from_mapping(h.id, h.labeling, self.examples).labels
            for h in hypotheses
        ]
        self._set_labelings(tuple(h.id for h in hypotheses), labelings)

    @classmethod
    def _from_codes(cls, examples, labels, codes: np.ndarray, ids=None) -> "Instance":
        """Labeling ``i`` is the base-|Y| digits of ``codes[i]``, first example lowest; distinct
        codes below |Y|**|X| (an ``arange``, a draw without replacement) give distinct rows."""
        inst = cls.__new__(cls)
        inst._set_pool(examples, labels, len(codes))
        cols = np.empty((inst.n_examples, len(codes)), dtype=np.int16)
        rest = np.array(codes, dtype=np.int64)
        for col in cols:  # one digit per pass, written straight into its column
            np.divmod(rest, inst.n_labels, out=(rest, col), casting="unsafe")
        generated = ids is None  # h0, h1, ... are distinct
        ids = tuple(f"h{i}" for i in range(len(codes))) if generated else tuple(ids)
        inst._set_rows(ids, np.ascontiguousarray(cols.T), cols, check_ids=not generated)
        return inst

    def _set_pool(self, examples: Sequence[str], labels: Sequence[str], n_hypotheses: int) -> None:
        self.examples = tuple(str(x) for x in examples)
        self.labels = tuple(str(y) for y in labels)
        if len(self.examples) < 1:
            raise ValueError("an instance needs at least one example")
        if len(set(self.examples)) != len(self.examples):
            raise ValueError("duplicate example identifiers")
        if len(self.labels) < 2:
            raise ValueError("an instance needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate label identifiers")
        if n_hypotheses < 1:
            raise ValueError("an instance needs at least one hypothesis")
        self.example_index = _Index(self.examples, "example")
        self.label_index = _Index(self.labels, "label")

    def _set_labelings(self, ids: tuple[str, ...], labelings: Sequence[Sequence[str]]) -> None:
        """Store ``labelings[i]``, label names in pool order, as int16 row ``i``."""
        codes = [self.label_index.get(y, -1) for labeling in labelings for y in labeling]
        rows = np.array(codes, dtype=np.int16).reshape(len(ids), self.n_examples)
        if (rows < 0).any():
            i, j = np.argwhere(rows < 0)[0]
            raise ValueError(f"hypothesis {ids[i]!r} uses unknown label {labelings[i][j]!r}")
        self._set_rows(ids, rows)

    def _set_rows(self, ids: tuple[str, ...], rows: np.ndarray, cols=None, check_ids=True) -> None:
        """Store ``rows`` under ``ids``; rows given with their transpose ``cols`` were decoded
        from distinct codes, so only rows without are searched for a repeated labeling."""
        if check_ids and len(set(ids)) != len(ids):
            first: dict = {}
            dup = next(hid for k, hid in enumerate(ids) if first.setdefault(hid, k) != k)
            raise ValueError(f"duplicate hypothesis id {dup!r}")
        if cols is None:
            keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
            _, first_at, inverse = np.unique(keys, return_index=True, return_inverse=True)
            if first_at.size != len(ids):
                # the earliest row repeating an earlier one, and that earlier row
                origin = first_at[inverse]
                k = int(np.flatnonzero(origin != np.arange(len(ids)))[0])
                raise ValueError(
                    f"hypotheses {ids[origin[k]]!r} and {ids[k]!r} are the same labeling"
                )
            cols = np.ascontiguousarray(rows.T)
        rows.setflags(write=False)
        cols.setflags(write=False)
        self.ids, self.label_matrix, self.label_columns = ids, rows, cols

    @functools.cached_property
    def label_onehot(self) -> np.ndarray:
        """Indicator matrix of shape (n_examples * n_labels, n_hypotheses).

        Row ``xi * n_labels + yi`` flags the hypotheses labeling example
        ``xi`` with label ``yi``; built lazily, it turns per-example
        marginals into a single matrix-vector product.
        """
        cols, n_y = self.label_columns, self.n_labels
        onehot = np.empty((cols.shape[0] * n_y, cols.shape[1]))
        for yi in range(n_y):  # every entry is written: each label has its rows yi::n_y
            np.equal(cols, yi, out=onehot[yi::n_y], casting="unsafe")
        onehot.setflags(write=False)
        return onehot

    @functools.cached_property
    def hypotheses(self) -> tuple[Hypothesis, ...]:
        """Every labeling as a :class:`Hypothesis`, built on first use."""
        return tuple(self.hypothesis(i) for i in range(self.n_hypotheses))

    def hypothesis(self, i: int) -> Hypothesis:
        """Labeling ``i`` as a :class:`Hypothesis`."""
        if not 0 <= i < self.n_hypotheses:
            raise ValueError(f"hypothesis index {i} is outside [0, {self.n_hypotheses})")
        labels = tuple(self.labels[y] for y in self.label_matrix[i].tolist())
        return Hypothesis(self.ids[i], self.examples, labels)

    @property
    def n_examples(self) -> int:
        return len(self.examples)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_hypotheses(self) -> int:
        return len(self.ids)

    def hypothesis_index(self, h: Hypothesis) -> int:
        """Index of ``h`` in this instance, matched by labeling."""
        if h.examples != self.examples:
            h = Hypothesis.from_mapping(h.id, h.labeling, self.examples)
        row = np.array([self.label_index.get(y, -1) for y in h.labels], dtype=np.int16)
        keys = self.label_matrix.view(np.dtype((np.void, row.nbytes))).ravel()
        match = np.flatnonzero(keys == row.view(keys.dtype))
        if match.size == 0:
            raise ValueError(f"hypothesis {h.id!r} is not part of this instance")
        return int(match[0])

    def __repr__(self) -> str:
        return (
            f"Instance({self.n_examples} examples, {self.n_labels} labels, "
            f"{self.n_hypotheses} hypotheses)"
        )


def full_hypothesis_space(
    examples: Sequence[str],
    labels: Sequence[str],
    ids: Sequence[str] | None = None,
) -> Instance:
    """All |Y|^|X| labelings of the pool, first example varying fastest."""
    total = len(labels) ** len(examples)
    if ids is not None and len(ids) != total:
        raise ValueError(f"need {total} ids, got {len(ids)}")
    return Instance._from_codes(examples, labels, np.arange(total), ids)


def random_instance(
    n_examples: int,
    n_hypotheses: int,
    n_labels: int = 2,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Hypotheses drawn uniformly without replacement from the full labeling space."""
    rng = np.random.default_rng(rng)
    if n_examples < 1 or n_labels < 2:  # before the space's size, which would blame n_hypotheses
        raise ValueError(f"an instance needs at least {'one example' if n_examples < 1 else 'two labels'}")
    total = n_labels**n_examples
    if total >= 2**63:  # numpy draws the labeling codes as int64
        raise ValueError(f"the labeling space {n_labels}**{n_examples} must be smaller than 2**63")
    if not 1 <= n_hypotheses <= total:
        raise ValueError(f"n_hypotheses must be in [1, {total}]")
    codes = rng.choice(total, size=n_hypotheses, replace=False)
    examples = [f"x{i}" for i in range(n_examples)]
    return Instance._from_codes(examples, range(n_labels), codes)  # labels "0", "1", ...


@dataclass(frozen=True, eq=False)
class Prior:
    """Probability vector over an instance's hypotheses (used for posteriors too)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a prior is a non-empty 1-d probability vector")
        if np.any(arr < 0):
            raise ValueError("prior entries must be nonnegative")
        # written so that a NaN or infinite sum fails the test too
        if not abs(float(arr.sum()) - 1.0) <= NORM_TOL:
            raise ValueError(
                f"prior must be finite and sum to 1 within {NORM_TOL}, got {arr.sum()!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "Prior":
        """Wrap ``arr`` unchecked and uncopied: for vectors valid by construction only."""
        arr.setflags(write=False)
        prior = object.__new__(cls)
        object.__setattr__(prior, "probs", arr)
        return prior

    def __len__(self) -> int:
        return int(self.probs.size)

    @property
    def support(self) -> np.ndarray:
        """Indices of hypotheses with strictly positive mass."""
        return np.flatnonzero(self.probs > 0)


def uniform_prior(inst: Instance) -> Prior:
    n = inst.n_hypotheses
    return Prior(np.full(n, 1.0 / n))


def point_mass(inst: Instance, index: int) -> Prior:
    if not 0 <= index < inst.n_hypotheses:
        raise ValueError(f"hypothesis index {index} is outside [0, {inst.n_hypotheses})")
    probs = np.zeros(inst.n_hypotheses)
    probs[index] = 1.0
    return Prior(probs)


def random_prior(inst: Instance, rng: np.random.Generator | int | None = None) -> Prior:
    """Flat (Dirichlet-1) random point on the probability simplex."""
    rng = np.random.default_rng(rng)
    return Prior(rng.dirichlet(np.ones(inst.n_hypotheses)))


@dataclass(frozen=True)
class LabeledSet:
    """Ordered (example, label) observations with distinct examples."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        pairs = tuple((str(x), str(y)) for x, y in self.pairs)
        xs = [x for x, _ in pairs]
        if len(set(xs)) != len(xs):
            raise ValueError("labeled set repeats an example")
        object.__setattr__(self, "pairs", pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def examples(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.pairs)


def _as_pairs(observed: LabeledSet | Iterable[Pair]) -> tuple[Pair, ...]:
    if isinstance(observed, LabeledSet):
        return observed.pairs
    return LabeledSet(tuple(observed)).pairs


def _check_prior(p: Prior, inst: Instance) -> None:
    if len(p) != inst.n_hypotheses:
        raise ValueError(
            f"prior has {len(p)} entries for {inst.n_hypotheses} hypotheses"
        )


def _consistent_mask(inst: Instance, pairs: Iterable[Pair]) -> np.ndarray:
    mask = np.ones(inst.n_hypotheses, dtype=bool)
    for x, y in pairs:
        mask &= inst.label_columns[inst.example_index[x]] == inst.label_index[y]
    return mask


def label_seq_prob(
    p: Prior, inst: Instance, S: Sequence[str], y: Sequence[str]
) -> float:
    """Probability that the example sequence ``S`` carries label sequence ``y``.

    Sums the prior mass of hypotheses whose labeling matches ``y`` on
    ``S``.  For a fixed ``S`` this is a distribution over label
    sequences; the empty sequence has probability 1.
    """
    S = tuple(S)
    y = tuple(y)
    if len(S) != len(y):
        raise ValueError(f"got {len(S)} examples but {len(y)} labels")
    _check_prior(p, inst)
    if not S:
        return 1.0
    mask = _consistent_mask(inst, zip(S, y))
    return float(p.probs[mask].sum())


def posterior(p: Prior, inst: Instance, observed: LabeledSet | Iterable[Pair]) -> Prior:
    """Bayes update: restrict ``p`` to hypotheses consistent with ``observed``.

    Raises :class:`EmptyVersionSpaceError` when no consistent hypothesis
    carries positive mass.  An empty observation set returns ``p``.
    """
    _check_prior(p, inst)
    pairs = _as_pairs(observed)
    if not pairs:
        return p
    mask = _consistent_mask(inst, pairs)
    mass = float(p.probs[mask].sum())
    if mass <= 0.0:
        raise EmptyVersionSpaceError(
            f"no positive-probability hypothesis is consistent with {pairs}"
        )
    return Prior._trusted(np.where(mask, p.probs, 0.0) / mass)


def l1_distance(p: Prior, q: Prior) -> float:
    """Total-variation-style l1 distance between two priors (at most 2)."""
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return float(np.abs(p.probs - q.probs).sum())


def _marginal_rows(inst: Instance, P: np.ndarray) -> np.ndarray:
    """Label marginals of each row of ``P``, shape (len(P), X, Y): the stacked product is one
    matrix-vector product a row, so each row has the bits of ``label_onehot @ row``."""
    return (inst.label_onehot @ P[:, :, None]).reshape(len(P), inst.n_examples, inst.n_labels)


def label_marginals(p: Prior, inst: Instance) -> np.ndarray:
    """Per-example label distribution under ``p``, shape (n_examples, n_labels)."""
    _check_prior(p, inst)
    return _marginal_rows(inst, p.probs[None])[0]


class ModelEnsemble:
    """Weighted finite set of probabilistic label predictors over a pool.

    ``probs[m, x, y]`` is member m's probability that example ``x``
    carries label ``y``; each member's per-example distribution must
    normalize.  Serves both as the source prior that induces a prior on
    labelings and as a probabilistic mixture component.
    """

    def __init__(self, instance: Instance, weights: Sequence[float], probs: np.ndarray):
        self.instance = instance
        w = np.array(weights, dtype=float)
        t = np.array(probs, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("need at least one member")
        if np.any(w < 0) or not abs(float(w.sum()) - 1.0) <= NORM_TOL:
            raise ValueError("member weights must be finite, nonnegative and sum to 1")
        if t.shape != (w.size, instance.n_examples, instance.n_labels):
            raise ValueError(
                f"predictor table must have shape {(w.size, instance.n_examples, instance.n_labels)}"
            )
        if not np.all((t >= 0) & (t <= 1)):
            raise ValueError("predictor probabilities must lie in [0, 1]")
        if np.any(np.abs(t.sum(axis=2) - 1.0) > NORM_TOL):
            raise ValueError("each predictor's label distribution must sum to 1")
        w.setflags(write=False)
        t.setflags(write=False)
        self.weights = w
        self.probs = t

    @classmethod
    def from_predictors(
        cls,
        instance: Instance,
        members: Iterable[tuple[float, Callable[[str, str], float]]],
    ) -> "ModelEnsemble":
        members = list(members)
        weights = [w for w, _ in members]
        table = np.empty((len(members), instance.n_examples, instance.n_labels))
        for m, (_, predictor) in enumerate(members):
            for xi, x in enumerate(instance.examples):
                for yi, y in enumerate(instance.labels):
                    table[m, xi, yi] = predictor(x, y)
        return cls(instance, weights, table)

    @property
    def n_members(self) -> int:
        return int(self.weights.size)

    def label_prob(self, x: str, y: str) -> float:
        """Ensemble-averaged probability that ``x`` carries label ``y``."""
        xi, yi = self.instance.example_index[x], self.instance.label_index[y]
        return float(self.weights @ self.probs[:, xi, yi])

    def reweighted(self, weights: np.ndarray) -> "ModelEnsemble":
        return ModelEnsemble(self.instance, weights, self.probs)


def induce_prior(ens: ModelEnsemble, inst: Instance) -> Prior:
    """Prior on labelings induced by a prior over probabilistic predictors.

    Each hypothesis gets the ensemble-averaged product probability of
    its labels.  On a full labeling space the masses already sum to 1;
    on a restricted hypothesis list the result is renormalized, i.e.
    conditioned on the truth lying in the list.  Should a product of
    strictly positive factors underflow to 0 (long pools), the masses are
    redone in log space; an exact-zero factor still gives zero mass.
    """
    if ens.instance is not inst and (
        ens.instance.examples != inst.examples or ens.instance.labels != inst.labels
    ):
        raise ValueError("ensemble is bound to a different pool")
    cols = np.arange(inst.n_examples)
    mass = np.zeros(inst.n_hypotheses)
    underflow = False
    for table, w in zip(ens.probs, ens.weights):
        term = table[0].take(inst.label_columns[0])
        for row, col in zip(table[1:], inst.label_columns[1:]):  # the row product's doubles
            term *= row.take(col)
        term *= w
        mass += term
        # a product of strictly positive factors that underflowed to 0
        if w > 0.0 and not underflow:
            underflow = bool((table[cols, inst.label_matrix[term == 0.0]] > 0.0).all(axis=1).any())
    if underflow:  # redo in log space, log-sum-exp over members
        factors = ens.probs[:, cols[None, :], inst.label_matrix]
        with np.errstate(divide="ignore"):
            logs = np.log(ens.weights)[:, None] + np.log(factors).sum(axis=2)
        mass = np.exp(logs - logs.max()).sum(axis=0)
    total = float(mass.sum())
    if total <= 0.0:
        raise ValueError("ensemble assigns zero mass to every hypothesis")
    return Prior(mass / total)


def perturb(p: Prior, eps: float, seed: int) -> Prior:
    """A valid prior within l1 distance ``eps`` of ``p``, deterministic in ``seed``.

    Draws a signed direction in the simplex tangent space, scales it to
    a uniform radius in [0, eps], clips at zero and renormalizes, then
    verifies the l1 constraint (support may grow or shrink).  Retries up
    to 100 times before giving up.
    """
    if not 0.0 <= eps <= 2.0:
        raise ValueError(f"perturbation radius must lie in [0, 2], got {eps}")
    if eps == 0.0:
        return p
    rng = np.random.default_rng(seed)
    n = len(p)
    for _ in range(100):
        direction = rng.standard_normal(n)
        direction -= direction.mean()
        scale = float(np.abs(direction).sum())
        if scale < 1e-12:
            continue
        direction /= scale
        radius = rng.uniform(0.0, eps)
        moved = np.clip(p.probs + radius * direction, 0.0, None)
        total = float(moved.sum())
        if total <= 0.0:
            continue
        moved /= total
        if float(np.abs(moved - p.probs).sum()) <= eps:
            return Prior(moved)
    raise RuntimeError(f"could not sample a perturbation within radius {eps}")


def instance_text(inst: Instance, prior: Prior) -> str:
    """The comma-separated instance file (pool, labels, weighted labelings)."""
    _check_prior(prior, inst)
    for token in (*inst.examples, *inst.labels, *inst.ids):
        if "," in token:
            raise ValueError(f"identifier {token!r} may not contain a comma")
    lines = [
        "examples," + ",".join(inst.examples),
        "labels," + ",".join(inst.labels),
    ]
    for hid, row, prob in zip(inst.ids, inst.label_matrix.tolist(), prior.probs):
        lines.append(f"h,{hid},{float(prob)!r}," + ",".join(inst.labels[y] for y in row))
    return "\n".join(lines) + "\n"


def save_instance(path, inst: Instance, prior: Prior) -> None:
    """Write :func:`instance_text` to ``path``."""
    text = instance_text(inst, prior)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_instance(path) -> tuple[Instance, Prior]:
    """Read an instance file; hypothesis probabilities must sum to 1 within 1e-6."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    rows = [(i + 1, line) for i, line in enumerate(raw) if line.strip()]
    if len(rows) < 3:
        raise InstanceFormatError("expected an examples line, a labels line, and hypotheses")

    line_no, line = rows[0]
    fields = line.split(",")
    if fields[0] != "examples" or len(fields) < 2:
        raise InstanceFormatError("first line must be 'examples,<id>,...'", line_no)
    examples = tuple(fields[1:])

    line_no, line = rows[1]
    fields = line.split(",")
    if fields[0] != "labels" or len(fields) < 3:
        raise InstanceFormatError("second line must be 'labels,<id>,<id>,...'", line_no)
    labels = tuple(fields[1:])

    ids: list[str] = []
    labelings: list[list[str]] = []
    probs: list[float] = []
    for line_no, line in rows[2:]:
        fields = line.split(",")
        if fields[0] != "h":
            raise InstanceFormatError(f"expected an 'h,...' line, got {fields[0]!r}", line_no)
        if len(fields) != 3 + len(examples):
            raise InstanceFormatError(
                f"expected {3 + len(examples)} fields, got {len(fields)}", line_no
            )
        try:
            prob = float(fields[2])
        except ValueError:
            raise InstanceFormatError(f"bad probability {fields[2]!r}", line_no) from None
        if not math.isfinite(prob):
            raise InstanceFormatError(f"non-finite probability {fields[2]!r}", line_no)
        if prob < 0:
            raise InstanceFormatError(f"negative probability {prob!r}", line_no)
        probs.append(prob)
        ids.append(fields[1])
        labelings.append(fields[3:])

    total = sum(probs)
    if abs(total - 1.0) > FILE_NORM_TOL:
        raise InstanceFormatError(
            f"hypothesis probabilities sum to {total!r}, expected 1 within {FILE_NORM_TOL}"
        )
    inst = Instance.__new__(Instance)
    try:
        inst._set_pool(examples, labels, len(ids))
        inst._set_labelings(tuple(ids), labelings)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    arr = np.array(probs)  # within NORM_TOL of 1 by Prior's own sum, kept: reloads are exact
    return inst, Prior(arr / total if abs(float(arr.sum()) - 1.0) > NORM_TOL else arr)
