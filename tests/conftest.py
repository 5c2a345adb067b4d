import os

import numpy as np
import pytest
from hypothesis import settings

import poolal as pl

# CI runs replay: the same examples every run, and a failure prints the
# blob that reproduces it (@reproduce_failure).  Local runs keep the default.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture
def square():
    """Full binary labeling space of a two-example pool (h1..h4)."""
    return pl.full_hypothesis_space(("x0", "x1"), ("0", "1"), ids=("h1", "h2", "h3", "h4"))


@pytest.fixture
def chain():
    """Three nested threshold labelings: 00, 10, 11."""
    examples = ("x0", "x1")
    return pl.Instance(
        examples,
        ("0", "1"),
        [
            pl.Hypothesis("h0", examples, ("0", "0")),
            pl.Hypothesis("h1", examples, ("1", "0")),
            pl.Hypothesis("h2", examples, ("1", "1")),
        ],
    )


def make_random_case(rng, max_examples=4, max_hypotheses=8, n_labels=2):
    """A random capped instance with a flat-simplex prior."""
    n_x = int(rng.integers(2, max_examples + 1))
    n_h = min(int(rng.integers(3, max_hypotheses + 1)), n_labels**n_x)
    inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
    return inst, pl.random_prior(inst, rng)


@pytest.fixture
def random_cases():
    def gen(n, seed=0, **kwargs):
        rng = np.random.default_rng(seed)
        return [make_random_case(rng, **kwargs) for _ in range(n)]

    return gen
