"""The benchmark's three closed-loop workloads.

One process, one caller: each unit starts when the previous one ends.
A unit is identified by an integer ``ident`` from which it derives all
of its inputs, so the reference table in ``reference.json`` can hold the
digest of every unit's output.  poolal functions are always looked up
on their module at call time (``optimal.f_avg``, never a local
binding), so the tracer's rebinding reaches every call.

Why these three: ``sweep`` is what users run and makes many tiny calls
(per-call overhead, the bypass side for kernel changes, and every exact
oracle at up to 4 x 8); ``grid`` is dominated by the dense Bayes kernels
at H = 65,536; ``trees`` builds and scores greedy trees at H = 1,000,
where the 8 MB loss matrix outgrows L2.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from poolal import cli, core, optimal, policies, utilities


class UnitFailure(RuntimeError):
    """A unit finished without raising but its result is wrong."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Workload:
    name = ""
    pool = 0  # reference idents are 0 .. pool-1; a run makes whole passes over them
    count_units = 0  # traced units whose counters are reported; at most pool
    probes = 0  # extra fresh processes that time set-up
    via_cli = False

    def unit(self, ident: int, out: Path) -> bytes:
        raise NotImplementedError


class Sweep(Workload):
    """``poolal verify --trials 1 --seed ident``: one instance, 4 radii, 18 reports."""

    name = "sweep"
    pool = 256
    count_units = 100
    probes = 10
    via_cli = True

    def unit(self, ident: int, out: Path) -> bytes:
        rc = cli.main(["verify", "--trials", "1", "--seed", str(ident), "--out", str(out)])
        if rc != 0:
            raise UnitFailure(f"verify exited with {rc}")
        return out.read_bytes()


class Grid(Workload):
    """``poolal mixture-demo --seeds 1 --seed ident --with-passive`` on grid_task(16, 4)."""

    name = "grid"
    pool = 64
    count_units = 20
    probes = 6
    via_cli = True

    def unit(self, ident: int, out: Path) -> bytes:
        argv = ["mixture-demo", "--seeds", "1", "--seed", str(ident), "--with-passive"]
        rc = cli.main(argv + ["--out", str(out)])
        if rc != 0:
            raise UnitFailure(f"mixture-demo exited with {rc}")
        return out.read_bytes()


class Trees(Workload):
    """Four greedy trees on 12 examples x 1,000 hypotheses, each scored once."""

    name = "trees"
    pool = 4
    count_units = 2
    probes = 4

    def unit(self, ident: int, out: Path) -> bytes:
        rng = np.random.default_rng([12, 1000, ident])
        inst = core.random_instance(12, 1000, 2, rng=rng)
        p = core.random_prior(inst, rng)
        loss = utilities.zero_one_loss(inst)
        vsr = utilities.VersionSpaceReduction()
        worst = policies.build_policy("worst_gen_gibbs", p, inst, 4, loss=loss)
        gibbs = policies.build_policy("max_gibbs", p, inst, 4)
        ident_tree = policies.build_policy(
            "gbs", p, inst, inst.n_examples, stop_when_identified=True
        )
        batch = policies.build_batch_policy(p, inst, 2, 2)
        scored = (
            (worst, optimal.f_worst(p, utilities.GeneralizedReduction(loss), worst)),
            (gibbs, optimal.f_avg(p, vsr, gibbs)),
            (ident_tree, optimal.c_avg(p, ident_tree)),
            (batch, optimal.f_avg(p, vsr, batch)),
        )
        return "".join(policies.policy_to_text(t) + repr(v) + "\n" for t, v in scored).encode()


WORKLOADS = {w.name: w for w in (Sweep(), Grid(), Trees())}

# Idents of runs with unchecked inputs start here, far above every pool.
UNCHECKED_BASE = 10**9


def idents(workload: Workload, seed: int, unchecked: bool):
    """The warm-up ident, then an endless sequence of measured-unit idents."""
    if unchecked:
        base = UNCHECKED_BASE + seed * 100_000
        k = 0
        while True:
            yield base + k
            k += 1
    # Every run makes whole passes over the pool, so runs at different
    # seeds measure the same inputs in another order; the warm-up ident
    # comes round again in the first pass.
    order = [int(i) for i in np.random.default_rng(seed).permutation(workload.pool)]
    yield order[0]
    k = 0
    while True:
        yield order[k % workload.pool]
        k += 1
