"""What the traced run wraps, what it counts, and the per-layer metrics it reports.

The layers are poolal's seven modules.  Every metric is measured from
outside, at the boundary of a public function.  Which end-to-end metric
each one should move, and on which workload, is in ``README.md``.
"""

from __future__ import annotations

from tracer import Tracer


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_tree_nodes(tracer: Tracer, args, kwargs, tree) -> None:
    stack = [tree.root] if tree.root is not None else []
    while stack:
        node = stack.pop()
        tracer.counters["policies.tree_nodes"] += 1
        stack.extend(c for c in node.children if c is not None)


def _count_marginal_bytes(tracer: Tracer, args, kwargs, _) -> None:
    inst = _arg(args, kwargs, 1, "inst")
    tracer.counters["core.label_marginals.bytes_computed"] += (
        inst.n_examples * inst.n_labels * inst.n_hypotheses * 8
    )


def _count_loss_bytes(tracer: Tracer, args, kwargs, loss) -> None:
    tracer.counters["utilities.loss_matrix_bytes"] += loss.values.nbytes


def _count_nodes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["optimal.nodes"] += result.nodes_explored


def _remember_perturbation(tracer: Tracer, args, kwargs, prior) -> None:
    # keep the object alive so its id cannot be reused within the unit
    tracer.scratch.setdefault("perturbed", {})[id(prior)] = prior


def _count_report(tracer: Tracer, args, kwargs, _) -> None:
    tracer.counters["robustness.reports"] += 1
    p1 = _arg(args, kwargs, 2, "p1")
    if id(p1) in tracer.scratch.get("perturbed", {}):
        tracer.scratch.setdefault("used", set()).add(id(p1))


def _count_reports(tracer: Tracer, args, kwargs, reports) -> None:
    tracer.counters["robustness.reports"] += len(reports)


TARGETS = [
    ("core", "label_marginals", _count_marginal_bytes),
    ("core", "posterior", None),
    ("core", "perturb", _remember_perturbation),
    ("mixture", "grid_task", None),
    ("mixture", "mixture_observe", None),
    ("mixture", "mixture_marginals", None),
    ("utilities", "eval_utility", None),
    ("utilities", "zero_one_loss", _count_loss_bytes),
    ("policies", "select", None),
    ("policies", "select_from_marginals", None),
    ("policies", "build_policy", _count_tree_nodes),
    ("policies", "build_batch_policy", _count_tree_nodes),
    ("policies", "select_batch_max_gibbs", None),
    ("policies", "run_policy", None),
    ("optimal", "opt_avg", _count_nodes),
    ("optimal", "opt_worst", _count_nodes),
    ("optimal", "opt_min_cost", _count_nodes),
    ("optimal", "opt_avg_batch", _count_nodes),
    ("optimal", "f_avg", None),
    ("optimal", "f_worst", None),
    ("optimal", "c_avg", None),
    ("robustness", "check_avg_bound", _count_report),
    ("robustness", "check_worst_bound", _count_report),
    ("robustness", "check_mincost_bound", _count_report),
    ("robustness", "check_mixture_bounds", _count_reports),
    ("cli", "main", None),
    ("cli", "mixture_trajectories", None),
]

ORACLES = ("optimal.opt_avg", "optimal.opt_worst", "optimal.opt_min_cost", "optimal.opt_avg_batch")

# functions reported with both .calls and .self_ms; every other target has .self_ms only
WITH_CALLS = (
    "core.label_marginals",
    "core.posterior",
    "core.perturb",
    "mixture.mixture_observe",
    "mixture.mixture_marginals",
    "utilities.eval_utility",
    "policies.select",
    "policies.select_from_marginals",
    "policies.build_policy",
    "policies.build_batch_policy",
    "policies.select_batch_max_gibbs",
    "policies.run_policy",
)

# counters the tracer's hooks fill, reported per unit like the .calls
COUNTERS = (
    ("core.label_marginals.bytes_computed", "B"),
    ("utilities.loss_matrix_bytes", "B"),
    ("policies.tree_nodes", "count"),
    ("optimal.nodes", "count"),
    ("robustness.reports", "count"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` for every per-layer metric, in report order."""
    spec = []
    for module, func, _ in TARGETS:
        name = f"{module}.{func}"
        if name in WITH_CALLS:
            spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_ms", "ms", "lower"))
    spec += [(name, unit, "higher" if name == "robustness.reports" else "lower") for name, unit in COUNTERS]
    spec += [
        ("optimal.nodes_per_s", "1/s", "higher"),
        ("robustness.perturb_attempts_per_accept", "ratio", "lower"),
        ("cli.output_bytes", "B", "lower"),
        ("trace_overhead", "ratio", "lower"),
        ("failed_ratio", "ratio", "lower"),
    ]
    return spec


def unit_counts(tracer: Tracer, totals: dict[str, list[int]]) -> dict[str, int]:
    """The exact counts of one traced unit: every .calls plus every hook counter."""
    counts = {f"{name}.calls": totals.get(name, [0])[0] for name in tracer.names}
    for name, _ in COUNTERS:
        counts[name] = tracer.counters.get(name, 0)
    counts["robustness.perturbations_used"] = len(tracer.scratch.get("used", ()))
    return counts
