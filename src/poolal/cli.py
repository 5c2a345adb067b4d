"""Command-line front end: seeded experiments emitting plot-ready CSV.

Every command is deterministic given its flags (including the seed) and
writes its output in one shot, so interrupted runs leave no partial
files.  A flat ``key=value`` config file can supply any long option;
explicit flags win.  Relative output paths resolve against
``POOLAL_OUTPUT_DIR`` when that variable is set.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    InstanceFormatError,
    instance_text,
    load_instance,
    random_instance,
    random_prior,
    uniform_prior,
)
from .mixture import grid_task, mixture_trajectories
from .optimal import _leaves, opt_avg, opt_min_cost, opt_worst
from .policies import build_policy, run_policy
from .robustness import counterexample_instance, sweep_reports
from .utilities import (
    GeneralizedReduction,
    PruningCount,
    VersionSpaceReduction,
    _set_utility_fn,
    hamming_loss,
    zero_one_loss,
)

RUN_SCHEMA = "# schema: poolal-run-v1"
VERIFY_SCHEMA = "# schema: poolal-verify-v1"
MIXTURE_SCHEMA = "# schema: poolal-mixture-v1"

VERIFY_COLUMNS = (
    "bound",
    "trial",
    "radius",
    "alpha",
    "L",
    "M",
    "K",
    "num_components",
    "l1",
    "lhs",
    "rhs",
    "slack",
    "holds",
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{i}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


# config-value types for options whose default is None
_NONE_TYPES = {"budget": int}


def _coerce(key: str, raw: str, like):
    if like is None:
        like = _NONE_TYPES.get(key, str)()
    if isinstance(like, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    return raw


def _resolve(args: argparse.Namespace, defaults: dict):
    """Merge flag values, config-file values, and defaults (in that order)."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None and key in cfg:
            value = _coerce(key, cfg[key], default)
        if value is None:
            value = default
        merged[key] = value
    return argparse.Namespace(**merged)


def _write_output(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    path = Path(out)
    env_dir = os.environ.get("POOLAL_OUTPUT_DIR")
    if env_dir and not path.is_absolute():
        path = Path(env_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _instance_from_opts(opts) -> tuple:
    """(instance, prior) from --instance, or a seeded synthetic spec."""
    if getattr(opts, "instance", None):
        return load_instance(opts.instance)
    spec = getattr(opts, "synthetic", None)
    if not spec:
        raise ValueError("provide --instance FILE or --synthetic X,H,Y")
    try:
        n_x, n_h, n_y = (int(v) for v in spec.split(","))
    except ValueError:
        raise ValueError(f"bad synthetic spec {spec!r}, expected X,H,Y") from None
    rng = np.random.default_rng(opts.seed)
    inst = random_instance(n_x, n_h, n_y, rng=rng)
    return inst, random_prior(inst, rng)


def _utility_from_opts(opts, inst):
    kind = opts.utility
    if kind == "version-space":
        return VersionSpaceReduction()
    if kind == "generalized":
        loss = hamming_loss(inst) if opts.loss == "hamming" else zero_one_loss(inst)
        return GeneralizedReduction(loss)
    if kind == "pruning":
        return PruningCount(opts.mu)
    raise ValueError(f"unknown utility {kind!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(opts) -> int:
    if opts.budget is None or opts.budget < 1:
        return _fail(f"budget must be a positive integer, got {opts.budget}")
    try:
        inst, prior = _instance_from_opts(opts)
        u = _utility_from_opts(opts, inst)
        loss = u.loss if isinstance(u, GeneralizedReduction) else None
        tree = build_policy(opts.criterion, prior, inst, opts.budget, loss=loss)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))

    # hypotheses sharing a leaf share its path and its agreement set V
    rows = [""] * inst.n_hypotheses
    utility = _set_utility_fn(u, prior, inst)
    for V in _leaves(tree):
        queried, labels, cost = run_policy(tree, inst.hypothesis(V[0]))
        value = _fmt(utility(V))
        tail = f"{'|'.join(queried)},{'|'.join(labels)},{value},{cost}"
        for hi in V.tolist():
            rows[hi] = f"{inst.ids[hi]},{tail}"
    lines = [RUN_SCHEMA, "hypothesis,queried,labels,utility,cost", *rows]
    _write_output(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_optimal(opts) -> int:
    if opts.objective != "min-cost" and (opts.budget is None or opts.budget < 1):
        return _fail(f"budget must be a positive integer, got {opts.budget}")
    try:
        inst, prior = _instance_from_opts(opts)
        if opts.objective == "min-cost":
            result = opt_min_cost(prior, inst)
        else:
            u = _utility_from_opts(opts, inst)
            oracle = opt_avg if opts.objective == "avg" else opt_worst
            result = oracle(prior, u, inst, opts.budget)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    _write_output(opts.out, result.to_text())
    return 0


def _counterexample_text(opts) -> str:
    _, _, _, report = counterexample_instance(
        opts.delta, mu=opts.mu, mode=opts.mode, C=opts.C, alpha=opts.alpha
    )
    p = report.params
    keys = ("mode", "delta", "mu", "C", "alpha", "l1")
    lines = [f"{k}={_fmt(p[k])}" for k in keys]
    prefix = "f_avg" if opts.mode == "avg" else "f_worst"
    for k in ("f_p1_pi0", "f_p1_pi1", "f_p0_pi1", "f_p0_pi0"):
        lines.append(f"{prefix}_{k[2:]}={_fmt(p[k])}")
    lines.append(f"opt_p0={_fmt(p['opt_p0'])}")
    lines.append(f"violation={_fmt(not report.holds)}")
    return "\n".join(lines) + "\n"


def cmd_counterexample(opts) -> int:
    try:
        text = _counterexample_text(opts)
    except ValueError as exc:
        return _fail(str(exc))
    _write_output(opts.out, text)
    return 0


def _report_row(report) -> str:
    # VERIFY_COLUMNS: the bound, eight params, then the report's own fields
    cells = [report.bound] + [_fmt(report.params.get(k)) for k in VERIFY_COLUMNS[1:9]]
    cells += [_fmt(v) for v in (report.lhs, report.rhs, report.slack, report.holds)]
    return ",".join(cells)


def cmd_verify(opts) -> int:
    if opts.counterexample:
        return cmd_counterexample(opts)
    try:
        radii = tuple(float(r) for r in str(opts.radii).split(","))
        reports = sweep_reports(
            n_instances=opts.trials, radii=radii, seed=opts.seed, budget=opts.budget
        )
    except ValueError as exc:
        return _fail(str(exc))
    lines = [VERIFY_SCHEMA, ",".join(VERIFY_COLUMNS)]
    lines.extend(_report_row(r) for r in reports)
    _write_output(opts.out, "\n".join(lines) + "\n")
    failures = [r for r in reports if not r.holds]
    if failures:
        print(f"error: {len(failures)} bound reports failed", file=sys.stderr)
        families: dict = {}  # bound -> (failures, the one with least slack), in report order
        for r in failures:
            count, worst = families.get(r.bound, (0, r))
            families[r.bound] = (count + 1, min(worst, r, key=lambda f: f.slack))
        for bound, (count, r) in families.items():
            trial, radius = (_fmt(r.params.get(k)) or "-" for k in ("trial", "radius"))
            print(f"error: {bound}: {count} failed, min slack {_fmt(r.slack)} (replay: --seed "
                  f"{opts.seed}, trial {trial}, radius {radius})", file=sys.stderr)
        return 1
    return 0


def _mixture_components(opts):
    if getattr(opts, "component_files", None):
        paths = [p for p in str(opts.component_files).split(",") if p]
        loaded = [load_instance(p) for p in paths]
        inst = loaded[0][0]
        for other, _ in loaded[1:]:
            pool = (other.examples, other.labels) == (inst.examples, inst.labels)
            if not pool or not np.array_equal(other.label_matrix, inst.label_matrix):
                raise ValueError("component files must share one instance")
        return inst, tuple(prior for _, prior in loaded)
    return grid_task(opts.pool, opts.components)


def cmd_mixture_demo(opts) -> int:
    # glibc trims and re-faults the heap each step frees (512 KB per posterior at H = 65,536)
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if hasattr(libc, "mallopt"):  # keep it as glibc itself would after freeing an 8 MB block
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD
    try:
        inst, components = _mixture_components(opts)
        rows, means = mixture_trajectories(
            inst,
            components,
            budget=opts.budget,
            n_seeds=opts.seeds,
            criterion=opts.criterion,
            with_passive=opts.with_passive,
            seed=opts.seed,
        )
    except (ValueError, OSError) as exc:
        return _fail(str(exc))

    lines = [MIXTURE_SCHEMA, "seed,method,step,example,label,weights,accuracy"]
    for s, method, step, x, y, weights, accuracy in rows:
        wtxt = "|".join(repr(float(w)) for w in weights)
        lines.append(f"{s},{method},{step},{x},{y},{wtxt},{_fmt(accuracy)}")
    for method in sorted(means):
        lines.append(f"mean_final,{method},,,,,{_fmt(means[method])}")
    _write_output(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_gen_instance(opts) -> int:
    try:
        rng = np.random.default_rng(opts.seed)
        inst = random_instance(opts.examples, opts.hypotheses, opts.labels, rng=rng)
        prior = uniform_prior(inst) if opts.uniform else random_prior(inst, rng)
    except ValueError as exc:
        return _fail(str(exc))
    _write_output(opts.out, instance_text(inst, prior))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_instance_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", help="instance file (examples/labels/hypotheses)")
    p.add_argument("--synthetic", help="synthetic spec X,H,Y (seeded)")
    p.add_argument("--seed", type=int)


def _add_utility_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--utility", choices=("version-space", "generalized", "pruning"))
    p.add_argument("--loss", choices=("zero-one", "hamming"))
    p.add_argument("--mu", type=float)


def _add_counterexample_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("avg", "worst"))
    p.add_argument("--delta", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--alpha", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolal",
        description="Pool-based Bayesian active learning: greedy policies, "
        "exact oracles, and prior-robustness checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a greedy policy against every hypothesis")
    _add_instance_opts(p)
    _add_utility_opts(p)
    p.add_argument("--criterion", choices=("max_gibbs", "least_confidence", "max_entropy", "gbs", "worst_gen_gibbs"))
    p.add_argument("--budget", type=int)

    p = sub.add_parser("optimal", help="exact optimal policy by exhaustive search")
    _add_instance_opts(p)
    _add_utility_opts(p)
    p.add_argument("--objective", choices=("avg", "worst", "min-cost"))
    p.add_argument("--budget", type=int)

    p = sub.add_parser("verify", help="sweep the robustness bounds, one CSV row per report")
    p.add_argument("--trials", type=int)
    p.add_argument("--radii")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--counterexample", action="store_true", default=None)
    _add_counterexample_opts(p)

    p = sub.add_parser("counterexample", help="the non-Lipschitz instance and its values")
    _add_counterexample_opts(p)

    p = sub.add_parser("mixture-demo", help="mixture-prior active learning vs passive")
    p.add_argument("--seeds", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--pool", type=int)
    p.add_argument("--components", type=int)
    p.add_argument("--component-files", dest="component_files")
    p.add_argument("--criterion", choices=("max_gibbs", "least_confidence", "max_entropy", "gbs"))
    p.add_argument("--with-passive", dest="with_passive", action="store_true", default=None)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("gen-instance", help="write a seeded synthetic instance file")
    p.add_argument("--examples", type=int)
    p.add_argument("--hypotheses", type=int)
    p.add_argument("--labels", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--uniform", action="store_true", default=None)

    for p in sub.choices.values():
        p.add_argument("--config")
        p.add_argument("--out")
    return parser


_PARSER = build_parser()  # built once per process; parsing leaves it unchanged


_DEFAULTS = {
    "run": dict(
        instance=None, synthetic=None, seed=0, criterion="max_gibbs",
        utility="version-space", loss="zero-one", mu=0.01, budget=None, out=None,
    ),
    "optimal": dict(
        instance=None, synthetic=None, seed=0, objective="avg",
        utility="version-space", loss="zero-one", mu=0.01, budget=None, out=None,
    ),
    "verify": dict(
        trials=20, radii="0.05,0.1,0.3,0.5", seed=0, budget=2, counterexample=False,
        mode="avg", delta=0.1, mu=0.01, C=1.0, alpha=1.0, out=None,
    ),
    "counterexample": dict(mode="avg", delta=0.1, mu=0.01, C=1.0, alpha=1.0, out=None),
    "mixture-demo": dict(
        seeds=10, budget=8, pool=16, components=4, component_files=None,
        criterion="max_gibbs", with_passive=False, seed=0, out=None,
    ),
    "gen-instance": dict(examples=4, hypotheses=8, labels=2, seed=0, uniform=False, out=None),
}

_HANDLERS = {
    "run": cmd_run,
    "optimal": cmd_optimal,
    "verify": cmd_verify,
    "counterexample": cmd_counterexample,
    "mixture-demo": cmd_mixture_demo,
    "gen-instance": cmd_gen_instance,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        opts = _resolve(args, _DEFAULTS[args.command])
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        return _HANDLERS[args.command](opts)
    except InstanceFormatError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
