"""Command-line front end: seeded experiments emitting plot-ready CSV.

Every command is deterministic given its flags (including the seed) and
writes its output in one shot, so interrupted runs leave no partial
files.  Options and defaults are declared once, in ``_COMMANDS``.  A
flat ``key=value`` config file can set any long option of its command
but ``config``: each line becomes a ``--key=value`` flag ahead of the
explicit ones, which win.  Its values get the flags' checks, switches
take true/false/1/0/yes/no/on/off, and a bad value or a key that is not
an option of the command is an error naming ``file:line``.  Relative
output paths resolve against ``POOLAL_OUTPUT_DIR`` when that variable is
set.  Exit status: 0 on success, 1 only when a ``verify`` bound fails, and
2 for bad input, an unreadable input file or an unwritable output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    instance_text,
    load_instance,
    random_instance,
    random_prior,
    uniform_prior,
)
from .mixture import grid_task, mixture_trajectories
from .optimal import _leaves, _route, opt_avg, opt_min_cost, opt_worst
from .policies import CRITERIA, build_policy
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


def _load_config(path: str) -> list[tuple[str, str, str]]:
    """(key, value, "path:line") for each ``key=value`` line of a config file."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{i}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries.append((key.strip(), value.strip(), f"{path}:{i}"))
    return entries


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
    if opts.instance:
        return load_instance(opts.instance)
    if not opts.synthetic:
        raise ValueError("provide --instance FILE or --synthetic X,H,Y")
    try:
        n_x, n_h, n_y = (int(v) for v in opts.synthetic.split(","))
    except ValueError:
        raise ValueError(f"bad synthetic spec {opts.synthetic!r}, expected X,H,Y") from None
    rng = np.random.default_rng(opts.seed)
    inst = random_instance(n_x, n_h, n_y, rng=rng)
    return inst, random_prior(inst, rng)


def _utility_from_opts(opts, inst):
    if opts.utility == "version-space":
        return VersionSpaceReduction()
    if opts.utility == "generalized":
        loss = hamming_loss(inst) if opts.loss == "hamming" else zero_one_loss(inst)
        return GeneralizedReduction(loss)
    return PruningCount(opts.mu)  # --utility's choices leave only "pruning"


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
        raise ValueError(f"budget must be a positive integer, got {opts.budget}")
    inst, prior = _instance_from_opts(opts)
    u = _utility_from_opts(opts, inst)
    loss = u.loss if isinstance(u, GeneralizedReduction) else None
    tree = build_policy(opts.criterion, prior, inst, opts.budget, loss=loss)

    # hypotheses sharing a leaf share its agreement set V and its path, read up the node table
    key, (example, child, names, _), Y = _route(tree)[0], tree._table, inst.n_labels
    up = {c: s for s, c in enumerate(child.ravel().tolist()) if c >= 0}  # a child's slot in its parent
    rows = [""] * inst.n_hypotheses
    utility = _set_utility_fn(u, prior, inst)
    for V in _leaves(tree, key):
        path = [int(key[V[0]])]
        while path[-1] // Y in up:
            path.append(up[path[-1] // Y])
        queried = "|".join(names[example[s // Y]] for s in reversed(path))
        labels = "|".join(inst.labels[s % Y] for s in reversed(path))
        tail = f"{queried},{labels},{_fmt(utility(V))},{len(path)}"
        for hi in V.tolist():
            rows[hi] = f"{inst.ids[hi]},{tail}"
    lines = [RUN_SCHEMA, "hypothesis,queried,labels,utility,cost", *rows]
    _write_output(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_optimal(opts) -> int:
    if opts.objective != "min-cost" and (opts.budget is None or opts.budget < 1):
        raise ValueError(f"budget must be a positive integer, got {opts.budget}")
    inst, prior = _instance_from_opts(opts)
    if opts.objective == "min-cost":
        result = opt_min_cost(prior, inst)
    else:
        u = _utility_from_opts(opts, inst)
        oracle = opt_avg if opts.objective == "avg" else opt_worst
        result = oracle(prior, u, inst, opts.budget)
    _write_output(opts.out, result.to_text())
    return 0


def cmd_counterexample(opts) -> int:
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
    _write_output(opts.out, "\n".join(lines) + "\n")
    return 0


def _report_row(report) -> str:
    # VERIFY_COLUMNS: the bound, eight params, then the report's own fields
    cells = [report.bound] + [_fmt(report.params.get(k)) for k in VERIFY_COLUMNS[1:9]]
    cells += [_fmt(v) for v in (report.lhs, report.rhs, report.slack, report.holds)]
    return ",".join(cells)


def _radii(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(r) for r in text.split(","))
    except ValueError:
        raise ValueError(f"--radii must be comma-separated numbers, got {text!r}") from None


def cmd_verify(opts) -> int:
    if opts.counterexample:
        return cmd_counterexample(opts)
    radii = _radii(opts.radii)
    reports = sweep_reports(n_instances=opts.trials, radii=radii, seed=opts.seed, budget=opts.budget)
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
    if opts.component_files:
        paths = [p for p in opts.component_files.split(",") if p]
        loaded = [load_instance(p) for p in paths]
        inst = loaded[0][0]
        for other, _ in loaded[1:]:
            pool = (other.examples, other.labels) == (inst.examples, inst.labels)
            if not pool or not np.array_equal(other.label_matrix, inst.label_matrix):
                raise ValueError("component files must share one instance")
        return inst, tuple(prior for _, prior in loaded)
    return grid_task(opts.pool, opts.components)


def cmd_mixture_demo(opts) -> int:
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
    lines = [MIXTURE_SCHEMA, "seed,method,step,example,label,weights,accuracy"]
    for s, method, step, x, y, weights, accuracy in rows:
        wtxt = "|".join(repr(float(w)) for w in weights)
        lines.append(f"{s},{method},{step},{x},{y},{wtxt},{_fmt(accuracy)}")
    for method in sorted(means):
        lines.append(f"mean_final,{method},,,,,{_fmt(means[method])}")
    _write_output(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_gen_instance(opts) -> int:
    rng = np.random.default_rng(opts.seed)
    inst = random_instance(opts.examples, opts.hypotheses, opts.labels, rng=rng)
    prior = uniform_prior(inst) if opts.uniform else random_prior(inst, rng)
    _write_output(opts.out, instance_text(inst, prior))
    return 0


# ---------------------------------------------------------------------------
# Options: each command's flags in --help order, as {flag: argparse keywords}

def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_nonnegative_int.__name__ = "nonnegative int"  # the type argparse and config errors name
_SEED = {"--seed": dict(type=_nonnegative_int, default=0)}
_MU = {"--mu": dict(type=float, default=0.01)}
_BUDGET = {"--budget": dict(type=int)}  # no default: run and optimal need one
_INSTANCE_OPTS = {
    "--instance": dict(help="instance file (examples/labels/hypotheses)"),
    "--synthetic": dict(help="synthetic spec X,H,Y (seeded)"), **_SEED,
}
_UTILITY_OPTS = {
    "--utility": dict(choices=("version-space", "generalized", "pruning"), default="version-space"),
    "--loss": dict(choices=("zero-one", "hamming"), default="zero-one"), **_MU,
}
_COUNTEREXAMPLE_OPTS = {
    "--mode": dict(choices=("avg", "worst"), default="avg"),
    "--delta": dict(type=float, default=0.1), **_MU,
    "--C": dict(type=float, default=1.0), "--alpha": dict(type=float, default=1.0),
}
_FILES = {"--config": {}, "--out": {}}  # every command's last two; a config file may set --out

_COMMANDS = {  # name: (help, handler, options)
    "run": ("run a greedy policy against every hypothesis", cmd_run, {
        **_INSTANCE_OPTS, **_UTILITY_OPTS,
        "--criterion": dict(choices=CRITERIA, default="max_gibbs"), **_BUDGET,
    }),
    "optimal": ("exact optimal policy by exhaustive search", cmd_optimal, {
        **_INSTANCE_OPTS, **_UTILITY_OPTS,
        "--objective": dict(choices=("avg", "worst", "min-cost"), default="avg"), **_BUDGET,
    }),
    "verify": ("sweep the robustness bounds, one CSV row per report", cmd_verify, {
        "--trials": dict(type=int, default=20), "--radii": dict(default="0.05,0.1,0.3,0.5"),
        **_SEED, "--budget": dict(type=int, default=2),
        "--counterexample": dict(action="store_true"), **_COUNTEREXAMPLE_OPTS,
    }),
    "counterexample": ("the non-Lipschitz instance and its values", cmd_counterexample,
                       _COUNTEREXAMPLE_OPTS),
    "mixture-demo": ("mixture-prior active learning vs passive", cmd_mixture_demo, {
        "--seeds": dict(type=int, default=10), "--budget": dict(type=int, default=8),
        "--pool": dict(type=int, default=16), "--components": dict(type=int, default=4),
        "--component-files": {},
        "--criterion": dict(choices=tuple(c for c in CRITERIA if c != "worst_gen_gibbs"),
                            default="max_gibbs"),
        "--with-passive": dict(action="store_true"), **_SEED,
    }),
    "gen-instance": ("write a seeded synthetic instance file", cmd_gen_instance, {
        "--examples": dict(type=int, default=4), "--hypotheses": dict(type=int, default=8),
        "--labels": dict(type=int, default=2), **_SEED, "--uniform": dict(action="store_true"),
    }),
}


class _Parser(argparse.ArgumentParser):
    """Raises where argparse would print usage and exit 2, so ``main`` reports every rejection;
    its subparsers are built with this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poolal",
        description="Pool-based Bayesian active learning: greedy policies, "
        "exact oracles, and prior-robustness checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in {**options, **_FILES}.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


_PARSER = build_parser()  # built once per process; parsing leaves it unchanged

_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
             **dict.fromkeys(("false", "0", "no", "off"), False)}


def _config_flags(command: str, path: str) -> list[str]:
    """A config file's lines as ``--key=value`` flags, each checked like the flag itself."""
    options = {**_COMMANDS[command][2], **_FILES}
    flags = []
    for key, value, where in _load_config(path):
        flag = "--" + key.replace("_", "-")
        if flag == "--config" or flag not in options:
            raise ValueError(f"{where}: {key!r} is not an option of {command}")
        keywords = options[flag]
        if keywords.get("action") == "store_true":
            if value.lower() not in _BOOLEANS:
                raise ValueError(f"{where}: {key}: expected a boolean, got {value!r}")
            flags += [flag] if _BOOLEANS[value.lower()] else []
            continue
        kind = keywords.get("type", str)
        try:
            checked = kind(value)
        except ValueError:
            raise ValueError(f"{where}: {key}: invalid {kind.__name__} value {value!r}") from None
        choices = keywords.get("choices")
        if choices and checked not in choices:
            allowed = ", ".join(map(repr, choices))
            raise ValueError(f"{where}: {key}: invalid choice {value!r} (choose from {allowed})")
        flags.append(f"{flag}={value}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:  # the one exit for bad input, unreadable files and unwritable output
        args = _PARSER.parse_args(argv)
        if args.config:
            # config flags go right after the command, so the user's own flags come last and win
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.command, args.config)
            args = _PARSER.parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
