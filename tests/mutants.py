"""Mutants of the bounds, the mixture update and the name lookup that the listed tests must kill.

Each row of ``MUTANTS`` names a file, a text that occurs in it exactly once, the text that
replaces it, and the test files that must fail once it is applied.  The runner copies ``src``
and ``tests`` to a temporary directory, checks that every listed test file passes there
unmutated, then applies each mutant in turn and runs its test files with ``-x``.  It exits 1
if a mutant survives, if an old text does not occur exactly once, or if a run errs instead of
failing.  pytest does not collect this file.

Run from the repository root: ``python tests/mutants.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROBUSTNESS = "src/poolal/robustness.py"
BOUND_TESTS = ("tests/test_robustness.py", "tests/test_acceptance.py")

MUTANTS = [  # (file, old text, new text, test files that must kill it)
    # check_mixture_bounds scores its lhs under the algorithm's prior, not the truth's
    (ROBUSTNESS, "lhs = c_avg(p0, tree)\n    alpha = gbs_alpha(p1) if",
     "lhs = c_avg(p1, tree)\n    alpha = gbs_alpha(p1) if", BOUND_TESTS),
    # the mixture_vs_true_opt blow-up 1 + (k - 1)/min p0 becomes 2 + ...
    (ROBUSTNESS, "1.0 + (k - 1) / min_p0", "2.0 + (k - 1) / min_p0", BOUND_TESTS),
    # the specialized gbs ceiling ln(k / min p0) + 1 becomes + 2
    (ROBUSTNESS, "math.log(k / min_p0) + 1.0", "math.log(k / min_p0) + 2.0", BOUND_TESTS),
    # check_mincost_bound's (alpha + 1) K l1 becomes (alpha + 2) K l1
    (ROBUSTNESS, "(alpha + 1.0) * cap * dist", "(alpha + 2.0) * cap * dist", BOUND_TESTS),
    # the coverage term (alpha + 1) C l1 doubled
    (ROBUSTNESS, "(alpha + 1.0) * C * dist", "2 * (alpha + 1.0) * C * dist", BOUND_TESTS),
    (ROBUSTNESS, "ALPHA_GREEDY = 1.0 - 1.0 / math.e", "ALPHA_GREEDY = 0.5", BOUND_TESTS),
    # gbs_alpha ln(1 / min p) + 1 becomes + 2
    (ROBUSTNESS, "math.log(1.0 / support_min) + 1.0", "math.log(1.0 / support_min) + 2.0",
     BOUND_TESTS),
    # the mixture ceiling k alpha opt becomes (k + 1) alpha opt
    (ROBUSTNESS, 'ceiling("mixture_vs_mixture_opt", k,', 'ceiling("mixture_vs_mixture_opt", k + 1,',
     BOUND_TESTS),
    # the default cost cap K = |X| becomes |X| + 1
    (ROBUSTNESS, "cap = float(inst.n_examples) if", "cap = float(inst.n_examples + 1) if",
     BOUND_TESTS),
    # a dead prior's likelihood summed over its entries alone, without the zero-filled buffer of
    # its column's length that gives it the dense column's bits (the state's column, which the
    # live priors share, is built apart)
    ("src/poolal/mixture.py", "columns[id(V)] = _Column.at(V, mask, idx)",
     "columns[id(V)] = _Column.at(V, mask, idx)._replace(pos=None)", ("tests/test_mixture.py",)),
    # the column buffer left unfilled: each likelihood also sums whatever the memory held outside
    # the positions its prior scatters to
    ("src/poolal/mixture.py", "pos, np.zeros(idx.size))", "pos, np.empty(idx.size))",
     ("tests/test_mixture.py",)),
    # every prior read at the first column built, in an observation the state's: a dead prior's
    # entries are taken at positions in the state's V, not its own
    ("src/poolal/mixture.py", "    col = columns[id(V)]\n", "    col = next(iter(columns.values()))\n",
     ("tests/test_mixture.py",)),
    # an unknown example or label name reads as position -1, a silent wrong index
    ("src/poolal/core.py", 'raise ValueError(f"unknown {self.kind} {name!r}")', "return -1",
     ("tests/test_core.py",)),
]


def run_tests(tree: Path, tests) -> int:
    """pytest's exit status for ``tests`` in ``tree``: 0 passed, 1 some test failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("HYPOTHESIS_PROFILE", "ci")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):  # no bytecode, so a same-size mutant is never stale
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for *_, files in MUTANTS for t in files})
        if run_tests(tree, tests) != 0:
            print(f"unmutated tests do not pass: {' '.join(tests)}")
            return 1
        for i, (path, old, new, tests) in enumerate(MUTANTS):
            target = tree / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"error    {i}: {path}: {old!r} occurs {text.count(old)} times")
                bad += 1
                continue
            target.write_text(text.replace(old, new), encoding="utf-8")
            status = run_tests(tree, tests)
            target.write_text(text, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error {status}")
            bad += status != 1
            print(f"{verdict:8} {i}: {path}: {old!r} -> {new!r}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
