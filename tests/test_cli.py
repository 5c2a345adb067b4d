import hashlib
import inspect
import os
from pathlib import Path

import numpy as np
import pytest

import poolal as pl
from poolal import cli
from poolal.cli import main


@pytest.fixture
def square_file(tmp_path, square):
    path = tmp_path / "square.csv"
    pl.save_instance(path, square, pl.uniform_prior(square))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_uniform_square_budget_two(self, capsys, square_file):
        code, out, _ = run_cli(
            capsys, "run", "--instance", square_file, "--criterion", "max_gibbs",
            "--budget", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema: poolal-run-v1"
        assert lines[1] == "hypothesis,queried,labels,utility,cost"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        assert all(row[3] == "0.75" and row[4] == "2" for row in rows)
        assert rows[0] == ["h1", "x0|x1", "0|0", "0.75", "2"]

    def test_budget_zero_rejected(self, capsys, square_file):
        code, _, err = run_cli(capsys, "run", "--instance", square_file, "--budget", "0")
        assert code == 2
        assert "budget" in err

    def test_missing_budget_rejected(self, capsys, square_file):
        code, _, err = run_cli(capsys, "run", "--instance", square_file)
        assert code == 2

    def test_nan_threshold_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--synthetic", "3,6,2", "--budget", "1", "--utility", "pruning",
            "--mu", "nan",
        )
        assert (code, out, err) == (2, "", "error: threshold must be nonnegative\n")

    def test_deterministic_output(self, capsys, square_file):
        args = ("run", "--instance", square_file, "--budget", "2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_synthetic_spec(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--synthetic", "3,6,2", "--seed", "5", "--budget", "2"
        )
        assert code == 0
        assert len(out.splitlines()) == 2 + 6

    def test_malformed_instance_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("examples,x0\nlabels,0,1\nh,a,zzz,0\n")
        code, _, err = run_cli(capsys, "run", "--instance", str(bad), "--budget", "1")
        assert code == 2
        assert "line 3" in err

    def test_non_finite_probability_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("examples,x0\nlabels,0,1\nh,a,nan,0\nh,b,1.0,1\n")
        code, out, err = run_cli(capsys, "run", "--instance", str(bad), "--budget", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 3")

    @pytest.mark.parametrize("spec", ["5,14,2", "4,20,3"])
    @pytest.mark.parametrize("utility", ["version-space", "generalized", "pruning"])
    @pytest.mark.parametrize("criterion", pl.CRITERIA)
    def test_csv_equals_per_hypothesis_replay(self, capsys, spec, utility, criterion):
        args = ("--synthetic", spec, "--seed", "7", "--budget", "3")
        extra = ("--loss", "hamming") if utility == "generalized" else ()
        code, out, _ = run_cli(
            capsys, "run", *args, "--utility", utility, "--criterion", criterion, *extra
        )
        assert code == 0

        rng = np.random.default_rng(7)
        inst = pl.random_instance(*(int(v) for v in spec.split(",")), rng=rng)
        prior = pl.random_prior(inst, rng)
        u = {
            "version-space": pl.VersionSpaceReduction(),
            "generalized": pl.GeneralizedReduction(pl.hamming_loss(inst)),
            "pruning": pl.PruningCount(0.01),
        }[utility]
        loss = u.loss if utility == "generalized" else None
        tree = pl.build_policy(criterion, prior, inst, 3, loss=loss)
        lines = ["# schema: poolal-run-v1", "hypothesis,queried,labels,utility,cost"]
        for h in inst.hypotheses:
            queried, labels, cost = pl.run_policy(tree, h)
            value = pl.eval_utility(u, prior, inst, queried, h)
            lines.append(f"{h.id},{'|'.join(queried)},{'|'.join(labels)},{value!r},{cost}")
        assert out == "\n".join(lines) + "\n"


class TestOptimal:
    def test_min_cost_square(self, capsys, square_file):
        code, out, _ = run_cli(
            capsys, "optimal", "--instance", square_file, "--objective", "min-cost"
        )
        assert code == 0
        assert out.splitlines()[0] == "value=2.0"
        assert out.splitlines()[1] == "0,x0,"

    def test_avg_objective(self, capsys, square_file):
        code, out, _ = run_cli(
            capsys, "optimal", "--instance", square_file, "--objective", "avg",
            "--budget", "1",
        )
        assert code == 0
        assert out.splitlines()[0] == "value=0.5"

    def test_worst_objective(self, capsys, square_file):
        code, out, _ = run_cli(
            capsys, "optimal", "--instance", square_file, "--objective", "worst",
            "--budget", "1",
        )
        assert code == 0
        assert out.splitlines()[0] == "value=0.5"


class TestCounterexample:
    def test_avg_mode_golden(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--mode", "avg", "--delta", "0.1")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.splitlines())
        assert values["mode"] == "avg"
        assert float(values["mu"]) == 0.0
        assert abs(float(values["f_avg_p1_pi0"]) - 2.0) < 1e-9
        assert abs(float(values["f_avg_p1_pi1"]) - 2.0) < 1e-9
        assert abs(float(values["f_avg_p0_pi1"]) - 0.0) < 1e-9
        assert abs(float(values["f_avg_p0_pi0"]) - 1.0) < 1e-9
        assert abs(float(values["l1"]) - 0.4) < 1e-9
        assert values["violation"] == "true"

    def test_worst_mode_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "counterexample", "--mode", "worst", "--delta", "0.1", "--mu", "0.01"
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.splitlines())
        assert abs(float(values["f_worst_p1_pi0"]) - 2.0) < 1e-9
        assert abs(float(values["f_worst_p1_pi1"]) - 2.0) < 1e-9
        assert abs(float(values["f_worst_p0_pi1"]) - 0.0) < 1e-9
        assert abs(float(values["f_worst_p0_pi0"]) - 1.0) < 1e-9
        assert values["violation"] == "true"

    def test_verify_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--counterexample", "--delta", "0.1"
        )
        assert code == 0
        assert "violation=true" in out

    def test_bad_delta(self, capsys):
        code, _, err = run_cli(capsys, "counterexample", "--delta", "0.4")
        assert code == 2
        assert "delta" in err

    def test_nan_threshold(self, capsys):
        code, out, err = run_cli(capsys, "counterexample", "--mode", "worst", "--mu", "nan")
        assert (code, out, err) == (2, "", "error: threshold must be nonnegative\n")

    @pytest.mark.parametrize("flag", ["--C", "--alpha"])
    def test_nan_constant_is_not_a_violation(self, capsys, flag):
        code, out, err = run_cli(capsys, "counterexample", flag, "nan")
        assert (code, out) == (2, "")
        assert "C and alpha must be finite" in err


class TestVerify:
    def test_failing_report_exits_nonzero(self, capsys, monkeypatch):
        from poolal import cli as cli_mod
        from poolal.robustness import BoundReport

        broken = BoundReport.at_least("avg_vsr_max_gibbs", 0.0, 1.0, {"trial": 0})
        monkeypatch.setattr(cli_mod, "sweep_reports", lambda **kw: [broken])
        code, out, err = run_cli(capsys, "verify", "--trials", "1")
        assert code == 1
        assert "failed" in err
        assert out.splitlines()[2].endswith(",false")

    def test_failing_families_name_their_replay_key(self, capsys, monkeypatch):
        from poolal import robustness

        monkeypatch.setattr(robustness, "ALPHA_GREEDY", 5.0)  # no greedy tree is 5x the optimum
        args = ("verify", "--trials", "3", "--radii", "0.1,0.3", "--seed", "4")
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        rows = [line.split(",") for line in out.splitlines()[2:]]
        failed = [row for row in rows if row[-1] == "false"]
        lines = err.splitlines()
        assert lines[0] == f"error: {len(failed)} bound reports failed"
        slack_col = out.splitlines()[1].split(",").index("slack")
        families = {}
        for row in failed:
            families.setdefault(row[0], []).append(row)
        assert len(lines) == 1 + len(families)
        for line, (bound, rows_of) in zip(lines[1:], families.items()):
            worst = min(rows_of, key=lambda row: float(row[slack_col]))
            assert line == (
                f"error: {bound}: {len(rows_of)} failed, min slack {worst[slack_col]}"
                f" (replay: --seed 4, trial {worst[1]}, radius {worst[2]})"
            )
        assert {"avg_vsr_max_gibbs", "worst_vsr_least_confidence"} <= set(families)
        monkeypatch.undo()
        code, _, clean_err = run_cli(capsys, *args)
        assert (code, clean_err) == (0, "")  # when every bound holds, stderr stays empty

    @pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "1e308"])
    def test_out_of_domain_radius(self, capsys, radius):
        code, out, err = run_cli(capsys, "verify", "--trials", "1", f"--radii=0.1,{radius}")
        assert (code, out) == (2, "")
        assert err.startswith("error: perturbation radius must lie in [0, 2], got ")

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_is_rejected_whatever_the_seed(self, capsys, budget):
        errs = []
        for seed in ("0", "1"):  # their first trials draw pools of 4 and 3 examples
            code, out, err = run_cli(capsys, "verify", "--trials=1", f"--seed={seed}",
                                     f"--budget={budget}")
            assert (code, out) == (2, "")
            errs.append(err)
        assert errs == [f"error: budget must be a positive integer, got {budget}\n"] * 2

    @pytest.mark.parametrize("radii", ["", "0.1,,0.2", "abc", "0.1;0.2"])
    def test_unparsable_radii_name_the_option(self, capsys, tmp_path, radii):
        code, out, err = run_cli(capsys, "verify", "--trials", "1", f"--radii={radii}")
        assert (code, out, err) == (2, "", f"error: --radii must be comma-separated numbers, got {radii!r}\n")
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(f"radii={radii}\n")
        code, out, err = run_cli(capsys, "verify", "--trials", "1", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: --radii must be comma-separated numbers, got {radii!r}\n")

    def test_small_sweep_exits_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--trials", "4", "--radii", "0.1,0.3", "--seed", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema: poolal-verify-v1"
        assert lines[1].startswith("bound,trial,radius,")
        body = [line.split(",") for line in lines[2:]]
        assert body
        holds_col = lines[1].split(",").index("holds")
        assert all(row[holds_col] == "true" for row in body)


class TestMixtureDemo:
    def test_small_demo_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "mixture-demo", "--pool", "6", "--components", "2",
            "--seeds", "2", "--budget", "3", "--with-passive",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema: poolal-mixture-v1"
        assert lines[1] == "seed,method,step,example,label,weights,accuracy"
        body = [line for line in lines[2:] if not line.startswith("mean_final")]
        summary = [line for line in lines[2:] if line.startswith("mean_final")]
        assert len(body) == 2 * 2 * 3  # seeds x methods x steps
        assert len(summary) == 2
        assert {line.split(",")[1] for line in summary} == {"al", "passive"}

    def test_deterministic(self, capsys):
        args = ("mixture-demo", "--pool", "6", "--components", "2", "--seeds", "1",
                "--budget", "2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_single_component_matches_greedy_transcript(self, capsys):
        code, out, _ = run_cli(
            capsys, "mixture-demo", "--pool", "6", "--components", "1",
            "--seeds", "1", "--budget", "3",
        )
        assert code == 0
        inst, comps = pl.grid_task(6, 1)
        rng = np.random.default_rng([0, 0])
        truth = pl.sample_truth(inst, comps, rng)
        t = pl.greedy_transcript("max_gibbs", comps[0], inst, 3, truth)
        queried = [
            line.split(",")[3]
            for line in out.splitlines()[2:]
            if not line.startswith("mean_final")
        ]
        assert tuple(queried) == tuple(x for x, _ in t.pairs)

    def test_budget_validation(self, capsys):
        code, _, err = run_cli(capsys, "mixture-demo", "--pool", "4", "--budget", "9")
        assert code == 2
        assert "pool" in err

    def test_component_files_must_share_their_labelings(self, capsys, tmp_path, square):
        # the same four labelings, listed in another order: the priors would misalign
        flipped = pl.Instance(square.examples, square.labels, square.hypotheses[::-1])
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        pl.save_instance(paths[0], square, pl.Prior([0.4, 0.3, 0.2, 0.1]))
        pl.save_instance(paths[1], flipped, pl.Prior([0.4, 0.3, 0.2, 0.1]))
        code, _, err = run_cli(
            capsys, "mixture-demo", "--component-files", ",".join(map(str, paths)),
            "--budget", "1", "--seeds", "1",
        )
        assert code == 2
        assert "component files must share one instance" in err


def _component_files(tmp_path, n_x, n_h, n_y, n_components, seed, dying=False):
    """Seeded component files over one random instance; ``dying`` zeroes part of component 0.

    With ``dying``, component 0 puts no mass on labelings whose x0 label
    is not the first label, so it dies once a truth shows otherwise.
    Each file holds its draw divided by the draw's Python sum, the prior
    the digests below were written from; the loader reads it back bit
    for bit.
    """
    rng = np.random.default_rng(seed)
    inst = pl.random_instance(n_x, n_h, n_y, rng=rng)
    paths = []
    for c in range(n_components):
        probs = rng.dirichlet(np.ones(n_h))
        if dying and c == 0:
            probs[inst.label_matrix[:, 0] != 0] = 0.0
            probs /= probs.sum()
        path = tmp_path / f"component{c}.csv"
        pl.save_instance(path, inst, pl.Prior(probs / sum(probs.tolist())))
        paths.append(str(path))
    return ",".join(paths)


_RUN = ("--seeds", "4", "--with-passive")
# name -> (component files spec, or None for the grid task; flags)
MIXTURE_RUNS = {
    "grid-al": (None, ("--pool", "8", "--components", "3", "--budget", "5", "--seeds", "3")),
    "grid-passive-entropy": (
        None, ("--pool", "8", "--components", "3", "--budget", "5", "--criterion", "max_entropy", *_RUN)),
    "binary-max_gibbs": ((5, 12, 2, 3, 11), ("--budget", "3", *_RUN)),
    # on binary labels the four criteria rank examples alike; on three labels
    # these two instances separate each pair that ranks alike on the other
    **{
        f"ternary-{c}": ((5, 40, 3, 2, seed), ("--budget", "3", "--criterion", c, *_RUN))
        for c, seed in (("max_gibbs", 17), ("least_confidence", 17), ("max_entropy", 16), ("gbs", 16))
    },
    "binary-dying": ((5, 16, 2, 3, 14, True), ("--budget", "4", "--seeds", "6", "--with-passive")),
}
# sha256 of each run's stdout, written by the code before mixture runs moved into mixture.py
MIXTURE_DIGESTS = {
    "grid-al": "185d21ea89526f7fc2c2534b604267184ab47e9e4c058087e233ec619b780f9b",
    "grid-passive-entropy": "e923b5013dede414aadf601b15395a76fd709355d9b0e7865ef8cf4ccff6d935",
    "binary-max_gibbs": "d0ac158371e55eff1f7ae2a3fc683fd43e519cf61ff5e7e56e0096915a439aff",
    "ternary-max_gibbs": "5b8c31f09cb50b44a16c25a228c89e9a612456998476d5e27a9e1532d6e1a2b1",
    "ternary-least_confidence": "e13d76b5e67878a27f1cc434699d79e2478db7d90c70a7db9e7f86df9c4c66de",
    "ternary-max_entropy": "8ddaf344607f801d840c41c6f7ed46fed3d3b71c6464b3dfd324914f8a8626ae",
    "ternary-gbs": "927699bc68826a3be68434b8bf12d7b27365f751baf88752b52d732c5df3eacc",
    "binary-dying": "0ef3ac5096e542218cb27e66d42fa8955792e251036777abfe29917316e2b871",
}


@pytest.mark.parametrize("name", sorted(MIXTURE_RUNS))
def test_mixture_demo_golden_digest(capsys, tmp_path, name):
    files, flags = MIXTURE_RUNS[name]
    argv = ["mixture-demo", *flags]
    if files is not None:
        argv += ["--component-files", _component_files(tmp_path, *files)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == MIXTURE_DIGESTS[name]
    if name == "binary-dying":  # some component dies: its weight reaches exactly 0
        weights = [row.split(",")[5] for row in out.splitlines()[2:] if row[0].isdigit()]
        assert any("0.0" in w.split("|") for w in weights)


class TestGenInstance:
    def test_roundtrip_through_file(self, capsys, tmp_path):
        out_path = tmp_path / "gen.csv"
        code, _, _ = run_cli(
            capsys, "gen-instance", "--examples", "3", "--hypotheses", "5",
            "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        inst, prior = pl.load_instance(out_path)
        assert inst.n_examples == 3
        assert inst.n_hypotheses == 5
        assert float(prior.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_stdout_mode_deterministic(self, capsys):
        args = ("gen-instance", "--examples", "3", "--hypotheses", "4", "--seed", "1")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second and first.startswith("examples,x0,x1,x2\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-instance", "--examples", "63", "--hypotheses", "5"),
            ("run", "--synthetic", "63,5,2", "--budget", "1"),
        ],
    )
    def test_undrawable_labeling_space_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: the labeling space 2**63 must be smaller than 2**63\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("0,6,2", "an instance needs at least one example"),
            ("3,6,1", "an instance needs at least two labels"),
            ("2,3,0", "an instance needs at least two labels"),
        ],
    )
    def test_synthetic_spec_blames_the_right_argument(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "run", "--synthetic", spec, "--budget", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestConfigAndEnv:
    def test_config_file_supplies_defaults_flags_win(self, capsys, tmp_path, square_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"instance={square_file}\nbudget=1\ncriterion=max_gibbs\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert all(row.split(",")[4] == "1" for row in out.splitlines()[2:])
        # explicit flag overrides the config value
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--budget", "2")
        assert all(row.split(",")[4] == "2" for row in out.splitlines()[2:])

    def test_output_dir_env(self, capsys, tmp_path, square_file, monkeypatch):
        monkeypatch.setenv("POOLAL_OUTPUT_DIR", str(tmp_path / "outputs"))
        code, _, _ = run_cli(
            capsys, "run", "--instance", square_file, "--budget", "2",
            "--out", "result.csv",
        )
        assert code == 0
        assert (tmp_path / "outputs" / "result.csv").exists()

    def test_interrupted_write_keeps_the_old_file(self, capsys, tmp_path, square_file, monkeypatch):
        target = tmp_path / "result.csv"
        args = ("run", "--instance", square_file, "--budget", "2", "--out", str(target))
        assert run_cli(capsys, *args)[0] == 0
        assert target.read_bytes().startswith(b"# schema: poolal-run-v1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.csv", "square.csv"]

        target.write_bytes(b"old bytes\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert run_cli(capsys, *args) == (2, "", "error: disk full\n")
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.csv", "square.csv"]


# each command with small valid flags; verify's bounds hold on these trials
SMALL_RUNS = {
    "run": ("--synthetic", "3,6,2", "--budget", "1"),
    "optimal": ("--synthetic", "3,6,2", "--budget", "1"),
    "verify": ("--trials", "1"),
    "counterexample": (),
    "mixture-demo": ("--pool", "4", "--components", "2", "--seeds", "1", "--budget", "1"),
    "gen-instance": (),
}


class TestOneExit:
    """Every command leaves through main's one exit: one ``error:`` line, exit 2."""

    def assert_clean_exit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", SMALL_RUNS)
    def test_out_names_a_directory(self, capsys, tmp_path, command):
        (tmp_path / "taken").mkdir()
        argv = (command, *SMALL_RUNS[command], "--out", str(tmp_path / "taken"))
        self.assert_clean_exit(capsys, argv)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list((tmp_path / "taken").iterdir()) == []

    @pytest.mark.parametrize("command", SMALL_RUNS)
    def test_output_dir_is_a_file(self, capsys, tmp_path, monkeypatch, command):
        (tmp_path / "plain").write_text("keep\n")
        monkeypatch.setenv("POOLAL_OUTPUT_DIR", str(tmp_path / "plain"))
        self.assert_clean_exit(capsys, (command, *SMALL_RUNS[command], "--out", "x.csv"))
        assert [p.name for p in tmp_path.iterdir()] == ["plain"]
        assert (tmp_path / "plain").read_text() == "keep\n"

    @pytest.mark.parametrize("argv", [
        ("run", "--budget", "1", "--instance"),
        ("optimal", "--budget", "1", "--instance"),
        ("mixture-demo", "--component-files"),
        ("gen-instance", "--config"),
    ])
    def test_unreadable_input(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing.csv"
        assert "missing.csv" in self.assert_clean_exit(capsys, (*argv, str(missing)))

    def test_verify_bounds_hold_on_the_small_run(self, capsys):
        assert run_cli(capsys, "verify", *SMALL_RUNS["verify"])[0] == 0


def test_handlers_leave_errors_to_main():
    for name, (_, handler, _) in cli._COMMANDS.items():
        assert "try:" not in inspect.getsource(handler), name


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = run_cli(capsys, "gen-instance", "--examples", "2", "--hypotheses", "3")
    assert code == 0 and out.startswith("examples,x0,x1\n")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_without_trials_is_a_usage_error(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: n_instances must be a positive integer, got {trials}\n"


@pytest.mark.parametrize(
    "command", [name for name, (_, _, options) in cli._COMMANDS.items() if "--seed" in options]
)
def test_negative_seed_is_an_error_naming_the_option(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, command, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: argument --seed: invalid nonnegative int value: '-1'\n")
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("seed=-1\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {cfg}:1: seed: invalid nonnegative int value '-1'\n")


HELP_DIR = Path(__file__).with_name("cli_help")


@pytest.mark.parametrize(
    "command",
    ["", "run", "optimal", "verify", "counterexample", "mixture-demo", "gen-instance"],
)
def test_help_text_is_pinned(capsys, monkeypatch, command):
    """Every --help text, byte for byte, as argparse on Python 3.11 wraps it at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"] if command else ["--help"])
    assert stop.value.code == 0
    golden = HELP_DIR / f"{command or 'poolal'}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


class TestConfigChecks:
    """Config-file values get the checks their flags get, and errors name file:line."""

    @staticmethod
    def run_config(capsys, tmp_path, command, *lines):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("# options\n" + "".join(f"{line}\n" for line in lines))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        return code, out, err, str(cfg)

    @pytest.mark.parametrize(
        "command, lines, line_no, message",
        [
            # each of these ran at one time: the bogus value was read as a default
            ("run", ("synthetic=3,6,2", "budget=1", "loss=bogus"), 4,
             "loss: invalid choice 'bogus' (choose from 'zero-one', 'hamming')"),
            ("optimal", ("synthetic=3,6,2", "budget=1", "objective=avgg"), 4,
             "objective: invalid choice 'avgg' (choose from 'avg', 'worst', 'min-cost')"),
            ("mixture-demo", ("pool=6", "components=2", "seeds=1", "budget=2",
                              "with_passive=maybe"), 6,
             "with_passive: expected a boolean, got 'maybe'"),
            ("run", ("synthetic=3,6,2", "budjet=2"), 3, "'budjet' is not an option of run"),
            ("verify", ("trials=abc",), 2, "trials: invalid int value 'abc'"),
            ("verify", ("radii=0.1", "mode=worst", "instance=a.csv"), 4,
             "'instance' is not an option of verify"),
            ("run", ("config=other.cfg",), 2, "'config' is not an option of run"),
            ("counterexample", ("delta=0.1", "C=x"), 3, "C: invalid float value 'x'"),
        ],
    )
    def test_bad_value_or_key_names_its_line(self, capsys, tmp_path, command, lines, line_no,
                                             message):
        code, out, err, cfg = self.run_config(capsys, tmp_path, command, *lines)
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:{line_no}: {message}\n"

    def test_missing_equals_names_its_line(self, capsys, tmp_path):
        code, _, err, cfg = self.run_config(capsys, tmp_path, "run", "budget=1", "budget 2")
        assert code == 2
        assert err == f"error: {cfg}:3: expected key=value, got 'budget 2'\n"

    @pytest.mark.parametrize("word", ["true", "TRUE", "1", "yes", "On", "false", "False", "0",
                                      "no", "OFF"])
    def test_switches_take_strict_booleans(self, capsys, tmp_path, word):
        args = ("gen-instance", "--examples", "3", "--hypotheses", "4")
        on = word.lower() in ("true", "1", "yes", "on")
        _, expected, _ = run_cli(capsys, *args, *(("--uniform",) if on else ()))
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"uniform={word}\n")
        code, out, _ = run_cli(capsys, *args, "--config", str(cfg))
        assert (code, out) == (0, expected)

    def test_negative_values_and_dashed_keys(self, capsys, tmp_path):
        _, expected, _ = run_cli(capsys, "counterexample", "--C", "-1")
        assert "C=-1.0\n" in expected
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("C=-1\n")
        assert run_cli(capsys, "counterexample", "--config", str(cfg))[:2] == (0, expected)
        _, expected, _ = run_cli(capsys, "mixture-demo", "--pool", "6", "--components", "2",
                                 "--seeds", "1", "--budget", "2", "--with-passive")
        cfg.write_text("pool=6\ncomponents=2\nseeds=1\nbudget=2\nwith-passive=yes\n")
        assert run_cli(capsys, "mixture-demo", "--config", str(cfg))[:2] == (0, expected)


def _resolved(monkeypatch, argv):
    """The options main hands its command, without running the command."""
    seen = []
    parse = cli._PARSER.parse_args

    def parse_only(args):
        namespace = parse(args)
        namespace.handler = lambda opts: seen.append(vars(opts)) or 0
        return namespace

    with monkeypatch.context() as patch:
        patch.setattr(cli._PARSER, "parse_args", parse_only)
        assert main(argv) == 0
    return {k: v for k, v in seen[-1].items() if k not in ("config", "handler")}


def _sample(keywords):
    """A value for an option that is not its default; negative numbers on purpose, where the
    option's type admits them."""
    if "choices" in keywords:
        return keywords["choices"][-1]
    samples = {int: "-3", float: "-0.25", str: "a,b.csv", cli._nonnegative_int: "3"}
    return samples[keywords.get("type", str)]


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, (_, _, options) in cli._COMMANDS.items()
     for flag in [*options, "--out"]],
)
def test_config_value_resolves_like_its_flag(monkeypatch, tmp_path, command, flag):
    keywords = cli._COMMANDS[command][2].get(flag, {})
    cfg = tmp_path / "opts.cfg"
    key = flag[2:].replace("-", "_")
    if keywords.get("action") == "store_true":
        cfg.write_text(f"{key}=true\n")
        assert _resolved(monkeypatch, [command, "--config", str(cfg)]) == _resolved(
            monkeypatch, [command, flag])
        cfg.write_text(f"{key}=false\n")
        assert _resolved(monkeypatch, [command, "--config", str(cfg)]) == _resolved(
            monkeypatch, [command])
        return
    value = _sample(keywords)
    cfg.write_text(f"{key}={value}\n")
    from_config = _resolved(monkeypatch, [command, "--config", str(cfg)])
    assert from_config == _resolved(monkeypatch, [command, flag, value])
    assert from_config != _resolved(monkeypatch, [command])


# Out-of-domain values of every typed option, each passed as --opt=value after small options
# that reach its check: (command, small options, {flag: values}).  --mu is only read by the
# pruning utility and by the counterexample, which checks it in avg mode too, where it then
# uses 0 (ids of the avg rows say so); 5 is past the budget cap of run and
# optimal on 4 examples; 2**64 labelings are past gen-instance's int64 codes.  mixture-demo's
# --seeds has no upper end; its --pool 64 is past the grid task's cap (and past 2**63
# labelings); --components 10**8 leaves the priors no room under the cap even at --pool 4.
_SMALL_POOL = ("--synthetic=4,8,2", "--budget=1", "--utility=pruning")
_COUNTEREXAMPLE_OUT_OF_DOMAIN = {
    "--delta": ("0", "-1", "0.25", "nan"), "--mu": ("-1", "nan", "0.5", "inf"),
    "--C": ("nan", "inf"), "--alpha": ("nan", "-inf"),
}
OUT_OF_DOMAIN = [
    ("run", _SMALL_POOL,
     {"--seed": ("-1",), "--mu": ("-1", "nan", "inf"), "--budget": ("0", "-1", "5")}),
    ("optimal", _SMALL_POOL,
     {"--seed": ("-1",), "--mu": ("-1", "nan", "inf"), "--budget": ("0", "-1", "5")}),
    ("verify", ("--trials=1", "--radii=0.1"),
     {"--trials": ("0", "-1"), "--seed": ("-1",), "--budget": ("0", "-1")}),
    ("verify", ("--counterexample", "--mode=worst"), _COUNTEREXAMPLE_OUT_OF_DOMAIN),
    ("counterexample", ("--mode=worst",), _COUNTEREXAMPLE_OUT_OF_DOMAIN),
    ("verify", ("--counterexample", "--mode=avg"), {"--mu": ("-1", "nan", "inf")}),
    ("counterexample", ("--mode=avg",), {"--mu": ("-1", "nan", "inf")}),
    ("gen-instance", (), {"--examples": ("0", "-1", "64"), "--hypotheses": ("0", "-1", "17"),
                          "--labels": ("0", "-1", "1"), "--seed": ("-1",)}),
    ("mixture-demo", ("--seeds=1", "--budget=1", "--pool=4", "--components=2"),
     {"--seeds": ("0", "-1"), "--budget": ("0", "-1", "5"), "--pool": ("0", "-1", "1", "64"),
      "--components": ("0", "-1", str(10**8)), "--seed": ("-1",)}),
]


def test_mixture_walk_covers_every_typed_option():
    walked = {(command, flag) for command, _, table in OUT_OF_DOMAIN for flag in table}
    assert walked == {(command, flag) for command, (_, _, options) in cli._COMMANDS.items()
                      for flag, keywords in options.items() if "type" in keywords}


@pytest.mark.parametrize("command, small, option", [
    pytest.param(command, small, f"{flag}={value}",  # mixture-demo's cases keep their first ids
                 id=f"{flag}-{value}" if command == "mixture-demo"
                 else f"{command}{'-avg' * ('--mode=avg' in small)}{flag}-{value}")
    for command, small, table in OUT_OF_DOMAIN for flag, values in table.items() for value in values
])
def test_mixture_demo_out_of_domain_exits_2(capsys, command, small, option):
    code = main([command, *small, option])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


class TestGridCap:
    @pytest.mark.parametrize("pool", ["64", "70"])
    def test_pool_past_the_labeling_space_names_the_cap(self, capsys, pool):
        code, _, err = run_cli(capsys, "mixture-demo", "--pool", pool, "--seeds", "1")
        assert code == 2
        assert err == (f"error: pool size {pool} is over the cap of 21 for 4 components: "
                       f"its 2**{pool} labelings would take more than 1 GiB of arrays\n")

    @pytest.mark.parametrize("pool", [22, 28, 40, 63])
    def test_pool_over_the_cap_allocates_nothing(self, capsys, monkeypatch, pool):
        from poolal import mixture

        def refuse(*args, **kwargs):
            raise AssertionError("full_hypothesis_space called over the cap")

        monkeypatch.setattr(mixture, "full_hypothesis_space", refuse)
        code, _, err = run_cli(capsys, "mixture-demo", "--pool", str(pool), "--seeds", "1")
        assert code == 2
        assert f"pool size {pool} is over the cap of 21" in err

    @pytest.mark.parametrize("k", [1, 4, 16, 1000, 10**6])
    def test_cap_is_the_largest_pool_whose_arrays_fit(self, k):
        from poolal.mixture import _GRID_BYTES, _grid_cap

        def size(n):  # int16 label rows and columns, float64 one-hot and priors
            return 2**n * (n * (2 + 2 + 2 * 8) + 8 * k)

        cap = _grid_cap(k)
        assert size(cap) <= _GRID_BYTES < size(cap + 1)
