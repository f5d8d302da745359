"""End-to-end command pipeline: simulate, fit, analyze, verify, report."""

import json
import math

import numpy as np
import pytest

from koopbound import (
    KoopmanModel,
    LinearSurrogateConfig,
    RewardDescriptor,
    UavEnvConfig,
    ensemble_mean,
    linear_ensemble,
    load_model,
    per_step_table,
    save_model,
    save_report,
    uav_ensemble,
    verify_bounds,
    write_per_step_table,
)
from koopbound import cli
from koopbound.cli import main

LINEAR_CONFIG = """\
# linear surrogate pipeline
sim.env = linear
sim.runs = 1
sim.horizon = 10
sim.seed = 3
linear.A = [[0.9, 0.1], [0.0, 0.5]]
linear.F = [[1.0, -1.0]]
linear.x0 = [1.0, 1.0]
"""

README_CONFIG = """\
sim.env = linear
sim.runs = 8
sim.horizon = 200
sim.seed = 7
linear.A = [[0.9, 0.1], [0.0, 0.5]]
linear.F = [[1.0, -1.0]]
linear.x0 = [1.0, 1.0]
linear.noise_std = 0.02
disturbance.kind = scaled_gaussian_projected
disturbance.gamma = 0.5
"""

UAV_CONFIG = """\
sim.env = uav
sim.runs = 2
sim.horizon = 8
sim.seed = 5
sim.policy = centroid_greedy
"""


def strict_json(path):
    """Parse a JSON file, refusing the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.fixture
def linear_config(tmp_path):
    path = tmp_path / "linear.cfg"
    path.write_text(LINEAR_CONFIG)
    return path


@pytest.fixture
def uav_config(tmp_path):
    path = tmp_path / "uav.cfg"
    path.write_text(UAV_CONFIG)
    return path


class TestSimulate:
    def test_linear_row_count(self, tmp_path, linear_config):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(linear_config), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        # header + 10 step rows + 1 terminal row
        assert len(lines) == 12
        assert lines[0] == "run,k,x0,x1,u0,r"

    def test_same_seed_byte_identical(self, tmp_path, linear_config):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(linear_config), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(linear_config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_uav_dimensions(self, tmp_path, uav_config):
        out = tmp_path / "uav.csv"
        assert main(["simulate", "--config", str(uav_config), "--out", str(out)]) == 0
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        cols = header.split(",")
        assert sum(c.startswith("x") for c in cols) == 42
        assert sum(c.startswith("u") for c in cols) == 2

    def test_manifest_written(self, tmp_path, linear_config):
        out = tmp_path / "traj.csv"
        main(["simulate", "--config", str(linear_config), "--out", str(out)])
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert str(out) in manifest["outputs"]

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sim.env = linear\n")  # missing linear.A
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err


class TestFit:
    def test_recovers_surrogate_operator(self, tmp_path, linear_config):
        traj = tmp_path / "traj.csv"
        model_path = tmp_path / "model.json"
        main(["simulate", "--config", str(linear_config), "--out", str(traj)])
        assert main(["fit", str(traj), "--out", str(model_path)]) == 0
        model = load_model(model_path)
        a = np.array([[0.9, 0.1], [0.0, 0.5]])
        assert np.linalg.norm(model.state_operator - a) <= 1e-6 * np.linalg.norm(a)
        assert model.fit_metadata["state_residual"] <= 1e-8

    def test_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", str(empty), "--out", str(tmp_path / "m.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestAnalyze:
    def write_model(self, tmp_path, kh, kf):
        model = KoopmanModel(
            state_operator=np.atleast_2d(np.asarray(kh, dtype=float)),
            action_operator=np.atleast_2d(np.asarray(kf, dtype=float)),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        return path

    def test_scalar_model_values(self, tmp_path):
        path = self.write_model(tmp_path, [[0.9]], [[0.5]])
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(path), "--gamma", "0.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["hinf"]["value"] - 10.0) <= 1e-6
        assert doc["hinf"]["value"] == doc["hinf"]["upper"] >= doc["hinf"]["lower"]
        assert doc["hinf"]["iterations"] >= 1
        assert abs(doc["M"] - 5.0) <= 1e-5
        assert abs(doc["N"] - 2.5) <= 1e-5
        assert doc["M"] == doc["state_max_bound"] and doc["N"] == doc["action_max_bound"]
        assert doc["Q"] is None and doc["reward_impact_bound"] is None

    def test_zero_action_operator(self, tmp_path):
        # A zero action map moves no action, also when the state gain is
        # infinite (Kh = 1), where Kf * T would be 0 * inf = NaN.
        for kh in ([[0.9]], [[1.0]]):
            path = self.write_model(tmp_path, kh, [[0.0]])
            out = tmp_path / "analysis.json"
            assert main(["analyze", str(path), "--gamma", "0.5", "--out", str(out)]) == 0
            doc = strict_json(out)
            assert doc["N"] == doc["action_energy_bound"] == 0.0

    def test_zero_gamma_caps_infinite_gain(self, tmp_path):
        path = self.write_model(tmp_path, [[1.0]], [[0.5]])
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(path), "--gamma", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["hinf"]["value"] == "inf"
        assert doc["M"] == doc["N"] == doc["state_energy_bound"] == 0.0

    def test_unstable_model_flagged_exit_zero(self, tmp_path, capsys):
        path = self.write_model(tmp_path, [[1.0]], [[0.5]])
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["hinf"]["value"] == "inf"
        assert doc["hinf"]["converged"] is False
        assert "not stable" in capsys.readouterr().err


class TestLevels:
    @pytest.mark.parametrize("command, argv, config_line", [
        ("analyze", ["--gamma", "nan"], ""),
        ("analyze", ["--gamma", "inf"], ""),
        ("analyze", ["--gamma-d", "nan"], ""),
        ("verify", ["--gamma", "nan"], ""),
        ("verify", ["--gamma-d", "nan"], ""),
        ("verify", [], "disturbance.gamma = Infinity\n"),
        ("analyze", [], "analysis.gamma_d = NaN\n"),
    ], ids=["analyze-gamma-nan", "analyze-gamma-inf", "analyze-gamma_d-nan", "verify-gamma-nan",
            "verify-gamma_d-nan", "config-gamma-inf", "config-gamma_d-nan"])
    def test_non_finite_level_rejected(self, tmp_path, capsys, command, argv, config_line):
        assert self.run(tmp_path, command, argv, config_line) == 2
        assert "must be finite and non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @staticmethod
    def run(tmp_path, command, argv, config_line):
        """Exit code of `command` on a stable two-state model and the linear
        config plus config_line, writing to out.json."""
        model = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9, 0.1], [0.0, 0.5]]),
                                action_operator=np.array([[1.0, -1.0]])), model)
        cfg = tmp_path / "levels.cfg"
        cfg.write_text(LINEAR_CONFIG + config_line)
        out = tmp_path / "out.json"
        return main([command, "--config", str(cfg), str(model), *argv, "--out", str(out)])

    @pytest.mark.parametrize("command, argv, config_line", [
        ("analyze", ["--gamma-d", "1.5"], ""),
        ("verify", ["--gamma-d", "1.0"], ""),
        ("verify", [], "analysis.gamma_d = 1.0\n"),
    ], ids=["analyze-flag", "verify-flag", "verify-config"])
    def test_discount_factor_below_one(self, tmp_path, capsys, monkeypatch,
                                       command, argv, config_line):
        # Rejected before any rollout: verify simulates nothing.
        def no_rollout(*args, **kwargs):
            raise AssertionError("rollout started")

        monkeypatch.setattr(cli, "uav_ensemble", no_rollout)
        monkeypatch.setattr(cli, "linear_ensemble", no_rollout)
        assert self.run(tmp_path, command, argv, config_line) == 2
        assert "must be below 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["levels.cfg", "model.json"]


class TestVerifyAndReport:
    def run_pipeline(self, tmp_path, config, gamma, label, kind="impulse"):
        traj = tmp_path / f"{label}.csv"
        model = tmp_path / f"{label}_model.json"
        report = tmp_path / f"{label}_report.json"
        assert main(["simulate", "--config", str(config), "--out", str(traj)]) == 0
        assert main(["fit", str(traj), "--out", str(model)]) == 0
        assert main([
            "verify", "--config", str(config), str(model),
            "--gamma", str(gamma), "--disturbance-kind", kind,
            "--out", str(report), "--label", label,
        ]) == 0
        return report

    def test_zero_gamma_no_violations(self, tmp_path, linear_config):
        report_path = self.run_pipeline(tmp_path, linear_config, 0.0, "zero")
        doc = json.loads(report_path.read_text())
        assert doc["empirical"]["state_energy"] == 0.0
        assert doc["empirical"]["reward_gap_discounted"] == 0.0
        assert doc["violations"] == []

    def test_steps_table_written(self, tmp_path, linear_config):
        report_path = self.run_pipeline(tmp_path, linear_config, 0.5, "steps")
        steps = report_path.with_suffix(".steps.csv")
        lines = steps.read_text().splitlines()
        assert lines[0] == "k,state_dev,action_dev,reward_nominal_mean,reward_disturbed_mean"
        # 10 full rows plus the terminal state-only row
        assert len(lines) == 1 + 11
        assert lines[-1].endswith(",,,")

    def test_report_sorted_by_gain(self, tmp_path):
        # Two scalar surrogates with different resolvent gains.
        reports = []
        for name, a in (("fast", 0.5), ("slow", 0.9)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                "sim.env = linear\nsim.runs = 1\nsim.horizon = 30\nsim.seed = 1\n"
                f"linear.A = [[{a}]]\nlinear.F = [[1.0]]\nlinear.x0 = [2.0]\n"
            )
            reports.append(self.run_pipeline(tmp_path, cfg, 0.5, name))
        out = tmp_path / "summary.json"
        assert main(["report", str(reports[1]), str(reports[0]),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        labels = [row["label"] for row in doc["rows"]]
        gains = [row["T_hinf"] for row in doc["rows"]]
        assert labels == ["fast", "slow"]
        assert gains[0] <= gains[1]
        assert (tmp_path / "summary.csv").exists()

    def test_end_to_end_determinism(self, tmp_path, linear_config):
        r1 = self.run_pipeline(tmp_path, linear_config, 0.5, "one",
                               kind="scaled_gaussian_projected")
        r2 = self.run_pipeline(tmp_path, linear_config, 0.5, "two",
                               kind="scaled_gaussian_projected")
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        d1.pop("label")
        d2.pop("label")
        assert d1 == d2

    def test_uav_verify_smoke(self, tmp_path, uav_config):
        report_path = self.run_pipeline(tmp_path, uav_config, 1.0, "uav",
                                        kind="scaled_gaussian_projected")
        doc = json.loads(report_path.read_text())
        assert doc["l_source"] == "estimated"
        assert "reward_impact_pct" in doc["empirical"]

    @pytest.mark.parametrize("env", ["uav", "linear"])
    def test_verify_matches_separate_rollouts(self, tmp_path, monkeypatch, env):
        # verify rolls out the nominal and disturbed runs in one call; its
        # report and steps table equal, byte for byte, the ones built from
        # two separate rollouts.
        config = tmp_path / f"{env}.cfg"
        config.write_text(UAV_CONFIG if env == "uav" else README_CONFIG)
        generated, generate = [], cli.generate_disturbance

        def capture(spec):
            generated.append((spec, generate(spec)))
            return generated[-1][1]

        monkeypatch.setattr(cli, "generate_disturbance", capture)
        report = self.run_pipeline(tmp_path, config, 1.0, env, kind="scaled_gaussian_projected")
        [(spec, w)] = generated
        if env == "uav":
            rollouts = [uav_ensemble(UavEnvConfig(), "centroid_greedy", 8, 2, 5, disturbance=d)
                        for d in (None, w)]
            reward = RewardDescriptor(name="uav-reward")
        else:
            surrogate = LinearSurrogateConfig(
                A=[[0.9, 0.1], [0.0, 0.5]], F=[[1.0, -1.0]], x0_mean=[1.0, 1.0],
                horizon=200, noise_std=0.02)
            rollouts = [linear_ensemble(surrogate, 8, master_seed=7, disturbance=d)
                        for d in (None, w)]
            reward = RewardDescriptor(name="linear-reward", analytic_L=1.0)
        means = [ensemble_mean(e) for e in rollouts]
        expected = tmp_path / "expected.json"
        save_report(verify_bounds(*means, *rollouts, load_model(tmp_path / f"{env}_model.json"),
                                  spec.gamma, 0.9, reward), expected, label=env)
        write_per_step_table(per_step_table(*means, *rollouts), tmp_path / "expected.steps.csv")
        assert report.read_bytes() == expected.read_bytes()
        assert (report.with_suffix(".steps.csv").read_bytes()
                == (tmp_path / "expected.steps.csv").read_bytes())


class TestConfigKeys:
    def test_unknown_keys_warned(self, tmp_path, capsys):
        # A removed key and a misspelt one are reported, and the run goes on
        # with the defaults they failed to override.
        model = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9]]),
                                action_operator=np.array([[0.5]])), model)
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("analysis.grid_points = 5\nanalysis.gamm = 3\nenv.gu_count = 4\n")
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(model), "--config", str(cfg), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "warning: unknown config key 'analysis.grid_points'" in err
        assert "warning: unknown config key 'analysis.gamm'" in err
        assert "env.gu_count" not in err
        assert json.loads(out.read_text())["gamma"] == 1.0

    def test_readme_config_no_warning(self, tmp_path, capsys):
        cfg = tmp_path / "surrogate.cfg"
        cfg.write_text(README_CONFIG)
        traj, model = tmp_path / "traj.csv", tmp_path / "model.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(traj)]) == 0
        assert main(["fit", str(traj), "--out", str(model)]) == 0
        assert main(["verify", "--config", str(cfg), str(model), "--gamma", "0.5",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert "warning" not in capsys.readouterr().err


class TestHelp:
    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for cmd in ("simulate", "fit", "analyze", "verify", "report"):
            assert cmd in text
        assert "disturbance.kind" in text
        assert "env.<field>" in text and "fairness_mode" in text
