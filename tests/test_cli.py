"""End-to-end command pipeline: simulate, fit, analyze, verify, report."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from koopbound import (
    BoundInputs,
    BoundReport,
    HinfReport,
    KoopmanModel,
    LinearSurrogateConfig,
    RewardDescriptor,
    TrajectoryEnsemble,
    UavEnvConfig,
    ensemble_mean,
    linear_ensemble,
    load_model,
    per_step_table,
    save_model,
    save_report,
    save_trajectories,
    uav_ensemble,
    verify_bounds,
    write_per_step_table,
)
from koopbound import TransferFunction, cli, env_sim, hinf_norm, hinf_spectral
from koopbound.bounds import certified_gain
from koopbound.cli import main
from koopbound.errors import SchemaError

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

    def test_overflowing_mean_fails(self, tmp_path, capsys):
        # Two runs of finite states near the largest double: their sum, and
        # so the ensemble mean, overflows to inf.
        ensemble = TrajectoryEnsemble(states=np.full((2, 4, 1), 1.7e308),
                                      actions=np.zeros((2, 3, 1)), rewards=np.zeros((2, 3)))
        traj, out = tmp_path / "big.csv", tmp_path / "model.json"
        save_trajectories(ensemble, traj)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["fit", str(traj), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: non-finite ensemble mean")
        assert not out.exists()


# A parametrized value that deletes the field instead of setting it.
MISSING = object()


def count_searches(monkeypatch) -> list:
    """Record every level tested by any H-infinity level-set search."""
    calls, real = [], hinf_spectral._level_crossings
    monkeypatch.setattr(hinf_spectral, "_level_crossings",
                        lambda k, level: calls.append(level) or real(k, level))
    return calls


class TestGainBlock:
    """fit writes the certified gain into model JSON, bound to the operators
    by the SHA-256 of their bytes, and analyze and verify read it there.  A
    block that does not belong to its operators, is of another version or is
    mistyped makes load_model raise SchemaError naming the block, and
    analyze and verify exit 2 and write nothing."""

    @pytest.fixture
    def fitted(self, tmp_path, linear_config):
        traj, model = tmp_path / "traj.csv", tmp_path / "model.json"
        assert main(["simulate", "--config", str(linear_config), "--out", str(traj)]) == 0
        assert main(["fit", str(traj), "--out", str(model)]) == 0
        return model

    @staticmethod
    def downstream(tmp_path, linear_config, model, tag):
        """Exit codes of analyze and verify on the model; their outputs are
        written under names ending in tag."""
        analysis, report = tmp_path / f"analysis{tag}.json", tmp_path / f"report{tag}.json"
        return (main(["analyze", str(model), "--gamma", "0.5", "--out", str(analysis)]),
                main(["verify", "--config", str(linear_config), str(model),
                      "--gamma", "0.5", "--out", str(report)]))

    @staticmethod
    def other_block(tmp_path):
        model = KoopmanModel(np.array([[0.5, 0.2], [0.0, 0.3]]), np.array([[1.0, 1.0]]))
        certified_gain(model)
        save_model(model, tmp_path / "other.json")
        return json.loads((tmp_path / "other.json").read_text())["gain"]

    def test_fit_writes_the_gain(self, fitted):
        model = load_model(fitted)
        hinf, kf_hinf = model.gain
        fresh = hinf_norm(TransferFunction.resolvent(model.state_operator))
        assert hinf == fresh
        assert kf_hinf == np.linalg.norm(model.action_operator, 2)
        assert json.loads(fitted.read_text())["gain"]["version"] == 1

    def test_one_search_per_model(self, tmp_path, linear_config, fitted, monkeypatch):
        calls = count_searches(monkeypatch)
        assert main(["fit", str(tmp_path / "traj.csv"), "--out", str(fitted)]) == 0
        assert len(calls) >= 1
        calls.clear()
        for gamma in ("0.5", "2"):
            assert main(["analyze", str(fitted), "--gamma", gamma,
                         "--out", str(tmp_path / f"analysis{gamma}.json")]) == 0
        assert self.downstream(tmp_path, linear_config, fitted, "") == (0, 0)
        assert calls == []

    def test_model_without_gain_computes_it_once(self, monkeypatch):
        model = KoopmanModel(np.array([[0.9, 0.1], [0.0, 0.5]]), np.array([[1.0, -1.0]]))
        calls = count_searches(monkeypatch)
        first = certified_gain(model)
        searched = len(calls)
        assert searched >= 1 and model.gain is first
        assert certified_gain(model) is first and len(calls) == searched
        assert replace(model, state_operator=np.array([[0.8, 0.1], [0.0, 0.5]])).gain is None

    def test_outputs_do_not_depend_on_the_block(self, tmp_path, linear_config, fitted):
        """A model file without the gain block (as written before it existed,
        or by save_model for a model built in code) gives byte-identical
        analyze and verify outputs."""
        assert self.downstream(tmp_path, linear_config, fitted, "_stored") == (0, 0)
        doc = json.loads(fitted.read_text())
        del doc["gain"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        assert load_model(bare).gain is None
        assert self.downstream(tmp_path, linear_config, bare, "_searched") == (0, 0)
        for name in ("analysis{}.json", "report{}.json", "report{}.steps.csv"):
            stored = (tmp_path / name.format("_stored")).read_bytes()
            assert stored == (tmp_path / name.format("_searched")).read_bytes()

    def test_hand_built_model(self, tmp_path, linear_config):
        kh, kf = np.array([[0.9, 0.1], [0.0, 0.5]]), np.array([[1.0, -1.0]])
        bare, carried = KoopmanModel(kh, kf), KoopmanModel(kh, kf)
        certified_gain(carried)
        save_model(bare, tmp_path / "bare.json")
        save_model(carried, tmp_path / "carried.json")
        assert "gain" not in json.loads((tmp_path / "bare.json").read_text())
        for tag in ("bare", "carried"):
            assert self.downstream(tmp_path, linear_config, tmp_path / f"{tag}.json",
                                   tag) == (0, 0)
        for name in ("analysis{}.json", "report{}.json"):
            assert ((tmp_path / name.format("bare")).read_bytes()
                    == (tmp_path / name.format("carried")).read_bytes())
        analysis = json.loads((tmp_path / "analysisbare.json").read_text())
        assert analysis["hinf"] == hinf_norm(TransferFunction.resolvent(kh)).to_dict()

    @staticmethod
    def assert_refused(tmp_path, capsys, linear_config, model, doc):
        model.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="gain"):
            load_model(model)
        before = sorted(tmp_path.iterdir())
        assert TestGainBlock.downstream(tmp_path, linear_config, model, "") == (2, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") and "gain" in line
                                     for line in err)
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("operator, value", [
        ("state_operator", lambda x: float(np.nextafter(x, 1.0))),
        ("action_operator", lambda x: 1.5),
    ], ids=["state-entry-one-ulp", "action-entry"])
    def test_edited_operator(self, tmp_path, capsys, linear_config, fitted, operator, value):
        doc = json.loads(fitted.read_text())
        doc[operator][0][-1] = value(doc[operator][0][-1])
        self.assert_refused(tmp_path, capsys, linear_config, fitted, doc)

    def test_copied_block(self, tmp_path, capsys, linear_config, fitted):
        doc = json.loads(fitted.read_text())
        doc["gain"] = self.other_block(tmp_path)
        self.assert_refused(tmp_path, capsys, linear_config, fitted, doc)

    @pytest.mark.parametrize("where, value", [
        ("gain.version", 2), ("gain.version", "1"), ("gain.version", True),
        ("gain.hinf.upper", "NaN"), ("gain.hinf.lower", float("nan")),
        ("gain.hinf.omega_star", "inf"), ("gain.hinf.spectral_radius", None),
        ("gain.hinf.converged", "NaN"), ("gain.hinf.iterations", True),
        ("gain.Kf_hinf", True), ("gain.Kf_hinf", "inf"),
        ("gain.hinf.ill_conditioned", MISSING), ("gain.hinf.spectral_radius", MISSING),
        ("gain.operators_sha256", MISSING), ("gain.Kf_hinf", MISSING), ("gain", []),
    ])
    def test_malformed_block(self, tmp_path, capsys, linear_config, fitted, where, value):
        doc = json.loads(fitted.read_text())
        *parents, leaf = where.split(".")
        node = doc
        for key in parents:
            node = node[key]
        if value is MISSING:
            del node[leaf]
        else:
            node[leaf] = value
        self.assert_refused(tmp_path, capsys, linear_config, fitted, doc)

    def test_fit_reports_the_search(self, tmp_path, capsys, fitted):
        hinf = load_model(fitted).gain.hinf
        out = capsys.readouterr().out.splitlines()[-1]
        assert (f"T_hinf={hinf.value:.6g}, omega*={hinf.omega_star:.6g}, "
                f"1-rho={1.0 - hinf.spectral_radius:.3e}") in out
        search = json.loads((tmp_path / "model.json.manifest.json").read_text())["gain_search"]
        assert search["iterations"] == hinf.iterations >= 1
        assert 0.0 < search["seconds"] < 60.0

    def test_diverging_search_fails_fit(self, tmp_path, capsys, fitted, monkeypatch):
        monkeypatch.setattr(hinf_spectral, "_MAX_ITERATIONS", 0)
        out = tmp_path / "again.json"
        assert main(["fit", str(tmp_path / "traj.csv"), "--out", str(out)]) == 2
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "again.json.manifest.json").exists()


class TestRolloutSize:
    """A rollout whose (G*R, K+1, n) state buffer would exceed the cap exits
    2 naming sim.runs and sim.horizon before any generator is made."""

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("key", ["sim.runs", "sim.horizon"])
    def test_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, command, key):
        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or real(*a))
        save_model(KoopmanModel(np.array([[0.9, 0.1], [0.0, 0.5]]), np.array([[1.0, -1.0]])),
                   tmp_path / "model.json")
        cfg = TestSettingTypes.config(tmp_path, key, "1e9")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv + ([str(tmp_path / "model.json")] if command == "verify" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sim.runs = ") and "sim.horizon = " in err
        assert made == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "types.cfg"]

    def test_cap_counts_every_group(self, tmp_path, monkeypatch, linear_config):
        # LINEAR_CONFIG plans (1, 11, 2) states for simulate and (2, 11, 2)
        # for verify's nominal and disturbed groups.
        monkeypatch.setattr(env_sim, "_MAX_STATE_VALUES", 22)
        save_model(KoopmanModel(np.array([[0.9, 0.1], [0.0, 0.5]]), np.array([[1.0, -1.0]])),
                   tmp_path / "model.json")
        assert main(["simulate", "--config", str(linear_config),
                     "--out", str(tmp_path / "traj.csv")]) == 0
        assert main(["verify", "--config", str(linear_config), str(tmp_path / "model.json"),
                     "--out", str(tmp_path / "report.json")]) == 2
        monkeypatch.setattr(env_sim, "_MAX_STATE_VALUES", 44)
        assert main(["verify", "--config", str(linear_config), str(tmp_path / "model.json"),
                     "--out", str(tmp_path / "report.json")]) == 0


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


class TestEnvParameters:
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("env, config_line", [
        ("uav", "env.altitude = NaN\n"),
        ("uav", "env.coverage_radius = Infinity\n"),
        ("linear", "linear.noise_std = NaN\n"),
    ], ids=["altitude-nan", "radius-inf", "noise-nan"])
    def test_non_finite_parameter_rejected(self, tmp_path, capsys, monkeypatch,
                                           command, env, config_line):
        # Rejected before any work: no rollout starts and nothing is written.
        def no_rollout(*args, **kwargs):
            raise AssertionError("rollout started")

        monkeypatch.setattr(cli, "uav_ensemble", no_rollout)
        monkeypatch.setattr(cli, "linear_ensemble", no_rollout)
        cfg = tmp_path / "env.cfg"
        cfg.write_text((UAV_CONFIG if env == "uav" else LINEAR_CONFIG) + config_line)
        model = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.eye(6 if env == "uav" else 2) * 0.5,
                                action_operator=np.ones((2 if env == "uav" else 1,
                                                         6 if env == "uav" else 2))), model)
        inputs = [str(model)] if command == "verify" else []
        argv = [command, "--config", str(cfg), *inputs, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env.cfg", "model.json"]


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
                A=[[0.9, 0.1], [0.0, 0.5]], F=[[1.0, -1.0]], x0_mean=[1.0, 1.0], noise_std=0.02)
            rollouts = [linear_ensemble(surrogate, 200, 8, 7, disturbance=d) for d in (None, w)]
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

    def test_env_keys_override_defaults(self, tmp_path, monkeypatch):
        # env.* keys set the UavEnvConfig fields they name, read by the
        # field's type; the other fields keep their defaults.
        built = []

        def capture(config, *args, **kwargs):
            built.append(config)
            return uav_ensemble(config, *args, **kwargs)

        monkeypatch.setattr(cli, "uav_ensemble", capture)
        cfg = tmp_path / "uav.cfg"
        cfg.write_text(UAV_CONFIG + "env.gu_count = 5e0\nenv.area_x = 200\n"
                       "env.fairness_mode = standard\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
        [config] = built
        assert config == UavEnvConfig(gu_count=5, area_x=200.0, fairness_mode="standard")
        assert type(config.gu_count) is int and type(config.area_x) is float
        assert config.altitude == 30.0


class TestSettingTypes:
    """Every config value is read by its key's reader: an integer setting
    takes integral numbers only (a seed non-negative ones), a number setting
    numbers, a list setting lists of numbers and a string setting strings.
    Anything else exits 2 before any work, naming the key."""

    @staticmethod
    def config(tmp_path, key, value, extra=""):
        """The linear config, or the UAV one for an env.* key, with `key =
        value` in place of any line setting key, then the extra lines."""
        base = UAV_CONFIG if key.startswith("env.") else LINEAR_CONFIG
        cfg = tmp_path / "types.cfg"
        lines = [line for line in base.splitlines() if not line.startswith(key + " ")]
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n" + extra)
        return cfg

    def run(self, tmp_path, monkeypatch, command, key, value, extra=""):
        """Exit code of `command` with `key = value` and the extra lines in
        the config; a rollout it starts fails the test."""
        def no_rollout(*args, **kwargs):
            raise AssertionError("rollout started")

        monkeypatch.setattr(cli, "linear_ensemble", no_rollout)
        monkeypatch.setattr(cli, "uav_ensemble", no_rollout)
        model = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9, 0.1], [0.0, 0.5]]),
                                action_operator=np.array([[1.0, -1.0]])), model)
        argv = [command, "--config", str(self.config(tmp_path, key, value, extra)),
                "--out", str(tmp_path / "out")]
        return main(argv + ([str(model)] if command in ("analyze", "verify") else []))

    @staticmethod
    def assert_rejected(tmp_path, capsys, key, message):
        assert capsys.readouterr().err.startswith(f"error: {key} {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "types.cfg"]

    # An integer literal too long for Python to convert reads as a string.
    @pytest.mark.parametrize("value", ["2.7", "true", "x", pytest.param("1" + "0" * 5000,
                                                                       id="5001-digits")])
    @pytest.mark.parametrize("command, key", [
        ("simulate", "sim.runs"), ("simulate", "sim.horizon"), ("simulate", "sim.seed"),
        ("verify", "disturbance.seed"), ("simulate", "env.gu_count"),
    ])
    def test_integer_key_rejected(self, tmp_path, capsys, monkeypatch, command, key, value):
        assert self.run(tmp_path, monkeypatch, command, key, value) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be an integer")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key", [
        ("simulate", "sim.seed"), ("verify", "sim.seed"), ("verify", "disturbance.seed"),
    ])
    def test_negative_seed_rejected(self, tmp_path, capsys, monkeypatch, command, key):
        assert self.run(tmp_path, monkeypatch, command, key, "-1") == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be non-negative")
        assert not (tmp_path / "out").exists()

    # An integer beyond float range has no float value.
    @pytest.mark.parametrize("value", ["true", "x", pytest.param("1" + "0" * 400, id="401-digits")])
    @pytest.mark.parametrize("command, key", [
        ("simulate", "env.altitude"), ("simulate", "linear.noise_std"),
        ("analyze", "analysis.L"), ("verify", "analysis.L"), ("verify", "disturbance.omega"),
    ])
    def test_number_key_rejected(self, tmp_path, capsys, monkeypatch, command, key, value):
        assert self.run(tmp_path, monkeypatch, command, key, value) == 2
        self.assert_rejected(tmp_path, capsys, key, "must be a number")

    @pytest.mark.parametrize("value", ["-1", "NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_lipschitz_constant_rejected(self, tmp_path, capsys, monkeypatch, command, value):
        assert self.run(tmp_path, monkeypatch, command, "analysis.L", value) == 2
        self.assert_rejected(tmp_path, capsys, "analysis.L", "must be finite and non-negative")

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "linear.A", "[[0.9, true], [0.0, 0.5]]"),
        ("verify", "linear.A", '[[0.9, "x"], [0.0, 0.5]]'),
        ("simulate", "linear.A", "[[0.9, 0.1], [0.0]]"),
        ("simulate", "linear.x0", "x"),
        ("verify", "disturbance.direction", "[1, true]"),
        ("verify", "disturbance.direction", "x"),
        ("simulate", "linear.F", "[[1" + "0" * 400 + "]]"),
    ], ids=["A-true", "A-string", "A-ragged", "x0-string", "direction-true", "direction-string",
            "F-401-digits"])
    def test_list_key_rejected(self, tmp_path, capsys, monkeypatch, command, key, value):
        assert self.run(tmp_path, monkeypatch, command, key, value) == 2
        self.assert_rejected(tmp_path, capsys, key, "must be a list of numbers")

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "sim.policy", "true"), ("verify", "disturbance.kind", "1"),
        ("simulate", "env.fairness_mode", "0"),
    ])
    def test_string_key_rejected(self, tmp_path, capsys, monkeypatch, command, key, value):
        assert self.run(tmp_path, monkeypatch, command, key, value) == 2
        self.assert_rejected(tmp_path, capsys, key, "must be a string")

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_omega_rejected(self, tmp_path, capsys, monkeypatch, value):
        # It exited 3 with an "inadmissible disturbance" internal error.
        assert self.run(tmp_path, monkeypatch, "verify", "disturbance.omega", value,
                        extra="disturbance.kind = single_tone\n") == 2
        self.assert_rejected(tmp_path, capsys, "omega", "must be finite")

    def test_integral_float_accepted(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "sim.horizon", "1e1")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
        assert "K=10," in capsys.readouterr().out

    @pytest.mark.parametrize("value, message", [
        ("2.7", "rank_tol must lie in (0, 1), got 2.7"),
        ("true", "analysis.rank_tol must be a number"),
        ("x", "analysis.rank_tol must be a number"),
    ])
    def test_rank_tol_rejected(self, tmp_path, capsys, linear_config, value, message):
        traj = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(linear_config), "--out", str(traj)]) == 0
        cfg = self.config(tmp_path, "analysis.rank_tol", value)
        out = tmp_path / "model.json"
        assert main(["fit", str(traj), "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedDocuments:
    """A malformed model or report file exits 2 with an error naming the
    field, and writes nothing."""

    @pytest.mark.parametrize("field, value", [
        ("n", "x"), ("n", 1.7), ("m", True),
        ("state_operator", [[0.9, 0.1], [0.0]]), ("residuals", 5),
    ])
    def test_model(self, tmp_path, capsys, field, value):
        path = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9, 0.1], [0.0, 0.5]]),
                                action_operator=np.array([[1.0, -1.0]])), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: model field {field!r}")
        assert not out.exists()

    @pytest.mark.parametrize("where, value", [
        ("inputs.T_hinf", "x"), ("flags", 5), ("violations", [{"x": 1}]),
        ("hinf.lower", None), ("empirical", [1.0]), ("label", 3),
    ])
    def test_report(self, tmp_path, capsys, where, value):
        report = BoundReport(
            inputs=BoundInputs(gamma=0.5, T_hinf=2.0, Kf_hinf=1.0, L=1.0, Q=0.1, C=0.1,
                               gamma_d=0.9, horizon=10.0),
            hinf=HinfReport(lower=2.0, upper=2.0, omega_star=0.0, spectral_radius=0.5,
                            iterations=1, converged=True),
            empirical={"reward_impact_pct": 1.0},
            violations=(("state_max", 2.0, 1.0),),
            flags=("estimated-L",),
        )
        path = tmp_path / "report.json"
        save_report(report, path, label="ok")
        doc = json.loads(path.read_text())
        *parents, leaf = where.split(".")
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "summary.json"
        assert main(["report", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where} must be")
        assert not out.exists()


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
        assert "runs per ensemble (integer, default 64)" in text

    @pytest.mark.parametrize("command", ["fit", "analyze"])
    def test_seed_only_where_read(self, capsys, command):
        # fit and analyze draw no random numbers and take no --seed.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "input", "--seed", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
