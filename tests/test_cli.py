"""End-to-end command pipeline: simulate, fit, analyze, verify, report."""

import csv
import importlib
import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from koopbound import (
    BoundInputs,
    BoundReport,
    HinfReport,
    KoopmanModel,
    LinearSurrogateConfig,
    TrajectoryEnsemble,
    UavEnvConfig,
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
from koopbound import (TransferFunction, bounds, cli, env_sim, hinf_norm, hinf_spectral,
                       trajectory_data)
from koopbound.bounds import certified_gain, load_report
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
        # By step 30 the second state decays below 1e-4, whose floats repr
        # writes with an exponent.
        main(["simulate", "--config", str(linear_config), "--out", str(out), "--horizon", "30"])
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert str(out) in manifest["outputs"]
        writer = manifest["trajectory_writer"]
        assert writer["seconds"] >= 0.0
        assert writer["values"] == 31 * 2 + 30 * 1 + 30
        fields = [cell for line in out.read_text().splitlines()[2:]
                  for cell in line.split(",")[2:] if cell]
        assert writer["repr_fallback_values"] == sum("e" in cell for cell in fields) > 0

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sim.env = linear\n")  # missing linear.A
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_that_is_not_utf8_fails(self, tmp_path, capsys):
        # The byte 0xff raised an uncaught UnicodeDecodeError: exit 1 with a
        # traceback.
        cfg, out = tmp_path / "bad.cfg", tmp_path / "x.csv"
        cfg.write_bytes(LINEAR_CONFIG.encode() + b"# runs \xff\n")
        line = len(LINEAR_CONFIG.splitlines()) + 1
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: line {line}: not UTF-8 text at byte 8 (invalid start byte)\n")
        assert not out.exists()


class TestFit:
    def test_recovers_surrogate_operator(self, tmp_path, linear_config):
        traj = tmp_path / "traj.csv"
        model_path = tmp_path / "model.json"
        main(["simulate", "--config", str(linear_config), "--out", str(traj)])
        assert main(["fit", str(traj), "--out", str(model_path)]) == 0
        model = load_model(model_path)
        a = np.array([[0.9, 0.1], [0.0, 0.5]])
        assert np.linalg.norm(model.state_operator - a) <= 1e-6 * np.linalg.norm(a)
        assert model.state_residual <= 1e-8

    def test_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", str(empty), "--out", str(tmp_path / "m.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_file_that_is_not_utf8_fails(self, tmp_path, capsys):
        # A data row holding the byte 0xff raised an uncaught
        # UnicodeDecodeError: exit 1 with a traceback.
        traj, out = tmp_path / "bad.csv", tmp_path / "m.json"
        traj.write_bytes(b"run,k,x0,u0,r\n0,0,1.0,0.5,1.0\n0,1,2\xff.0,,\n")
        assert main(["fit", str(traj), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: line 3: not UTF-8 text at byte 6 (invalid start byte)\n")
        assert not out.exists()

    def test_overflowing_mean_fails(self, tmp_path, capsys):
        # Two runs of finite states near the largest double: their sum, and
        # so the ensemble mean, overflows to inf.
        ensemble = TrajectoryEnsemble(states=np.full((2, 4, 1), 1.7e308),
                                      actions=np.zeros((2, 3, 1)), rewards=np.zeros((2, 3)))
        traj, out = tmp_path / "big.csv", tmp_path / "model.json"
        save_trajectories(ensemble, traj)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["fit", str(traj), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: mean_states holds a non-finite value")
        assert not out.exists()


# A parametrized value that deletes the field instead of setting it.
MISSING = object()
# A 401-digit integer: a valid JSON number beyond float range.
HUGE = 10**400


def count_searches(monkeypatch) -> list:
    """Record every level tested by any H-infinity level-set search."""
    calls, real = [], hinf_spectral._level_crossings
    monkeypatch.setattr(hinf_spectral, "_level_crossings",
                        lambda k, level, *rest: calls.append(level) or real(k, level, *rest))
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
        assert json.loads(fitted.read_text())["gain"]["version"] == 3

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
        # Version 2 blocks hold gains of the search that always shifted to a
        # complex point of the circle.
        ("gain.version", 2), ("gain.version", "3"), ("gain.version", True),
        ("gain.hinf.upper", "NaN"), ("gain.hinf.lower", float("nan")),
        ("gain.hinf.omega_star", "inf"), ("gain.hinf.spectral_radius", None),
        ("gain.hinf.converged", "NaN"), ("gain.hinf.iterations", True),
        ("gain.Kf_hinf", True), ("gain.Kf_hinf", "inf"),
        ("gain.hinf.ill_conditioned", MISSING), ("gain.hinf.spectral_radius", MISSING),
        ("gain.operators_sha256", MISSING), ("gain.Kf_hinf", MISSING), ("gain", []),
        pytest.param("gain.Kf_hinf", HUGE, id="gain.Kf_hinf-401-digits"),
        # The operators' SHA-256 does not cover the gains, so a negative one
        # is refused where it is read.
        ("gain.hinf.upper", -1.0), ("gain.hinf.lower", -1.0),
        ("gain.hinf.spectral_radius", -0.5), ("gain.Kf_hinf", -2.0),
        ("gain.hinf.iterations", -3),
        # value is upper, the end every bound uses.
        ("gain.hinf.value", -5.0),
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
        # LINEAR_CONFIG at 8 runs plans (8, 11, 2) states for simulate and
        # (16, 11, 2) for verify's nominal and disturbed groups, both above
        # the 160 values of verify's spectral grid.
        monkeypatch.setattr(env_sim, "_MAX_STATE_VALUES", 176)
        save_model(KoopmanModel(np.array([[0.9, 0.1], [0.0, 0.5]]), np.array([[1.0, -1.0]])),
                   tmp_path / "model.json")
        assert main(["simulate", "--config", str(linear_config), "--runs", "8",
                     "--out", str(tmp_path / "traj.csv")]) == 0
        verify = ["verify", "--config", str(linear_config), "--runs", "8",
                  str(tmp_path / "model.json"), "--out", str(tmp_path / "report.json")]
        assert main(verify) == 2
        monkeypatch.setattr(env_sim, "_MAX_STATE_VALUES", 352)
        assert main(verify) == 0

    def test_cap_bounds_verify_memory(self, tmp_path):
        # Beyond its two groups' state, action and reward buffers (17.2 MiB
        # here) verify holds one chunk of noise (2.1 MiB) and temporaries of
        # one run or one block of steps: 4.7 MiB over the buffers, where the
        # copies of whole groups held 16.9 MiB.
        runs, horizon, n, m = 24, 1000, 42, 4
        rng = np.random.default_rng(3)
        config = tmp_path / "wide.cfg"
        config.write_text("\n".join([
            "sim.env = linear", f"sim.runs = {runs}", f"sim.horizon = {horizon}",
            f"linear.A = {json.dumps((0.5 * np.eye(n)).tolist())}",
            f"linear.F = {json.dumps(rng.uniform(-0.5, 0.5, (m, n)).tolist())}",
            f"linear.x0 = {json.dumps(rng.standard_normal(n).tolist())}",
            "linear.noise_std = 0.001", "disturbance.kind = scaled_gaussian_projected",
            "disturbance.gamma = 1.0"]) + "\n")
        traj, model = tmp_path / "traj.csv", tmp_path / "model.json"
        small = ["--runs", "2", "--horizon", "400"]
        assert main(["simulate", "--config", str(config), *small, "--out", str(traj)]) == 0
        assert main(["fit", str(traj), "--out", str(model)]) == 0
        verify = ["verify", "--config", str(config), str(model)]
        assert main(verify + small + ["--out", str(tmp_path / "warm.json")]) == 0  # caches
        tracemalloc.start()
        try:
            assert main(verify + ["--out", str(tmp_path / "report.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = 2 * runs * ((horizon + 1) * n + horizon * m + horizon) * 8
        assert peak <= buffers + 6 * 2**20, (peak, buffers)

    def test_cap_counts_the_spectral_grid(self, tmp_path, capsys, monkeypatch, linear_config):
        # verify's (2, 11, 2) states fit a cap of 44, but the disturbance's
        # 80-point admissibility grid holds 160 values; a horizon whose grid
        # exceeds the cap exits 2 naming sim.horizon before any draw.
        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or real(*a))
        monkeypatch.setattr(env_sim, "_MAX_STATE_VALUES", 159)
        save_model(KoopmanModel(np.array([[0.9, 0.1], [0.0, 0.5]]), np.array([[1.0, -1.0]])),
                   tmp_path / "model.json")
        argv = ["verify", "--config", str(linear_config), str(tmp_path / "model.json"),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: sim.horizon = 10 plans a disturbance "
                                                  "spectral grid of 160 values")
        assert made == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["linear.cfg", "model.json"]
        monkeypatch.setattr(env_sim, "_MAX_STATE_VALUES", 160)
        assert main(argv) == 0
        assert made


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
        # Only its input gamma and what it computes: it wrote gamma_d and L
        # from the config, null Q, C and reward caps, a copy of the spectral
        # radius and a "pending" note besides.
        assert sorted(doc) == ["Kf_hinf", "M", "N", "action_energy_bound", "action_max_bound",
                               "gamma", "hinf", "state_energy_bound", "state_max_bound"]
        assert doc["gamma"] == 0.5

    def test_no_discount_factor_flag(self, tmp_path, capsys):
        # analyze reads no discount factor, so it takes no --gamma-d.
        path = self.write_model(tmp_path, [[0.9]], [[0.5]])
        out = tmp_path / "analysis.json"
        with pytest.raises(SystemExit) as exited:
            main(["analyze", str(path), "--gamma-d", "0.5", "--out", str(out)])
        assert exited.value.code == 2
        assert "unrecognized arguments: --gamma-d 0.5" in capsys.readouterr().err
        assert not out.exists()

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

    def test_same_deviation_bounds_as_verify(self, tmp_path, linear_config):
        """analyze and verify take the six deviation bounds from one routine,
        so for one model and gamma they write the same values."""
        traj, model = tmp_path / "traj.csv", tmp_path / "model.json"
        assert main(["simulate", "--config", str(linear_config), "--out", str(traj)]) == 0
        assert main(["fit", str(traj), "--out", str(model)]) == 0
        assert TestGainBlock.downstream(tmp_path, linear_config, model, "") == (0, 0)
        analysis = json.loads((tmp_path / "analysis.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        keys = ("M", "N", "state_energy_bound", "state_max_bound", "action_energy_bound",
                "action_max_bound")
        assert {key: analysis[key] for key in keys} == {key: report[key] for key in keys}
        assert analysis["M"] > 0.0 and analysis["N"] > 0.0

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
        ("verify", ["--gamma", "nan"], ""),
        ("verify", ["--gamma-d", "nan"], ""),
        ("verify", [], "disturbance.gamma = Infinity\n"),
        ("verify", [], "analysis.gamma_d = NaN\n"),
    ], ids=["analyze-gamma-nan", "analyze-gamma-inf", "verify-gamma-nan", "verify-gamma_d-nan",
            "config-gamma-inf", "config-gamma_d-nan"])
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
        ("verify", ["--gamma-d", "1.0"], ""),
        ("verify", [], "analysis.gamma_d = 1.0\n"),
    ], ids=["verify-flag", "verify-config"])
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

    @pytest.mark.parametrize("operators, dims", [
        ("linear.A = [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]\nlinear.F = [[1, -1, 0]]\n"
         "linear.x0 = [1, 1, 1]\n", "(3, 1)"),
        ("linear.A = [[0.9, 0.1], [0.0, 0.5]]\nlinear.F = [[1, -1], [0, 1]]\n"
         "linear.x0 = [1, 1]\n", "(2, 2)"),
    ], ids=["n", "m"])
    def test_verify_checks_model_dimensions_first(self, tmp_path, capsys, monkeypatch,
                                                  operators, dims):
        # The model's (n, m) = (2, 1) is compared with the environment's
        # before w is drawn or any lane is rolled out, in one error naming
        # both.  A 3-state config failed on the shape of w; an m = 2 one
        # rolled out both lane groups first.
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("uav_ensemble", "linear_ensemble", "generate_disturbance"):
            monkeypatch.setattr(cli, name, no_work)
        model, cfg = tmp_path / "model.json", tmp_path / "levels.cfg"
        save_model(KoopmanModel(state_operator=np.array([[0.9, 0.1], [0.0, 0.5]]),
                                action_operator=np.array([[1.0, -1.0]])), model)
        cfg.write_text("sim.env = linear\nsim.runs = 2\nsim.horizon = 10\n" + operators)
        argv = ["verify", "--config", str(cfg), str(model), "--out", str(tmp_path / "out.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: model {model} has (n, m) = (2, 1), but the "
                                           f"linear environment of config {cfg} has {dims}\n")
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

    def test_violations_noted(self, tmp_path, capsys):
        # A model that understates the gain (Kh = 0 and Kf = 0 against
        # A = 0.99 I) records violations: a result, noted on stderr, exit 0.
        cfg = tmp_path / "understated.cfg"
        a = "[[0.99, 0.0], [0.0, 0.99]]"
        cfg.write_text(LINEAR_CONFIG.replace("[[0.9, 0.1], [0.0, 0.5]]", a)
                       + "disturbance.kind = constant_direction\ndisturbance.gamma = 0.5\n")
        model, out = tmp_path / "model.json", tmp_path / "report.json"
        save_model(KoopmanModel(np.zeros((2, 2)), np.zeros((1, 2))), model)
        assert main(["verify", "--config", str(cfg), str(model), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ("note: 3 bound violation(s) recorded "
                                           "(fitted-model approximation effect)\n")
        assert len(load_report(out)[0].violations) == 3

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

    def test_report_csv_quotes_labels(self, tmp_path, linear_config):
        # A label holding a comma, a quote and non-ASCII letters and spaces
        # stays one cell of its row; a plain label's row keeps the bytes of a
        # comma join.
        plain = self.run_pipeline(tmp_path, linear_config, 0.5, "plain")
        odd, label = tmp_path / "odd_report.json", 'a,b "c" \u00e9\u00a0d'
        save_report(load_report(plain)[0], odd, label=label)
        out = tmp_path / "summary.json"
        assert main(["report", str(plain), str(odd), "--out", str(out)]) == 0
        with open(out.with_suffix(".csv"), encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [row[0] for row in rows] == ["plain", label]
        assert all(len(row) == len(header) for row in rows)
        first = json.loads(out.read_text())["rows"][0]
        line = out.with_suffix(".csv").read_text().splitlines()[1]
        assert line == ",".join(str(first[column]) for column in header)

    def test_report_refuses_control_characters(self, tmp_path, linear_config, capsys):
        # csv writes a bare carriage return unquoted and csv.reader splits the
        # row there, so a label holding a control character, stored by
        # verify --label or taken from the file name, exits 2 before any
        # output is written.
        plain = self.run_pipeline(tmp_path, linear_config, 0.5, "plain")
        report, _ = load_report(plain)
        stored = ("c\rr", "a\nb", "tab\tbed", "nul\x00", "del\x7f", "nel\x85")
        cases = [(label, tmp_path / "labelled.json", label) for label in stored]
        cases += [(stem, tmp_path / f"{stem}.json", None) for stem in ("c\rr", "a\nb")]
        out = tmp_path / "summary.json"
        for label, path, stored_label in cases:
            save_report(report, path, label=stored_label)
            capsys.readouterr()
            assert main(["report", str(plain), str(path), "--out", str(out)]) == 2, label
            assert capsys.readouterr() == (
                "", f"error: report label {label!r} holds a control character\n")
            assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_report_refuses_a_csv_out(self, tmp_path, linear_config, capsys):
        # The table goes to <out> with its suffix replaced by .csv, so an
        # --out ending in .csv wrote the table over the JSON, exited 0 and
        # listed one output in the manifest.
        plain = self.run_pipeline(tmp_path, linear_config, 0.5, "plain")
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        out = tmp_path / "summary.csv"
        assert main(["report", str(plain), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: report --out {out} is also the path of its CSV table; give it a "
                "suffix other than .csv\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_verify_averages_each_group_once(self, tmp_path, monkeypatch):
        # The report's deviations, its Q and C and the steps table all read
        # one mean per ensemble and one per-step table, so each group's
        # states, actions and rewards are averaged once.
        config, traj, model = tmp_path / "readme.cfg", tmp_path / "t.csv", tmp_path / "m.json"
        config.write_text(README_CONFIG)
        assert main(["simulate", "--config", str(config), "--out", str(traj)]) == 0
        assert main(["fit", str(traj), "--out", str(model)]) == 0
        averaged, average = [], trajectory_data._pairwise_mean

        def count(stacked):
            averaged.append(stacked.shape)
            return average(stacked)

        monkeypatch.setattr(trajectory_data, "_pairwise_mean", count)
        assert main(["verify", "--config", str(config), str(model),
                     "--out", str(tmp_path / "r.json")]) == 0
        assert averaged.count((8, 201, 2)) == 2 and averaged.count((8, 200, 1)) == 2
        assert averaged.count((8, 200)) == 2 and len(averaged) == 6

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

    @pytest.mark.parametrize("analytic_l", [None, 0.5])
    def test_uav_verify_smoke(self, tmp_path, capsys, uav_config, analytic_l):
        # The UAV reward jumps as a user's service switches, so it has no
        # finite Lipschitz constant: L is inf, both reward caps are inf and
        # the report says why.  A leftover analysis.L line, which once
        # replaced the declared constant and gave finite caps, is warned
        # about and changes nothing.
        if analytic_l is not None:
            uav_config.write_text(UAV_CONFIG + f"analysis.L = {analytic_l}\n")
        n = UavEnvConfig().n
        model, report_path = tmp_path / "model.json", tmp_path / "report.json"
        save_model(KoopmanModel(0.5 * np.eye(n), np.full((2, n), 0.01)), model)
        assert main(["verify", "--config", str(uav_config), str(model), "--gamma", "1.0",
                     "--out", str(report_path)]) == 0
        warned = "warning: unknown config key 'analysis.L'" in capsys.readouterr().err
        assert warned == (analytic_l is not None)
        doc = json.loads(report_path.read_text())
        caps = [doc["reward_impact_bound"], doc["generalization_error_bound"]]
        assert doc["inputs"]["L"] == "inf" and caps == ["inf", "inf"]
        assert "reward-not-lipschitz" in doc["flags"]
        assert "estimated-L" not in doc["flags"] and doc["l_source"] == "analytic"
        assert "reward_impact_pct" in doc["empirical"]

    def test_inadmissible_disturbance_is_an_internal_error(self, tmp_path, capsys,
                                                           linear_config, monkeypatch):
        # A generated disturbance above gamma exits 3 before any rollout and
        # writes no report, steps table or manifest.
        monkeypatch.setattr(cli, "generate_disturbance",
                            lambda spec: bounds.generate_disturbance(spec) * 1.01)
        model = tmp_path / "model.json"
        save_model(KoopmanModel(0.5 * np.eye(2), np.ones((1, 2))), model)
        argv = ["verify", "--config", str(linear_config), str(model), "--gamma", "0.5",
                "--disturbance-kind", "impulse", "--out", str(tmp_path / "report.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err == ("internal error: generated disturbance is "
                                           "inadmissible (sup 0.505 > gamma 0.5)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["linear.cfg", "model.json"]

    @pytest.mark.parametrize("direction, same", [
        ("[1e200, 1e200]", "[1.0, 1.0]"), ("[1e-200, 0.0]", None),
    ], ids=["overflow", "underflow"])
    def test_direction_of_extreme_magnitude(self, tmp_path, direction, same):
        # A direction whose norm overflowed injected w = 0, and one whose
        # norm underflowed was refused as zero.  Each verifies as its
        # direction scaled to 1 (None: the default first axis).
        model = tmp_path / "model.json"
        save_model(KoopmanModel(0.5 * np.eye(2), np.ones((1, 2))), model)
        written = []
        for name, value in (("extreme", direction), ("same", same)):
            config = tmp_path / f"{name}.cfg"
            line = "" if value is None else f"disturbance.direction = {value}\n"
            config.write_text(LINEAR_CONFIG + "disturbance.kind = impulse\n" + line)
            out = tmp_path / f"{name}.json"
            assert main(["verify", "--config", str(config), str(model), "--out", str(out)]) == 0
            written.append((out.read_bytes(), out.with_suffix(".steps.csv").read_bytes()))
        assert written[0] == written[1]
        assert json.loads(written[0][0])["empirical"]["state_max"] > 0.0

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
            lipschitz = math.inf
        else:
            surrogate = LinearSurrogateConfig(
                A=[[0.9, 0.1], [0.0, 0.5]], F=[[1.0, -1.0]], x0_mean=[1.0, 1.0], noise_std=0.02)
            rollouts = [linear_ensemble(surrogate, 200, 8, 7, disturbance=d) for d in (None, w)]
            lipschitz = 1.0
        expected = tmp_path / "expected.json"
        expected_report, _ = verify_bounds(*rollouts, load_model(tmp_path / f"{env}_model.json"),
                                           spec.gamma, 0.9, lipschitz)
        save_report(expected_report, expected, label=env)
        write_per_step_table(per_step_table(*rollouts), tmp_path / "expected.steps.csv")
        assert report.read_bytes() == expected.read_bytes()
        assert (report.with_suffix(".steps.csv").read_bytes()
                == (tmp_path / "expected.steps.csv").read_bytes())


class TestOutputsAreNotInputs:
    """An output that resolves to one of the command's inputs exits 2 before
    anything is read or written; each case exited 0 over its input."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--config", "c.cfg", "--out", "c.cfg"],
         "simulate --out c.cfg would overwrite its input --config c.cfg"),
        (["fit", "t.csv", "--out", "t.csv"],
         "fit --out t.csv would overwrite its input trajectories t.csv"),
        (["fit", "t.csv", "--out", "{tmp}/t.csv"],
         "fit --out {tmp}/t.csv would overwrite its input trajectories t.csv"),
        (["analyze", "m.json", "--out", "m.json"],
         "analyze --out m.json would overwrite its input model m.json"),
        (["analyze", "m.json", "--config", "a.json.manifest.json", "--out", "a.json"],
         "analyze --out a.json would overwrite its input --config a.json.manifest.json with "
         "its manifest a.json.manifest.json"),
        (["verify", "--config", "c.cfg", "m.json", "--out", "m.json"],
         "verify --out m.json would overwrite its input model m.json"),
        (["verify", "--config", "v.steps.csv", "m.json", "--out", "v.json"],
         "verify --out v.json would overwrite its input --config v.steps.csv with its steps "
         "table v.steps.csv"),
        (["report", "r.json", "--out", "r.json"],
         "report --out r.json would overwrite its input reports r.json"),
    ], ids=["simulate", "fit", "fit-absolute", "analyze", "analyze-manifest", "verify",
            "verify-steps", "report"])
    def test_refused_before_any_work(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        for name in ("c.cfg", "v.steps.csv", "a.json.manifest.json"):
            Path(name).write_text(LINEAR_CONFIG)
        for step in (["simulate", "--config", "c.cfg", "--out", "t.csv"],
                     ["fit", "t.csv", "--out", "m.json"],
                     ["verify", "--config", "c.cfg", "m.json", "--out", "r.json"]):
            assert main(step) == 0
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(tmp=tmp_path)}\n")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


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

    def test_one_disturbance_level_key(self, tmp_path, capsys):
        # analyze reads disturbance.gamma, as verify does; it read
        # analysis.gamma and wrote 1.0 for the README config.  That key is
        # gone: it is warned about and changes nothing.
        model = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9]]),
                                action_operator=np.array([[0.5]])), model)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(README_CONFIG + "analysis.gamma = 2.0\n")
        out = tmp_path / "analysis.json"
        assert main(["analyze", "--config", str(cfg), str(model), "--out", str(out)]) == 0
        assert "warning: unknown config key 'analysis.gamma'" in capsys.readouterr().err
        assert json.loads(out.read_text())["gamma"] == 0.5
        assert "analysis.gamma " not in cli._config_key_help()

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
        """Check the error names the key and nothing was written; return the
        error text."""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "types.cfg"]
        return err

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

    # sim.policy was checked by the UAV rollout only, after verify had drawn
    # its disturbance, and the error named the policy kind, not the key.
    @pytest.mark.parametrize("command, key, value, choices", [
        ("verify", "sim.policy", "bogus", env_sim.POLICY_KINDS),
        ("simulate", "env.fairness_mode", "jain", env_sim.FAIRNESS_MODES),
    ])
    def test_name_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, command, key,
                                           value, choices):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_disturbance", no_work)
        monkeypatch.setattr(env_sim, "_plan", no_work)
        assert self.run(tmp_path, monkeypatch, command, key, value) == 2
        self.assert_rejected(tmp_path, capsys, key, f"must be one of {choices}, got '{value}'")

    def test_unknown_env_rejected(self, tmp_path, capsys, monkeypatch):
        assert self.run(tmp_path, monkeypatch, "simulate", "sim.env", "foo") == 2
        self.assert_rejected(tmp_path, capsys, "sim.env",
                             "must be one of ('linear', 'uav'), got 'foo'")

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
        ("analyze", "disturbance.gamma"), ("verify", "analysis.gamma_d"),
        ("verify", "disturbance.omega"),
    ])
    def test_number_key_rejected(self, tmp_path, capsys, monkeypatch, command, key, value):
        assert self.run(tmp_path, monkeypatch, command, key, value) == 2
        self.assert_rejected(tmp_path, capsys, key, "must be a number")

    @pytest.mark.parametrize("value", ["-1", "NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_leftover_lipschitz_key_ignored(self, tmp_path, capsys, command, value):
        # analysis.L once replaced the environment's declared constant, and
        # these values exited 2.  It is no longer a key: a line setting it is
        # warned about and changes no byte of the outputs.
        model = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9, 0.1], [0.0, 0.5]]),
                                action_operator=np.array([[1.0, -1.0]])), model)
        written = {}
        for name, extra in [("plain", ""), ("leftover", f"analysis.L = {value}\n")]:
            run_dir = tmp_path / name
            run_dir.mkdir()
            cfg = run_dir / "run.cfg"
            cfg.write_text(LINEAR_CONFIG + extra)
            capsys.readouterr()
            assert main([command, "--config", str(cfg), str(model),
                         "--out", str(run_dir / "out.json")]) == 0
            warned = "warning: unknown config key 'analysis.L'" in capsys.readouterr().err
            assert warned == (name == "leftover")
            written[name] = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
                             if p.name not in ("run.cfg", "out.json.manifest.json")}
        assert written["plain"] == written["leftover"]
        assert len(written["plain"]) == (2 if command == "verify" else 1)

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
        self.assert_rejected(tmp_path, capsys, "disturbance.omega", "must be finite")

    @pytest.mark.parametrize("command, key, value, message", [
        # The error named the record field: "altitude must be positive".
        ("simulate", "env.altitude", "0", "must be finite and positive, got 0.0"),
        ("verify", "env.coverage_weight", "1.5", "must lie in [0, 1], got 1.5"),
        ("simulate", "env.gu_count", "0", "must be an integer of at least 1, got 0"),
        ("simulate", "sim.runs", "0", "must be an integer of at least 1, got 0"),
        ("verify", "sim.horizon", "-3", "must be an integer of at least 1, got -3"),
        ("simulate", "linear.noise_std", "-0.5", "must be finite and non-negative, got -0.5"),
    ])
    def test_out_of_range_key_rejected(self, tmp_path, capsys, monkeypatch, command, key, value,
                                       message):
        assert self.run(tmp_path, monkeypatch, command, key, value) == 2
        err = self.assert_rejected(tmp_path, capsys, key, message)
        # One error line and no traceback.
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, key", [
        (["--seed", str(10**19)], "sim.seed"),
        (["--seed", str(2**63 - 1), "--runs", "4"], "sim.seed + sim.runs - 1"),
    ], ids=["seed", "last-run-seed"])
    def test_seed_beyond_int64_rejected(self, tmp_path, capsys, linear_config, argv, key):
        # An ensemble records seeds as int64: the first ended in an
        # OverflowError traceback, the second recorded run 1's seed as -2**63.
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(linear_config), "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be non-negative and an integer below 2**63")
        assert err.count("\n") == 1 and not out.exists()

    def test_integral_float_accepted(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "sim.horizon", "1e1")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
        assert "K=10," in capsys.readouterr().out

    @pytest.mark.parametrize("value, message", [
        ("2.7", "analysis.rank_tol must lie in (0, 1), got 2.7"),
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

    @staticmethod
    def edit(doc, where, value):
        """Set the dotted field of doc to value, or delete it for MISSING."""
        *parents, leaf = where.split(".")
        for key in parents:
            doc = doc[key]
        if value is MISSING:
            del doc[leaf]
        else:
            doc[leaf] = value

    @pytest.mark.parametrize("field, value", [
        ("n", "x"), ("n", 1.7), ("m", True),
        ("state_operator", [[0.9, 0.1], [0.0]]), ("residuals", 5),
        ("eigenvalues", [0.9, 0.5]), ("eigenvalues", [[0.9, 0.0, 1.0]]), ("rank", 2.5),
        ("rank_tol", "x"), ("residuals.state", True),
        # Each diagnostic is read through its range kind; these loaded.
        ("rank", -4), ("snapshot_columns", 0), ("r_count", -1), ("rank_tol", 5.0),
        ("residuals.state", -1.0),
        # A fit's rank is at most n; this loaded.
        pytest.param("rank", 7, id="rank-above-n"),
        # An operator entry must be a JSON number within float range.
        pytest.param("state_operator", [["0.9", 0.1], [0.0, 0.5]], id="state_operator-string"),
        pytest.param("state_operator", [[True, 0.1], [0.0, 0.5]], id="state_operator-true"),
        pytest.param("state_operator", [[HUGE, 0.1], [0.0, 0.5]],
                     id="state_operator-401-digits"),
        pytest.param("rank_tol", HUGE, id="rank_tol-401-digits"),
        pytest.param("residuals.state", HUGE, id="residuals.state-401-digits"),
        # Eigenvalue pairs are read as a number list, as the operators are.
        pytest.param("eigenvalues", [[0.9, 0.0], [0.5]], id="eigenvalues-ragged"),
        pytest.param("eigenvalues", [["inf", 0.0]], id="eigenvalues-inf-string"),
        pytest.param("eigenvalues", [[0.9, 0.0], [0.5, 0.0], [0.1, 0.0]],
                     id="eigenvalues-more-than-n"),
        pytest.param("eigenvalues", [[True, 0.0]], id="eigenvalues-true"),
    ])
    def test_model(self, tmp_path, capsys, field, value):
        path = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9, 0.1], [0.0, 0.5]]),
                                action_operator=np.array([[1.0, -1.0]])), path)
        doc = json.loads(path.read_text())
        self.edit(doc, field, value)
        path.write_text(json.dumps(doc))
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: model field {field!r}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_model_non_finite_eigenvalue(self, tmp_path, capsys, value):
        # json.load reads the NaN and Infinity tokens; the model's array
        # check refuses them, as it refuses a non-finite operator entry.
        path = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9, 0.1], [0.0, 0.5]]),
                                action_operator=np.array([[1.0, -1.0]])), path)
        doc = json.loads(path.read_text())
        doc["eigenvalues"] = [[0.9, 0.0], [0.5, value]]
        path.write_text(json.dumps(doc))
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: eigenvalues holds a non-finite value at index (1,)\n"
        assert not out.exists()

    def test_integer_literal_too_long_to_parse(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        save_model(KoopmanModel(state_operator=np.array([[0.9]]),
                                action_operator=np.array([[1.0]])), path)
        doc = json.loads(path.read_text())
        doc["rank_tol"] = 0
        path.write_text(json.dumps(doc).replace('"rank_tol": 0', '"rank_tol": 1' + "0" * 5000))
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not valid JSON") and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def report_file(tmp_path):
        report = BoundReport(
            inputs=BoundInputs(gamma=0.5, T_hinf=2.0, Kf_hinf=1.0, L=1.0, Q=0.1, C=0.1,
                               gamma_d=0.9, horizon=10.0),
            hinf=HinfReport(lower=2.0, upper=2.0, omega_star=0.0, spectral_radius=0.5,
                            iterations=1, converged=True),
            # state_max exceeds its bound of 1.0: one violation.
            empirical={"state_energy": 0.5, "state_max": 2.0, "action_energy": 0.25,
                       "action_max": 0.5, "reward_gap_discounted": 0.5,
                       "reward_nominal_discounted": 4.0, "reward_sum_nominal": 8.0,
                       "reward_sum_disturbed": 7.92, "reward_impact_pct": 1.0},
            flags=("q-from-disturbed-rollouts",),
        )
        assert len(report.violations) == 1
        path = tmp_path / "report.json"
        save_report(report, path, label="ok")
        return path

    @pytest.mark.parametrize("where, value", [
        ("inputs.T_hinf", "x"), ("flags", 5), ("violations", [{"x": 1}]),
        ("hinf.lower", None), ("empirical", [1.0]), ("label", 3),
        pytest.param("inputs.T_hinf", HUGE, id="inputs.T_hinf-401-digits"),
        pytest.param("empirical.reward_impact_pct", HUGE,
                     id="empirical.reward_impact_pct-401-digits"),
        ("hinf.upper", -2.0), ("hinf.lower", -2.0), ("hinf.spectral_radius", -0.5),
        # Each input is read through its range kind, naming its path.
        ("inputs.Q", -0.1), ("inputs.gamma_d", 1.0), ("inputs.L", True),
        # A stored bound must be the value its inputs give.
        ("state_max_bound", 7.0), ("M", 1.0000000000000002), ("reward_impact_bound", "inf"),
        ("generalization_error_bound", "x"),
        # hinf.value is hinf.upper, the violations and their rate are the
        # values the measurements and bounds give, and the L source is
        # "analytic": a report of a sampled L is refused.
        ("hinf.value", -5.0),
        pytest.param("violations", [["state_max", 1e9, 0.1]], id="violations-edited"),
        pytest.param("violations", [], id="violations-dropped"),
        pytest.param("violations", [["state_max", 2.0, True]], id="violations-boolean-bound"),
        ("violation_rate", 0.9), ("l_source", "estimated"),
        # M is 1.0 here, and a boolean is not a number.
        ("M", True),
    ])
    def test_report(self, tmp_path, capsys, where, value):
        path = self.report_file(tmp_path)
        doc = json.loads(path.read_text())
        self.edit(doc, where, value)
        self.assert_refused(tmp_path, capsys, path, doc, where)

    def test_report_gain_not_from_hinf(self, tmp_path, capsys):
        """inputs.T_hinf is refused unless it is hinf.value, even when the
        stored bounds are the ones it gives."""
        path = self.report_file(tmp_path)
        doc = json.loads(path.read_text())
        doc["inputs"]["T_hinf"] = 1.0
        doc.update(BoundInputs(**doc["inputs"]).bounds())
        self.assert_refused(tmp_path, capsys, path, doc, "inputs.T_hinf")

    @pytest.mark.parametrize("horizon", [-5.0, 0.0, 2.5])
    def test_report_horizon_out_of_range(self, tmp_path, capsys, horizon):
        """A bound's horizon is a whole number of steps, or inf.  A file with
        a horizon of -5 and the bounds it gives (a reward impact cap of
        -11.007, listed as a violation) was tabulated with exit 0."""
        report, _ = load_report(self.report_file(tmp_path))
        # The record as a hand-edited file holds it, bounds and violations
        # recomputed; its constructor would refuse the horizon.
        edited = object.__new__(BoundInputs)
        for name, value in asdict(report.inputs).items():
            object.__setattr__(edited, name, horizon if name == "horizon" else value)
        doc = replace(report, inputs=edited).to_dict()
        self.assert_refused(tmp_path, capsys, tmp_path / "report.json", doc, "inputs.horizon")

    @staticmethod
    def assert_refused(tmp_path, capsys, path, doc, where):
        path.write_text(json.dumps(doc))
        out = tmp_path / "summary.json"
        assert main(["report", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("where", ["inputs.L", "inputs.Q", "inputs.C", "inputs.horizon",
                                       "l_source", "action_max_bound", "hinf", "hinf.value",
                                       "empirical", "empirical.state_max", "violations",
                                       "violation_rate"])
    def test_report_missing_field(self, tmp_path, capsys, where):
        """A missing input is refused, not read as a default such as L = 0,
        which would report a reward impact bound of 0."""
        path = self.report_file(tmp_path)
        doc = json.loads(path.read_text())
        self.edit(doc, where, MISSING)
        path.write_text(json.dumps(doc))
        out = tmp_path / "summary.json"
        assert main(["report", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        leaf = where.split(".")[-1]
        assert len(err) == 1 and err[0].startswith("error: ") and f"field {leaf!r}" in err[0]
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
        assert "runs per ensemble (count, default 64)" in text
        assert "  count                   must be an integer of at least 1\n" in text

    @pytest.mark.parametrize("command", ["fit", "analyze"])
    def test_seed_only_where_read(self, capsys, command):
        # fit and analyze draw no random numbers and take no --seed.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "input", "--seed", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [None, "simulate", "fit", "analyze", "verify", "report"])
    def test_help_of_a_fresh_parser(self, capsys, monkeypatch, command):
        # The parser is built once per process; after a call has used it, it
        # prints the help a newly built parser prints.
        monkeypatch.setenv("COLUMNS", "100")
        argv = ([command] if command else []) + ["--help"]
        with pytest.raises(SystemExit):
            main(["report"])
        capsys.readouterr()
        texts = []
        for parse in (main, cli.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as excinfo:
                parse(argv)
            assert excinfo.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: koopbound")


class TestParserReuse:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_bad_call_leaves_no_state(self, tmp_path, capsys):
        # A flag of one call, and a call that exits 2, leave nothing behind
        # in the one parser: the next analyze without --gamma reads the
        # default level.
        model = TestAnalyze().write_model(tmp_path, [[0.9]], [[0.5]])
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["analyze", str(model), "--gamma", "0.25", "--out", str(first)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(model), "--gamma", "x", "--out", str(second)])
        assert excinfo.value.code == 2
        assert "argument --gamma: invalid float value: 'x'" in capsys.readouterr().err
        assert main(["analyze", str(model), "--out", str(second)]) == 0
        assert json.loads(first.read_text())["gamma"] == 0.25
        assert json.loads(second.read_text())["gamma"] == 1.0

    def test_commands_that_load_scipy(self, tmp_path, uav_config):
        # None does: the library needs numpy alone.  Each command, a UAV
        # verify and fit's gain search included, runs in a fresh interpreter,
        # as a console script does, where importing scipy fails.
        def run(*argv):
            """The exit code, as the last line the command prints."""
            done = subprocess.run(
                [sys.executable, "-c", "import sys; sys.modules['scipy'] = None; "
                 "from koopbound.cli import main; print(main(sys.argv[1:]))", *argv],
                capture_output=True, text=True, check=True)
            return done.stdout.splitlines()[-1]

        linear_config = tmp_path / "surrogate.cfg"
        linear_config.write_text(README_CONFIG)
        for env, config in (("linear", linear_config), ("uav", uav_config)):
            traj, model, report = (str(tmp_path / f"{env}_{name}") for name in
                                   ("traj.csv", "model.json", "report.json"))
            commands = [
                ["simulate", "--config", str(config), "--out", traj],
                ["fit", traj, "--out", model],
                ["analyze", model, "--gamma", "0.5", "--out", str(tmp_path / f"{env}_a.json")],
                ["verify", "--config", str(config), model, "--gamma", "0.5", "--out", report],
                ["report", report, "--out", str(tmp_path / f"{env}_summary.json")],
            ]
            for argv in commands:
                assert run(*argv) == "0", argv


def test_names_perfbench_traces_exist(monkeypatch):
    # perfbench/layers.py wraps these names in koopbound.cli and
    # koopbound.bounds, and reads a layer whose name is gone as a null
    # metric; cli imports ensemble_mean, per_step_table and hinf_norm only
    # for it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    traced = {bounds: [attr for attr, _, _ in layers.BOUNDS_TARGETS],
              cli: [attr for attr, _, _ in layers.CLI_TARGETS] + ["generate_disturbance"]}
    missing = [f"{module.__name__}.{attr}" for module, attrs in traced.items()
               for attr in attrs if not callable(getattr(module, attr, None))]
    assert not missing
    # Its hinf_norm tracer reads the argument's kind and matrix.
    k = np.array([[0.5, 0.1], [0.0, -0.3]])
    tf = TransferFunction.resolvent(k)
    assert tf.kind == "resolvent"
    assert np.array_equal(tf.matrix, k) and not tf.matrix.flags.writeable
