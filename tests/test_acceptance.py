"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import functools
import time

import numpy as np

from koopbound import (
    DisturbanceSpec,
    KoopmanModel,
    RewardDescriptor,
    TransferFunction,
    UavEnvConfig,
    LinearSurrogateConfig,
    disturbance_admissible,
    ensemble_mean,
    fairness_index,
    fit_koopman_model,
    generate_disturbance,
    hinf_norm,
    linear_ensemble,
    downlink_rate,
    uav_ensemble,
    verify_bounds,
)
from koopbound.koopman_dmd import _projected_dmd, _truncated_svd


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} [{name}]: FAIL")
                raise
            print(f"\nACCEPTANCE {num} [{name}]: PASS")
            return result

        return run

    return wrap


def dmd(x0, x1):
    """The fit's DMD core on a snapshot pair x1 ~= K x0 (here stacks of
    several runs, which no single mean trajectory can express)."""
    return _projected_dmd(x0, x1, _truncated_svd(x0, 1e-10))


def random_stable(rng, n, radius):
    a = rng.normal(size=(n, n))
    return a * (radius / np.max(np.abs(np.linalg.eigvals(a))))


@criterion(1, "dmd-recovery-oracle")
def test_dmd_recovery_oracle():
    # Random stable A (n=5, spectral radius <= 0.95), full-rank excitation,
    # 200 noiseless snapshot pairs: relative recovery error <= 1e-6 over 100
    # seeded repetitions, under 5 seconds.
    start = time.perf_counter()
    n, per_run = 5, 40
    for rep in range(100):
        rng = np.random.default_rng(10_000 + rep)
        a = random_stable(rng, n, radius=rng.uniform(0.3, 0.95))
        lefts, rights = [], []
        for _ in range(n):
            x = rng.normal(size=n)
            cols = [x]
            for _ in range(per_run):
                cols.append(a @ cols[-1])
            x = np.column_stack(cols)
            lefts.append(x[:, :-1])
            rights.append(x[:, 1:])
        result = dmd(np.hstack(lefts), np.hstack(rights))
        error = np.linalg.norm(result.operator - a) / np.linalg.norm(a)
        assert error <= 1e-6, (rep, error)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "exact-dmd-eigenpair-guarantee")
def test_exact_dmd_eigenpair_guarantee():
    # 100 random (X, Y = BX) instances, X of full row rank, so the projected
    # operator is exact DMD's Y X^+: the nonzero eigenvalues recover B's
    # spectrum within 1e-6.
    for rep in range(100):
        rng = np.random.default_rng(20_000 + rep)
        n = int(rng.integers(2, 7))
        b = rng.normal(size=(n, n)) / np.sqrt(n)
        x = rng.normal(size=(n, 3 * n))
        result = dmd(x, b @ x)
        expected = sorted(np.linalg.eigvals(b), key=lambda v: (-abs(v), -v.real, -v.imag))
        remaining = list(result.eigenvalues)
        for lam_b in expected:
            if abs(lam_b) <= 1e-9:
                continue
            dists = [abs(lam_b - lam) for lam in remaining]
            j = int(np.argmin(dists))
            assert dists[j] <= 1e-6, (rep, lam_b, dists[j])
            remaining.pop(j)
    # The defective double-eigenvalue construction from the examples.
    b = np.array([[0.0, 1.0], [-0.25, 1.0]])
    rng = np.random.default_rng(999)
    x = rng.normal(size=(2, 40))
    result = dmd(x, b @ x)
    assert np.allclose(result.eigenvalues, 0.5, atol=1e-6)


@criterion(3, "hinf-analytic-values")
def test_hinf_analytic_values():
    start = time.perf_counter()
    scalar = hinf_norm(TransferFunction.resolvent(np.array([[0.9]])))
    assert abs(scalar.value - 10.0) <= 1e-6
    diag = hinf_norm(TransferFunction.resolvent(np.diag([0.5, -0.8])))
    assert abs(diag.value - 5.0) <= 1e-6
    const = hinf_norm(TransferFunction.constant(np.diag([3.0, 4.0])))
    assert const.value == 4.0
    marginal = hinf_norm(TransferFunction.resolvent(np.array([[1.0]])))
    assert np.isinf(marginal.value) and not marginal.converged
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(4, "admissibility-and-parseval")
def test_admissibility_and_parseval():
    for gamma in (0.25, 1.0, 7.5):
        w = np.zeros((32, 3))
        w[0, 0] = gamma
        result = disturbance_admissible(w, gamma)
        assert result.admissible
        assert abs(result.sup_value - gamma) <= 1e-9 * gamma

        double = np.zeros((32, 3))
        double[0, 0] = gamma
        double[1, 0] = gamma
        assert not disturbance_admissible(double, gamma).admissible

    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(2, 48))
        dim = int(rng.integers(1, 6))
        w = rng.normal(size=(k, dim)) * rng.uniform(0.1, 10.0)
        grid = 8 * k
        spectrum = np.fft.fft(w, n=grid, axis=0)
        freq_energy = float(np.sum(np.abs(spectrum) ** 2)) / grid
        result = disturbance_admissible(w, gamma=np.inf, grid_points=grid)
        assert abs(result.energy - freq_energy) <= 1e-8 * result.energy


def _true_model(a, f):
    return KoopmanModel(state_operator=np.atleast_2d(a), action_operator=np.atleast_2d(f))


def _verify_linear(config, w, gamma, gamma_d=0.9, runs=1, seed=0):
    nominal = linear_ensemble(config, len(w), runs, seed)
    disturbed = linear_ensemble(config, len(w), runs, seed, disturbance=w)
    return verify_bounds(
        ensemble_mean(nominal),
        ensemble_mean(disturbed),
        nominal,
        disturbed,
        _true_model(config.A, config.F),
        gamma,
        gamma_d,
        RewardDescriptor(analytic_L=config.reward_lipschitz),
    )


@criterion(5, "state-action-bound-soundness")
def test_state_action_bound_soundness():
    # 1000 admissible random disturbances (mixed kinds) on true-model linear
    # surrogates at gamma in {0.1, 1, 10}: exactly zero violations of the
    # state/action energy and max bounds; plus the scalar closed-form case.
    start = time.perf_counter()
    kinds = ("impulse", "constant_direction", "scaled_gaussian_projected", "single_tone")
    gammas = (0.1, 1.0, 10.0)
    horizon = 48
    violations = 0
    trials = 0
    for sys_idx in range(10):
        rng = np.random.default_rng(30_000 + sys_idx)
        n, m = 4, 2
        config = LinearSurrogateConfig(
            A=random_stable(rng, n, radius=rng.uniform(0.4, 0.9)),
            F=rng.normal(size=(m, n)),
            x0_mean=rng.normal(size=n),
        )
        for trial in range(100):
            gamma = gammas[trial % 3]
            spec = DisturbanceSpec(
                kind=kinds[trial % 4],
                gamma=gamma,
                horizon=horizon,
                seed=31_000 + 100 * sys_idx + trial,
                dim=n,
                direction=rng.normal(size=n),
                omega=float(rng.uniform(0.0, np.pi)),
            )
            w = generate_disturbance(spec)
            assert disturbance_admissible(w, gamma).admissible
            report = _verify_linear(config, w, gamma)
            state_action = [
                v for v in report.violations
                if v[0] in ("state_energy", "state_max", "action_energy", "action_max")
            ]
            violations += len(state_action)
            trials += 1
    assert trials == 1000
    assert violations == 0, f"{violations} violations over {trials} trials"

    # Scalar closed form: A = 0.5, unit impulse; deviation energy is the
    # geometric series 4/3 against the bound (1/(1 - 0.5))^2 = 4.
    config = LinearSurrogateConfig(
        A=np.array([[0.5]]), F=np.array([[1.0]]),
        x0_mean=np.array([0.0]),
    )
    w = np.zeros((48, 1))
    w[0, 0] = 1.0
    report = _verify_linear(config, w, gamma=1.0)
    assert abs(report.empirical["state_energy"] - 4.0 / 3.0) <= 1e-9
    assert abs(report.state_energy_bound - 4.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@criterion(6, "reward-bound-soundness")
def test_reward_bound_soundness():
    # 500 trials with the norm-penalty reward (analytic L = 1), discount 0.9:
    # zero violations of the discounted reward-impact and generalization-error
    # bounds.  Noisy runs share seeds across nominal/disturbed ensembles.
    kinds = ("impulse", "constant_direction", "scaled_gaussian_projected", "single_tone")
    horizon = 60
    violations = 0
    for trial in range(500):
        rng = np.random.default_rng(40_000 + trial)
        n, m = 3, 2
        config = LinearSurrogateConfig(
            A=random_stable(rng, n, radius=rng.uniform(0.3, 0.85)),
            F=rng.normal(size=(m, n)),
            x0_mean=rng.normal(size=n),
            noise_std=0.05,
        )
        gamma = float(rng.uniform(0.05, 4.0))
        spec = DisturbanceSpec(
            kind=kinds[trial % 4], gamma=gamma, horizon=horizon,
            seed=42_000 + trial, dim=n,
            direction=rng.normal(size=n), omega=float(rng.uniform(0.0, np.pi)),
        )
        w = generate_disturbance(spec)
        report = _verify_linear(config, w, gamma, gamma_d=0.9, runs=2, seed=41_000 + trial)
        reward_violations = [
            v for v in report.violations
            if v[0] in ("reward_impact", "generalization_error")
        ]
        violations += len(reward_violations)
    assert violations == 0, f"{violations} reward-bound violations over 500 trials"


@criterion(7, "uav-environment-regression")
def test_uav_environment_regression():
    config = UavEnvConfig()

    # Speed compliance on every step of a 1000-step rollout at defaults.
    ens = uav_ensemble(config, "centroid_greedy", 1000, runs=1, master_seed=12345)
    uav = ens.states[0, :, -2:]
    steps = np.linalg.norm(np.diff(uav, axis=0), axis=1)
    limit = config.step_seconds * config.uav_max_speed
    assert np.all(steps <= limit + 1e-9)

    # Fairness identity on 1000 random indicator vectors.
    rng = np.random.default_rng(77)
    for _ in range(1000):
        j = int(rng.integers(1, 41))
        s = rng.integers(0, 2, size=j)
        as_written = fairness_index(s, "as_written")
        standard = fairness_index(s, "standard")
        if s.sum() == 0:
            assert as_written == 0.0 and standard == 0.0
        else:
            assert abs(as_written - standard / j) <= 1e-12

    # Rate formula spot value.
    rate = downlink_rate(20e6, 1e-5, config)
    assert abs(rate - 63.2e6) <= 0.1e6


@criterion(8, "two-policy-ordering")
def test_two_policy_ordering(tmp_path):
    # Full pipeline (simulate -> fit -> verify -> report) on both scripted
    # policies with R = 32, K = 2000: the policy with the larger fitted
    # worst-case gain must also show the larger empirical reward degradation
    # under identical admissible disturbances at all three gamma levels.
    #
    # The comparison benchmark uses a compact area with faster user motion so
    # the 2000-step window spans many mixing times of the crowd (the fitted
    # mean dynamics are then stable and informative), and modest gamma levels
    # that stay within the linear-response regime of the serve/fairness
    # reward.
    import json

    from koopbound.cli import main

    start = time.perf_counter()
    seed = 3005
    gammas = (1.0, 2.0, 4.0)
    base_cfg = (
        "sim.env = uav\n"
        "sim.runs = 32\n"
        "sim.horizon = 2000\n"
        f"sim.seed = {seed}\n"
        "env.area_x = 50.0\n"
        "env.area_y = 50.0\n"
        "env.gu_count = 12\n"
        "env.altitude = 20.0\n"
        "env.coverage_radius = 25.0\n"
        "env.gu_mean_speed = 10.0\n"
        "disturbance.kind = scaled_gaussian_projected\n"
        "disturbance.seed = 7777\n"
    )
    report_paths = {}
    gains = {}
    for policy in ("centroid_greedy", "lagged_centroid"):
        cfg_path = tmp_path / f"{policy}.cfg"
        cfg_path.write_text(base_cfg + f"sim.policy = {policy}\n")
        traj = tmp_path / f"{policy}.csv"
        model = tmp_path / f"{policy}_model.json"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(traj)]) == 0
        assert main(["fit", str(traj), "--out", str(model)]) == 0
        for gamma in gammas:
            out = tmp_path / f"{policy}_{gamma}.json"
            assert main([
                "verify", "--config", str(cfg_path), str(model),
                "--gamma", str(gamma), "--out", str(out), "--label", policy,
            ]) == 0
            report_paths[(policy, gamma)] = out
            doc = json.loads(out.read_text())
            assert doc["hinf"]["converged"] is True, (policy, "unstable fit")
            gains[policy] = doc["inputs"]["T_hinf"]

    assert gains["centroid_greedy"] != gains["lagged_centroid"]
    for gamma in gammas:
        summary = tmp_path / f"summary_{gamma}.json"
        assert main([
            "report",
            str(report_paths[("centroid_greedy", gamma)]),
            str(report_paths[("lagged_centroid", gamma)]),
            "--out", str(summary),
        ]) == 0
        rows = json.loads(summary.read_text())["rows"]
        assert len(rows) == 2
        # Rows are sorted by ascending fitted gain; degradation must follow.
        assert rows[0]["T_hinf"] < rows[1]["T_hinf"]
        assert rows[1]["reward_impact_pct"] > rows[0]["reward_impact_pct"], (
            gamma, rows,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
