"""Disturbance admissibility, bound expressions, estimators, verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopbound import (
    BoundInputs,
    DataError,
    DisturbanceSpec,
    DivergenceError,
    EmptyInputError,
    InsufficientDataError,
    KoopmanModel,
    ParameterError,
    RewardDescriptor,
    TrajectoryEnsemble,
    action_deviation_bounds,
    disturbance_admissible,
    ensemble_mean,
    estimate_lipschitz,
    estimate_Q,
    generalization_error_bound,
    generate_disturbance,
    linear_ensemble,
    LinearSurrogateConfig,
    reward_impact_bound,
    state_deviation_bounds,
    verify_bounds,
)
from koopbound.bounds import _sample_reward_triples

nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestAdmissibility:
    def test_zero_sequence(self):
        result = disturbance_admissible(np.zeros((5, 2)), gamma=0.0)
        assert result.admissible
        assert result.sup_value == 0.0 and result.energy == 0.0

    def test_impulse_is_flat(self):
        gamma = 0.7
        w = np.zeros((16, 3))
        w[0, 1] = gamma
        result = disturbance_admissible(w, gamma)
        assert result.admissible
        assert abs(result.sup_value - gamma) <= 1e-9 * gamma
        assert np.isclose(result.energy, gamma**2)

    def test_double_impulse_inadmissible(self):
        gamma = 1.0
        w = np.zeros((8, 2))
        w[0, 0] = gamma
        w[1, 0] = gamma
        result = disturbance_admissible(w, gamma)
        assert not result.admissible

    def test_constructive_interference_caught_by_sweep(self):
        # Necessary conditions pass (energy 0.98 g^2, steps 0.7 g) but the
        # spectral peak at omega = 0 reaches 1.4 g.
        gamma = 1.0
        w = np.zeros((8, 1))
        w[0, 0] = 0.7
        w[1, 0] = 0.7
        result = disturbance_admissible(w, gamma)
        assert not result.admissible
        assert np.isclose(result.sup_value, 1.4, atol=1e-9)

    def test_parseval_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 40))
            dim = int(rng.integers(1, 5))
            w = rng.normal(size=(k, dim))
            grid = 8 * k
            spectrum = np.fft.fft(w, n=grid, axis=0)
            freq_energy = float(np.sum(np.abs(spectrum) ** 2)) / grid
            result = disturbance_admissible(w, gamma=1e9, grid_points=grid)
            assert abs(result.energy - freq_energy) <= 1e-8 * max(result.energy, 1e-30)

    def test_grid_density_validated(self):
        with pytest.raises(ParameterError):
            disturbance_admissible(np.ones((10, 1)), 1.0, grid_points=20)

    def test_empty_sequence(self):
        with pytest.raises(EmptyInputError):
            disturbance_admissible(np.zeros((0, 2)), 1.0)


class TestGenerateDisturbance:
    @pytest.mark.parametrize("kind", [
        "impulse", "constant_direction", "scaled_gaussian_projected", "single_tone",
    ])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 5.0])
    def test_every_kind_admissible_at_own_gamma(self, kind, gamma):
        for seed in range(5):
            spec = DisturbanceSpec(kind=kind, gamma=gamma, horizon=24, seed=seed, dim=3)
            w = generate_disturbance(spec)
            assert w.shape == (24, 3)
            result = disturbance_admissible(w, gamma)
            assert result.admissible, (kind, gamma, seed, result)

    def test_zero_gamma_is_zero_sequence(self):
        spec = DisturbanceSpec(kind="scaled_gaussian_projected", gamma=0.0,
                               horizon=10, seed=1, dim=2)
        assert not np.any(generate_disturbance(spec))

    def test_impulse_shape(self):
        spec = DisturbanceSpec(kind="impulse", gamma=2.0, horizon=6, seed=0, dim=2)
        w = generate_disturbance(spec)
        assert np.allclose(w[0], [2.0, 0.0])
        assert not np.any(w[1:])

    def test_constant_direction_boundary(self):
        # Sum over steps hits gamma exactly at omega = 0.
        spec = DisturbanceSpec(kind="constant_direction", gamma=1.5, horizon=10,
                               seed=0, dim=2)
        w = generate_disturbance(spec)
        result = disturbance_admissible(w, 1.5)
        assert result.admissible
        assert abs(result.sup_value - 1.5) <= 1e-9

    def test_direction_used(self):
        d = np.array([0.0, 3.0, 4.0])
        spec = DisturbanceSpec(kind="impulse", gamma=1.0, horizon=4, seed=0,
                               dim=3, direction=d)
        w = generate_disturbance(spec)
        assert np.allclose(w[0], [0.0, 0.6, 0.8])

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            DisturbanceSpec(kind="comb", gamma=1.0, horizon=4, seed=0, dim=1)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega(self, omega):
        # A NaN tone frequency gave an all-NaN sequence that the admissibility
        # check then refused as an internal error.
        with pytest.raises(ParameterError, match="omega must be finite"):
            DisturbanceSpec(kind="single_tone", gamma=0.5, horizon=4, seed=0, dim=1, omega=omega)

    def test_default_omega(self):
        spec = DisturbanceSpec(kind="single_tone", gamma=1.0, horizon=8, seed=0, dim=1)
        assert spec.omega == math.pi / 4


class TestBoundArithmetic:
    def test_state_bounds_examples(self):
        assert state_deviation_bounds(10.0, 0.5) == (25.0, 5.0)
        assert state_deviation_bounds(10.0, 0.0) == (0.0, 0.0)
        assert state_deviation_bounds(2.0, 3.0) == (36.0, 6.0)

    def test_action_bounds_examples(self):
        assert action_deviation_bounds(0.5, 10.0, 0.5) == (6.25, 2.5)
        assert action_deviation_bounds(0.0, 10.0, 0.5) == (0.0, 0.0)
        assert action_deviation_bounds(1.0, 1.0, 1.0) == (1.0, 1.0)

    def test_zero_gamma_with_infinite_gain(self):
        energy, peak = state_deviation_bounds(float("inf"), 0.0)
        assert energy == 0.0 and peak == 0.0

    @given(t1=nonneg, t2=nonneg, g1=nonneg, g2=nonneg)
    @settings(max_examples=100, deadline=None)
    def test_state_bounds_monotone(self, t1, t2, g1, g2):
        lo = state_deviation_bounds(min(t1, t2), min(g1, g2))
        hi = state_deviation_bounds(max(t1, t2), max(g1, g2))
        assert lo[0] <= hi[0] and lo[1] <= hi[1]


def make_inputs(M, N, L, Q, C, gamma_d, horizon):
    # Reverse-engineer (T, Kf, gamma) so the derived M, N match exactly.
    if M == 0.0:
        t_hinf, gamma, kf = 0.0, 1.0, 0.0
    else:
        gamma = 1.0
        t_hinf = M
        kf = N / M
    return BoundInputs(gamma=gamma, T_hinf=t_hinf, Kf_hinf=kf, L=L, Q=Q, C=C,
                       gamma_d=gamma_d, horizon=horizon)


class TestRewardBounds:
    def test_infinite_horizon_example(self):
        inputs = make_inputs(M=2.0, N=1.0, L=1.0, Q=0.0, C=0.0, gamma_d=0.5,
                             horizon=float("inf"))
        assert np.isclose(reward_impact_bound(inputs), 6.0)

    def test_zero_lipschitz(self):
        inputs = make_inputs(M=2.0, N=1.0, L=0.0, Q=5.0, C=1.0, gamma_d=0.5,
                             horizon=float("inf"))
        assert reward_impact_bound(inputs) == 0.0

    def test_undiscounted_single_step(self):
        inputs = make_inputs(M=1.0, N=1.0, L=1.0, Q=1.0, C=0.0, gamma_d=0.0,
                             horizon=float("inf"))
        assert np.isclose(reward_impact_bound(inputs), 3.0)

    def test_finite_horizon_discount_sum(self):
        inputs = make_inputs(M=1.0, N=0.0, L=1.0, Q=0.0, C=0.0, gamma_d=0.5,
                             horizon=3.0)
        # (1 - 0.5^4) / 0.5 = 1.875
        assert np.isclose(reward_impact_bound(inputs), 1.875)

    def test_generalization_error_example(self):
        inputs = make_inputs(M=2.0, N=1.0, L=1.0, Q=0.0, C=0.0, gamma_d=0.9,
                             horizon=float("inf"))
        assert np.isclose(generalization_error_bound(inputs), 30.0)

    def test_zero_c_reduces_to_reward_impact(self):
        inputs = make_inputs(M=1.5, N=0.5, L=2.0, Q=0.3, C=0.0, gamma_d=0.7,
                             horizon=float("inf"))
        assert np.isclose(generalization_error_bound(inputs),
                          reward_impact_bound(inputs))

    def test_lipschitz_homogeneity(self):
        one = make_inputs(M=1.0, N=1.0, L=1.0, Q=0.5, C=0.5, gamma_d=0.9,
                          horizon=float("inf"))
        two = make_inputs(M=1.0, N=1.0, L=2.0, Q=0.5, C=0.5, gamma_d=0.9,
                          horizon=float("inf"))
        assert np.isclose(generalization_error_bound(two),
                          2.0 * generalization_error_bound(one))

    def test_divergent_discount(self):
        with pytest.raises(DivergenceError):
            make_inputs(M=1.0, N=1.0, L=1.0, Q=0.0, C=0.0, gamma_d=1.0,
                        horizon=float("inf"))
        inputs = make_inputs(M=1.0, N=1.0, L=1.0, Q=0.0, C=0.0, gamma_d=1.0,
                             horizon=10.0)
        with pytest.raises(DivergenceError):
            reward_impact_bound(inputs)
        with pytest.raises(DivergenceError):
            generalization_error_bound(inputs)

    @given(
        l=st.floats(0.0, 100.0), q=st.floats(0.0, 100.0),
        c=st.floats(0.0, 100.0), gd=st.floats(0.0, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_each_input(self, l, q, c, gd):
        base = make_inputs(M=1.0, N=0.5, L=l, Q=q, C=c, gamma_d=gd,
                           horizon=float("inf"))
        bigger = make_inputs(M=1.0, N=0.5, L=l + 1.0, Q=q + 1.0, C=c + 1.0,
                             gamma_d=gd, horizon=float("inf"))
        assert generalization_error_bound(bigger) >= generalization_error_bound(base)
        assert reward_impact_bound(bigger) >= reward_impact_bound(base)


class TestEstimators:
    def test_lipschitz_constant_function(self):
        samples = [(((x,), (0.0,)), 1.0) for x in (0.0, 1.0, 2.0)]
        assert estimate_lipschitz(samples) == 0.0

    def test_lipschitz_single_pair(self):
        samples = [(((0.0,), (0.0,)), 0.0), (((1.0,), (0.0,)), 2.0)]
        assert np.isclose(estimate_lipschitz(samples), 2.0)

    def test_lipschitz_norm_function_below_one(self):
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(60):
            x = rng.normal(size=3)
            u = rng.normal(size=2)
            samples.append(((x, u), float(np.linalg.norm(x))))
        assert estimate_lipschitz(samples) <= 1.0 + 1e-12

    def test_lipschitz_needs_two_distinct(self):
        with pytest.raises(InsufficientDataError):
            estimate_lipschitz([(((0.0,), (0.0,)), 1.0)])
        same = [(((1.0,), (2.0,)), 0.5), (((1.0,), (2.0,)), 0.5)]
        with pytest.raises(InsufficientDataError):
            estimate_lipschitz(same)

    def _pm_one_ensemble(self, scale=1.0):
        k = 4
        ones = np.full((k + 1, 1), scale)
        return TrajectoryEnsemble(states=np.stack([ones, -ones]),
                                  actions=np.ones((2, k, 1)), rewards=np.zeros((2, k)))

    def test_q_deterministic_ensemble(self):
        k = 3
        ens = TrajectoryEnsemble(states=np.ones((2, k + 1, 2)), actions=np.ones((2, k, 1)),
                                 rewards=np.zeros((2, k)))
        assert estimate_Q(ens, ensemble_mean(ens)) == 0.0

    def test_q_plus_minus_one(self):
        ens = self._pm_one_ensemble()
        assert np.isclose(estimate_Q(ens, ensemble_mean(ens)), 1.0)

    def test_q_homogeneity(self):
        q1 = estimate_Q(self._pm_one_ensemble(1.0),
                        ensemble_mean(self._pm_one_ensemble(1.0)))
        q2 = estimate_Q(self._pm_one_ensemble(2.0),
                        ensemble_mean(self._pm_one_ensemble(2.0)))
        assert np.isclose(q2, 2.0 * q1)

    def test_q_requires_two_runs(self):
        ens = TrajectoryEnsemble(states=np.ones((1, 3, 1)), actions=np.ones((1, 2, 1)),
                                 rewards=np.zeros((1, 2)))
        with pytest.raises(InsufficientDataError):
            estimate_Q(ens, ensemble_mean(ens))

    def test_c_permutation_invariant(self):
        rng = np.random.default_rng(2)
        runs = [(rng.normal(size=(5, 2)), rng.normal(size=(4, 1))) for _ in range(4)]
        states, actions = (np.stack(arrays) for arrays in zip(*runs))
        fwd = TrajectoryEnsemble(states=states, actions=actions, rewards=np.zeros((4, 4)))
        rev = TrajectoryEnsemble(states=states[::-1], actions=actions[::-1],
                                 rewards=np.zeros((4, 4)), run_ids=np.arange(4)[::-1])
        assert np.isclose(estimate_Q(fwd, ensemble_mean(fwd)),
                          estimate_Q(rev, ensemble_mean(rev)))

    def test_reward_samples_every_stride_th_step(self):
        # 3 runs of 7 steps, at most 5 samples: every 4th (run, step) pair in
        # run-major order, (0,0) (0,4) (1,1) (1,5) (2,2) (2,6).
        rng = np.random.default_rng(5)
        ens = TrajectoryEnsemble(states=rng.normal(size=(3, 8, 2)),
                                 actions=rng.normal(size=(3, 7, 1)),
                                 rewards=rng.normal(size=(3, 7)))
        samples = _sample_reward_triples(ens, max_samples=5)
        picks = [(0, 0), (0, 4), (1, 1), (1, 5), (2, 2), (2, 6)]
        assert len(samples) == len(picks)
        for ((x, u), r), (run, k) in zip(samples, picks):
            assert np.array_equal(x, ens.states[run, k + 1])
            assert np.array_equal(u, ens.actions[run, k])
            assert r == ens.rewards[run, k] and type(r) is float


def true_model(a, f):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    f = np.atleast_2d(np.asarray(f, dtype=float))
    return KoopmanModel(state_operator=a, action_operator=f)


def run_verify(config, disturbance, gamma, gamma_d=0.9, runs=1, reward=None):
    """verify_bounds on `runs` runs of the surrogate over the disturbance's
    horizon, seeded from 0."""
    horizon = len(disturbance)
    nominal = linear_ensemble(config, horizon, runs, 0)
    disturbed = linear_ensemble(config, horizon, runs, 0, disturbance=disturbance)
    return verify_bounds(
        ensemble_mean(nominal),
        ensemble_mean(disturbed),
        nominal,
        disturbed,
        true_model(config.A, config.F),
        gamma,
        gamma_d,
        reward or RewardDescriptor(analytic_L=config.reward_lipschitz),
    )


class TestVerifyBounds:
    def test_zero_disturbance_no_violations(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.5, 0.1], [0.0, 0.3]]),
            F=np.array([[1.0, 0.0]]),
            x0_mean=np.array([1.0, -1.0]),
        )
        report = run_verify(config, np.zeros((20, 2)), gamma=0.0)
        emp = report.empirical
        assert emp["state_energy"] == 0.0 and emp["action_max"] == 0.0
        assert emp["reward_gap_discounted"] == 0.0
        assert report.violations == ()

    def test_scalar_closed_form_geometric_series(self):
        # A = 0.5, unit impulse: deviations 1, 1/2, 1/4, ... so the energy is
        # the geometric series 4/3, against the bound (1/(1-0.5))^2 = 4.
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[1.0]]),
            x0_mean=np.array([0.0]),
        )
        w = np.zeros((40, 1))
        w[0, 0] = 1.0
        report = run_verify(config, w, gamma=1.0)
        assert abs(report.empirical["state_energy"] - 4.0 / 3.0) <= 1e-9
        assert abs(report.state_energy_bound - 4.0) <= 1e-9
        assert report.violations == ()

    def test_soundness_random_disturbances(self):
        # Smaller sibling of the acceptance run: true-model linear surrogate
        # never violates the state/action bounds for admissible disturbances.
        rng = np.random.default_rng(7)
        kinds = ["impulse", "constant_direction", "scaled_gaussian_projected",
                 "single_tone"]
        a = rng.normal(size=(3, 3))
        a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
        f = rng.normal(size=(2, 3))
        config = LinearSurrogateConfig(
            A=a, F=f, x0_mean=rng.normal(size=3),
        )
        for trial in range(40):
            gamma = [0.5, 2.0][trial % 2]
            spec = DisturbanceSpec(
                kind=kinds[trial % 4], gamma=gamma, horizon=48,
                seed=100 + trial, dim=3,
                omega=float(rng.uniform(0, np.pi)),
            )
            w = generate_disturbance(spec)
            report = run_verify(config, w, gamma=gamma)
            assert report.violations == (), (trial, report.violations)

    def test_estimated_l_flagged(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[1.0]]),
            x0_mean=np.array([2.0]), noise_std=0.05,
        )
        report = run_verify(config, np.zeros((10, 1)), gamma=0.0, runs=3,
                            reward=RewardDescriptor())
        assert report.l_source == "estimated"
        assert "estimated-L" in report.flags
        assert "q-from-disturbed-rollouts" in report.flags

    def test_single_run_dispersion_flag(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[1.0]]),
            x0_mean=np.array([2.0]),
        )
        report = run_verify(config, np.zeros((10, 1)), gamma=0.0)
        assert "single-run-dispersion-unavailable" in report.flags
        assert report.inputs.Q == 0.0

    def test_report_round_trip(self, tmp_path):
        # A stable surrogate and an unstable one (A = 1: T and every bound
        # infinite) both reload as the same report.
        from koopbound import load_report, save_report

        w = generate_disturbance(
            DisturbanceSpec(kind="impulse", gamma=0.5, horizon=12, seed=0, dim=1)
        )
        for a in (0.5, 1.0):
            config = LinearSurrogateConfig(
                A=np.array([[a]]), F=np.array([[1.0]]),
                x0_mean=np.array([1.0]),
            )
            report = run_verify(config, w, gamma=0.5)
            assert math.isinf(report.inputs.T_hinf) == (a == 1.0)
            path = tmp_path / f"report_{a}.json"
            save_report(report, path, label="scalar")
            loaded, label = load_report(path)
            assert label == "scalar"
            assert loaded == report
            if a == 1.0:
                text = path.read_text()
                assert '"T_hinf": "inf"' in text and '"reward_impact_bound": "inf"' in text


class TestJsonCodec:
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_write_json_refuses_non_finite(self, tmp_path, bad):
        from koopbound._jsonio import write_json

        path = tmp_path / "doc.json"
        with pytest.raises(DataError, match=r"rows\[1\]\.M"):
            write_json({"rows": [{"M": 1.0}, {"M": bad}], "T": float("inf")}, path)
        assert not path.exists()
