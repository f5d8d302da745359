"""Disturbance admissibility, bound expressions, estimators, verification."""

import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopbound import (
    BoundInputs,
    DataError,
    DimensionMismatchError,
    DisturbanceSpec,
    InsufficientDataError,
    KoopmanModel,
    ParameterError,
    SchemaError,
    TrajectoryEnsemble,
    UavEnvConfig,
    deviation_bounds,
    disturbance_admissible,
    ensemble_mean,
    estimate_Q,
    generate_disturbance,
    linear_ensemble,
    LinearSurrogateConfig,
    per_step_table,
    uav_ensemble,
    verify_bounds,
    write_per_step_table,
)
from koopbound import bounds, trajectory_data
from koopbound.bounds import _CHECK_RTOL, _spectral_power, certified_gain
from koopbound.env_sim import NORM_PENALTY_LIPSCHITZ, split_groups

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
            result = disturbance_admissible(w, gamma=1e9)
            assert abs(result.energy - freq_energy) <= 1e-8 * max(result.energy, 1e-30)

    def test_empty_sequence(self):
        with pytest.raises(InsufficientDataError, match=r"^w is empty, got shape \(0, 2\)$"):
            disturbance_admissible(np.zeros((0, 2)), 1.0)

    def test_one_dimensional_sequence_is_a_column(self):
        # A 1-D w is checked as the (K, 1) column of its values, both where a
        # necessary condition fails (gamma 0.5: energy 0.3) and on the grid.
        w = np.array([0.3, -0.2, 0.4, 0.1])
        for gamma in (0.5, 2.0):
            assert disturbance_admissible(w, gamma) == disturbance_admissible(w[:, None], gamma)
        assert not disturbance_admissible(w, 0.5).admissible
        assert disturbance_admissible(w, 2.0).admissible


def direct_norms(w, grid_points):
    """||W(2 pi j / grid_points)|| for every j, from one complex FFT per
    dimension: the reference the autocorrelation route is checked against."""
    return np.linalg.norm(np.fft.fft(w, n=grid_points, axis=0), axis=1)


class TestSpectralPower:
    """The power from the summed autocorrelation equals the squared norm of
    the direct FFT on the half grid, to 1e-12 of the peak power, and so the
    peak to 1e-12 relative, with no RuntimeWarning (near a spectral zero
    round-off can leave the power negative before the clamp)."""

    def assert_matches_direct(self, w, grid_points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            power = _spectral_power(w, grid_points)
        direct = direct_norms(w, grid_points)
        assert power.shape == (grid_points // 2 + 1,)
        assert np.all(power >= 0.0)
        peak_power = float(np.max(direct[: grid_points // 2 + 1] ** 2))
        assert np.max(np.abs(power - direct[: grid_points // 2 + 1] ** 2)) <= 1e-12 * peak_power
        assert abs(math.sqrt(np.max(power)) - np.max(direct)) <= 1e-12 * np.max(direct)

    @pytest.mark.parametrize("k,dim", [(1, 1), (2, 1), (2, 3), (24, 1), (400, 42), (1000, 26)])
    def test_gaussian_draws(self, k, dim):
        rng = np.random.default_rng(k * 100 + dim)
        for _ in range(3):
            w = rng.standard_normal((k, dim))
            for grid_points in (4 * k, 8 * k, 8 * k + 1):
                self.assert_matches_direct(w, grid_points)

    def test_impulse_is_flat(self):
        w = np.zeros((16, 3))
        w[0] = [0.3, -0.4, 1.2]
        power = _spectral_power(w, 8 * 16)
        assert np.max(np.abs(power - 1.69)) <= 1e-12 * 1.69
        self.assert_matches_direct(w, 8 * 16)

    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_constant_direction_zeros(self, k):
        # A constant sequence's spectrum is a Dirichlet kernel with exact
        # zeros at every multiple of 2 pi / K, all of them on the grid.
        w = np.tile(np.array([1.0, -2.0, 0.5]) / k, (k, 1))
        for grid_points in (4 * k, 8 * k, 8 * k + 3):
            self.assert_matches_direct(w, grid_points)

    @pytest.mark.parametrize("cycles", [3.0, 3.37])
    def test_single_tone(self, cycles):
        # 3 cycles over K puts the tone on the 8K grid; 3.37 puts it between
        # grid points.
        k = 50
        tone = np.cos(2.0 * np.pi * cycles / k * np.arange(k))
        w = tone[:, None] * np.array([[0.6, 0.8]])
        for grid_points in (4 * k, 8 * k, 8 * k + 1):
            self.assert_matches_direct(w, grid_points)

    @pytest.mark.parametrize("k,dim", [(4096, 2), (1024, 42)])
    def test_peak_memory_linear_in_input_and_grid(self, k, dim):
        # A direct FFT holds an (N, n) complex array; the autocorrelation
        # route holds O(n K + N) values, less than that array even at n = 2.
        grid_points = 8 * k
        w = np.random.default_rng(1).standard_normal((k, dim))
        tracemalloc.start()
        try:
            _spectral_power(w, grid_points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid_points * dim * 16
        assert peak <= 8 * (6 * dim * k + 3 * grid_points)


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
            # The direct FFT on the same 8K grid agrees.
            assert np.max(direct_norms(w, 8 * 24)) <= gamma * (1.0 + _CHECK_RTOL)

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

    @pytest.mark.parametrize("direction, scaled", [
        ([1e200, 1e200], [1.0, 1.0]), ([1e-200, 0.0], [1.0, 0.0]),
        ([-1e-300, 1e-300], [-1.0, 1.0]),
    ], ids=["overflow", "underflow", "underflow-both"])
    def test_direction_of_extreme_magnitude(self, direction, scaled):
        # The norm of [1e200, 1e200] overflowed to inf, so the impulse was
        # w = 0; that of [1e-200, 0] underflowed to 0, so it was refused as
        # zero.  Each gives the sequence of its direction scaled to 1.
        spec, same = (DisturbanceSpec("impulse", 0.5, 4, 0, 2, direction=d)
                      for d in (direction, scaled))
        w = generate_disturbance(spec)
        assert w.tobytes() == generate_disturbance(same).tobytes()
        assert math.isclose(np.linalg.norm(w[0]), 0.5)

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


def state_bounds(t_hinf, gamma):
    bounds = deviation_bounds(gamma, t_hinf, 0.0)
    return bounds["state_energy_bound"], bounds["state_max_bound"]


def action_bounds(kf_hinf, t_hinf, gamma):
    bounds = deviation_bounds(gamma, t_hinf, kf_hinf)
    return bounds["action_energy_bound"], bounds["action_max_bound"]


class TestBoundArithmetic:
    def test_state_bounds_examples(self):
        assert state_bounds(10.0, 0.5) == (25.0, 5.0)
        assert state_bounds(10.0, 0.0) == (0.0, 0.0)
        assert state_bounds(2.0, 3.0) == (36.0, 6.0)

    def test_action_bounds_examples(self):
        assert action_bounds(0.5, 10.0, 0.5) == (6.25, 2.5)
        assert action_bounds(0.0, 10.0, 0.5) == (0.0, 0.0)
        assert action_bounds(1.0, 1.0, 1.0) == (1.0, 1.0)

    def test_zero_gamma_with_infinite_gain(self):
        energy, peak = state_bounds(float("inf"), 0.0)
        assert energy == 0.0 and peak == 0.0

    @pytest.mark.parametrize("name, args", [
        ("gamma", (-0.5, 1.0, 1.0)), ("T_hinf", (0.5, -1.0, 1.0)),
        ("Kf_hinf", (0.5, 1.0, -1.0)), ("gamma", (math.nan, 1.0, 1.0)),
    ])
    def test_negative_input_refused(self, name, args):
        with pytest.raises(ParameterError, match=f"^{name} must be non-negative"):
            deviation_bounds(*args)

    @given(t1=nonneg, t2=nonneg, g1=nonneg, g2=nonneg)
    @settings(max_examples=100, deadline=None)
    def test_state_bounds_monotone(self, t1, t2, g1, g2):
        lo = state_bounds(min(t1, t2), min(g1, g2))
        hi = state_bounds(max(t1, t2), max(g1, g2))
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


def reward_impact(inputs):
    return inputs.bounds()["reward_impact_bound"]


def generalization_error(inputs):
    return inputs.bounds()["generalization_error_bound"]


class TestRewardBounds:
    def test_infinite_horizon_example(self):
        inputs = make_inputs(M=2.0, N=1.0, L=1.0, Q=0.0, C=0.0, gamma_d=0.5,
                             horizon=float("inf"))
        assert np.isclose(reward_impact(inputs), 6.0)

    def test_zero_lipschitz(self):
        inputs = make_inputs(M=2.0, N=1.0, L=0.0, Q=5.0, C=1.0, gamma_d=0.5,
                             horizon=float("inf"))
        assert reward_impact(inputs) == 0.0

    def test_undiscounted_single_step(self):
        inputs = make_inputs(M=1.0, N=1.0, L=1.0, Q=1.0, C=0.0, gamma_d=0.0,
                             horizon=float("inf"))
        assert np.isclose(reward_impact(inputs), 3.0)

    def test_finite_horizon_discount_sum(self):
        inputs = make_inputs(M=1.0, N=0.0, L=1.0, Q=0.0, C=0.0, gamma_d=0.5,
                             horizon=3.0)
        # (1 - 0.5^4) / 0.5 = 1.875
        assert np.isclose(reward_impact(inputs), 1.875)

    def test_generalization_error_example(self):
        inputs = make_inputs(M=2.0, N=1.0, L=1.0, Q=0.0, C=0.0, gamma_d=0.9,
                             horizon=float("inf"))
        assert np.isclose(generalization_error(inputs), 30.0)

    def test_zero_c_reduces_to_reward_impact(self):
        inputs = make_inputs(M=1.5, N=0.5, L=2.0, Q=0.3, C=0.0, gamma_d=0.7,
                             horizon=float("inf"))
        assert np.isclose(generalization_error(inputs), reward_impact(inputs))

    def test_lipschitz_homogeneity(self):
        one = make_inputs(M=1.0, N=1.0, L=1.0, Q=0.5, C=0.5, gamma_d=0.9,
                          horizon=float("inf"))
        two = make_inputs(M=1.0, N=1.0, L=2.0, Q=0.5, C=0.5, gamma_d=0.9,
                          horizon=float("inf"))
        assert np.isclose(generalization_error(two), 2.0 * generalization_error(one))

    @pytest.mark.parametrize("horizon", [10.0, math.inf])
    def test_no_nan_when_a_factor_is_zero(self, horizon):
        # L(Q+M+N) and L*C are 0 when a factor is 0: L = inf with Q+M+N = 0,
        # or with C = 0, gave NaN, which no report file can hold.
        grid = itertools.product((0.0, 0.5, math.inf), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0),
                                 (2.0, math.inf), (0.0, 1.0))
        for lip, q, c, gamma, t_hinf, kf in grid:
            inputs = BoundInputs(gamma=gamma, T_hinf=t_hinf, Kf_hinf=kf, L=lip, Q=q, C=c,
                                 gamma_d=0.5, horizon=horizon)
            caps = inputs.bounds()
            assert not any(math.isnan(value) for value in caps.values()), inputs
            qmn = q + caps["M"] + caps["N"]
            impact, error = caps["reward_impact_bound"], caps["generalization_error_bound"]
            assert (impact == 0.0) == (lip == 0.0 or qmn == 0.0), inputs
            assert (error == 0.0) == (lip == 0.0 or qmn + c == 0.0), inputs
            assert math.isinf(impact) == (impact > 0.0 and math.isinf(lip * qmn)), inputs
            assert math.isinf(error) == (error > 0.0 and math.isinf(lip * (qmn + c))), inputs

    def test_divergent_discount(self):
        # A discount factor of 1 is refused when the record is built, at
        # either horizon; the L = 0 rule does not hide it.
        message = ("^gamma_d must be finite and non-negative, and must be below 1 as a "
                   "discount factor, got 1.0$")
        for horizon in (float("inf"), 10.0):
            for lipschitz in (1.0, 0.0):
                with pytest.raises(ParameterError, match=message):
                    make_inputs(M=1.0, N=1.0, L=lipschitz, Q=0.0, C=0.0, gamma_d=1.0,
                                horizon=horizon)

    def test_bounds_include_deviation_bounds(self):
        inputs = make_inputs(M=2.0, N=1.0, L=1.0, Q=0.0, C=0.0, gamma_d=0.5,
                             horizon=float("inf"))
        bounds = inputs.bounds()
        assert list(bounds) == ["M", "N", "state_energy_bound", "state_max_bound",
                                "action_energy_bound", "action_max_bound",
                                "reward_impact_bound", "generalization_error_bound"]
        assert {key: bounds[key] for key in list(bounds)[:6]} == deviation_bounds(1.0, 2.0, 0.5)

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
        assert generalization_error(bigger) >= generalization_error(base)
        assert reward_impact(bigger) >= reward_impact(base)


class TestEstimators:
    def _pm_one_ensemble(self, scale=1.0):
        k = 4
        ones = np.full((k + 1, 1), scale)
        return TrajectoryEnsemble(states=np.stack([ones, -ones]),
                                  actions=np.ones((2, k, 1)), rewards=np.zeros((2, k)))

    def test_q_deterministic_ensemble(self):
        k = 3
        ens = TrajectoryEnsemble(states=np.ones((2, k + 1, 2)), actions=np.ones((2, k, 1)),
                                 rewards=np.zeros((2, k)))
        assert estimate_Q(ens) == 0.0

    def test_q_plus_minus_one(self):
        ens = self._pm_one_ensemble()
        assert np.isclose(estimate_Q(ens), 1.0)

    def test_q_homogeneity(self):
        q1 = estimate_Q(self._pm_one_ensemble(1.0))
        q2 = estimate_Q(self._pm_one_ensemble(2.0))
        assert np.isclose(q2, 2.0 * q1)

    def test_q_requires_two_runs(self):
        ens = TrajectoryEnsemble(states=np.ones((1, 3, 1)), actions=np.ones((1, 2, 1)),
                                 rewards=np.zeros((1, 2)))
        with pytest.raises(InsufficientDataError):
            estimate_Q(ens)

    def test_c_permutation_invariant(self):
        rng = np.random.default_rng(2)
        runs = [(rng.normal(size=(5, 2)), rng.normal(size=(4, 1))) for _ in range(4)]
        states, actions = (np.stack(arrays) for arrays in zip(*runs))
        fwd = TrajectoryEnsemble(states=states, actions=actions, rewards=np.zeros((4, 4)))
        rev = TrajectoryEnsemble(states=states[::-1], actions=actions[::-1],
                                 rewards=np.zeros((4, 4)), run_ids=np.arange(4)[::-1])
        assert np.isclose(estimate_Q(fwd), estimate_Q(rev))


# The whole-array formulas that the per-run and per-block reductions
# replaced; each reduction must give their bits.
def whole_mean(stacked):
    return np.ascontiguousarray(np.moveaxis(stacked, 0, -1)).mean(axis=-1)


def whole_dispersion(ens):
    mean_states, mean_actions = whole_mean(ens.states), whole_mean(ens.actions)
    dx = np.linalg.norm(ens.states[:, 1:, :] - mean_states[None, 1:, :], axis=2)
    du = np.linalg.norm(ens.actions - mean_actions[None, :, :], axis=2)
    return (dx + du).mean(axis=0)


def whole_table(nominal, disturbed):
    k = nominal.horizon
    table = np.full((k + 1, 5), np.nan)
    table[:, 0] = np.arange(k + 1)
    table[:, 1] = np.linalg.norm(whole_mean(nominal.states) - whole_mean(disturbed.states),
                                 axis=1)
    table[:k, 2] = np.linalg.norm(whole_mean(nominal.actions) - whole_mean(disturbed.actions),
                                  axis=1)
    table[:k, 3] = whole_mean(nominal.rewards)
    table[:k, 4] = whole_mean(disturbed.rewards)
    return table


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def random_ensemble(rng, runs, horizon, n, m):
    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)

    return TrajectoryEnsemble(states=draw(runs, horizon + 1, n), actions=draw(runs, horizon, m),
                              rewards=draw(runs, horizon))


def assert_whole_array_bits(nominal, disturbed):
    for ens in (nominal, disturbed):
        mean_states, mean_actions, mean_rewards = ensemble_mean(ens)
        assert same_bits(mean_states, whole_mean(ens.states))
        assert same_bits(mean_actions, whole_mean(ens.actions))
        assert same_bits(mean_rewards, whole_mean(ens.rewards))
        assert same_bits(estimate_Q(ens), np.max(whole_dispersion(ens)))
    assert same_bits(per_step_table(nominal, disturbed), whole_table(nominal, disturbed))


class TestWholeArrayFormulas:
    """The reductions over runs, taken a run or a block of steps at a time,
    against the whole-array formulas bit for bit."""

    @pytest.fixture
    def block(self, monkeypatch):
        """Set the block size, in values, of both modules' reductions."""
        def set_block(values):
            monkeypatch.setattr(trajectory_data, "_BLOCK_VALUES", values)
            monkeypatch.setattr(bounds, "_BLOCK_VALUES", values)
        return set_block

    @pytest.mark.parametrize("runs, horizon, n, m", [
        # One step: numpy's axis-0 mean of the dispersions is pairwise there.
        (9, 1, 3, 2), (17, 1, 2, 1), (40, 1, 5, 3),
        # Two runs of one state component.
        (2, 6, 1, 1), (2, 1, 1, 1),
    ])
    def test_small_shapes(self, runs, horizon, n, m):
        rng = np.random.default_rng(runs * 100 + horizon)
        assert_whole_array_bits(random_ensemble(rng, runs, horizon, n, m),
                                random_ensemble(rng, runs, horizon, n, m))

    @pytest.mark.parametrize("runs, n, m, values", [(5, 3, 2, 60), (3, 4, 1, 37),
                                                   (8, 8, 1, None)])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_horizon_next_to_a_step_block(self, block, runs, n, m, values, offset):
        # values None keeps the module's block size: 1024 steps of 8 runs
        # of 8 states.
        if values is not None:
            block(values)
        step = trajectory_data._BLOCK_VALUES // (runs * n)
        assert step > 1
        rng = np.random.default_rng(step + offset)
        assert_whole_array_bits(random_ensemble(rng, runs, step + offset, n, m),
                                random_ensemble(rng, runs, step + offset, n, m))

    def test_random_shapes_and_blocks(self, block):
        rng = np.random.default_rng(28)
        for _ in range(150):
            runs, horizon = int(rng.integers(2, 41)), int(rng.integers(1, 9))
            n, m = (int(v) for v in rng.integers(1, 6, size=2))
            block(int(rng.integers(1, 400)))
            assert_whole_array_bits(random_ensemble(rng, runs, horizon, n, m),
                                    random_ensemble(rng, runs, horizon, n, m))

    def test_grouped_views(self, block):
        # The per-group ensembles of one rollout are views of its arrays.
        config = LinearSurrogateConfig(A=[[0.9, 0.1], [0.0, 0.5]], F=[[1.0, -1.0]],
                                       x0_mean=[1.0, 1.0], noise_std=0.02)
        w = generate_disturbance(DisturbanceSpec("scaled_gaussian_projected", 0.5, 300, 3, 2))
        for values in (None, 50):
            if values is not None:
                block(values)
            rollout = linear_ensemble(config, 300, 12, 7, disturbance=(None, w, 2 * w))
            nominal, disturbed, doubled = split_groups(rollout, 3)
            assert nominal.states.base is not None
            assert_whole_array_bits(nominal, disturbed)
            assert_whole_array_bits(doubled, nominal)


class TestVerifyMemory:
    """Verify's reductions hold a run or a block of steps, not a copy of a
    group: traced peaks on two groups of a wide rollout, R=24, K=1000,
    n=42, whose states take 7.7 MiB each."""

    @pytest.fixture(scope="class")
    def rollout(self):
        rng = np.random.default_rng(9)
        n, m = 42, 4
        config = LinearSurrogateConfig(A=0.5 * np.eye(n), F=rng.uniform(-0.5, 0.5, (m, n)),
                                       x0_mean=rng.standard_normal(n), noise_std=1e-3)
        w = 1e-3 * rng.standard_normal((1000, n))
        model = true_model(config.A, config.F)
        certified_gain(model)
        rollout = linear_ensemble(config, 1000, 24, 0, disturbance=(None, w))
        verify_bounds(*split_groups(rollout, 2), model, 1.0, 0.9, 1.0)  # caches
        return rollout, model

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ensemble_mean(self, rollout):
        # A transposed copy of the group took 8.0 MiB.
        group = split_groups(rollout[0], 2)[1]
        assert self.traced_peak(ensemble_mean, group) <= 2 * 2**20

    def test_dispersion(self, rollout):
        # The differences, their conjugate copy and their squares took
        # 16.1 MiB with the mean.
        group = split_groups(rollout[0], 2)[1]
        assert self.traced_peak(estimate_Q, group) <= 2 * 2**20

    def test_verify_bounds(self, rollout):
        # 16.45 MiB when each reduction held a copy of a group.
        nominal, disturbed = split_groups(rollout[0], 2)
        peak = self.traced_peak(verify_bounds, nominal, disturbed, rollout[1], 1.0, 0.9, 1.0)
        assert peak <= 4 * 2**20


def true_model(a, f):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    f = np.atleast_2d(np.asarray(f, dtype=float))
    return KoopmanModel(state_operator=a, action_operator=f)


def run_verify(config, disturbance, gamma, gamma_d=0.9, runs=1, lipschitz=NORM_PENALTY_LIPSCHITZ,
               model=None):
    """verify_bounds on `runs` runs of the surrogate over the disturbance's
    horizon, seeded from 0, with the surrogate's analytic L unless another
    is given, against `model` or else the surrogate's own operators."""
    horizon = len(disturbance)
    nominal = linear_ensemble(config, horizon, runs, 0)
    disturbed = linear_ensemble(config, horizon, runs, 0, disturbance=disturbance)
    report, _ = verify_bounds(
        nominal,
        disturbed,
        model or true_model(config.A, config.F),
        gamma,
        gamma_d,
        lipschitz,
    )
    return report


class TestCertifiedGain:
    def test_action_gain_is_spectral_norm(self):
        model = KoopmanModel(np.diag([0.5, -0.8]), np.diag([3.0, 4.0]))
        assert certified_gain(model).kf_hinf == 4.0

    def test_action_operator_validated(self):
        # The model's constructor refuses a malformed operator, naming it, so
        # no gain is ever computed for one.
        refused = [
            (DimensionMismatchError, "action_operator", np.diag([0.5, 0.5, 0.5]), np.ones(3)),
            (DimensionMismatchError, "state_operator", np.ones((2, 3)), np.ones((1, 3))),
            (DimensionMismatchError, "action_operator", np.eye(2), np.ones((1, 3))),
            (DataError, "action_operator", np.array([[0.5]]), np.array([[np.inf]])),
            (DataError, "action_operator", np.array([[0.5]]), np.array([[np.nan]])),
            (DataError, "state_operator", np.array([[np.nan]]), np.array([[1.0]])),
            (DataError, "state_operator", np.array([[-np.inf]]), np.array([[1.0]])),
        ]
        for error, field, kh, kf in refused:
            with pytest.raises(error, match=field):
                certified_gain(KoopmanModel(kh, kf))


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
        assert abs(report.bounds["state_energy_bound"] - 4.0) <= 1e-9
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

    @pytest.mark.parametrize("lipschitz", [math.inf, 0.5])
    def test_infinite_l_flagged(self, lipschitz):
        # A reward with no finite Lipschitz constant caps no reward bound,
        # and the report says why; a finite L leaves both caps finite.
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[1.0]]),
            x0_mean=np.array([2.0]), noise_std=0.05,
        )
        report = run_verify(config, np.zeros((10, 1)), gamma=0.0, runs=3, lipschitz=lipschitz)
        bounds = report.bounds
        caps = (bounds["reward_impact_bound"], bounds["generalization_error_bound"])
        assert report.inputs.L == lipschitz and report.inputs.Q > 0.0
        assert all(math.isinf(cap) == math.isinf(lipschitz) for cap in caps)
        assert ("reward-not-lipschitz" in report.flags) == math.isinf(lipschitz)
        assert "q-from-disturbed-rollouts" in report.flags
        assert report.to_dict()["l_source"] == "analytic"

    def test_single_run_dispersion_flag(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[1.0]]),
            x0_mean=np.array([2.0]),
        )
        report = run_verify(config, np.zeros((10, 1)), gamma=0.0)
        assert "single-run-dispersion-unavailable" in report.flags
        assert report.inputs.Q == 0.0

    @pytest.mark.parametrize("runs", [(1, 4), (4, 1)])
    def test_single_run_on_either_side_flagged(self, runs):
        # One run of either ensemble has no dispersion about its mean: its
        # Q or C reads 0 and the report says why, not a plausible 0.
        config = LinearSurrogateConfig(A=np.array([[0.5]]), F=np.array([[1.0]]),
                                       x0_mean=np.array([2.0]), noise_std=0.05)
        nominal, disturbed = (linear_ensemble(config, 10, r, 0, disturbance=d)
                              for r, d in zip(runs, (None, np.zeros((10, 1)))))
        report, _ = verify_bounds(nominal, disturbed, true_model(config.A, config.F), 0.0, 0.9,
                                  lipschitz=NORM_PENALTY_LIPSCHITZ)
        assert "single-run-dispersion-unavailable" in report.flags
        assert ("q-from-disturbed-rollouts" in report.flags) == (runs[1] > 1)
        assert (report.inputs.C > 0.0, report.inputs.Q > 0.0) == (runs[0] > 1, runs[1] > 1)

    @pytest.mark.parametrize("kh, flags", [
        (np.diag([1.0 - 5e-7, 0.5]), ["ill-conditioned-resolvent", "q-from-disturbed-rollouts"]),
        (1.01 * np.eye(2), ["unstable-state-operator", "q-from-disturbed-rollouts"]),
    ], ids=["pole-near-circle", "pole-outside-circle"])
    def test_gain_flags(self, kh, flags):
        # A gain dominated by a pole 5e-7 inside the unit circle is flagged,
        # and a model with a pole outside it has no finite gain.
        config = LinearSurrogateConfig(A=0.5 * np.eye(2), F=np.ones((1, 2)), x0_mean=np.ones(2),
                                       noise_std=0.05)
        report = run_verify(config, np.zeros((10, 2)), gamma=0.0, runs=2,
                            model=true_model(kh, np.ones((1, 2))))
        assert list(report.flags) == flags

    def test_report_round_trip(self, tmp_path):
        # A stable surrogate, an unstable one (A = 1: T and every bound
        # infinite) and one checked against a model that understates its gain
        # (A = 0.9 against Kh = 0: violations) all reload as the same report,
        # which saves to the bytes it was read from.
        from koopbound import load_report, save_report

        w = generate_disturbance(
            DisturbanceSpec(kind="impulse", gamma=0.5, horizon=12, seed=0, dim=1)
        )
        for a, kh in ((0.5, 0.5), (1.0, 1.0), (0.9, 0.0)):
            config = LinearSurrogateConfig(
                A=np.array([[a]]), F=np.array([[1.0]]),
                x0_mean=np.array([1.0]),
            )
            report = run_verify(config, w, gamma=0.5, model=true_model(kh, 1.0))
            assert math.isinf(report.inputs.T_hinf) == (a == 1.0)
            assert bool(report.violations) == (a != kh)
            path, again = tmp_path / f"report_{a}.json", tmp_path / f"again_{a}.json"
            save_report(report, path, label="scalar")
            loaded, label = load_report(path)
            assert label == "scalar"
            assert loaded == report and loaded.violations == report.violations
            save_report(loaded, again, label=label)
            assert again.read_bytes() == path.read_bytes()
            if a == 1.0:
                text = path.read_text()
                assert '"T_hinf": "inf"' in text and '"reward_impact_bound": "inf"' in text

    @pytest.mark.parametrize("gamma", [np.float32(0.5), np.int64(1)], ids=["float32", "int64"])
    def test_numpy_scalar_gamma_round_trip(self, tmp_path, gamma):
        # A numpy gamma was kept as given: the report file stopped after
        # '"M": ' with a TypeError, or held bounds of float32 arithmetic.
        from koopbound import load_report, save_report

        config = LinearSurrogateConfig(A=0.5 * np.eye(2), F=np.ones((1, 2)), x0_mean=np.ones(2))
        ensemble = linear_ensemble(config, 3, 2, 0)
        report, _ = verify_bounds(ensemble, ensemble, true_model(config.A, config.F), gamma,
                                  0.9, lipschitz=1.0)
        inputs = report.inputs
        assert all(type(getattr(inputs, name)) is float for name in BoundInputs.__annotations__)
        assert inputs.gamma == gamma and report.bounds["M"] == inputs.T_hinf * float(gamma)
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded, _ = load_report(path)
        assert loaded == report and loaded.bounds == report.bounds


class TestPerStepTable:
    def test_dimension_mismatch_refused(self):
        config = LinearSurrogateConfig(A=0.5 * np.eye(2), F=np.ones((1, 2)), x0_mean=np.ones(2))
        narrow = LinearSurrogateConfig(A=np.array([[0.5]]), F=np.ones((1, 1)),
                                       x0_mean=np.ones(1))
        wide, thin = linear_ensemble(config, 5, 2, 0), linear_ensemble(narrow, 5, 2, 0)
        with pytest.raises(DimensionMismatchError, match="disturbed ensemble"):
            per_step_table(wide, thin)

    # SHA-256 of the steps file, recorded with the per-value writer the
    # one-f-string-per-row writer replaced, on x86-64 with AVX-512, numpy 2.4
    # and OpenBLAS 0.3.31.  The bytes depend on the platform's float kernels
    # through the rollouts.
    DIGESTS = {
        "linear": "c1936011d05b2aa2a2011638ca135086bdbf4c00bf869b1781be9ddde574dcef",
        "uav": "f3f6319b425cc8f6e4f052ad46f9b1febf31445f7d2c1724e411862ac7114333",
    }

    @pytest.mark.parametrize("env", ["linear", "uav"])
    def test_steps_file_pinned(self, tmp_path, env):
        if env == "linear":
            config = LinearSurrogateConfig(
                A=np.array([[0.9, 0.1, 0.0], [-0.2, 0.8, 0.1], [0.0, 0.3, 0.5]]),
                F=np.array([[1.0, -1.0, 0.5], [0.2, 0.0, -0.4]]),
                x0_mean=np.array([1.0, -2.0, 0.5]), noise_std=0.05)
            w = np.random.default_rng(4).normal(scale=0.1, size=(50, 3))
            rollouts = [linear_ensemble(config, 50, 3, 7, disturbance=d) for d in (None, w)]
        else:
            config = UavEnvConfig(area_x=50.0, area_y=50.0, gu_count=12, altitude=20.0,
                                  coverage_radius=25.0, gu_mean_speed=10.0)
            w = np.random.default_rng(3).normal(scale=2.0, size=(60, config.n))
            rollouts = [uav_ensemble(config, "lagged_centroid", 60, 3, 1009, disturbance=d)
                        for d in (None, w)]
        path = tmp_path / "steps.csv"
        write_per_step_table(per_step_table(*rollouts), path)
        lines = path.read_text().splitlines()
        assert lines[-1].endswith(",,,") and len(lines) == rollouts[0].horizon + 2
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[env]


class TestJsonCodec:
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_write_json_refuses_non_finite(self, tmp_path, bad):
        from koopbound._jsonio import write_json

        path = tmp_path / "doc.json"
        with pytest.raises(DataError, match=r"rows\[1\]\.M"):
            write_json({"rows": [{"M": 1.0}, {"M": bad}], "T": float("inf")}, path)
        assert not path.exists()

    def test_write_json_unencodable_writes_nothing(self, tmp_path):
        # json.dump stopped at the value after opening the file, leaving
        # '{\n  "M": ' behind.
        from koopbound._jsonio import write_json

        path = tmp_path / "doc.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json({"M": 1j, "N": 1.0}, path)
        assert not path.exists()

    # One bad cell inside a nested list.  Lists that cannot hold one are not
    # walked, so these pin the walk's results: as_numbers refuses a cell that
    # is no number, showing the value abridged, and leaves NaN and -inf to
    # its caller; write_json writes true, a string and a huge int as they
    # are, and refuses NaN and -inf naming the cell.
    BAD_CELLS = [
        (True, "[[1.0, 2.0], [3.0, True]]", "true"),
        ("1.0", "[[1.0, 2.0], [3.0, '1.0']]", '"1.0"'),
        (10**400, "[[1.0, 2.0], [3.0, 100000000000000000...0000000000000000000]]", "1" + "0" * 400),
        (float("nan"), None, "rows[1][1] is nan, which has no JSON encoding"),
        (float("-inf"), None, "rows[1][1] is -inf, which has no JSON encoding"),
    ]

    @pytest.mark.parametrize("bad, shown, _", BAD_CELLS)
    def test_as_numbers_bad_cell(self, bad, shown, _):
        from koopbound._jsonio import as_numbers

        node = [[1.0, 2.0], [3.0, bad]]
        if shown is None:
            cells = as_numbers(node, "linear.A")
            assert cells.dtype == float and cells.tobytes() == np.array(node).tobytes()
        else:
            with pytest.raises(SchemaError) as excinfo:
                as_numbers(node, "linear.A")
            assert str(excinfo.value) == ("linear.A must be a list of numbers or of equally "
                                          f"long lists of them, got {shown}")

    @pytest.mark.parametrize("bad, _, written", BAD_CELLS)
    def test_write_json_bad_cell(self, tmp_path, bad, _, written):
        from koopbound._jsonio import write_json

        path = tmp_path / "doc.json"
        doc = {"rows": [[1.0, 2], [3.0, bad]], "x": [[0.5, float("inf")]]}
        if written.startswith("rows"):
            with pytest.raises(DataError) as excinfo:
                write_json(doc, path)
            assert str(excinfo.value) == written and not path.exists()
        else:
            write_json(doc, path)
            assert path.read_text() == (
                '{\n  "rows": [\n    [\n      1.0,\n      2\n    ],\n    [\n      3.0,\n'
                f'      {written}\n    ]\n  ],\n  "x": [\n    [\n      0.5,\n      "inf"\n'
                '    ]\n  ]\n}\n')
