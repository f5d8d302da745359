"""Linear surrogate and UAV coverage environment."""

import hashlib
import math
import tracemalloc
from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopbound import (
    POLICY_KINDS,
    DimensionMismatchError,
    LinearSurrogateConfig,
    ParameterError,
    UavEnvConfig,
    fit_koopman_model,
    linear_ensemble,
    uav_ensemble,
)
from koopbound import cli, env_sim
from koopbound.env_sim import (
    FAIRNESS_MODES,
    NORM_PENALTY_LIPSCHITZ,
    ScriptedPolicy,
    _channel,
    _lane_draws,
    _rewards,
    _serve_mask,
    _spectral_efficiency,
    _step_gu_arrays,
    _sure_count,
    norm_penalty_reward,
    split_groups,
)


# Compact-area UAV environment of the two-policy ordering acceptance test.
COMPACT_UAV = dict(area_x=50.0, area_y=50.0, gu_count=12, altitude=20.0,
                   coverage_radius=25.0, gu_mean_speed=10.0)


class Run(NamedTuple):
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    seed: int


def run_of(ensemble, r=0):
    """Run r of an ensemble."""
    return Run(ensemble.states[r], ensemble.actions[r], ensemble.rewards[r],
               int(ensemble.seeds[r]))


def linear_run(config, horizon, disturbance=None, seed=0):
    """The single run of a one-lane linear ensemble."""
    return run_of(linear_ensemble(config, horizon, runs=1, master_seed=seed,
                                  disturbance=disturbance))


def uav_run(config, kind, horizon, seed, disturbance=None):
    """The single run of a one-lane UAV ensemble with the given seed."""
    return run_of(uav_ensemble(
        config, kind, horizon, runs=1, master_seed=seed, disturbance=disturbance
    ))


def step_gu(config, speed, heading, rng, x=50.0, y=50.0):
    """One step of one ground user in one lane: (x, y, speed, heading)."""
    crowd = np.array([[[[x, y]]], [[[np.nan, np.nan]]]])
    speeds, headings = np.array([[speed]]), np.array([[heading]])
    _step_gu_arrays(crowd, speeds, headings, config, _lane_draws([rng], 1, 1, config)(1))
    return (*crowd[1, 0, 0], speeds[0, 0], headings[0, 0])


def serve_mask(uav_xy, gu_xy, config):
    """_serve_mask of (R, 2) UAV and (R, J, 2) user positions."""
    return _serve_mask(uav_xy, gu_xy, config, _sure_count(config))


def serve(uav_xy, gu_positions, config):
    """Service indicators (0/1) of one lane."""
    mask = serve_mask(
        np.asarray(uav_xy, dtype=float)[None], np.asarray(gu_positions, dtype=float)[None],
        config,
    )
    return mask[0].astype(int)


def lane_waypoint(policy, uav_xy, gu_positions):
    """Next waypoint of one lane."""
    uav = np.asarray(uav_xy, dtype=float)[None]
    gus = np.asarray(gu_positions, dtype=float)[None]
    return policy.waypoint_arrays(uav, gus, serve_mask(uav, gus, policy.config))[0]


def waypoint(uav_xy, gu_positions, config, kind):
    """Next waypoint of one lane from a fresh policy."""
    return lane_waypoint(ScriptedPolicy(kind, config), uav_xy, gu_positions)


def rate(bandwidth_hz, h_g, config):
    """Achievable rate in bits/s of channel h_g over bandwidth_hz."""
    return bandwidth_hz * _spectral_efficiency(h_g, config)


def fairness(s, mode):
    """Fairness of the 0/1 service indicators s: the reward of a config that
    weights fairness alone."""
    s = np.asarray(s, dtype=bool)
    config = UavEnvConfig(gu_count=s.shape[-1], coverage_weight=0.0, speed_penalty=0.0,
                          fairness_mode=mode)
    return _rewards(s, np.zeros(s.shape[:-1], dtype=bool), config)


class TestLinearRollout:
    def test_nilpotent(self):
        config = LinearSurrogateConfig(
            A=np.zeros((2, 2)), F=np.zeros((1, 2)),
            x0_mean=np.array([3.0, -1.0]),
        )
        t = linear_run(config, 3)
        assert np.array_equal(t.states[0], [3.0, -1.0])
        assert not np.any(t.states[1:])

    def test_repeated_halving(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[1.0]]),
            x0_mean=np.array([8.0]),
        )
        t = linear_run(config, 3)
        assert np.allclose(t.states.ravel(), [8.0, 4.0, 2.0, 1.0])
        assert np.allclose(t.actions.ravel(), [8.0, 4.0, 2.0])

    def test_impulse_response(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[1.0]]),
            x0_mean=np.array([0.0]),
        )
        w = np.zeros((4, 1))
        w[0, 0] = 1.0
        t = linear_run(config, 4, disturbance=w)
        assert np.allclose(t.states.ravel(), [0.0, 1.0, 0.5, 0.25, 0.125])

    def test_default_reward_formula(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[2.0]]),
            x0_mean=np.array([4.0]),
        )
        t = linear_run(config, 1)
        # x1 = 2, u0 = 8: reward is -|x1| - 0.1|u0| = -2.8
        assert np.isclose(t.rewards[0], -2.8)

    def test_determinism_with_noise(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.9, 0.1], [0.0, 0.5]]), F=np.array([[1.0, 1.0]]),
            x0_mean=np.array([1.0, 1.0]), noise_std=0.3,
        )
        t1, t2 = linear_run(config, 25, seed=42), linear_run(config, 25, seed=42)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.rewards, t2.rewards)

    def test_disturbance_shape_checked(self):
        config = LinearSurrogateConfig(
            A=np.array([[0.5]]), F=np.array([[1.0]]),
            x0_mean=np.array([1.0]),
        )
        with pytest.raises(DimensionMismatchError):
            linear_run(config, 4, disturbance=np.zeros((3, 1)))
        with pytest.raises(DimensionMismatchError):
            linear_run(config, 4, disturbance=(None, np.zeros((3, 1))))
        with pytest.raises(ParameterError):
            linear_run(config, 4, disturbance=())
        with pytest.raises(ParameterError, match="horizon"):
            linear_run(config, 0)

    def test_ground_truth_recovery(self):
        # Noiseless rollouts let the fitting stage recover A and F exactly.
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3))
        a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
        f = rng.normal(size=(2, 3))
        config = LinearSurrogateConfig(
            A=a, F=f, x0_mean=rng.normal(size=3),
        )
        model = fit_koopman_model(linear_ensemble(config, 40, runs=1, master_seed=0))
        assert np.linalg.norm(model.state_operator - a) <= 1e-6 * np.linalg.norm(a)
        assert np.linalg.norm(model.action_operator - f) <= 1e-6 * np.linalg.norm(f)


class TestGuMotion:
    def test_full_memory_keeps_speed(self):
        config = UavEnvConfig(gu_speed_memory=1.0, gu_speed_std=0.0)
        _, _, speed, _ = step_gu(config, 7.0, 0.0, np.random.default_rng(0))
        assert speed == 7.0

    def test_full_reversion_hits_mean(self):
        config = UavEnvConfig(gu_speed_memory=0.0, gu_speed_std=0.0)
        _, _, speed, _ = step_gu(config, 9.0, 0.0, np.random.default_rng(0))
        assert speed == config.gu_mean_speed

    def test_ar_fixed_point(self):
        config = UavEnvConfig(gu_speed_memory=0.5, gu_speed_std=0.0, gu_mean_speed=3.0)
        _, _, speed, _ = step_gu(config, 3.0, 0.5, np.random.default_rng(0))
        assert speed == 3.0

    def test_speed_clamped_at_zero(self):
        config = UavEnvConfig(gu_speed_memory=0.0, gu_speed_std=50.0, gu_mean_speed=3.0)
        rng = np.random.default_rng(3)
        speeds = [step_gu(config, 3.0, 0.0, rng)[2] for _ in range(50)]
        assert min(speeds) >= 0.0

    def test_reflection_keeps_position_inside(self):
        config = UavEnvConfig(gu_keep_direction=1.0, gu_speed_std=0.0,
                              gu_mean_speed=30.0, step_seconds=1.0)
        x, _, _, heading = step_gu(config, 30.0, 0.0, np.random.default_rng(0), x=99.0)
        # 99 + 30 folds back to 71, heading flips towards -x.
        assert np.isclose(x, 71.0)
        assert 0.0 <= x <= config.area_x
        assert np.isclose(math.cos(heading), -1.0)


def gu_step_reference(x, y, speed, heading, z, keep, fresh, config):
    """One ground user's step in Python floats from its standard draws z
    (normal), keep and fresh (uniform): the rule _step_gu_arrays follows.

    A wall crossing mirrors the coordinate and turns the heading, repeated
    until the coordinate is inside; all x reflections come before the y ones.
    cos and sin are numpy's, whose SIMD kernels round unlike math's.
    """
    h1 = config.gu_speed_memory
    speed = max(0.0, h1 * speed + (1.0 - h1) * config.gu_mean_speed + config.gu_speed_std * z)
    if keep < config.gu_keep_direction:
        heading = heading + config.gu_turn_bias
    else:
        heading = 2.0 * math.pi * fresh
    stride = config.step_seconds * speed
    x += stride * float(np.cos(np.array([heading]))[0])
    y += stride * float(np.sin(np.array([heading]))[0])
    while x < 0.0 or x > config.area_x:
        x = -x if x < 0.0 else 2.0 * config.area_x - x
        heading = math.pi - heading
    while y < 0.0 or y > config.area_y:
        y = -y if y < 0.0 else 2.0 * config.area_y - y
        heading = -heading
    return x, y, speed, heading % (2.0 * math.pi)


def user_states(size):
    """(x, y, speed, heading, z, keep, fresh) of `size` users in a unit area."""
    unit = st.floats(0.0, 1.0)
    user = st.tuples(unit, unit, st.floats(0.0, 60.0), st.floats(0.0, 2.0 * math.pi),
                     st.floats(-4.0, 4.0), unit, st.floats(0.0, 1.0, exclude_max=True))
    return st.lists(user, min_size=size, max_size=size)


class TestGuReflection:
    # A 1 m wide area crossed at up to 60 m/s in 1 s steps: a user's step
    # folds many times, often through a corner.
    CONFIG = dict(area_x=1.0, gu_mean_speed=30.0, step_seconds=1.0)

    @given(users=user_states(6), keep_direction=st.floats(0.0, 1.0),
           turn_bias=st.floats(-math.pi, math.pi), area_y=st.sampled_from([1.0, 0.7, 2.5]))
    @example(users=[(0.999, 0.998, 30.0, math.pi / 4, 0.0, 0.0, 0.0)] * 6,
             keep_direction=1.0, turn_bias=0.0, area_y=1.0)
    @settings(max_examples=300, deadline=None)
    def test_step_matches_scalar_reference(self, users, keep_direction, turn_bias, area_y):
        config = UavEnvConfig(**self.CONFIG, area_y=area_y, gu_keep_direction=keep_direction,
                              gu_turn_bias=turn_bias)
        x, y, speed, heading, z, keep, fresh = (np.array(v).reshape(2, 3) for v in zip(*users))
        pos = np.stack((x, np.minimum(y, area_y)), axis=-1)
        draws = np.stack((z, keep, fresh), axis=1)
        crowd = np.stack((pos, np.full(pos.shape, np.nan)))
        speeds, headings = speed.copy(), heading.copy()
        _step_gu_arrays(crowd, speeds, headings, config, draws[None])
        got = np.stack((crowd[1, ..., 0], crowd[1, ..., 1], speeds, headings), axis=-1)
        for lane, user in np.ndindex(2, 3):
            expected = gu_step_reference(*pos[lane, user], speed[lane, user],
                                         heading[lane, user], *draws[lane, :, user], config)
            assert got[lane, user].tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("turn_bias", [0.0, 0.4])
    def test_chunk_matches_scalar_reference(self, turn_bias):
        # Six steps at once of two groups of two lanes, which share each
        # lane's draws and speeds; the second group's users are moved by a
        # disturbance, clamped to the area, after every step.
        config = UavEnvConfig(**self.CONFIG, area_y=2.5, gu_turn_bias=turn_bias)
        rng = np.random.default_rng(12)
        steps, runs, users = 6, 2, 3
        draws = np.stack((rng.standard_normal((steps, runs, users)),
                          rng.random((steps, runs, users)), rng.random((steps, runs, users))),
                         axis=2)
        w = rng.normal(scale=0.8, size=(steps, users, 2))
        crowd = np.full((steps + 1, 2 * runs, users, 2), np.nan)
        crowd[0] = rng.random((2 * runs, users, 2)) * (1.0, 2.5)
        speeds = rng.random((runs, users)) * 60.0
        headings = rng.random((2 * runs, users)) * 2.0 * math.pi
        expected = [[(*crowd[0, lane, user], speeds[lane % runs, user], headings[lane, user])
                     for user in range(users)] for lane in range(2 * runs)]
        _step_gu_arrays(crowd, speeds, headings, config, draws, [(slice(runs, None), w)])
        for k, lane, user in np.ndindex(steps, 2 * runs, users):
            x, y, speed, heading = gu_step_reference(*expected[lane][user],
                                                     *draws[k, lane % runs, :, user], config)
            if lane >= runs:
                x = min(max(0.0, x + w[k, user, 0]), config.area_x)
                y = min(max(0.0, y + w[k, user, 1]), config.area_y)
            expected[lane][user] = x, y, speed, heading
            assert crowd[k + 1, lane, user].tolist() == [x, y]
        for lane, user in np.ndindex(2 * runs, users):
            _, _, speed, heading = expected[lane][user]
            assert speeds[lane % runs, user] == speed and headings[lane, user] == heading
        clamped = (crowd[1:, runs:] == 0.0) | (crowd[1:, runs:] == (1.0, 2.5))
        assert clamped.any()

    @pytest.mark.parametrize("heading", [
        2.0 * math.pi, math.nextafter(2.0 * math.pi, 0.0), 0.0, -0.0, -1e-300, -5e-324,
        -2.0 * math.pi, 4.0 * math.pi, 7.0, -3.0])
    def test_kept_heading_at_the_wrap_edges(self, heading):
        # A kept heading at or past the edges of [0, 2 pi) is wrapped as
        # np.remainder wraps it; one inside is kept as it is.
        config = UavEnvConfig(gu_keep_direction=1.0)
        draws = np.array([[[[0.3], [0.5], [0.2]]]])
        crowd = np.array([[[[50.0, 50.0]]], [[[np.nan, np.nan]]]])
        speeds, headings = np.array([[3.0]]), np.array([[heading]])
        _step_gu_arrays(crowd, speeds, headings, config, draws)
        got = np.array([*crowd[1, 0, 0], speeds[0, 0], headings[0, 0]])
        expected = gu_step_reference(50.0, 50.0, 3.0, heading, 0.3, 0.5, 0.2, config)
        assert got.tobytes() == np.array(expected).tobytes()
        assert headings[0, 0] == np.remainder(heading, 2.0 * math.pi)


class TestLinkBudget:
    def test_no_absorption_factor_is_one(self):
        config = UavEnvConfig(absorption=0.0)
        loss_a = _channel(50.0, config)
        config_abs = UavEnvConfig(absorption=0.01)
        loss_b = _channel(50.0, config_abs)
        assert loss_b == pytest.approx(loss_a * math.exp(-0.25))

    def test_inverse_distance_law(self):
        config = UavEnvConfig(absorption=0.0)
        assert _channel(100.0, config) == pytest.approx(_channel(50.0, config) / 2.0)

    def test_spot_value_30ghz_50m(self):
        config = UavEnvConfig(absorption=0.0, gain_uav=1.0, gain_gu=1.0,
                              frequency_hz=30e9)
        assert _channel(50.0, config) == pytest.approx(1.59e-5, rel=1e-3)

    def test_zero_channel_zero_rate(self):
        assert rate(20e6, 0.0, UavEnvConfig()) == 0.0

    def test_unit_snr_gives_bandwidth(self):
        config = UavEnvConfig()
        h = math.sqrt(config.noise_watt / config.power_watt)
        assert rate(20e6, h, config) == pytest.approx(20e6)

    def test_spot_value_63_mbps(self):
        config = UavEnvConfig()  # P = 0.2512 W, N0 = -85 dBm
        assert abs(rate(20e6, 1e-5, config) - 63.2e6) <= 0.1e6

    def test_rate_decreasing_in_distance(self):
        config = UavEnvConfig()
        distances = np.linspace(10.0, 120.0, 40)
        rates = rate(config.bandwidth_hz, _channel(distances, config), config)
        assert np.all(np.diff(rates) < 0)


class TestServeSet:
    def test_empty_when_out_of_range(self):
        s = serve([0.0, 0.0], [[90.0, 90.0]], UavEnvConfig())
        assert not np.any(s)

    def test_single_gu_below_uav_served(self):
        s = serve([50.0, 50.0], [[50.0, 50.0]], UavEnvConfig(gu_count=1))
        assert s.tolist() == [1]

    def test_far_gu_does_not_change_others(self):
        config = UavEnvConfig(gu_count=2)
        s_near = serve([50.0, 50.0], [[50.0, 50.0], [55.0, 50.0]], config)
        config3 = UavEnvConfig(gu_count=3)
        s_with = serve([50.0, 50.0], [[50.0, 50.0], [55.0, 50.0], [0.0, 99.0]], config3)
        assert s_with[2] == 0
        assert s_with[:2].tolist() == s_near.tolist()

    def test_fixed_point_rates_satisfy_floor(self):
        # Every served user meets the rate floor under the final equal split.
        rng = np.random.default_rng(9)
        config = UavEnvConfig()
        for _ in range(20):
            uav = rng.uniform(0, 100, size=2)
            gus = rng.uniform(0, 100, size=(config.gu_count, 2))
            s = serve(uav, gus, config)
            count = int(s.sum())
            if count == 0:
                continue
            d3 = np.sqrt(np.sum((gus - uav) ** 2, axis=1) + config.altitude**2)
            share = config.bandwidth_hz / count
            for j in np.flatnonzero(s):
                assert d3[j] <= config.coverage_radius
                assert rate(share, _channel(d3[j], config), config) >= config.min_rate

    def test_lanes_match_single_lane(self):
        # Lanes that need different numbers of drop passes, masked together,
        # give each lane's own mask.
        rng = np.random.default_rng(10)
        config = UavEnvConfig(min_rate=400e6)
        uav = rng.uniform(0, 100, size=(40, 2))
        gus = rng.uniform(0, 100, size=(40, config.gu_count, 2))
        batch = serve_mask(uav, gus, config).astype(int)
        assert len({int(row.sum()) for row in batch}) > 3
        for r in range(len(uav)):
            assert batch[r].tolist() == serve(uav[r], gus[r], config).tolist()


def drop_loop_mask(uav_xy, gu_xy, config):
    """The service mask by the full link budget and drop passes, with no
    shortcut: the rule _serve_mask follows."""
    diff = gu_xy - uav_xy[:, None, :]
    d3 = np.sqrt((diff * diff).sum(axis=-1) + config.altitude**2)
    efficiency = _spectral_efficiency(_channel(d3, config), config)
    active = d3 <= config.coverage_radius
    while True:
        share = config.bandwidth_hz / np.maximum(active.sum(axis=1), 1)
        drop = active & ~(share[:, None] * efficiency >= config.min_rate)
        if not drop.any():
            return active
        active &= ~drop


# Configs where covered users are dropped, and the compact one, where the
# link budget never drops one.
SHORTCUT_CONFIGS = (dict(gu_count=40, min_rate=400e6), dict(), dict(absorption=0.01),
                    COMPACT_UAV)


class TestServeShortcut:
    @pytest.mark.parametrize("absorption", [0.0, 0.01, 0.2])
    @pytest.mark.parametrize("area", [dict(), dict(altitude=20.0, coverage_radius=25.0)])
    def test_edge_efficiency_is_the_least(self, absorption, area):
        # Every distance a covered user can have, from straight below the UAV
        # out to the coverage radius, gets at least the edge efficiency up to
        # half the slack: with a share that clears the floor by (1 + slack),
        # (1 + slack)(1 - slack / 2) > 1 leaves room for the product's
        # rounding.  Array and scalar paths of log2 and exp both count.
        config = UavEnvConfig(**area, absorption=absorption)
        edge = _spectral_efficiency(_channel(config.coverage_radius, config), config)
        least = edge * (1.0 - env_sim._RATE_SLACK / 2)
        d = np.linspace(config.altitude, config.coverage_radius, 200_001)
        assert _spectral_efficiency(_channel(d, config), config).min() >= least
        for x in d[::100].tolist():
            assert _spectral_efficiency(_channel(x, config), config) >= least

    # Beside the shortcut configs: a bandwidth whose product with the edge
    # efficiency overflows, a floor nobody clears, a channel that underflows.
    @pytest.mark.parametrize("config", SHORTCUT_CONFIGS + (
        dict(bandwidth_hz=1e308), dict(min_rate=1e300), dict(absorption=50.0)))
    def test_sure_count_is_the_largest_sure_share(self, config):
        config = UavEnvConfig(**config)
        sure = _sure_count(config)
        edge = _spectral_efficiency(_channel(config.coverage_radius, config), config)
        floor = config.min_rate * (1.0 + env_sim._RATE_SLACK)
        assert 0 <= sure <= config.gu_count
        assert sure == 0 or config.bandwidth_hz / sure * edge >= floor
        assert sure == config.gu_count or config.bandwidth_hz / (sure + 1) * edge < floor

    @pytest.mark.parametrize("config", SHORTCUT_CONFIGS)
    def test_matches_drop_loop(self, config):
        # Random positions in batches of 1 and 8 lanes, where the shortcut
        # fires and where it cannot, give the full drop loop's mask.
        config = UavEnvConfig(**config)
        rng = np.random.default_rng(44)
        area = np.array([config.area_x, config.area_y])
        fired = dropped = 0
        for lanes in [1] * 150 + [8] * 50:
            uav = rng.random((lanes, 2)) * area
            gus = rng.random((lanes, config.gu_count, 2)) * area
            got = serve_mask(uav, gus, config)
            want = drop_loop_mask(uav, gus, config)
            assert got.tobytes() == want.tobytes()
            diff = gus - uav[:, None, :]
            covered = np.sqrt((diff * diff).sum(axis=-1) + config.altitude**2)
            covered = covered <= config.coverage_radius
            fired += covered.sum(axis=1).max() <= _sure_count(config)
            dropped += (covered & ~want).any()
        assert fired
        if config.gu_count > _sure_count(config):
            assert dropped and fired < 200


class TestFairness:
    def test_all_served_as_written(self):
        assert fairness(np.ones(20), "as_written") == pytest.approx(0.05)

    def test_all_served_standard(self):
        assert fairness(np.ones(20), "standard") == pytest.approx(1.0)

    def test_single_served_as_written(self):
        s = np.zeros(20)
        s[3] = 1
        assert fairness(s, "as_written") == pytest.approx(0.0025)

    def test_none_served_is_zero(self):
        assert fairness(np.zeros(20), "as_written") == 0.0
        assert fairness(np.zeros(20), "standard") == 0.0

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_mode_relation(self, bits):
        if sum(bits) == 0:
            assert fairness(bits, "as_written") == 0.0
        else:
            assert fairness(bits, "as_written") == pytest.approx(
                fairness(bits, "standard") / len(bits)
            )


class TestReward:
    def test_zero_case(self):
        config = UavEnvConfig()
        assert _rewards(np.zeros(20, dtype=bool), np.False_, config) == 0.0

    def test_coverage_only_weighting(self):
        config = UavEnvConfig(coverage_weight=1.0)
        assert _rewards(np.ones(20, dtype=bool), np.False_, config) == pytest.approx(1.0)

    def test_hand_arithmetic_with_penalty(self):
        # 10 of 20 served: fairness 10^2 / (20^2 * 10) = 0.025, weighted 0.0125.
        config = UavEnvConfig(coverage_weight=0.5, speed_penalty=-1.0)
        s = np.zeros(20, dtype=bool)
        s[:10] = True
        value = _rewards(s, np.True_, config)
        assert value == pytest.approx(0.25 + 0.0125 - 1.0)

    @pytest.mark.parametrize("mode", FAIRNESS_MODES)
    def test_stack_scores_as_rows(self, mode):
        # Scored on an (R, K, J) stack of masks, each reward has the bits of
        # its mask scored alone.
        config = UavEnvConfig(gu_count=9, speed_penalty=-0.7, coverage_weight=0.3,
                              fairness_mode=mode)
        masks = np.random.default_rng(5).random((3, 40, 9)) < 0.4
        violation = masks[..., 0] & masks[..., 1]
        reward = _rewards(masks, violation, config)
        for r, k in np.ndindex(3, 40):
            assert reward[r, k] == _rewards(masks[r, k], violation[r, k], config)

    @pytest.mark.parametrize("mode", FAIRNESS_MODES)
    def test_rollout_rewards_match_per_step_scoring(self, mode):
        # Rewards scored after the step loop equal a step-by-step scoring of
        # the stored states and actions, nominal and grouped with a clamping
        # disturbance.
        config = UavEnvConfig(**COMPACT_UAV, fairness_mode=mode)
        w = np.random.default_rng(8).normal(scale=5.0, size=(40, config.n))
        max_step = config.step_seconds * config.uav_max_speed
        for disturbance in (None, (None, w)):
            ens = uav_ensemble(config, "lagged_centroid", 40, runs=3, master_seed=70,
                               disturbance=disturbance)
            for k in range(ens.horizon):
                after = ens.states[:, k + 1]
                served = serve_mask(after[:, -2:], after[:, :-2].reshape(len(after), -1, 2),
                                    config)
                step = np.linalg.norm(ens.actions[:, k] - ens.states[:, k, -2:], axis=-1)
                expected = _rewards(served, step > max_step + 1e-9, config)
                assert np.array_equal(ens.rewards[:, k], expected)


class TestRewardLipschitz:
    @pytest.mark.parametrize("config, constant", [
        (LinearSurrogateConfig(np.eye(2), np.ones((1, 2)), np.ones(2)), NORM_PENALTY_LIPSCHITZ),
        (UavEnvConfig(), math.inf),
    ], ids=["linear", "uav"])
    def test_declared_constant(self, config, constant):
        # Each environment declares its reward's L, and verify takes it from
        # there alone: it is not a field, and no config key sets it.
        assert config.reward_lipschitz == constant
        assert "reward_lipschitz" not in {f.name for f in fields(config)}
        assert not any(key.endswith(".reward_lipschitz") for key in cli._KEYS)
        assert "analysis.L" not in cli._KEYS

    def test_norm_penalty_slope_within_constant(self):
        # |r - r'| <= L (|x - x'| + |u - u'|) over random pairs; pairs along
        # one axis of x meet it, so no smaller constant holds.
        rng = np.random.default_rng(1)
        x, u = rng.normal(size=(2, 400, 3)), rng.normal(size=(2, 400, 2))
        gap = np.abs(norm_penalty_reward(x[0], u[0]) - norm_penalty_reward(x[1], u[1]))
        distance = np.linalg.norm(x[0] - x[1], axis=1) + np.linalg.norm(u[0] - u[1], axis=1)
        assert np.all(gap <= NORM_PENALTY_LIPSCHITZ * distance * (1.0 + 1e-12))
        along = x[0] * np.array([1.0, 0.0, 0.0]), x[0] * np.array([2.0, 0.0, 0.0])
        gap = np.abs(norm_penalty_reward(along[0], u[0]) - norm_penalty_reward(along[1], u[0]))
        assert np.allclose(gap, np.abs(x[0, :, 0]), rtol=1e-12)

    @pytest.mark.parametrize("area", [dict(), COMPACT_UAV], ids=["default", "compact"])
    @pytest.mark.parametrize("moved", ["user", "uav"])
    def test_uav_reward_jumps_at_the_coverage_edge(self, area, moved):
        # User 0 at the last covered distance from the UAV, the others far
        # out of reach; then the user or the UAV a few ulps further apart.
        # The states differ by under 1e-13 and the rewards by the user's
        # whole share, so no finite L bounds the reward's slope.
        config = UavEnvConfig(**area, speed_penalty=0.0)
        reach = env_sim._planar_reach(config.coverage_radius, config.altitude)
        state = np.full(config.n, 1e3)
        state[1], state[-2:] = 30.0, 30.0
        user = 30.0 + math.sqrt(reach)
        while (user - 30.0) ** 2 > reach:
            user = math.nextafter(user, 0.0)
        while (math.nextafter(user, math.inf) - 30.0) ** 2 <= reach:
            user = math.nextafter(user, math.inf)
        state[0] = user
        further = state.copy()
        # The user steps right, away from the UAV; the UAV steps left.
        coordinate, away = (0, math.inf) if moved == "user" else (-2, -math.inf)
        while (further[0] - further[-2]) ** 2 <= reach:
            further[coordinate] = math.nextafter(further[coordinate], away)

        pair = np.stack([state, further])
        served = serve_mask(pair[:, -2:], pair[:, :-2].reshape(2, -1, 2), config)
        assert served.sum(axis=1).tolist() == [1, 0] and served[0, 0]
        rewards = _rewards(served, np.zeros(2, dtype=bool), config)
        distance = np.linalg.norm(state - further)
        assert 0.0 < distance < 1e-13 and rewards[0] - rewards[1] > 1e-3
        assert (rewards[0] - rewards[1]) / distance > 1e10


class TestScriptedPolicy:
    def test_fixed_point_at_centroid(self):
        config = UavEnvConfig(gu_count=1, coverage_radius=1.0)
        wp = waypoint([60.0, 50.0], [[60.0, 50.0]], config, "centroid_greedy")
        assert np.allclose(wp, [60.0, 50.0])

    def test_clipping_geometry(self):
        # Unserved centroid 10 m away, speed cap 3 m per step.
        config = UavEnvConfig(gu_count=1, coverage_radius=1.0)
        wp = waypoint([50.0, 50.0], [[60.0, 50.0]], config, "centroid_greedy")
        assert np.allclose(wp, [53.0, 50.0])

    def test_all_served_stays_put(self):
        config = UavEnvConfig(gu_count=1)
        wp = waypoint([50.0, 50.0], [[50.0, 50.0]], config, "centroid_greedy")
        assert np.allclose(wp, [50.0, 50.0])

    def test_lagged_smoothing_state(self):
        config = UavEnvConfig(gu_count=1, coverage_radius=1.0)
        policy = ScriptedPolicy("lagged_centroid", config)
        uav = np.array([0.0, 0.0])
        gu_a = np.array([[40.0, 0.0]])
        gu_b = np.array([[0.0, 40.0]])
        first = lane_waypoint(policy, uav, gu_a)
        # Target jumped: the lagged target is the average of the two centroids.
        second_direction = lane_waypoint(policy, uav, gu_b)
        expected_target = 0.5 * gu_a[0] + 0.5 * gu_b[0]
        expected = 3.0 * expected_target / np.linalg.norm(expected_target)
        assert np.allclose(first, [3.0, 0.0])
        assert np.allclose(second_direction, expected)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            ScriptedPolicy("pd_control", UavEnvConfig())


class TestUavRollout:
    def test_determinism(self):
        config = UavEnvConfig()
        t1 = uav_run(config, "centroid_greedy", 50, seed=7)
        t2 = uav_run(config, "centroid_greedy", 50, seed=7)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.actions, t2.actions)
        assert np.array_equal(t1.rewards, t2.rewards)

    def test_state_dimension(self):
        config = UavEnvConfig(gu_count=20)
        t = uav_run(config, "centroid_greedy", 5, seed=0)
        assert t.states.shape == (6, 42)
        assert t.actions.shape == (5, 2)
        assert (config.n, config.m) == (42, 2)

    def test_speed_compliance(self):
        config = UavEnvConfig()
        t = uav_run(config, "lagged_centroid", 200, seed=3)
        uav = t.states[:, -2:]
        steps = np.linalg.norm(np.diff(uav, axis=0), axis=1)
        assert np.all(steps <= config.step_seconds * config.uav_max_speed + 1e-9)

    def test_straight_line_gu_paths_fold_oracle(self):
        # Frozen heading and speed: the reflected path equals the unfolded
        # straight line folded into the area by the triangle map.
        def fold(z, limit):
            z = np.mod(z, 2.0 * limit)
            return np.where(z > limit, 2.0 * limit - z, z)

        config = UavEnvConfig(
            gu_count=1, gu_keep_direction=1.0, gu_speed_std=0.0,
            gu_speed_memory=1.0,
        )
        t = uav_run(config, "centroid_greedy", 400, seed=11)
        gu = t.states[:, :2]
        first = gu[1] - gu[0]
        # Seed 11 starts well inside the area, so step 0 does not reflect and
        # fixes the unfolded slope.
        assert np.isclose(np.linalg.norm(first),
                          config.step_seconds * config.gu_mean_speed)
        k = np.arange(len(gu))
        assert np.allclose(gu[:, 0], fold(gu[0, 0] + k * first[0], config.area_x),
                           atol=1e-9)
        assert np.allclose(gu[:, 1], fold(gu[0, 1] + k * first[1], config.area_y),
                           atol=1e-9)

    def test_positions_stay_in_area(self):
        config = UavEnvConfig()
        t = uav_run(config, "centroid_greedy", 300, seed=1)
        coords = t.states.reshape(len(t.states), -1, 2)
        assert np.all(coords[..., 0] >= 0.0) and np.all(coords[..., 0] <= 100.0)
        assert np.all(coords[..., 1] >= 0.0) and np.all(coords[..., 1] <= 100.0)

    def test_disturbed_states_clamped(self):
        config = UavEnvConfig(gu_count=2)
        n = config.n
        w = np.zeros((10, n))
        w[0] = 500.0
        t = uav_run(config, "centroid_greedy", 10, seed=2, disturbance=w)
        assert np.all(t.states <= 100.0) and np.all(t.states >= 0.0)

    def test_disturbance_does_not_trigger_speed_penalty(self):
        # The violation indicator watches the commanded step, which the
        # clipped policies always keep within the limit; a disturbance that
        # teleports the craft is a domain change, not a policy violation.
        config = UavEnvConfig(gu_count=2, speed_penalty=-1.0)
        n = config.n
        w = np.zeros((5, n))
        w[0, -2:] = [30.0, 30.0]
        disturbed = uav_run(config, "centroid_greedy", 5, seed=4, disturbance=w)
        assert np.all(disturbed.rewards >= 0.0)

    def test_ensemble_seeds_and_sharing(self):
        config = UavEnvConfig(gu_count=3)
        ens = uav_ensemble(config, "centroid_greedy", 10, runs=3, master_seed=100)
        assert ens.seeds.tolist() == [100, 101, 102]
        single = uav_run(config, "centroid_greedy", 10, seed=101)
        assert np.array_equal(ens.states[1], single.states)


class TestUavMemory:
    def test_peak_within_outputs_and_a_chunk(self):
        # The crowd is stepped a chunk at a time, so over its output buffers
        # (5.8 MiB here) a rollout holds a fixed allowance: the chunk's
        # buffers and the reward scoring's (lanes, K) temporaries, 0.9 MiB
        # here.  A (K+1)-long crowd array would add 4.9 MiB.
        config = UavEnvConfig()
        uav_ensemble(config, "centroid_greedy", 5, 8, 0)  # caches outside the measurement
        tracemalloc.start()
        try:
            ens = uav_ensemble(config, "centroid_greedy", 2000, 8, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        served = ens.rewards.size * config.gu_count
        outputs = ens.states.nbytes + ens.actions.nbytes + ens.rewards.nbytes + served
        assert peak <= outputs + 2 * 2**20, (peak, outputs)


class TestLinearMemory:
    def test_peak_within_outputs_and_a_noise_chunk(self):
        # Every lane's process noise goes into one reused (chunk, R, n)
        # buffer, 2.1 MiB here, that the G groups share; over it and the
        # output buffers (17.2 MiB) the rollout holds the reward scoring's
        # (G*R, K) temporaries and one lane's draws.  Stacking each chunk's
        # draws once per group held 9.8 MiB over the outputs.
        runs, groups, horizon, n, m = 24, 2, 1000, 42, 4
        rng = np.random.default_rng(9)
        config = LinearSurrogateConfig(A=0.5 * np.eye(n), F=rng.uniform(-0.5, 0.5, (m, n)),
                                       x0_mean=rng.standard_normal(n), noise_std=1e-3)
        w = 1e-3 * rng.standard_normal((horizon, n))
        linear_ensemble(config, 5, 2, 0, (None, w[:5]))  # caches outside the measurement
        tracemalloc.start()
        try:
            ens = linear_ensemble(config, horizon, runs, 0, (None, w))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.r_count == groups * runs
        outputs = ens.states.nbytes + ens.actions.nbytes + ens.rewards.nbytes
        noise = env_sim._NOISE_CHUNK * runs * n * 8
        assert peak <= outputs + noise + 3 * 2**20, (peak, outputs)


class TestUavConfig:
    def test_defaults_match_baseline(self):
        config = UavEnvConfig()
        assert config.noise_watt == pytest.approx(3.162e-12, rel=1e-3)
        assert config.bandwidth_hz == 400e6
        assert config.min_rate == 150e6
        assert config.coverage_radius == 50.0

    def test_every_number_has_a_range_kind(self):
        # The one table the constructor and the CLI's env.* keys check.
        numbers = {f.name for f in fields(UavEnvConfig) if f.name != "fairness_mode"}
        assert set(env_sim._UAV_KINDS) == numbers

    def test_validation(self):
        with pytest.raises(ParameterError):
            UavEnvConfig(coverage_weight=1.5)
        with pytest.raises(ParameterError):
            UavEnvConfig(fairness_mode="jain")
        with pytest.raises(ParameterError):
            UavEnvConfig(power_watt=0.0)

    @pytest.mark.parametrize("field, value", [
        ("altitude", math.nan), ("altitude", math.inf), ("coverage_radius", math.nan),
        ("min_rate", math.nan), ("area_x", math.inf), ("gu_count", math.nan),
    ])
    def test_positive_fields_must_be_finite(self, field, value):
        # NaN and inf passed the sign check and gave a run serving nobody.
        with pytest.raises(ParameterError, match=field):
            UavEnvConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("absorption", math.nan), ("absorption", math.inf), ("gu_speed_std", math.nan),
    ])
    def test_non_negative_fields_must_be_finite(self, field, value):
        with pytest.raises(ParameterError, match=field):
            UavEnvConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("gu_turn_bias", math.nan), ("speed_penalty", -math.inf), ("coverage_weight", math.nan),
    ])
    def test_signed_and_unit_fields_must_be_finite(self, field, value):
        with pytest.raises(ParameterError, match=field):
            UavEnvConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("noise_std", math.nan), ("noise_std", math.inf),
    ])
    def test_surrogate_levels_must_be_finite(self, field, value):
        # noise_std = nan ran silently without noise.
        with pytest.raises(ParameterError, match=field):
            LinearSurrogateConfig(A=np.eye(2), F=np.ones((1, 2)), x0_mean=np.ones(2),
                                  **{field: value})


class TestRolloutSize:
    """A rollout refuses a state buffer above its documented cap before it
    makes any generator or array; the values tested are never allocated."""

    @pytest.mark.parametrize("runs, horizon, groups", [
        (10**9, 10, 1), (1, 10**9, 1), (2**26, 1, 2),
    ])
    @pytest.mark.parametrize("env", ["linear", "uav"])
    def test_refused_before_any_generator(self, monkeypatch, env, runs, horizon, groups):
        made = []
        monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a))
        disturbance = (None,) * groups
        with pytest.raises(ParameterError, match=r"^runs = \d+ and horizon = \d+ plan a .* cap of"):
            if env == "linear":
                config = LinearSurrogateConfig(A=np.eye(2), F=np.ones((1, 2)),
                                               x0_mean=np.ones(2))
                linear_ensemble(config, horizon, runs, 0, disturbance=disturbance)
            else:
                uav_ensemble(UavEnvConfig(gu_count=1), "centroid_greedy", horizon, runs, 0,
                             disturbance=disturbance)
        assert made == []

    def test_message_names_the_arguments(self):
        # A library call named the CLI's config keys sim.runs and sim.horizon.
        config = LinearSurrogateConfig(A=np.eye(2), F=np.ones((1, 2)), x0_mean=np.ones(2))
        with pytest.raises(ParameterError) as refused:
            linear_ensemble(config, 10**9, 1, 0)
        assert str(refused.value) == (
            "runs = 1 and horizon = 1000000000 plan a (1, 1000000001, 2) state buffer of "
            f"2000000002 values, above the cap of {2**28}")

    def test_cap_is_inclusive(self, monkeypatch):
        config = LinearSurrogateConfig(A=np.eye(2), F=np.ones((1, 2)), x0_mean=np.ones(2))
        monkeypatch.setattr(env_sim, "_MAX_STATE_VALUES", 2 * 3 * 5 * 2)
        assert linear_ensemble(config, 4, 3, 0, disturbance=(None, None)).r_count == 6
        with pytest.raises(ParameterError):
            linear_ensemble(config, 5, 3, 0, disturbance=(None, None))


def ensemble_digest(ensemble):
    h = hashlib.sha256()
    for name in ("states", "actions", "rewards"):
        h.update(getattr(ensemble, name).tobytes())
    return h.hexdigest()


def assert_same_runs(ensemble, runs):
    for ta, tb in zip((run_of(ensemble, r) for r in range(ensemble.r_count)), runs,
                      strict=True):
        assert ta.seed == tb.seed
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.actions, tb.actions)
        assert np.array_equal(ta.rewards, tb.rewards)


def assert_same_ensembles(a, b):
    for name in ("states", "actions", "rewards", "run_ids", "seeds"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def small_surrogate():
    return LinearSurrogateConfig(
        A=np.array([[0.9, 0.1, 0.0], [-0.2, 0.8, 0.1], [0.0, 0.3, 0.5]]),
        F=np.array([[1.0, -1.0, 0.5], [0.2, 0.0, -0.4]]),
        x0_mean=np.array([1.0, -2.0, 0.5]), noise_std=0.05,
    )


class TestBatchedRollouts:
    # SHA-256 of the stacked states, actions and rewards bytes, recorded with
    # the one-run-at-a-time simulators the batched ones replaced, on x86-64
    # with AVX-512, numpy 2.4 and OpenBLAS 0.3.31.  The bytes depend on the
    # platform's float kernels (BLAS dot and gemv, SIMD sin/cos/log2); the
    # lane and step-loop tests below do not.
    UAV_DIGESTS = {
        ("centroid_greedy", False):
            "62301cba73c4aa56a76c3807c1203c14e9003a8be0701d9cbe4742d146591e34",
        ("centroid_greedy", True):
            "212cc8199f9431c7e4aaa41081a2c08b2baa3b8fb626c661de6bf313b55b2f13",
        ("lagged_centroid", False):
            "ec0fcc94793059cbcc532d4ce0e648a7f05fc4767ac1012833fc2a561a3cb892",
        ("lagged_centroid", True):
            "54646d70df40d1b212829201c02d0b1e7d90f6b3da695fec01b89f0de8aacad5",
    }
    LINEAR_DIGESTS = {
        False: "4e84d13a93751fa664a778529c7172b196942eb3c7fbcab7d523b16b3d7564a5",
        True: "c470838fbde1b4100588d266ff6c9811af558bb0ca5d7de416abdd1d8c96f8e5",
    }

    # Rollouts of K=600 steps, several crowd chunks, pinned before the crowd
    # was stepped ahead of the closed loop: in "dropping" and "default"
    # covered users are dropped; w hits the clamp.
    UAV_LONG_DIGESTS = {
        ("dropping", "centroid_greedy", "none"):
            "b939230705cf0bfb03012a8ac14ad2f9b600c4b6a089f55acfab122acd50b65a",
        ("dropping", "centroid_greedy", "w"):
            "cb3b3fc318d1c47642752d5a7ad47b32fd335b24e3664fda136fde5d6e7e558d",
        ("dropping", "centroid_greedy", "none_w"):
            "8744195a8791bbeef252da2f4a614dd8a68f024cc4a130a3e2fb97ef8354f902",
        ("dropping", "centroid_greedy", "w_none_2w"):
            "daa88db01c6b06b1d33f6cb22cf04e76be3dac45dda33582dc7b6dbed412a85e",
        ("dropping", "lagged_centroid", "none"):
            "be583c2eaf854030d26296b9106f7dbc5611e5e927ce8b51afba38c7e3e98d8e",
        ("dropping", "lagged_centroid", "w"):
            "24e0981f3b5d79fb6cd8a6b4a12475c6da6bd035baa08695c6389342445eef13",
        ("dropping", "lagged_centroid", "none_w"):
            "4a8133209f5b6b27d70288b6cf8c0785a069dc9dba09046ba0f2c36f816cdd5f",
        ("dropping", "lagged_centroid", "w_none_2w"):
            "756c50d365d6c21d77bf0496c144e7cffd67eee5c39c028bcb54625e3dad8817",
        ("default", "centroid_greedy", "none"):
            "84da4d65393d91ef78d56a239eb786f1a76b85d7a8a5193645a0e7046dbcb803",
        ("default", "centroid_greedy", "w"):
            "2db10042115cab5397878c3861bd0bd27ce36cdf15a44ed0acad7c68a53ee798",
        ("default", "centroid_greedy", "none_w"):
            "c7cfd1dd6d67562ae42f96f384b623d7a6264838d75a45598d94ef61a4f526ba",
        ("default", "centroid_greedy", "w_none_2w"):
            "398eb9cd067904361bd424db562892480f723cb5f60dfb5373b964c814e9b061",
        ("default", "lagged_centroid", "none"):
            "72c42c3f67fb18ebd07488b3f6c5abe01dbd2a0f95f0cd0a565c116749b670d0",
        ("default", "lagged_centroid", "w"):
            "0d7be3912c460c2bd50b6d66ca4334c0536b393e5ded8f816a987e468d3ea605",
        ("default", "lagged_centroid", "none_w"):
            "236aa02ac2d38711516d0f6c8a29f9d1e00e8cbb1b51c6c93ead354f083be0da",
        ("default", "lagged_centroid", "w_none_2w"):
            "4b0943aa36139cddeef1ea634babc4c615f2bd398cf645cdd9cececa01196efe",
    }
    LONG_CONFIGS = {"dropping": dict(gu_count=40, min_rate=400e6), "default": {}}

    @pytest.mark.parametrize("name", LONG_CONFIGS)
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("form", ["none", "w", "none_w", "w_none_2w"])
    def test_uav_long_digest_pinned(self, name, kind, form):
        config = UavEnvConfig(**self.LONG_CONFIGS[name])
        w = np.random.default_rng(21).normal(scale=5.0, size=(600, config.n))
        disturbance = {"none": None, "w": w, "none_w": (None, w),
                       "w_none_2w": (w, None, 2.0 * w)}[form]
        ens = uav_ensemble(config, kind, 600, runs=3, master_seed=4100, disturbance=disturbance)
        assert ensemble_digest(ens) == self.UAV_LONG_DIGESTS[name, kind, form]

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("disturbed", [False, True])
    def test_uav_digest_pinned(self, kind, disturbed):
        config = UavEnvConfig(**COMPACT_UAV)
        w = np.random.default_rng(3).normal(scale=2.0, size=(60, config.n))
        ens = uav_ensemble(config, kind, 60, runs=3, master_seed=1009,
                           disturbance=w if disturbed else None)
        assert ensemble_digest(ens) == self.UAV_DIGESTS[kind, disturbed]

    @pytest.mark.parametrize("disturbed", [False, True])
    def test_linear_digest_pinned(self, disturbed):
        w = np.random.default_rng(4).normal(scale=0.1, size=(50, 3))
        ens = linear_ensemble(small_surrogate(), 50, runs=3, master_seed=7,
                              disturbance=w if disturbed else None)
        assert ensemble_digest(ens) == self.LINEAR_DIGESTS[disturbed]

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_uav_lanes_independent(self, kind):
        # An R-lane ensemble equals R one-lane ensembles seeded master_seed + r,
        # on a disturbance large enough to hit the clamp.
        for config in (UavEnvConfig(**COMPACT_UAV), UavEnvConfig(gu_count=5)):
            w = np.random.default_rng(8).normal(scale=5.0, size=(40, config.n))
            for disturbance in (None, w):
                ens = uav_ensemble(config, kind, 40, runs=4, master_seed=500,
                                   disturbance=disturbance)
                singles = [uav_run(config, kind, 40, 500 + r, disturbance)
                           for r in range(4)]
                assert_same_runs(ens, singles)

    def test_linear_lanes_independent(self):
        # The horizon spans several noise chunks.
        config = small_surrogate()
        w = np.random.default_rng(6).normal(scale=0.1, size=(600, 3))
        ens = linear_ensemble(config, 600, runs=4, master_seed=30, disturbance=w)
        singles = [
            linear_ensemble(config, 600, runs=1, master_seed=30 + r, disturbance=w)
            for r in range(4)
        ]
        assert_same_runs(ens, [run_of(s) for s in singles])

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_uav_groups_match_separate_calls(self, kind):
        # A (None, w) call steps both groups on one set of draws per seed; each
        # group equals its own call, on a disturbance large enough to hit the
        # clamp, which must then move the disturbed lanes only.
        for config in (UavEnvConfig(**COMPACT_UAV), UavEnvConfig(gu_count=5)):
            w = np.random.default_rng(8).normal(scale=5.0, size=(40, config.n))
            grouped = uav_ensemble(config, kind, 40, runs=4, master_seed=500,
                                   disturbance=(None, w))
            separate = [uav_ensemble(config, kind, 40, runs=4, master_seed=500,
                                     disturbance=d) for d in (None, w)]
            assert grouped.r_count == 8
            assert grouped.seeds.tolist() == [500, 501, 502, 503] * 2
            for part, single in zip(split_groups(grouped, 2), separate, strict=True):
                assert_same_ensembles(part, single)
            coords = grouped.states.reshape(8, 41, -1, 2)
            clamped = (coords == 0.0) | (coords == (config.area_x, config.area_y))
            assert clamped[4:].any() and not clamped[:4].any()

    def test_linear_groups_match_separate_calls(self):
        # The horizon spans several noise chunks; three groups share each
        # seed's noise.
        config = small_surrogate()
        w = np.random.default_rng(6).normal(scale=0.1, size=(600, 3))
        groups = (None, w, -2.0 * w)
        grouped = linear_ensemble(config, 600, runs=4, master_seed=30, disturbance=groups)
        parts = split_groups(grouped, 3)
        for part, d in zip(parts, groups, strict=True):
            assert_same_ensembles(part, linear_ensemble(config, 600, runs=4, master_seed=30,
                                                        disturbance=d))
        # The parts are views of the grouped ensemble's arrays.
        assert all(np.shares_memory(part.states, grouped.states) for part in parts)
        with pytest.raises(DimensionMismatchError):
            split_groups(grouped, 5)
        # A group count of 0 divided by zero, -2 split the 12 runs into no
        # groups, and True into one.
        for groups, shown in ((0, "an integer of at least 1, got 0"),
                              (-2, "an integer of at least 1, got -2"),
                              (True, "a number, got True")):
            with pytest.raises(ParameterError) as refused:
                split_groups(grouped, groups)
            assert str(refused.value) == f"groups must be {shown}"

    def test_linear_matches_step_loop(self):
        # Reference: one run stepped one draw of normal(n) at a time.
        config = small_surrogate()
        w = np.random.default_rng(6).normal(scale=0.1, size=(600, 3))
        t = run_of(linear_ensemble(config, 600, runs=2, master_seed=12, disturbance=w), 1)
        rng = np.random.default_rng(13)
        x = config.x0_mean
        for k in range(600):
            u = config.F @ x
            x = config.A @ x + rng.normal(0.0, config.noise_std, size=config.n) + w[k]
            assert np.array_equal(t.actions[k], u)
            assert np.array_equal(t.states[k + 1], x)
            assert t.rewards[k] == -np.linalg.norm(x) - 0.1 * np.linalg.norm(u)


# ---------------------------------------------------------------------------
# Reference step loops: the plain expressions that the rollouts' fewer numpy
# calls replace, which the rollouts must equal bit for bit.
# ---------------------------------------------------------------------------


def reference_step_gu_arrays(crowd, speeds, headings, config, draws, disturbed=()):
    """The crowd step by plain expressions: np.where for the drawn headings,
    two comparisons for the walls and np.remainder of every heading."""
    steps, runs = draws.shape[:2]
    j = headings.shape[1]
    h1 = config.gu_speed_memory
    nu = config.gu_speed_std * draws[:, :, 0]
    redraw = draws[:, :, 1] >= config.gu_keep_direction
    fresh = 2.0 * math.pi * draws[:, :, 2]
    stride = np.empty((steps, runs, j))
    speed = speeds
    for row, jitter in zip(stride, nu):
        np.multiply(h1, speed, out=row)
        row += (1.0 - h1) * config.gu_mean_speed
        row += jitter
        np.maximum(0.0, row, out=row)
        speed = row
    speeds[...] = speed
    stride *= config.step_seconds
    turns = headings.reshape(-1, runs, j)
    grouped = crowd.reshape(steps + 1, *turns.shape, 2)
    upper = np.tile([config.area_x, config.area_y], (j, 1))
    cosines, sines = np.empty(turns.shape), np.empty(turns.shape)
    moves = np.empty(grouped.shape[1:])
    outside = np.empty(grouped.shape[1:], dtype=bool)
    over = np.empty(outside.shape, dtype=bool)
    for k in range(steps):
        turns += config.gu_turn_bias
        drawn = np.where(redraw[k], fresh[k], turns)
        np.cos(drawn, out=cosines)
        np.sin(drawn, out=sines)
        np.multiply(stride[k], cosines, out=moves[..., 0])
        np.multiply(stride[k], sines, out=moves[..., 1])
        moved = grouped[k + 1]
        np.add(moves, grouped[k], out=moved)
        np.less(moved, 0.0, out=outside)
        np.greater(moved, upper, out=over)
        outside |= over
        crossings = np.flatnonzero(outside)
        if crossings.size:
            env_sim._fold(moved.reshape(-1, 2), drawn.reshape(-1), crossings.tolist(), config)
        np.remainder(drawn, 2.0 * math.pi, out=turns)
        for group, w in disturbed:
            block = crowd[k + 1, group]
            block += w[k]
            np.maximum(0.0, block, out=block)
            np.minimum(block, upper, out=block)


def reference_serve_mask(uav_xy, gu_xy, config, sure):
    """The service mask by plain expressions: the 3-d distance's square root
    against the coverage radius, and the sums as ndarray methods."""
    d3 = gu_xy[..., 0] - uav_xy[:, :1]
    dy = gu_xy[..., 1] - uav_xy[:, 1:]
    d3 *= d3
    dy *= dy
    d3 += dy
    d3 += config.altitude**2
    np.sqrt(d3, out=d3)
    active = d3 <= config.coverage_radius
    if config.gu_count <= sure or active.sum(axis=1).max() <= sure:
        return active
    efficiency = _spectral_efficiency(_channel(d3, config), config)
    while True:
        share = config.bandwidth_hz / np.maximum(active.sum(axis=1), 1)
        drop = active & ~(share[:, None] * efficiency >= config.min_rate)
        if not np.count_nonzero(drop):
            return active
        active &= ~drop


class ReferencePolicy:
    """ScriptedPolicy by plain expressions: the unserved users by ~, a
    masked sum over the middle axis for the centroid, np.where for the step
    scale."""

    def __init__(self, kind, config):
        self.kind, self.config, self.smoothed = kind, config, None

    def waypoint_arrays(self, uav_xy, gu_xy, served):
        unserved = ~served
        count = unserved.sum(axis=1)[:, None]
        total = np.where(unserved[..., None], gu_xy, 0.0).sum(axis=1)
        target = np.where(count > 0, total / np.maximum(count, 1), uav_xy)
        if self.kind == "lagged_centroid":
            if self.smoothed is None:
                self.smoothed = target.copy()
            else:
                self.smoothed = (env_sim._LAG_SMOOTHING * self.smoothed
                                 + (1.0 - env_sim._LAG_SMOOTHING) * target)
            target = self.smoothed
        step = target - uav_xy
        dist = np.sqrt(np.vecdot(step, step))
        max_step = self.config.step_seconds * self.config.uav_max_speed
        scale = np.divide(max_step, dist, out=np.ones_like(dist), where=dist > max_step)
        step *= scale[:, None]
        return uav_xy + step


def reference_uav_ensemble(config, kind, horizon, runs, master_seed, disturbance=None):
    """uav_ensemble's (states, actions, rewards) from the references above,
    every step writing its waypoints, UAV positions and mask into the output
    buffers."""
    n, j = config.n, config.gu_count
    disturbed, groups, rngs = env_sim._plan(disturbance, horizon, runs, master_seed, n)
    lanes = groups * runs
    chunk = min(env_sim._NOISE_CHUNK, horizon,
                max(8, env_sim._CROWD_CHUNK_VALUES // (lanes * j)))
    area = np.array([config.area_x, config.area_y])
    uav, gu_pos, gu_heading = np.empty((runs, 2)), np.empty((runs, j, 2)), np.empty((runs, j))
    for r, rng in enumerate(rngs):
        uav[r] = rng.uniform(size=2) * area
        gu_pos[r] = rng.uniform(size=(j, 2)) * area
        gu_heading[r] = rng.uniform(0.0, 2.0 * math.pi, size=j)
    crowd = np.empty((chunk + 1, lanes, j, 2))
    uav, crowd[0], heading = (np.concatenate([a] * groups) for a in (uav, gu_pos, gu_heading))
    speed = np.full((runs, j), config.gu_mean_speed)
    draw = _lane_draws(rngs, chunk, j, config)
    gu_disturbed = [(group, w[:, :-2].reshape(horizon, j, 2)) for group, w in disturbed]
    policy = ReferencePolicy(kind, config)
    states = np.empty((lanes, horizon + 1, n))
    actions = np.empty((lanes, horizon, 2))
    states[:, 0, :-2] = crowd[0].reshape(lanes, -1)
    states[:, 0, -2:] = uav
    served = np.empty((lanes, horizon, j), dtype=bool)
    sure = _sure_count(config)
    mask = reference_serve_mask(uav, crowd[0], config, sure)
    for start in range(0, horizon, chunk):
        stop = min(start + chunk, horizon)
        steps = stop - start
        if start:
            crowd[0] = crowd[chunk]
        reference_step_gu_arrays(crowd[:steps + 1], speed, heading, config, draw(steps),
                                 [(group, w[start:stop]) for group, w in gu_disturbed])
        for k in range(start, stop):
            uav = policy.waypoint_arrays(uav, crowd[k - start], mask)
            actions[:, k] = uav
            for group, w in disturbed:
                craft = uav[group]
                craft += w[k, -2:]
                np.maximum(0.0, craft, out=craft)
                np.minimum(craft, area, out=craft)
            states[:, k + 1, -2:] = uav
            mask = served[:, k] = reference_serve_mask(uav, crowd[k + 1 - start], config, sure)
        states[:, start + 1:stop + 1, :-2] = (
            crowd[1:steps + 1].swapaxes(0, 1).reshape(lanes, steps, -1))
    max_step = config.step_seconds * config.uav_max_speed
    violation = np.sqrt(np.vecdot(*[actions - states[:, :-1, -2:]] * 2)) > (
        max_step + env_sim._SPEED_EPS)
    return states, actions, _rewards(served, violation, config)


def reference_linear_ensemble(config, horizon, runs, master_seed, disturbance=None):
    """linear_ensemble's (states, actions, rewards) with A x and F x
    computed into fresh arrays every step and copied into the buffers."""
    n = config.n
    disturbed, groups, rngs = env_sim._plan(disturbance, horizon, runs, master_seed, n)
    states = np.empty((groups * runs, horizon + 1, n))
    actions = np.empty((groups * runs, horizon, config.m))
    states[:, 0] = config.x0_mean
    noise = np.empty((min(env_sim._NOISE_CHUNK, horizon), runs, n))
    for start in range(0, horizon, env_sim._NOISE_CHUNK):
        stop = min(start + env_sim._NOISE_CHUNK, horizon)
        for r, rng in enumerate(rngs):
            noise[: stop - start, r] = rng.normal(0.0, config.noise_std, size=(stop - start, n))
        for k in range(start, stop):
            x = states[:, k, :, None]
            actions[:, k] = (config.F @ x)[..., 0]
            x_next = (config.A @ x)[..., 0]
            lanes = x_next.reshape(groups, runs, n)
            lanes += noise[k - start]
            for group, w in disturbed:
                x_next[group] += w[k]
            states[:, k + 1] = x_next
    return states, actions, env_sim.norm_penalty_reward(states[:, 1:], actions)


def assert_same_bits(ensemble, reference):
    for name, want in zip(("states", "actions", "rewards"), reference, strict=True):
        got = getattr(ensemble, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


# The compact config covers no more users than it is sure of, so the link
# budget is skipped; the default one covers up to 20 users and is sure of
# 11, and with absorption of 9, so there the link budget runs.
REFERENCE_CONFIGS = {"compact": COMPACT_UAV, "default": {}, "absorbing": dict(absorption=0.01)}


class TestStepLoopReference:
    @pytest.mark.parametrize("config_name", REFERENCE_CONFIGS)
    @pytest.mark.parametrize("turn_bias", [0.0, 0.1])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("runs, horizon", [(1, 300), (4, 150), (32, 60)])
    def test_uav_matches_reference_loop(self, runs, horizon, kind, groups, turn_bias,
                                        config_name):
        # Several crowd chunks each; the disturbed group's w is large enough
        # to hit the clamp.
        config = UavEnvConfig(**REFERENCE_CONFIGS[config_name], gu_turn_bias=turn_bias)
        assert (_sure_count(config) < config.gu_count) == (config_name != "compact")
        w = np.random.default_rng(runs).normal(scale=5.0, size=(horizon, config.n))
        disturbance = None if groups == 1 else (None, w)
        ensemble = uav_ensemble(config, kind, horizon, runs, 700, disturbance)
        assert_same_bits(ensemble, reference_uav_ensemble(config, kind, horizon, runs, 700,
                                                          disturbance))

    @pytest.mark.parametrize("disturbance", ["none", "w", "none_w", "w_none_2w"])
    @pytest.mark.parametrize("shape", [(3, 2), (1, 1), (2, 5), (42, 4)])
    @pytest.mark.parametrize("runs", [1, 4, 24])
    def test_linear_matches_reference_loop(self, runs, shape, disturbance):
        # Two noise chunks; the actions come from one product after the loop.
        n, m = shape
        rng = np.random.default_rng(n * 100 + m)
        config = LinearSurrogateConfig(A=rng.uniform(-0.3, 0.3, (n, n)),
                                       F=rng.uniform(-1.0, 1.0, (m, n)),
                                       x0_mean=rng.standard_normal(n), noise_std=0.05)
        w = rng.normal(scale=0.1, size=(300, n))
        disturbance = {"none": None, "w": w, "none_w": (None, w),
                       "w_none_2w": (w, None, 2.0 * w)}[disturbance]
        ensemble = linear_ensemble(config, 300, runs, 31, disturbance)
        assert_same_bits(ensemble, reference_linear_ensemble(config, 300, runs, 31,
                                                             disturbance))


def ulps_around(x, count=64):
    """The nonnegative doubles within `count` ulps of x >= 0."""
    bits = np.float64(x).view(np.int64) + np.arange(-count, count + 1)
    values = bits[bits >= 0].view(np.float64)
    return values[np.isfinite(values)]


class TestExactShortcuts:
    @pytest.mark.parametrize("radius, altitude", [
        (50.0, 30.0), (25.0, 20.0), (1.0, 1e-9), (7.3, 7.3), (1e6, 0.5), (1e-3, 1e-4),
        (0.1, 0.09999999999999999), (30, 7)])
    def test_planar_reach_decides_as_the_square_root(self, radius, altitude):
        # d <= _planar_reach(r, h) exactly where sqrt(d + h^2) <= r, for
        # every d within 64 ulps of r^2 - h^2 and of the threshold, and with
        # no altitude, within 64 ulps of r^2: d <= reach(r, 0) is sqrt(d) <= r.
        for altitude in (altitude, 0.0):
            altitude_sq = altitude**2
            reach = env_sim._planar_reach(radius, altitude)
            near = [ulps_around(max(radius * radius - altitude_sq, 0.0)), ulps_around(0.0)]
            if reach >= 0.0:
                near.append(ulps_around(reach))
            d = np.concatenate(near)
            assert np.array_equal(d <= reach, np.sqrt(d + altitude_sq) <= radius)

    @pytest.mark.parametrize("radius, altitude", [(3.0, 4.0), (1.0, 1.0 + 2**-52)])
    def test_planar_reach_when_nobody_is_covered(self, radius, altitude):
        assert env_sim._planar_reach(radius, altitude) == -1.0
        assert not np.sqrt(0.0 + altitude**2) <= radius

    def test_serve_mask_matches_square_root_at_the_edge(self):
        # Users within ulps of the coverage edge, one of them at a planar
        # squared distance of exactly the threshold: the mask by the
        # threshold is the one by the 3-d distance's square root.
        config = UavEnvConfig(**COMPACT_UAV)
        reach = env_sim._planar_reach(config.coverage_radius, config.altitude)
        offsets = ulps_around(math.sqrt(reach), 40)
        assert (offsets * offsets == reach).any()
        gus = np.zeros((1, len(offsets), 2))
        gus[0, :, 0] = offsets
        uav = np.zeros((1, 2))
        sure = _sure_count(config)
        mask = serve_mask(uav, gus, config)
        assert mask.tobytes() == reference_serve_mask(uav, gus.copy(), config, sure).tobytes()
        assert 0 < mask.sum() < len(offsets)

    def test_heading_wrap_is_numpys_remainder(self):
        # A heading is wrapped exactly where np.remainder would change its
        # bits, the ones whose bits read at or above 2 pi's, and Python's
        # float % gives the same bits as np.remainder there.
        two_pi = 2.0 * math.pi
        tiny = np.finfo(float).tiny
        h = np.concatenate([
            [0.0, -0.0, two_pi, -two_pi, 4 * math.pi, -tiny, tiny, -1e-300, 5e-324, -5e-324],
            ulps_around(two_pi, 8), -ulps_around(two_pi, 8), -ulps_around(math.pi, 8),
            np.random.default_rng(3).uniform(-3 * two_pi, 3 * two_pi, 2000)])
        wrapped = np.remainder(h, two_pi)
        changed = h.view(np.uint64) != wrapped.view(np.uint64)
        assert np.array_equal(changed, h.view(np.uint64) >= np.float64(two_pi).view(np.uint64))
        for x, y in zip(h.tolist(), wrapped.tolist()):
            assert math.copysign(1.0, x % two_pi) == math.copysign(1.0, y) and x % two_pi == y
