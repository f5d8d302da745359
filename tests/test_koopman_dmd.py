"""Operator fitting: recovery oracles, spectra, least squares, model JSON."""

import json
import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from koopbound import (
    BoundInputs,
    DataError,
    DimensionMismatchError,
    InsufficientDataError,
    KoopboundError,
    KoopmanModel,
    LinearSurrogateConfig,
    ParameterError,
    ParseError,
    SchemaError,
    TrajectoryEnsemble,
    DisturbanceSpec,
    TransferFunction,
    UavEnvConfig,
    deviation_bounds,
    disturbance_admissible,
    fit_koopman_model,
    linear_ensemble,
    load_model,
    load_trajectories,
    save_model,
    uav_ensemble,
    verify_bounds,
)
from koopbound import cli
from koopbound.bounds import certified_gain
from koopbound._jsonio import as_integer
from koopbound.flatconfig import load_flat_config
from koopbound.koopman_dmd import _projected_dmd, _truncated_svd
from koopbound.trajectory_data import _read_only


def rollout_matrix(a, x0, steps):
    """Columns x0, A x0, A^2 x0, ... (steps+1 columns)."""
    cols = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


def dmd(x0, x1, rank_tol=1e-10):
    """The fit's DMD core on an arbitrary snapshot pair x1 ~= K x0, such as
    stacks of several runs, which no single mean trajectory can express,
    under the field names of a fitted model."""
    svd = _truncated_svd(x0, rank_tol)
    operator, eigenvalues, residual = _projected_dmd(x0, x1, svd)
    return SimpleNamespace(state_operator=operator, eigenvalues=eigenvalues,
                           rank=len(svd[1]), state_residual=residual)


def state_fit(states, rank_tol=1e-10):
    """fit_koopman_model on one state sequence."""
    return fit_koopman_model(curve_ensemble(states), rank_tol)


def random_stable(rng, n, radius=0.9):
    a = rng.normal(size=(n, n))
    rho = np.max(np.abs(np.linalg.eigvals(a)))
    return a * (radius / rho)


def curve_ensemble(states, actions=None, runs=1):
    """An ensemble of `runs` copies of one run with these states and actions
    (zero actions when none are given).  For 1, 2 or 4 runs its mean is that
    run bit for bit."""
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    k = len(states) - 1
    actions = np.zeros((k, 1)) if actions is None else np.asarray(actions, dtype=float)
    if actions.ndim == 1:
        actions = actions[:, None]
    return TrajectoryEnsemble(np.repeat(states[None], runs, axis=0),
                              np.repeat(actions[None], runs, axis=0), np.zeros((runs, k)))


class TestDmdStandard:
    def test_identity_snapshots_diag(self):
        x0 = np.eye(2)
        x1 = np.diag([2.0, 3.0]) @ x0
        result = dmd(x0, x1)
        assert np.allclose(result.state_operator, np.diag([2.0, 3.0]))
        assert np.allclose(result.eigenvalues, [3.0, 2.0])

    def test_identity_dynamics(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 8))
        result = dmd(x0, x0)
        assert np.allclose(result.eigenvalues, 1.0, atol=1e-10)
        assert result.state_residual < 1e-12

    def test_triangular_system_eigenvalues(self):
        a = np.array([[0.9, 0.1], [0.0, 0.5]])
        result = state_fit(rollout_matrix(a, [1.0, 1.0], 50).T)
        assert np.allclose(sorted(np.abs(result.eigenvalues)), [0.5, 0.9], atol=1e-8)
        assert np.allclose(result.state_operator, a, atol=1e-8)

    def test_zero_snapshots_degenerate(self):
        # Mean states 0..K-1 are zero; only the last one is not.
        with pytest.raises(InsufficientDataError, match="^snapshot matrix is identically zero$"):
            state_fit(np.vstack((np.zeros((3, 2)), np.ones((1, 2)))))

    def test_rank_tol_validation(self):
        states = rollout_matrix(np.eye(2) * 0.5, [1.0, 1.0], 4).T
        with pytest.raises(ParameterError):
            state_fit(states, rank_tol=0.0)
        with pytest.raises(ParameterError):
            state_fit(states, rank_tol=1.5)

    def test_eigenvalue_ordering(self):
        rng = np.random.default_rng(5)
        a = random_stable(rng, 6, radius=0.95)
        result = state_fit(rollout_matrix(a, rng.normal(size=6), 80).T)
        mags = np.abs(result.eigenvalues)
        assert np.all(np.diff(mags) <= 1e-12)
        # Conjugate pairs sit adjacent: +Im immediately before -Im.
        for i in range(len(result.eigenvalues) - 1):
            lam = result.eigenvalues[i]
            if lam.imag > 1e-12:
                assert np.isclose(result.eigenvalues[i + 1], np.conj(lam))


class TestDmdExact:
    """Arbitrary pairs (X, Y = BX) with X of full row rank, on which the
    projected operator is exact DMD's least-squares Y X^+."""

    def test_uniform_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 10))
        result = dmd(x, 2.0 * x)
        assert np.allclose(result.eigenvalues, 2.0)
        assert np.allclose(result.state_operator @ x, 2.0 * x)

    def test_zero_right_side(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6))
        result = dmd(x, np.zeros_like(x))
        assert np.allclose(result.eigenvalues, 0.0, atol=1e-12)
        assert result.state_residual == 0.0

    def test_defective_double_eigenvalue(self):
        # B has characteristic polynomial l^2 - l + 1/4, a double root at 0.5.
        b = np.array([[0.0, 1.0], [-0.25, 1.0]])
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 40))
        result = dmd(x, b @ x)
        assert np.allclose(result.eigenvalues, 0.5, atol=1e-6)

    def test_eigenpair_residual_property(self):
        # Every returned eigenvalue is one of the fitted operator: some unit
        # vector phi has |operator @ phi - lam * phi| <= 1e-6.
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = rng.integers(2, 6)
            b = rng.normal(size=(n, n))
            x = rng.normal(size=(n, 3 * n))
            result = dmd(x, b @ x, rank_tol=1e-10)
            for lam in result.eigenvalues:
                shifted = result.state_operator - lam * np.eye(n)
                assert np.linalg.svd(shifted, compute_uv=False)[-1] <= 1e-6


class TestScaleEquivariance:
    def test_global_scaling_keeps_eigenvalues(self):
        rng = np.random.default_rng(7)
        a = random_stable(rng, 3)
        states = rollout_matrix(a, rng.normal(size=3), 25).T
        ev1 = state_fit(states).eigenvalues
        ev2 = state_fit(5.0 * states).eigenvalues
        assert np.allclose(ev1, ev2, atol=1e-9)

    def test_scaling_right_scales_eigenvalues(self):
        rng = np.random.default_rng(8)
        a = random_stable(rng, 3)
        x = rollout_matrix(a, rng.normal(size=3), 25)
        ev1 = np.sort_complex(dmd(x[:, :-1], x[:, 1:]).eigenvalues)
        ev2 = np.sort_complex(dmd(x[:, :-1], 3.0 * x[:, 1:]).eigenvalues)
        assert np.allclose(3.0 * ev1, ev2, atol=1e-9)


class TestFitStateOperator:
    def test_recovers_triangular(self):
        a = np.array([[0.9, 0.1], [0.0, 0.5]])
        states = rollout_matrix(a, [1.0, 1.0], 50).T
        result = state_fit(states)
        assert np.linalg.norm(result.state_operator - a) <= 1e-8 * np.linalg.norm(a)

    def test_constant_sequence_fixed_point(self):
        result = state_fit(np.tile([2.0, -1.0], (6, 1)))
        assert result.rank == 1
        assert np.isclose(result.eigenvalues[0].real, 1.0, atol=1e-10)

    def test_decaying_scalar(self):
        result = state_fit(0.9 ** np.arange(10.0))
        assert np.allclose(result.state_operator, [[0.9]], atol=1e-12)


def action_fit(states, actions):
    return fit_koopman_model(curve_ensemble(states, actions)).action_operator


class TestFitActionOperator:
    def test_exact_linear_policy(self):
        rng = np.random.default_rng(9)
        f = np.array([[1.0, -2.0]])
        states = rng.normal(size=(8, 2))
        actions = states[:-1] @ f.T
        op = action_fit(states, actions)
        assert np.linalg.norm(op - f) <= 1e-10

    def test_zero_actions(self):
        states = np.random.default_rng(10).normal(size=(6, 2))
        op = action_fit(states, np.zeros((5, 1)))
        assert np.allclose(op, 0.0)

    def test_scalar_least_squares(self):
        # States (1, 2), actions (3, 6): exact ratio 3.
        op = action_fit(np.array([[1.0], [2.0], [0.0]]), np.array([[3.0], [6.0]]))
        assert np.allclose(op, [[3.0]], atol=1e-12)

    def test_zero_states_degenerate(self):
        with pytest.raises(InsufficientDataError, match="^snapshot matrix is identically zero$"):
            action_fit(np.zeros((3, 2)), np.ones((2, 1)))

    def test_least_squares_optimality_probing(self):
        rng = np.random.default_rng(11)
        states = rng.normal(size=(20, 3))
        actions = rng.normal(size=(19, 2))
        op = action_fit(states, actions)
        x, targets = states[:19].T, actions.T
        best = np.linalg.norm(targets - op @ x)
        for _ in range(50):
            probe = op + rng.normal(scale=1e-3, size=op.shape)
            assert np.linalg.norm(targets - probe @ x) >= best - 1e-12


class TestExactRecoveryProperty:
    def test_full_rank_excitation_recovers_operator(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            a = random_stable(rng, n, radius=0.9)
            # n independent initial conditions, each rolled 4n steps.
            lefts, rights = [], []
            for _ in range(n):
                x = rollout_matrix(a, rng.normal(size=n), 4 * n)
                lefts.append(x[:, :-1])
                rights.append(x[:, 1:])
            result = dmd(np.hstack(lefts), np.hstack(rights))
            assert np.linalg.norm(result.state_operator - a) <= 1e-6 * np.linalg.norm(a)


def fitted(rank_deficient=False, gain=True):
    """A model fitted from n = 3 states and m = 2 actions, with the certified
    gain fit attaches; rank-deficient ones move in a two-dimensional subspace."""
    rng = np.random.default_rng(13)
    if rank_deficient:
        embed = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        states = rollout_matrix(np.array([[0.9, 0.1], [0.0, 0.5]]), [1.0, 1.0], 30).T @ embed.T
    else:
        states = rollout_matrix(random_stable(rng, 3), rng.normal(size=3), 30).T
    actions = states[:-1] @ rng.normal(size=(3, 2))
    model = fit_koopman_model(curve_ensemble(states, actions, runs=4))
    if gain:
        certified_gain(model)
    return model


def loaded(model):
    """model after save_model and load_model."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return load_model(path)


MODELS = {
    "fitted": fitted,
    "fitted-without-gain": lambda: fitted(gain=False),
    "rank-deficient": lambda: fitted(rank_deficient=True),
    "hand-built": lambda: KoopmanModel(np.array([[0.9, 0.1], [0.0, 0.5]]),
                                       np.array([[1.0, -1.0]])),
}


class TestModelSerialization:
    @pytest.mark.parametrize("name", MODELS)
    def test_save_load_save_identical_bytes(self, tmp_path, name):
        model = MODELS[name]()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("name", ["fitted", "fitted-without-gain", "rank-deficient"])
    def test_loaded_fields_equal_fitted(self, tmp_path, name):
        model = MODELS[name]()
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        for f in fields(KoopmanModel):
            saved, back = getattr(model, f.name), getattr(loaded, f.name)
            if isinstance(saved, np.ndarray):
                assert back.dtype == saved.dtype and np.array_equal(back, saved), f.name
            else:
                assert type(back) is type(saved) and back == saved, f.name

    @staticmethod
    def with_eigenvalues(path, pairs):
        """A hand-built model's file at path whose eigenvalues field is pairs."""
        save_model(MODELS["hand-built"](), path)
        doc = json.loads(path.read_text())
        doc["eigenvalues"] = pairs
        path.write_text(json.dumps(doc))

    def test_complex_pairs_and_negative_zero_keep_their_bytes(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        self.with_eigenvalues(first, [[0.5, 0.25], [0.1, -0.0]])
        save_model(load_model(first), first)
        save_model(load_model(first), second)
        assert second.read_bytes() == first.read_bytes()
        pairs = json.loads(first.read_text())["eigenvalues"]
        assert pairs == [[0.5, 0.25], [0.1, 0.0]]
        assert math.copysign(1.0, pairs[1][1]) == -1.0

    def test_empty_eigenvalue_list_loads(self, tmp_path):
        self.with_eigenvalues(tmp_path / "model.json", [])
        eigenvalues = load_model(tmp_path / "model.json").eigenvalues
        assert eigenvalues.shape == (0,) and eigenvalues.dtype == np.complex128

    def test_rank_deficient_fit(self):
        model = fitted(rank_deficient=True)
        assert (model.n, model.rank, len(model.eigenvalues)) == (3, 2, 2)
        assert np.allclose(model.eigenvalues, [0.9, 0.5], atol=1e-12)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        a = random_stable(rng, 3)
        states = rollout_matrix(a, rng.normal(size=3), 30).T
        actions = states[:-1] @ rng.normal(size=(3, 2))
        model = fit_koopman_model(curve_ensemble(states, actions, runs=4))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.state_operator, model.state_operator)
        assert np.array_equal(loaded.action_operator, model.action_operator)
        assert loaded.rank_tol == model.rank_tol
        assert loaded.r_count == 4

    def test_schema_validation(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(KoopmanModel(np.eye(2), np.zeros((1, 2))), path)
        doc = json.loads(path.read_text())
        del doc["state_operator"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="state_operator"):
            load_model(path)

    def test_gain_cannot_describe_other_operators(self):
        # An in-place edit after the gain search would leave the stored gain
        # describing the old operators; the operators refuse it.
        model = fitted()
        with pytest.raises(ValueError, match="read-only"):
            model.state_operator[0, 0] = 0.999
        with pytest.raises(ValueError, match="read-only"):
            model.action_operator[0, 0] = 0.999
        back = loaded(model)
        assert back.gain == certified_gain(KoopmanModel(back.state_operator,
                                                        back.action_operator))
        # A hand-built model copies a writable operator, so editing the
        # caller's array leaves the model and its gain alone.
        kh = np.array([[0.9, 0.1], [0.0, 0.5]])
        built = KoopmanModel(kh, np.array([[1.0, -1.0]]))
        gain = certified_gain(built)
        kh[0, 0] = 0.999
        assert built.state_operator[0, 0] == 0.9 and certified_gain(built) is gain


# Records that hold arrays compare by identity: a generated __eq__ would
# compare the arrays inside a tuple and raise, and hash() would raise too.
ARRAY_RECORDS = {
    "KoopmanModel": lambda: KoopmanModel(np.eye(2), np.ones((1, 2))),
    "fitted KoopmanModel": fitted,
    "loaded KoopmanModel": lambda: loaded(fitted()),
    "TrajectoryEnsemble": lambda: TrajectoryEnsemble(np.zeros((2, 3, 2)), np.zeros((2, 2, 1)),
                                                     np.zeros((2, 2))),
    "LinearSurrogateConfig": lambda: LinearSurrogateConfig(0.5 * np.eye(2), np.ones((1, 2)),
                                                           np.ones(2)),
    "TransferFunction": lambda: TransferFunction.resolvent(0.5 * np.eye(2)),
    "DisturbanceSpec": lambda: DisturbanceSpec("impulse", 1.0, 3, 0, 2, direction=[1.0, 0.0]),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_by_identity(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert a == a and a != b
    assert len({a, b}) == 2 and a in {a}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_are_read_only(name):
    record = ARRAY_RECORDS[name]()
    arrays = {f.name: getattr(record, f.name) for f in fields(record)
              if isinstance(getattr(record, f.name), np.ndarray)}
    assert arrays
    for field_name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
        assert _read_only(array), field_name


@pytest.mark.parametrize("flattened", [
    lambda v: LinearSurrogateConfig(0.5 * np.eye(4), np.ones((1, 4)), v).x0_mean,
    lambda v: DisturbanceSpec("impulse", 1.0, 3, 0, 4, direction=v).direction,
], ids=["x0_mean", "direction"])
def test_vectors_flattened_to_a_copy_are_read_only(flattened):
    # The check keeps a read-only view of read-only memory as it is, and
    # flattening this one, the left half of a block, makes a copy.
    block = np.arange(1.0, 9.0).reshape(2, 4).copy()
    block.setflags(write=False)
    vector = flattened(block[:, :2])
    assert vector.tolist() == [1.0, 2.0, 5.0, 6.0] and _read_only(vector)


def with_imaginary_part(model, name):
    """model rebuilt with its operator `name` given an imaginary part."""
    return replace(model, **{name: getattr(model, name) + 1e-3j})


def with_entry(model, name, value):
    """model rebuilt with entry [0, 1] of its operator `name` set to value."""
    operator = getattr(model, name).copy()
    operator[0, 1] = value
    return replace(model, **{name: operator})


SURROGATE = LinearSurrogateConfig(0.5 * np.eye(2), np.ones((1, 2)), np.ones(2))
UAV = UavEnvConfig(gu_count=2)


def disturbance(dim, value):
    """A 3-step disturbance of dimension dim whose entry [1, 0] is value."""
    w = np.zeros((3, dim), dtype=np.result_type(value, float))
    w[1, 0] = value
    return w


# The entry points that take an array in, beside the records: both rollouts'
# disturbance and the admissibility check.  Each is built with a complex or a
# non-finite value, as the records are below.
ENTRY_POINTS = ("linear_ensemble disturbance", "uav_ensemble disturbance",
                "disturbance_admissible")

# Each record or entry point given a complex array where it takes real ones,
# and the field the refusal must name.
COMPLEX_INPUTS = {
    "KoopmanModel": (lambda: KoopmanModel(np.array([[0.5 + 0.3j]]), np.array([[1.0]])),
                     "state_operator"),
    "fitted KoopmanModel": (lambda: with_imaginary_part(fitted(), "action_operator"),
                            "action_operator"),
    "loaded KoopmanModel": (lambda: with_imaginary_part(loaded(fitted()), "state_operator"),
                            "state_operator"),
    "TrajectoryEnsemble": (lambda: TrajectoryEnsemble(np.zeros((2, 3, 2)), np.zeros((2, 2, 1)),
                                                      np.zeros((2, 2)) + 1j), "rewards"),
    "LinearSurrogateConfig": (lambda: LinearSurrogateConfig(0.5 * np.eye(2), np.ones((1, 2)),
                                                            [1.0, 1.0 + 2j]), "x0_mean"),
    "TransferFunction": (lambda: TransferFunction.resolvent(np.diag([0.5, 0.5j])), "matrix"),
    "DisturbanceSpec": (lambda: DisturbanceSpec("impulse", 1.0, 3, 0, 2, direction=[1.0, 2j]),
                        "direction"),
    # A purely imaginary w rolled out as w = 0, and was admissible with energy 0.
    "linear_ensemble disturbance": (
        lambda: linear_ensemble(SURROGATE, 3, 1, 0, disturbance=disturbance(2, 1j)),
        "disturbance"),
    "uav_ensemble disturbance": (
        lambda: uav_ensemble(UAV, "centroid_greedy", 3, 1, 0,
                             disturbance=(None, disturbance(UAV.n, 1j))),
        "disturbance[1]"),
    "disturbance_admissible": (lambda: disturbance_admissible(disturbance(2, 1j), 0.5), "w"),
}

# Each record or entry point given a NaN or infinite entry, the field the
# refusal must name and the index of the entry.
NON_FINITE_INPUTS = {
    "KoopmanModel": (lambda: KoopmanModel(np.array([[0.5, np.nan], [0.0, 0.5]]),
                                          np.ones((1, 2))), "state_operator", (0, 1)),
    "fitted KoopmanModel": (lambda: with_entry(fitted(), "action_operator", np.inf),
                            "action_operator", (0, 1)),
    "loaded KoopmanModel": (lambda: with_entry(loaded(fitted()), "state_operator", -np.inf),
                            "state_operator", (0, 1)),
    "TrajectoryEnsemble": (lambda: TrajectoryEnsemble(
        np.where(np.arange(12).reshape(2, 3, 2) == 10, np.nan, 0.0), np.zeros((2, 2, 1)),
        np.zeros((2, 2))), "states", (1, 2, 0)),
    "LinearSurrogateConfig": (lambda: LinearSurrogateConfig(0.5 * np.eye(2), np.ones((1, 2)),
                                                            [1.0, np.nan]), "x0_mean", (1,)),
    "TransferFunction": (lambda: TransferFunction.resolvent(np.diag([0.5, -np.inf])),
                         "matrix", (1, 1)),
    "DisturbanceSpec": (lambda: DisturbanceSpec("impulse", 1.0, 3, 0, 2,
                                                direction=[1.0, np.nan]), "direction", (1,)),
    "linear_ensemble disturbance": (
        lambda: linear_ensemble(SURROGATE, 3, 1, 0, disturbance=disturbance(2, np.nan)),
        "disturbance", (1, 0)),
    "uav_ensemble disturbance": (
        lambda: uav_ensemble(UAV, "centroid_greedy", 3, 1, 0,
                             disturbance=disturbance(UAV.n, np.inf)),
        "disturbance", (1, 0)),
    "disturbance_admissible": (lambda: disturbance_admissible(disturbance(2, np.nan), 0.5),
                               "w", (1, 0)),
}


def bound_inputs(**replaced):
    """BoundInputs of a 10-step verification, with the fields named replaced."""
    values = dict(gamma=0.5, T_hinf=2.0, Kf_hinf=1.0, L=1.0, Q=0.1, C=0.1, gamma_d=0.9,
                  horizon=10.0)
    return BoundInputs(**{**values, **replaced})


def verified(gamma, lipschitz=1.0):
    """verify_bounds of two 3-step surrogate ensembles at level gamma."""
    ensemble = linear_ensemble(SURROGATE, 3, 2, 0)
    return verify_bounds(ensemble, ensemble, KoopmanModel(0.5 * np.eye(2), np.ones((1, 2))),
                         gamma, 0.9, lipschitz=lipschitz)


def surrogate_fit(rank_tol):
    """fit_koopman_model of a 4-step noiseless surrogate rollout."""
    return state_fit(rollout_matrix(0.5 * np.eye(2), [1.0, 1.0], 4).T, rank_tol)


def config_value(key):
    """The config reader of key, given a config line's value."""
    return lambda value: cli._setting(key, {key: value})


BELOW_ONE = "must be finite and non-negative, and must be below 1 as a discount factor"
SEED_RULE = "must be non-negative and an integer below 2**63"

# Each scalar koopbound takes in, grouped by its range kind in _jsonio._RANGES:
# a function of the value, the field it names, a value out of range and the
# message that value gets.  A config value names its key.
OUT_OF_RANGE_INPUTS = {
    # A level is finite and non-negative.
    "config disturbance.gamma": (config_value("disturbance.gamma"), "disturbance.gamma",
                                 math.inf, "must be finite and non-negative, got inf"),
    "config linear.noise_std": (config_value("linear.noise_std"), "linear.noise_std", -0.5,
                                "must be finite and non-negative, got -0.5"),
    "UavEnvConfig gu_speed_std": (lambda v: UavEnvConfig(gu_speed_std=v), "gu_speed_std", -0.5,
                                  "must be finite and non-negative, got -0.5"),
    # An infinite level gave a non-finite w, or an unscaled one.
    "DisturbanceSpec gamma": (lambda v: DisturbanceSpec("impulse", v, 8, 0, 2), "gamma",
                              math.inf, "must be finite and non-negative, got inf"),
    "LinearSurrogateConfig noise_std": (
        lambda v: LinearSurrogateConfig(0.5 * np.eye(2), np.ones((1, 2)), np.ones(2),
                                        noise_std=v),
        "noise_std", math.nan, "must be finite and non-negative, got nan"),
    "BoundInputs Q": (lambda v: bound_inputs(Q=v), "Q", math.inf,
                      "must be finite and non-negative, got inf"),
    "BoundInputs C": (lambda v: bound_inputs(C=v), "C", -0.1,
                      "must be finite and non-negative, got -0.1"),
    # A bound level is non-negative, and may be +inf.
    "disturbance_admissible gamma": (lambda v: disturbance_admissible(np.ones((3, 2)), v),
                                     "gamma", -1.0, "must be non-negative, got -1.0"),
    "deviation_bounds gamma": (lambda v: deviation_bounds(v, 1.0, 1.0), "gamma", math.nan,
                               "must be non-negative, got nan"),
    "deviation_bounds T_hinf": (lambda v: deviation_bounds(0.5, v, 1.0), "T_hinf", -1.0,
                                "must be non-negative, got -1.0"),
    "deviation_bounds Kf_hinf": (lambda v: deviation_bounds(0.5, 1.0, v), "Kf_hinf", -math.inf,
                                 "must be non-negative, got -inf"),
    "BoundInputs gamma": (lambda v: bound_inputs(gamma=v), "gamma", -0.5,
                          "must be non-negative, got -0.5"),
    "BoundInputs T_hinf": (lambda v: bound_inputs(T_hinf=v), "T_hinf", math.nan,
                           "must be non-negative, got nan"),
    "BoundInputs Kf_hinf": (lambda v: bound_inputs(Kf_hinf=v), "Kf_hinf", -1.0,
                            "must be non-negative, got -1.0"),
    "BoundInputs L": (lambda v: bound_inputs(L=v), "L", math.nan, "must be non-negative, got nan"),
    "verify_bounds gamma": (verified, "gamma", -1.0, "must be non-negative, got -1.0"),
    # lipschitz="1" wrote an analytic L of 1.0.
    "verify_bounds lipschitz": (lambda v: verified(0.5, lipschitz=v), "L", -1.0,
                                "must be non-negative, got -1.0"),
    # A discount factor is a level below 1.
    "config analysis.gamma_d": (config_value("analysis.gamma_d"), "analysis.gamma_d", 1.0,
                                f"{BELOW_ONE}, got 1.0"),
    "BoundInputs gamma_d": (lambda v: bound_inputs(gamma_d=v), "gamma_d", math.nan,
                            f"{BELOW_ONE}, got nan"),
    # A count is an integer of at least 1; horizon=3.0 failed inside numpy.
    "linear_ensemble runs": (lambda v: linear_ensemble(SURROGATE, 3, v, 0), "runs", 0,
                             "must be an integer of at least 1, got 0"),
    "linear_ensemble horizon": (lambda v: linear_ensemble(SURROGATE, v, 2, 0), "horizon", 3.0,
                                "must be an integer of at least 1, got 3.0"),
    "uav_ensemble runs": (lambda v: uav_ensemble(UAV, "centroid_greedy", 3, v, 0), "runs", -2,
                          "must be an integer of at least 1, got -2"),
    "uav_ensemble horizon": (lambda v: uav_ensemble(UAV, "centroid_greedy", v, 2, 0), "horizon",
                             0, "must be an integer of at least 1, got 0"),
    # A rollout checks runs, horizon and its seeds before its disturbance.
    "linear_ensemble runs before disturbance": (
        lambda v: linear_ensemble(SURROGATE, 3, v, 0, disturbance=np.ones((2, 2))), "runs", 0,
        "must be an integer of at least 1, got 0"),
    "uav_ensemble runs before disturbance": (
        lambda v: uav_ensemble(UAV, "centroid_greedy", 3, v, 0, disturbance=(None, [1.0])),
        "runs", -2, "must be an integer of at least 1, got -2"),
    "DisturbanceSpec horizon": (lambda v: DisturbanceSpec("impulse", 1.0, v, 0, 2), "horizon", 0,
                                "must be an integer of at least 1, got 0"),
    "DisturbanceSpec dim": (lambda v: DisturbanceSpec("impulse", 1.0, 3, 0, v), "dim", 2.5,
                            "must be an integer of at least 1, got 2.5"),
    # gu_count=2.5 failed with a TypeError inside the rollout.
    "UavEnvConfig gu_count": (lambda v: UavEnvConfig(gu_count=v), "gu_count", 2.5,
                              "must be an integer of at least 1, got 2.5"),
    "config sim.runs": (config_value("sim.runs"), "sim.runs", 0,
                        "must be an integer of at least 1, got 0"),
    "config env.gu_count": (config_value("env.gu_count"), "env.gu_count", -1,
                            "must be an integer of at least 1, got -1"),
    # A seed is an integer of at least 0 that fits int64; -1 raised numpy's
    # ValueError and True was read as 1.
    "linear_ensemble master_seed": (lambda v: linear_ensemble(SURROGATE, 3, 2, v),
                                    "master_seed", -1, f"{SEED_RULE}, got -1"),
    "uav_ensemble master_seed": (lambda v: uav_ensemble(UAV, "centroid_greedy", 3, 2, v),
                                 "master_seed", 2.5, f"{SEED_RULE}, got 2.5"),
    # ... and its seeds before the size of its state buffer.
    "linear_ensemble master_seed before size": (
        lambda v: linear_ensemble(SURROGATE, 2**28, 2, v), "master_seed", -1,
        f"{SEED_RULE}, got -1"),
    "uav_ensemble master_seed before size": (
        lambda v: uav_ensemble(UAV, "centroid_greedy", 3, 2**28, v, disturbance=(None, None)),
        "master_seed", 2.5, f"{SEED_RULE}, got 2.5"),
    "DisturbanceSpec seed": (lambda v: DisturbanceSpec("scaled_gaussian_projected", 0.5, 4, v, 2),
                             "seed", -1, f"{SEED_RULE}, got -1"),
    "config sim.seed": (config_value("sim.seed"), "sim.seed", -1, f"{SEED_RULE}, got -1"),
    "config disturbance.seed": (config_value("disturbance.seed"), "disturbance.seed", 2**63,
                                f"{SEED_RULE}, got {2**63}"),
    # A positive parameter is finite and above 0; altitude=True rolled out at 1 m.
    "UavEnvConfig altitude": (lambda v: UavEnvConfig(altitude=v), "altitude", 0.0,
                              "must be finite and positive, got 0.0"),
    "config env.altitude": (config_value("env.altitude"), "env.altitude", 0,
                            "must be finite and positive, got 0.0"),
    # A fraction lies in [0, 1].
    "UavEnvConfig coverage_weight": (lambda v: UavEnvConfig(coverage_weight=v),
                                     "coverage_weight", 1.5, "must lie in [0, 1], got 1.5"),
    "config env.gu_keep_direction": (config_value("env.gu_keep_direction"),
                                     "env.gu_keep_direction", -0.1, "must lie in [0, 1], got -0.1"),
    # A finite parameter is any real number but NaN and +-inf.
    "DisturbanceSpec omega": (lambda v: DisturbanceSpec("single_tone", 0.5, 4, 0, 2, omega=v),
                              "omega", math.nan, "must be finite, got nan"),
    "UavEnvConfig speed_penalty": (lambda v: UavEnvConfig(speed_penalty=v), "speed_penalty",
                                   -math.inf, "must be finite, got -inf"),
    "config disturbance.omega": (config_value("disturbance.omega"), "disturbance.omega",
                                 math.inf, "must be finite, got inf"),
    # A rank tolerance lies in (0, 1).
    "fit_koopman_model rank_tol": (surrogate_fit, "rank_tol", 5.0,
                                   "must lie in (0, 1), got 5.0"),
    "config analysis.rank_tol": (config_value("analysis.rank_tol"), "analysis.rank_tol", 0.0,
                                 "must lie in (0, 1), got 0.0"),
    # A bound's horizon is a whole number of steps or +inf; -5 gave a negative cap.
    "BoundInputs horizon": (lambda v: bound_inputs(horizon=v), "horizon", -5.0,
                            "must be a whole number of at least 1, or inf, got -5.0"),
}


# Each rollout given a disturbance that is not one group or more of (horizon,
# n) arrays, alone or with an oversized state buffer, and its refusal: the
# disturbance is read before the size is checked.
ROLLOUT_DISTURBANCE_FAULTS = {
    "linear_ensemble empty tuple": (
        lambda: linear_ensemble(SURROGATE, 3, 2, 0, disturbance=()), ParameterError,
        "a disturbance tuple needs at least one group"),
    "uav_ensemble empty tuple": (
        lambda: uav_ensemble(UAV, "centroid_greedy", 3, 2, 0, disturbance=()), ParameterError,
        "a disturbance tuple needs at least one group"),
    "linear_ensemble wrong shape in a tuple": (
        lambda: linear_ensemble(SURROGATE, 3, 2, 0, disturbance=(None, np.ones((3, 3)))),
        DimensionMismatchError, "disturbance[1] has shape (3, 3), expected (3, 2)"),
    "uav_ensemble wrong shape in a tuple": (
        lambda: uav_ensemble(UAV, "centroid_greedy", 3, 2, 0,
                             disturbance=(np.zeros((3, 6)), np.ones(6), None)),
        DimensionMismatchError, "disturbance[1] has shape (6,), expected (3, 6)"),
    "linear_ensemble non-finite entry in a tuple": (
        lambda: linear_ensemble(SURROGATE, 3, 2, 0,
                                disturbance=(None, disturbance(2, 0.0), disturbance(2, np.nan))),
        DataError, "disturbance[2] holds a non-finite value at index (1, 0)"),
    "linear_ensemble empty tuple over the size cap": (
        lambda: linear_ensemble(SURROGATE, 2**28, 2, 0, disturbance=()), ParameterError,
        "a disturbance tuple needs at least one group"),
    "uav_ensemble wrong shape over the size cap": (
        lambda: uav_ensemble(UAV, "centroid_greedy", 2**28, 2, 0,
                             disturbance=(None, np.ones((3, 6)))),
        DimensionMismatchError, f"disturbance[1] has shape (3, 6), expected ({2**28}, 6)"),
}


@pytest.mark.parametrize("name", ROLLOUT_DISTURBANCE_FAULTS)
def test_rollouts_refuse_malformed_disturbances(name):
    build, error, message = ROLLOUT_DISTURBANCE_FAULTS[name]
    with pytest.raises(error) as refused:
        build()
    assert type(refused.value) is error
    assert str(refused.value) == message


def test_every_array_input_is_covered():
    assert list(COMPLEX_INPUTS) == list(NON_FINITE_INPUTS) == [*ARRAY_RECORDS, *ENTRY_POINTS]


@pytest.mark.parametrize("name", COMPLEX_INPUTS)
def test_array_records_refuse_complex_input(name):
    # A cast to float would keep only the real part: a plausible wrong value.
    build, field_name = COMPLEX_INPUTS[name]
    rule = f"^{re.escape(field_name)} must be real, got complex values$"
    with pytest.raises(DataError, match=rule):
        build()


@pytest.mark.parametrize("name", NON_FINITE_INPUTS)
def test_array_inputs_refuse_non_finite_values(name):
    build, field_name, index = NON_FINITE_INPUTS[name]
    with pytest.raises(DataError) as refused:
        build()
    assert str(refused.value) == f"{field_name} holds a non-finite value at index {index}"


def two_runs(**ids):
    """A two-run ensemble of zeros with the run_ids or seeds given."""
    return TrajectoryEnsemble(np.zeros((2, 3, 1)), np.zeros((2, 2, 1)), np.zeros((2, 2)), **ids)


# Each array input given values that are not the numbers it holds, and the
# refusal: a cast would truncate a fraction, wrap a seed past 2**63, or read a
# string or a bool as a number.
NON_NUMBER_INPUTS = {
    "fractional run_ids": (lambda: two_runs(run_ids=[0.5, 1.7]),
                           "run_ids must hold int64 integers, got 0.5 at index (0,)"),
    "uint64 seeds past 2**63": (
        lambda: two_runs(seeds=np.array([2**63, 1], dtype=np.uint64)),
        "seeds must hold int64 integers, got 9223372036854775808 at index (0,)"),
    "float seeds at 2**63": (
        lambda: two_runs(seeds=np.array([1.0, 2.0**63])),
        "seeds must hold int64 integers, got 9.223372036854776e+18 at index (1,)"),
    "float seeds past int64": (lambda: two_runs(seeds=[1e30, 2.0]),
                               "seeds must hold int64 integers, got 1e+30 at index (0,)"),
    "NaN seeds": (lambda: two_runs(seeds=[np.nan, 1.0]),
                  "seeds must hold int64 integers, got nan at index (0,)"),
    "string run_ids": (lambda: two_runs(run_ids=["1", "2"]),
                       "run_ids must hold numbers, got <U1 values"),
    "bool run_ids": (lambda: two_runs(run_ids=[True, False]),
                     "run_ids must hold numbers, got bool values"),
    "string A": (lambda: LinearSurrogateConfig(A=[["0.9"]], F=[[1.0]], x0_mean=[1.0]),
                 "A must hold numbers, got <U3 values"),
    "bool F": (lambda: LinearSurrogateConfig(A=[[0.9]], F=[[True]], x0_mean=[1.0]),
               "F must hold numbers, got bool values"),
    "string w": (lambda: disturbance_admissible(["0.1"], 1.0),
                 "w must hold numbers, got <U3 values"),
    # numpy reads a bool in a list of numbers as 0 or 1; x0_mean and
    # direction are flattened only after the check.
    "bool among run_ids": (lambda: two_runs(run_ids=[0, True]),
                           "run_ids must hold numbers, got bool values"),
    "numpy bool among seeds": (lambda: two_runs(seeds=(np.True_, 2)),
                               "seeds must hold numbers, got bool values"),
    "bool in A": (lambda: LinearSurrogateConfig(A=[[True, 0.5], [0.0, 0.5]], F=[[1.0, 1.0]],
                                                x0_mean=[1.0, 1.0]),
                  "A must hold numbers, got bool values"),
    "bool in x0_mean": (lambda: LinearSurrogateConfig(A=[[0.9, 0.0], [0.0, 0.5]],
                                                      F=[[1.0, 1.0]], x0_mean=[[1.0], [True]]),
                        "x0_mean must hold numbers, got bool values"),
    "bool in direction": (lambda: DisturbanceSpec("impulse", 1.0, 3, 0, 2, direction=[1.0, True]),
                          "direction must hold numbers, got bool values"),
    "bool in w": (lambda: disturbance_admissible([[True, 0.0]], 2.0),
                  "w must hold numbers, got bool values"),
}


@pytest.mark.parametrize("name", NON_NUMBER_INPUTS)
def test_array_inputs_refuse_what_they_cannot_hold(name):
    build, message = NON_NUMBER_INPUTS[name]
    with pytest.raises(DataError) as refused:
        build()
    assert str(refused.value) == message


def test_integral_values_load_as_integers():
    # Whole floats, Python ints up to 2**63 - 1, an unsigned int64 below
    # 2**63 and the unknown seed -1 are the integers they write.
    ensemble = two_runs(run_ids=[0.0, 1.0], seeds=[2**63 - 1, -1])
    assert ensemble.run_ids.tolist() == [0, 1] and ensemble.seeds.tolist() == [2**63 - 1, -1]
    seeds = np.array([2**63 - 1, 0], dtype=np.uint64)
    assert replace(ensemble, seeds=seeds).seeds.tolist() == [2**63 - 1, 0]


@pytest.mark.parametrize("name", OUT_OF_RANGE_INPUTS)
def test_scalar_inputs_refuse_out_of_range_values(name):
    build, field_name, value, message = OUT_OF_RANGE_INPUTS[name]
    with pytest.raises(ParameterError) as refused:
        build(value)
    assert type(refused.value) is ParameterError
    assert str(refused.value) == f"{field_name} {message}"


@pytest.mark.parametrize("build, field_name, value, rule", [
    (lambda v: bound_inputs(horizon=v), "horizon", 10**400,
     "must be a whole number of at least 1, or inf"),
    (lambda v: bound_inputs(Q=v), "Q", 10**400, "must be finite and non-negative"),
    (lambda v: DisturbanceSpec("single_tone", 0.5, 4, 0, 2, omega=v), "omega", -10**400,
     "must be finite"),
], ids=["horizon", "Q", "omega"])
def test_scalar_inputs_refuse_integers_beyond_float_range(build, field_name, value, rule):
    # 10**400 < math.inf holds for a Python int, so the range test passed and
    # float() raised a bare OverflowError.
    with pytest.raises(ParameterError) as refused:
        build(value)
    assert str(refused.value) == f"{field_name} {rule}, got an integer beyond float range"


@pytest.mark.parametrize("value", [True, 1 + 0j, "1"], ids=["bool", "complex", "string"])
@pytest.mark.parametrize("name", OUT_OF_RANGE_INPUTS)
def test_scalar_inputs_refuse_non_real_values(name, value):
    # True was read as 1.  A config value is typed by its key's reader first,
    # which for an integer key asks for an integer.
    build, field_name, _, _ = OUT_OF_RANGE_INPUTS[name]
    config = name.startswith("config ")
    noun = "an integer" if config and cli._KEYS[field_name].read is as_integer else "a number"
    with pytest.raises(SchemaError if config else ParameterError) as refused:
        build(value)
    assert str(refused.value) == f"{field_name} must be {noun}, got {value!r}"


def test_scalar_inputs_keep_numpy_scalars_and_infinite_bound_levels():
    # A record keeps the value it is given, save BoundInputs, which holds the
    # floats a report file is written from; +inf is a real state of a bound
    # level (a vacuous cap, an unstable gain) and of a bound's horizon.
    inputs = bound_inputs(gamma=np.float32(0.5), T_hinf=math.inf, horizon=math.inf)
    assert type(inputs.gamma) is float and inputs.bounds()["M"] == math.inf
    assert deviation_bounds(math.inf, 1.0, 0.0)["N"] == 0.0
    assert disturbance_admissible(np.ones((3, 2)), math.inf).admissible
    spec = DisturbanceSpec("impulse", np.float32(0.5), np.int64(3), np.uint64(7), np.uint8(2))
    assert type(spec.horizon) is np.int64 and type(spec.seed) is np.uint64
    assert linear_ensemble(SURROGATE, np.int64(3), np.int32(2), np.int64(0)).r_count == 2
    assert type(UavEnvConfig(altitude=np.float32(20.0)).altitude) is np.float32


@pytest.mark.parametrize("rollout", [
    lambda seed: linear_ensemble(SURROGATE, 3, 4, seed),
    lambda seed: uav_ensemble(UAV, "centroid_greedy", 3, 4, seed),
], ids=["linear", "uav"])
def test_rollout_seeds_fit_int64(rollout):
    # An ensemble records its runs' seeds as int64: R runs from 2**63 - R
    # record seeds up to 2**63 - 1, and one more wrapped run R - 1's record
    # to -2**63 while its draws came from default_rng(2**63).
    top = 2**63 - 1
    assert rollout(top - 3).seeds.tolist() == [top - 3, top - 2, top - 1, top]
    for seed in (top - 2, np.int64(top)):
        with pytest.raises(ParameterError) as refused:
            rollout(seed)
        assert str(refused.value) == f"master_seed + runs - 1 {SEED_RULE}, got {int(seed) + 3}"


@pytest.mark.parametrize("rollout, dim", [
    (lambda w: linear_ensemble(SURROGATE, 3, 2, 0, disturbance=w), 2),
    (lambda w: uav_ensemble(UAV, "centroid_greedy", 3, 2, 0, disturbance=(None, w)),
     UAV.n),
], ids=["linear", "uav"])
def test_rollouts_leave_callers_disturbance_writable(rollout, dim):
    # A rollout checks a read-only copy of w; the caller's array is not frozen.
    w = disturbance(dim, 0.1)
    rollout(w)
    w[1, 0] = 0.2
    assert w.flags.writeable


def test_complex_eigenvalues_kept():
    # A rotation's DMD eigenvalues are a conjugate pair: the fit keeps them
    # complex128 and read-only, and a loaded model reads them back.
    c, s = 0.9 * np.cos(0.3), 0.9 * np.sin(0.3)
    states = rollout_matrix(np.array([[c, -s], [s, c]]), [1.0, 0.0], 10).T
    model = fit_koopman_model(curve_ensemble(states))
    for record in (model, loaded(model)):
        assert record.eigenvalues.dtype == np.complex128 and _read_only(record.eigenvalues)
        assert np.allclose(record.eigenvalues, 0.9 * np.exp([0.3j, -0.3j]), atol=1e-12)


def test_replaced_model_saves_no_old_diagnostics(tmp_path):
    # The fit diagnostics describe the fitted operators: a copy with other
    # operators starts without them, and its file holds the new operator's
    # eigenvalues, no rank, counts or residuals, and no gain.
    replaced = replace(fitted(), state_operator=np.diag([0.2, 0.3, 0.4]))
    for name in ("eigenvalues", "rank", "rank_tol", "snapshot_columns", "r_count",
                 "state_residual", "action_residual", "gain"):
        assert getattr(replaced, name) is None, name
    save_model(replaced, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["eigenvalues"] == [[0.4, 0.0], [0.3, 0.0], [0.2, 0.0]]
    assert [doc[key] for key in ("rank", "rank_tol", "snapshot_columns", "r_count")] == [None] * 4
    assert doc["residuals"] == {"state": None, "action": None} and "gain" not in doc
    # Only a fit or a model file sets them.
    with pytest.raises(TypeError, match="eigenvalues"):
        KoopmanModel(0.5 * np.eye(2), np.ones((1, 2)), eigenvalues=[np.nan])


def test_model_file_diagnostics_may_be_null_or_an_infinite_residual(tmp_path):
    # A model built in code writes null diagnostics, and a fit that misses a
    # zero target has an infinite residual: both load.
    path = tmp_path / "model.json"
    save_model(KoopmanModel(0.5 * np.eye(2), np.ones((1, 2))), path)
    doc = json.loads(path.read_text())
    doc["residuals"]["state"] = "inf"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert model.state_residual == math.inf
    nulls = (model.rank, model.rank_tol, model.snapshot_columns, model.r_count,
             model.action_residual)
    assert nulls == (None,) * 5


def read_file(load, name, text):
    """A reader of the file `name` holding `text`, given its directory."""
    def read(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return load(path)
    return read


def model_file_with_n(tmp_path):
    """load_model of a 2-state model's file whose n field says 3."""
    path = tmp_path / "model.json"
    save_model(KoopmanModel(0.5 * np.eye(2), np.ones((1, 2))), path)
    doc = json.loads(path.read_text())
    doc["n"] = 3
    path.write_text(json.dumps(doc))
    return load_model(path)


TRAJECTORY_HEADER = "run,k,x0,u0,r\n"

# Each shape and format check of a config file, a trajectory file or array,
# a surrogate, a disturbance direction, verify's model and a model file: a
# function of a scratch directory that trips it, the error and its message.
INPUT_FAULTS = {
    "config line without =": (read_file(load_flat_config, "run.cfg", "sim.env linear\n"),
                              ParseError, "line 1: expected 'key = value', got 'sim.env linear'"),
    "config empty key": (read_file(load_flat_config, "run.cfg", "# runs\n = 3\n"), ParseError,
                         "line 2: empty key"),
    "config duplicate key": (read_file(load_flat_config, "run.cfg", "sim.runs = 2\nsim.runs = 3\n"),
                             ParseError, "line 2: duplicate key 'sim.runs'"),
    "ensemble 2-d states": (lambda _: TrajectoryEnsemble(np.zeros((3, 2)), np.zeros((1, 2, 1)),
                                                         np.zeros((1, 2))),
                            DimensionMismatchError,
                            "states/actions must be 3-d (runs x steps x dim) and rewards 2-d"),
    # A record with no state or no action component saved a file that its
    # own loader refused.
    "ensemble without states": (lambda _: TrajectoryEnsemble(np.zeros((2, 4, 0)),
                                                             np.zeros((2, 3, 1)), np.zeros((2, 3))),
                                DimensionMismatchError, "states is empty, got shape (2, 4, 0)"),
    "ensemble without actions": (lambda _: TrajectoryEnsemble(np.zeros((2, 4, 1)),
                                                              np.zeros((2, 3, 0)),
                                                              np.zeros((2, 3))),
                                 DimensionMismatchError, "actions is empty, got shape (2, 3, 0)"),
    "ensemble without runs or components": (
        lambda _: TrajectoryEnsemble(np.zeros((0, 4, 0)), np.zeros((0, 3, 0)), np.zeros((0, 3))),
        InsufficientDataError, "ensemble needs at least one run"),
    "model 0 x 0 state operator": (lambda _: KoopmanModel(np.zeros((0, 0)), np.zeros((1, 0))),
                                   DimensionMismatchError,
                                   "state_operator is empty, got shape (0, 0)"),
    "model without action rows": (lambda _: KoopmanModel(np.eye(2), np.zeros((0, 2))),
                                  DimensionMismatchError,
                                  "action_operator is empty, got shape (0, 2)"),
    "trajectory header malformed": (read_file(load_trajectories, "traj.csv", "run,k,x0\n"),
                                    ParseError, "line 1: malformed header ['run', 'k', 'x0']"),
    "trajectory header out of order": (
        read_file(load_trajectories, "traj.csv", "run,k,u0,x0,r\n0,0,1.0,1.0,1.0\n"),
        ParseError, "line 1: header columns must be x0..x{n-1},u0..u{m-1}"),
    "trajectory step without action": (
        read_file(load_trajectories, "traj.csv",
                  TRAJECTORY_HEADER + "0,0,1.0,,\n0,1,2.0,0.5,1.0\n0,2,3.0,,\n"),
        ParseError, "run 0: step 0 is missing action/reward fields"),
    "trajectory terminal row only": (
        read_file(load_trajectories, "traj.csv", TRAJECTORY_HEADER + "0,0,1.0,,\n"),
        DimensionMismatchError, "run 0: no steps before the terminal row"),
    "trajectory seed comment malformed": (
        read_file(load_trajectories, "traj.csv", "# seed 0 x\n" + TRAJECTORY_HEADER),
        ParseError, "line 1: malformed seed comment"),
    "trajectory without data rows": (read_file(load_trajectories, "traj.csv", TRAJECTORY_HEADER),
                                     InsufficientDataError, "trajectory file has no data rows"),
    "surrogate A not square": (lambda _: LinearSurrogateConfig(np.ones((2, 3)), np.ones((1, 3)),
                                                               np.ones(2)),
                               DimensionMismatchError, "A must be square, got shape (2, 3)"),
    "surrogate F not m x n": (lambda _: LinearSurrogateConfig(np.eye(2), np.ones((1, 3)),
                                                              np.ones(2)),
                              DimensionMismatchError, "F must be m x n with n=2, got shape (1, 3)"),
    "surrogate x0 length": (lambda _: LinearSurrogateConfig(np.eye(2), np.ones((1, 2)),
                                                            np.ones(3)),
                            DimensionMismatchError, "x0_mean has dimension 3, expected 2"),
    "surrogate A empty": (lambda _: LinearSurrogateConfig(np.zeros((0, 0)), np.zeros((1, 0)),
                                                          np.zeros(0)),
                          DimensionMismatchError, "A is empty, got shape (0, 0)"),
    "surrogate F empty": (lambda _: LinearSurrogateConfig(np.eye(2), np.zeros((0, 2)),
                                                          np.ones(2)),
                          DimensionMismatchError, "F is empty, got shape (0, 2)"),
    "direction length": (lambda _: DisturbanceSpec("impulse", 1.0, 3, 0, 2,
                                                   direction=[1.0, 0.0, 0.0]),
                         DimensionMismatchError, "direction has dimension 3, expected 2"),
    "direction zero": (lambda _: DisturbanceSpec("impulse", 1.0, 3, 0, 2, direction=[0.0, 0.0]),
                       DataError, "direction must be nonzero"),
    "verify model dimensions": (
        lambda _: verify_bounds(*[linear_ensemble(SURROGATE, 3, 2, 0)] * 2,
                                KoopmanModel(0.5 * np.eye(3), np.ones((1, 3))), 0.5, 0.9, 1.0),
        DimensionMismatchError, "model has (n, m)=(3, 1), data has (2, 1)"),
    "model file n": (model_file_with_n, SchemaError,
                     "model field 'state_operator' has shape (2, 2), expected (3, 3)"),
}


@pytest.mark.parametrize("name", INPUT_FAULTS)
def test_input_faults_refused(tmp_path, name):
    read, error, message = INPUT_FAULTS[name]
    with pytest.raises(KoopboundError) as refused:
        read(tmp_path)
    assert type(refused.value) is error and str(refused.value) == message
