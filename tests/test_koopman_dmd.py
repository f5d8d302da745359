"""Operator fitting: recovery oracles, spectra, least squares, model JSON."""

import json

import numpy as np
import pytest

from koopbound import (
    DataError,
    DegenerateInputError,
    KoopmanModel,
    MeanTrajectory,
    ParameterError,
    SchemaError,
    fit_koopman_model,
    load_model,
    save_model,
)
from koopbound.koopman_dmd import _projected_dmd, _truncated_svd


def rollout_matrix(a, x0, steps):
    """Columns x0, A x0, A^2 x0, ... (steps+1 columns)."""
    cols = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


def dmd(x0, x1, rank_tol=1e-10):
    """The fit's DMD core on an arbitrary snapshot pair x1 ~= K x0, such as
    stacks of several runs, which no single mean trajectory can express."""
    return _projected_dmd(x0, x1, _truncated_svd(x0, rank_tol))


def state_fit(states, rank_tol=1e-10):
    """The state DMD of fit_koopman_model on one state sequence."""
    return fit_koopman_model(mean_from_states(states), rank_tol).state_dmd


def random_stable(rng, n, radius=0.9):
    a = rng.normal(size=(n, n))
    rho = np.max(np.abs(np.linalg.eigvals(a)))
    return a * (radius / rho)


def mean_from_states(states, actions=None):
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    k = len(states) - 1
    if actions is None:
        actions = np.zeros((k, 1))
    else:
        actions = np.asarray(actions, dtype=float)
        if actions.ndim == 1:
            actions = actions[:, None]
    return MeanTrajectory(mean_states=states, mean_actions=actions, r_count=1)


class TestDmdStandard:
    def test_identity_snapshots_diag(self):
        x0 = np.eye(2)
        x1 = np.diag([2.0, 3.0]) @ x0
        result = dmd(x0, x1)
        assert np.allclose(result.operator, np.diag([2.0, 3.0]))
        assert np.allclose(result.eigenvalues, [3.0, 2.0])

    def test_identity_dynamics(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 8))
        result = dmd(x0, x0)
        assert np.allclose(result.eigenvalues, 1.0, atol=1e-10)
        assert result.residual < 1e-12

    def test_triangular_system_eigenvalues(self):
        a = np.array([[0.9, 0.1], [0.0, 0.5]])
        result = state_fit(rollout_matrix(a, [1.0, 1.0], 50).T)
        assert np.allclose(sorted(np.abs(result.eigenvalues)), [0.5, 0.9], atol=1e-8)
        assert np.allclose(result.operator, a, atol=1e-8)

    def test_zero_snapshots_degenerate(self):
        # Mean states 0..K-1 are zero; only the last one is not.
        with pytest.raises(DegenerateInputError):
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
        assert np.allclose(result.operator @ x, 2.0 * x)

    def test_zero_right_side(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6))
        result = dmd(x, np.zeros_like(x))
        assert np.allclose(result.eigenvalues, 0.0, atol=1e-12)
        assert result.residual == 0.0

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
                shifted = result.operator - lam * np.eye(n)
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
        assert np.linalg.norm(result.operator - a) <= 1e-8 * np.linalg.norm(a)

    def test_constant_sequence_fixed_point(self):
        result = state_fit(np.tile([2.0, -1.0], (6, 1)))
        assert result.rank == 1
        assert np.isclose(result.eigenvalues[0].real, 1.0, atol=1e-10)

    def test_decaying_scalar(self):
        result = state_fit(0.9 ** np.arange(10.0))
        assert np.allclose(result.operator, [[0.9]], atol=1e-12)


def action_fit(states, actions):
    return fit_koopman_model(MeanTrajectory(states, actions, 1)).action_operator


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
        with pytest.raises(DegenerateInputError):
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
            assert np.linalg.norm(result.operator - a) <= 1e-6 * np.linalg.norm(a)


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        a = random_stable(rng, 3)
        states = rollout_matrix(a, rng.normal(size=3), 30).T
        actions = states[:-1] @ rng.normal(size=(3, 2))
        model = fit_koopman_model(MeanTrajectory(states, actions, r_count=4))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.state_operator, model.state_operator)
        assert np.array_equal(loaded.action_operator, model.action_operator)
        assert loaded.fit_metadata["rank_tol"] == model.fit_metadata["rank_tol"]
        assert loaded.fit_metadata["r_count"] == 4

    def test_schema_validation(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(KoopmanModel(np.eye(2), np.zeros((1, 2))), path)
        doc = json.loads(path.read_text())
        del doc["state_operator"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="state_operator"):
            load_model(path)

    def test_real_guard(self):
        from koopbound.koopman_dmd import _require_real

        with pytest.raises(DataError):
            _require_real(np.array([[1.0 + 1e-3j]]), "operator")
        out = _require_real(np.array([[1.0 + 1e-9j]]), "operator")
        assert out.dtype.kind == "f" and out[0, 0] == 1.0
