"""Workload definitions: inputs generated from a seed, and the CLI commands of one pass.

Each workload writes its config files into a work directory and returns the
ordered list of CLI calls that make up one pass of the pipeline.  Only the
README walkthrough's commands (simulate, fit, analyze, verify, report), flags
(--config, --out, --gamma) and config keys (sim.*, linear.*, env.*,
disturbance.kind, disturbance.gamma) are used, so the program sees nothing
but the generated files.

``scale="warmup"`` builds the same command sequence with fewer runs and
steps and a single gamma level, at the full state dimension: it touches every
code path (imports, file formats, and LAPACK calls of the full sizes, whose
first calls are slow) in a fraction of the time of a full pass, and serves
as the untimed warm-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Compact-area UAV environment of the two-policy ordering acceptance test:
# 12 ground users and the UAV give n = 2*12 + 2 = 26 state components.
UAV_ENV_KEYS = {
    "env.area_x": 50.0,
    "env.area_y": 50.0,
    "env.gu_count": 12,
    "env.altitude": 20.0,
    "env.coverage_radius": 25.0,
    "env.gu_mean_speed": 10.0,
}
UAV_POLICIES = ("centroid_greedy", "lagged_centroid")
# Sizes are chosen so that one CLI call takes at most about 3 s on the
# 2-vCPU host the benchmark was tuned on: the reference job timed around each
# call then tracks the host speed during the call (reference.py).
UAV_RUNS, UAV_HORIZON = 4, 1000
WIDE_IO_RUNS, WIDE_IO_HORIZON = 24, 1000
# Simulation seeds, out of 1000..1059, for which both policies' fitted
# operators (R=4, K=1000) are stable (spectral radius below 1).  About two
# thirds of seeds give a spectral radius at or just above 1 at this ensemble
# size; the CLI then reports an infinite gain and skips the H-infinity search,
# which would make analyze_s and verify_s bimodal across workload seeds.  The
# workload seed selects one entry.
UAV_SIM_SEEDS = (1004, 1009, 1010, 1011, 1013, 1019, 1021, 1022, 1027, 1028, 1029, 1030, 1031,
                 1032, 1043, 1046, 1056, 1057, 1058)
# Process noise of the linear surrogates: small enough that the fitted
# operator keeps every eigenvalue inside the unit circle (the least damped
# true mode has 1 - |lambda| >= 1e-4), nonzero so that runs differ.
LINEAR_NOISE_STD = 1e-5
# Warm-up size: 400 snapshots make the fit's SVD as large as the timed
# passes' smallest, so the first calls into those LAPACK paths fall into set-up.
WARMUP_RUNS, WARMUP_HORIZON = 2, 400
# A warm-up UAV seed whose small fits are stable for both policies, so every
# warm-up runs the H-infinity search and set-up time does not depend on the
# workload seed.
WARMUP_UAV_SIM_SEED = 1009


@dataclass(frozen=True)
class Step:
    """One CLI call: the pipeline stage it belongs to and its argv."""

    stage: str
    argv: tuple


WORKLOADS = ("uav-policies", "linear-gain", "wide-io")


def _write_config(path: Path, cfg: dict) -> None:
    lines = [f"{key} = {json.dumps(value)}" for key, value in cfg.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def lightly_damped_operator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real n x n operator whose eigenvalues are conjugate pairs with
    1 - |lambda| drawn log-uniformly from [1e-4, 1e-1], rotated into a dense
    matrix by a random orthogonal similarity."""
    if n % 2:
        raise ValueError("n must be even")
    blocks = np.zeros((n, n))
    for i in range(0, n, 2):
        radius = 1.0 - 10.0 ** rng.uniform(-4.0, -1.0)
        angle = rng.uniform(0.05, np.pi - 0.05)
        c, s = np.cos(angle), np.sin(angle)
        blocks[i:i + 2, i:i + 2] = radius * np.array([[c, -s], [s, c]])
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return q @ blocks @ q.T


def _linear_keys(rng: np.random.Generator, n: int, m: int, noise_std: float) -> dict:
    a = lightly_damped_operator(rng, n)
    f = rng.uniform(-0.5, 0.5, size=(m, n))
    x0 = rng.standard_normal(n)
    return {
        "linear.A": a.tolist(),
        "linear.F": f.tolist(),
        "linear.x0": x0.tolist(),
        "linear.noise_std": noise_std,
    }


def _pipeline(cfg_path: Path, out: Path, tag: str, gammas) -> tuple[list, list]:
    """simulate -> fit -> analyze and verify at each gamma; (steps, verify report paths)."""
    traj, model = out / f"{tag}.csv", out / f"{tag}_model.json"
    steps = [
        Step("simulate", ("simulate", "--config", str(cfg_path), "--out", str(traj))),
        Step("fit", ("fit", str(traj), "--out", str(model))),
    ]
    for gamma in gammas:
        steps.append(Step("analyze", (
            "analyze", str(model), "--gamma", repr(gamma),
            "--out", str(out / f"{tag}_analysis_g{gamma}.json"),
        )))
    reports = [out / f"{tag}_verify_g{gamma}.json" for gamma in gammas]
    for gamma, report in zip(gammas, reports):
        steps.append(Step("verify", (
            "verify", "--config", str(cfg_path), str(model), "--gamma", repr(gamma),
            "--out", str(report),
        )))
    return steps, reports


def build(name: str, seed: int, inputs: Path, out: Path, scale: str = "full") -> list:
    """Write the workload's inputs for ``seed`` into ``inputs`` and return the
    steps of one pass, which write their outputs into ``out``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    full = scale == "full"
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    inputs.mkdir(parents=True, exist_ok=True)

    if name == "uav-policies":
        if full:
            runs, horizon, gammas = UAV_RUNS, UAV_HORIZON, (1.0, 4.0)
            sim_seed = UAV_SIM_SEEDS[seed % len(UAV_SIM_SEEDS)]
        else:
            runs, horizon, gammas = WARMUP_RUNS, WARMUP_HORIZON, (1.0,)
            sim_seed = WARMUP_UAV_SIM_SEED
        steps, by_gamma = [], {g: [] for g in gammas}
        for policy in UAV_POLICIES:
            cfg = {
                "sim.env": "uav",
                "sim.runs": runs,
                "sim.horizon": horizon,
                "sim.seed": sim_seed,
                "sim.policy": policy,
                **UAV_ENV_KEYS,
                "disturbance.kind": "scaled_gaussian_projected",
            }
            cfg_path = inputs / f"{policy}.cfg"
            _write_config(cfg_path, cfg)
            policy_steps, reports = _pipeline(cfg_path, out, policy, gammas)
            steps += policy_steps
            for gamma, report in zip(gammas, reports):
                by_gamma[gamma].append(report)
        for gamma in gammas:
            steps.append(Step("report", (
                "report", *map(str, by_gamma[gamma]), "--out", str(out / f"summary_g{gamma}.json"),
            )))
        return steps

    if name == "linear-gain":
        runs, horizon, gammas = 4, 400, (0.25, 0.5, 1.0, 2.0)
    else:  # wide-io
        runs, horizon, gammas = WIDE_IO_RUNS, WIDE_IO_HORIZON, (1.0,)
    n = 42
    if not full:
        runs, horizon, gammas = WARMUP_RUNS, WARMUP_HORIZON, gammas[:1]
    cfg = {
        "sim.env": "linear",
        "sim.runs": runs,
        "sim.horizon": horizon,
        "sim.seed": int(rng.integers(0, 2**31 - 1)),
        **_linear_keys(rng, n, m=4, noise_std=LINEAR_NOISE_STD),
        "disturbance.kind": "scaled_gaussian_projected",
    }
    cfg_path = inputs / "surrogate.cfg"
    _write_config(cfg_path, cfg)
    steps, reports = _pipeline(cfg_path, out, "surrogate", gammas)
    steps.append(Step("report", ("report", *map(str, reports), "--out", str(out / "summary.json"))))
    return steps
