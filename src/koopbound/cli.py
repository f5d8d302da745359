"""Command-line pipeline: simulate, fit, analyze, verify, report.

Every command reads a flat dotted-key config, writes machine-readable output
(JSON or CSV), and drops a manifest with input/output digests next to each
output file.  Analysis findings such as an unstable fitted operator or bound
violations are reported in the output with exit code 0; only I/O and
validation problems exit nonzero.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import math
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from ._jsonio import write_json
from .bounds import (
    DISTURBANCE_KINDS,
    DisturbanceSpec,
    RewardDescriptor,
    action_deviation_bounds,
    disturbance_admissible,
    generate_disturbance,
    load_report,
    per_step_table,
    save_report,
    state_deviation_bounds,
    verify_bounds,
    write_per_step_table,
)
from .errors import KoopboundError, ParameterError
from .flatconfig import load_flat_config
from .hinf_spectral import TransferFunction, hinf_norm, spectral_radius
from .koopman_dmd import (
    DEFAULT_RANK_TOL,
    fit_koopman_model,
    load_model,
    save_model,
)
from .env_sim import (
    POLICY_KINDS,
    LinearSurrogateConfig,
    UavEnvConfig,
    linear_ensemble,
    split_groups,
    uav_ensemble,
)
from .trajectory_data import ensemble_mean, load_trajectories, save_trajectories

# Every config key a command reads, with its help line.  The env.* keys are
# the UavEnvConfig field names.
_CONFIG_KEYS = {
    "sim.env": '"linear" or "uav"',
    "sim.runs": "runs per ensemble (default 64)",
    "sim.horizon": "steps per run (default 100)",
    "sim.seed": "master seed; run r uses seed + r (default 0)",
    "sim.policy": "uav policy: " + " | ".join(POLICY_KINDS),
    "linear.A": "state matrix, nested list",
    "linear.F": "policy matrix, nested list",
    "linear.x0": "initial state, list",
    "linear.noise_std": "process noise standard deviation (default 0)",
    "disturbance.kind": " | ".join(DISTURBANCE_KINDS),
    "disturbance.gamma": "disturbance level for verify (default 1.0)",
    "disturbance.seed": "disturbance RNG seed (default 0)",
    "disturbance.direction": "spatial direction of the deterministic kinds, list",
    "disturbance.omega": "tone frequency of single_tone (default pi/4)",
    "analysis.gamma": "disturbance level for analyze (default 1.0)",
    "analysis.gamma_d": "reward discount factor (default 0.9)",
    "analysis.rank_tol": f"DMD rank tolerance (default {DEFAULT_RANK_TOL:g})",
    "analysis.L": "analytic reward Lipschitz constant override",
}
_ENV_FIELDS = tuple(f.name for f in fields(UavEnvConfig))
_KNOWN_KEYS = frozenset(_CONFIG_KEYS).union("env." + name for name in _ENV_FIELDS)


def _config_key_help() -> str:
    lines = ["config keys (flat `key = value` lines, values parsed as JSON when possible):"]
    lines += [f"  {key:<24}{text}" for key, text in _CONFIG_KEYS.items()]
    env = textwrap.wrap(
        "UavEnvConfig field: " + ", ".join(_ENV_FIELDS), width=54, break_on_hyphens=False
    )
    lines.append(f"  {'env.<field>':<24}{env[0]}")
    lines += [" " * 26 + line for line in env[1:]]
    return "\n".join(lines) + "\n"


def _warn_unknown_keys(cfg: dict) -> None:
    for key in cfg:
        if key not in _KNOWN_KEYS:
            print(f"warning: unknown config key {key!r}", file=sys.stderr)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(command: str, config_path, seed, inputs, outputs) -> None:
    manifest = {
        "command": command,
        "config": str(config_path) if config_path else None,
        "master_seed": seed,
        "tool_version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    first_out = Path(outputs[0])
    write_json(manifest, first_out.with_name(first_out.name + ".manifest.json"))


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    cfg = load_flat_config(args.config)
    _warn_unknown_keys(cfg)
    return cfg


def _sim_params(cfg: dict, args) -> tuple[str, int, int, int]:
    env = args.env or cfg.get("sim.env")
    if env not in ("linear", "uav"):
        raise ParameterError(f"sim.env must be 'linear' or 'uav', got {env!r}")
    runs = _integer(args.runs, cfg, "sim.runs", 64)
    horizon = _integer(args.horizon, cfg, "sim.horizon", 100)
    seed = _seed(args.seed, cfg, "sim.seed")
    return env, runs, horizon, seed


def _integer(flag, cfg: dict, key: str, default: int) -> int:
    """The command-line flag, else the config key, else the default; it must
    be an integral number (1e3 reads as 1000; 2.7, true and "x" exit 2)."""
    value = flag if flag is not None else cfg.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{key} must be an integer, got {value!r}")
    return value


def _seed(flag, cfg: dict, key: str) -> int:
    """A master seed: a non-negative integer, default 0, as numpy's
    generators take."""
    seed = _integer(flag, cfg, key, 0)
    if seed < 0:
        raise ParameterError(f"{key} must be non-negative, got {seed}")
    return seed


def _number(flag, cfg: dict, key: str, default: float) -> float:
    """The command-line flag, else the config key, else the default; it must
    be a number (true and "x" exit 2)."""
    value = flag if flag is not None else cfg.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParameterError(f"{key} must be a number, got {value!r}")
    return float(value)


def _level(flag, cfg: dict, key: str, default: float) -> float:
    """A disturbance level or discount factor: a number that is finite and
    non-negative."""
    value = _number(flag, cfg, key, default)
    if not (math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{key} must be finite and non-negative, got {value}")
    return value


def _discount_factor(flag, cfg: dict) -> float:
    """The reward discount factor gamma_d: a level below 1."""
    gamma_d = _level(flag, cfg, "analysis.gamma_d", 0.9)
    if not gamma_d < 1.0:
        raise ParameterError(f"analysis.gamma_d is a discount factor and must be below 1, "
                             f"got {gamma_d}")
    return gamma_d


def _env_config(cfg: dict, env: str, horizon: int, seed: int):
    """The validated environment parameters; built before any work, so a bad
    value exits before a rollout starts."""
    if env == "linear":
        return LinearSurrogateConfig.from_flat(cfg, horizon=horizon, seed=seed)
    return UavEnvConfig.from_flat(cfg)


def _rollout(env_cfg, runs, horizon, seed, policy, disturbance=None):
    if isinstance(env_cfg, LinearSurrogateConfig):
        return linear_ensemble(env_cfg, runs, master_seed=seed, disturbance=disturbance)
    return uav_ensemble(env_cfg, policy, horizon, runs, seed, disturbance=disturbance)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    env, runs, horizon, seed = _sim_params(cfg, args)
    policy = args.policy or cfg.get("sim.policy", "centroid_greedy")
    ensemble = _rollout(_env_config(cfg, env, horizon, seed), runs, horizon, seed, policy)
    out = Path(args.out or "trajectories.csv")
    save_trajectories(ensemble, out)
    inputs = [args.config] if args.config else []
    _write_manifest("simulate", args.config, seed, inputs, [out])
    print(f"wrote {out}: {ensemble.r_count} runs, K={ensemble.horizon}, "
          f"n={ensemble.n}, m={ensemble.m}")
    return 0


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    rank_tol = _number(args.rank_tol, cfg, "analysis.rank_tol", DEFAULT_RANK_TOL)
    ensemble = load_trajectories(args.trajectories)
    model = fit_koopman_model(ensemble_mean(ensemble), rank_tol)
    out = Path(args.out or "model.json")
    save_model(model, out)
    inputs = [args.trajectories] + ([args.config] if args.config else [])
    _write_manifest("fit", args.config, None, inputs, [out])
    meta = model.fit_metadata
    print(
        f"wrote {out}: n={model.n}, m={model.m}, rank={model.state_dmd.rank}, "
        f"state_residual={meta['state_residual']:.3e}, "
        f"action_residual={meta['action_residual']:.3e}"
    )
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    model = load_model(args.model)
    gamma = _level(args.gamma, cfg, "analysis.gamma", 1.0)
    gamma_d = _discount_factor(args.gamma_d, cfg)
    hinf = hinf_norm(TransferFunction.resolvent(model.state_operator))
    kf_hinf = hinf_norm(TransferFunction.constant(model.action_operator)).value
    t_value = hinf.value
    state_energy, state_max = state_deviation_bounds(t_value, gamma)
    action_energy, action_max = action_deviation_bounds(kf_hinf, t_value, gamma)
    doc = {
        "spectral_radius": spectral_radius(model.state_operator),
        "hinf": hinf.to_dict(),
        "Kf_hinf": kf_hinf,
        "gamma": gamma,
        "gamma_d": gamma_d,
        "M": state_max,
        "N": action_max,
        "state_energy_bound": state_energy,
        "state_max_bound": state_max,
        "action_energy_bound": action_energy,
        "action_max_bound": action_max,
        "L": cfg.get("analysis.L"),
        "Q": None,
        "C": None,
        "reward_impact_bound": None,
        "generalization_error_bound": None,
        "pending": "L/Q/C require verification data; run the verify command",
    }
    out = Path(args.out or "analysis.json")
    write_json(doc, out)
    inputs = [args.model] + ([args.config] if args.config else [])
    _write_manifest("analyze", args.config, None, inputs, [out])
    if not hinf.converged:
        print(
            "warning: fitted state operator is not stable "
            f"(spectral radius {hinf.spectral_radius:.6f}); worst-case gain is infinite",
            file=sys.stderr,
        )
    print(f"wrote {out}: T_hinf={t_value}, Kf_hinf={kf_hinf:.6g}")
    return 0


def _disturbance_from_config(cfg, args, dim: int, horizon: int) -> DisturbanceSpec:
    gamma = _level(args.gamma, cfg, "disturbance.gamma", 1.0)
    kind = args.disturbance_kind or cfg.get("disturbance.kind", "scaled_gaussian_projected")
    seed = _seed(args.disturbance_seed, cfg, "disturbance.seed")
    direction = cfg.get("disturbance.direction")
    omega = cfg.get("disturbance.omega")
    return DisturbanceSpec(
        kind=kind,
        gamma=gamma,
        horizon=horizon,
        seed=seed,
        dim=dim,
        direction=None if direction is None else np.asarray(direction, dtype=float),
        omega=None if omega is None else float(omega),
    )


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    model = load_model(args.model)
    env, runs, horizon, seed = _sim_params(cfg, args)
    env_cfg = _env_config(cfg, env, horizon, seed)
    policy = args.policy or cfg.get("sim.policy", "centroid_greedy")
    gamma_d = _discount_factor(args.gamma_d, cfg)
    spec = _disturbance_from_config(cfg, args, model.n, horizon)
    w = generate_disturbance(spec)
    check = disturbance_admissible(w, spec.gamma)
    if not check.admissible:
        print(
            f"internal error: generated disturbance is inadmissible "
            f"(sup {check.sup_value} > gamma {spec.gamma})",
            file=sys.stderr,
        )
        return 3

    # One rollout steps the nominal and disturbed runs together on common
    # random numbers; the two ensembles are views of its arrays.
    nominal, disturbed = split_groups(
        _rollout(env_cfg, runs, horizon, seed, policy, disturbance=(None, w)), 2
    )
    nominal_mean = ensemble_mean(nominal)
    disturbed_mean = ensemble_mean(disturbed)

    analytic_l = cfg.get("analysis.L")
    if analytic_l is None and env == "linear":
        analytic_l = env_cfg.reward_lipschitz
    reward = RewardDescriptor(
        name=f"{env}-reward",
        analytic_L=None if analytic_l is None else float(analytic_l),
    )

    report = verify_bounds(
        nominal_mean,
        disturbed_mean,
        nominal,
        disturbed,
        model,
        spec.gamma,
        gamma_d,
        reward,
    )
    default_label = f"{env}:{policy}" if env == "uav" else env
    label = args.label or default_label
    out = Path(args.out or "verify_report.json")
    save_report(report, out, label=label)
    steps_path = out.with_suffix(".steps.csv")
    write_per_step_table(
        per_step_table(nominal_mean, disturbed_mean, nominal, disturbed), steps_path
    )
    inputs = [args.model] + ([args.config] if args.config else [])
    _write_manifest("verify", args.config, seed, inputs, [out, steps_path])
    if report.violations:
        print(
            f"note: {len(report.violations)} bound violation(s) recorded "
            "(fitted-model approximation effect)",
            file=sys.stderr,
        )
    print(
        f"wrote {out}: gamma={spec.gamma}, kind={spec.kind}, "
        f"violations={len(report.violations)}"
    )
    return 0


def cmd_report(args) -> int:
    rows = []
    for path in args.reports:
        report, label = load_report(path)
        emp = report.empirical or {}
        rows.append(
            {
                "label": label or Path(path).stem,
                "T_hinf": report.inputs.T_hinf,
                "Kf_hinf": report.inputs.Kf_hinf,
                "M": report.M,
                "N": report.N,
                "state_energy_bound": report.state_energy_bound,
                "action_energy_bound": report.action_energy_bound,
                "reward_impact_bound": report.reward_impact_bound,
                "generalization_error_bound": report.generalization_error_bound,
                "reward_impact_pct": emp.get("reward_impact_pct"),
                "violations": len(report.violations),
            }
        )
    rows.sort(key=lambda r: r["T_hinf"])
    out = Path(args.out or "report.json")
    write_json({"rows": rows}, out)
    csv_path = out.with_suffix(".csv")
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in columns))
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest("report", None, None, list(args.reports), [out, csv_path])
    header = f"{'label':<24}{'T_hinf':>14}{'Kf_hinf':>12}{'impact_pct':>12}"
    print(header)
    for row in rows:
        pct = row["reward_impact_pct"]
        print(
            f"{row['label']:<24}{row['T_hinf']:>14.4f}{row['Kf_hinf']:>12.4f}"
            f"{(f'{pct:.4f}' if pct is not None else '-'):>12}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopbound",
        description=(
            "Fit linear operator models to policy rollouts, compute worst-case "
            "frequency-domain gains, and verify deviation/reward bounds."
        ),
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=False):
        p.add_argument("--config", required=config_required, help="flat dotted-key config file")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("simulate", help="roll out an ensemble and write a trajectory file")
    common(p, config_required=True)
    p.add_argument("--env", choices=["linear", "uav"], default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--policy", default=None, help="uav policy kind")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit state and action operators from a trajectory file")
    common(p)
    p.add_argument("trajectories", help="trajectory file from simulate")
    p.add_argument("--rank-tol", type=float, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("analyze", help="worst-case gains and deviation bounds of a model")
    common(p)
    p.add_argument("model", help="model JSON from fit")
    p.add_argument("--gamma", type=float, default=None, help="disturbance level")
    p.add_argument("--gamma-d", type=float, default=None, help="discount factor")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="inject admissible disturbances and check every bound")
    common(p, config_required=True)
    p.add_argument("model", help="model JSON from fit")
    p.add_argument("--env", choices=["linear", "uav"], default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--policy", default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gamma-d", type=float, default=None)
    p.add_argument("--disturbance-kind", default=None)
    p.add_argument("--disturbance-seed", type=int, default=None)
    p.add_argument("--label", default=None, help="row label for the report command")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="tabulate one or more verification reports")
    p.add_argument("reports", nargs="+", help="bound report JSON files")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KoopboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
