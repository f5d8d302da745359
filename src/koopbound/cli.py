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
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._jsonio import write_json
from .bounds import (
    DISTURBANCE_KINDS,
    DisturbanceSpec,
    RewardDescriptor,
    action_deviation_bounds,
    certified_gain,
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
# Not called here: the gain is computed by bounds.certified_gain.  The name
# stays because perfbench/layers.py wraps koopbound.cli.hinf_norm and reports
# the whole H-infinity layer as missing when it is gone.
from .hinf_spectral import hinf_norm  # noqa: F401
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
    check_rollout_size,
    linear_ensemble,
    split_groups,
    uav_ensemble,
)
from .trajectory_data import ensemble_mean, load_trajectories, save_trajectories


# Readers of config values: each takes the key and its JSON value (or its
# command-line flag) and returns the typed value or names the key in a
# ParameterError.  Range checks beyond these stay with the dataclasses.
def _integer(key: str, value) -> int:
    """An integral number (1e3 reads as 1000; 2.7, true and "x" exit 2)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{key} must be an integer, got {value!r}")
    return value


def _seed(key: str, value) -> int:
    """A master seed: a non-negative integer, as numpy's generators take."""
    seed = _integer(key, value)
    if seed < 0:
        raise ParameterError(f"{key} must be non-negative, got {seed}")
    return seed


def _numeric(value) -> bool:
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _number(key: str, value) -> float:
    """A number, as a Python float (true, "x" and integers beyond float range exit 2)."""
    if not _numeric(value):
        raise ParameterError(f"{key} must be a number, got {value!r}")
    return float(value)


def _level(key: str, value) -> float:
    """A disturbance level or Lipschitz constant: a finite, non-negative number."""
    value = _number(key, value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{key} must be finite and non-negative, got {value}")
    return value


def _discount_factor(key: str, value) -> float:
    """The reward discount factor gamma_d: a level below 1."""
    gamma_d = _level(key, value)
    if not gamma_d < 1.0:
        raise ParameterError(f"{key} is a discount factor and must be below 1, got {gamma_d}")
    return gamma_d


def _string(key: str, value) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"{key} must be a string, got {value!r}")
    return value


def _numbers(key: str, value) -> np.ndarray:
    """A list of numbers, or a list of equally long such lists, as a float array."""
    cells = np.array(value, dtype=object)  # ragged lists stay list cells
    if not (isinstance(value, list) and all(_numeric(c) for c in cells.flat)):
        raise ParameterError(f"{key} must be a list of numbers or of equally long lists "
                             f"of them, got {value!r}")
    return cells.astype(float)


# The value type each reader takes, as --help names it, and the type argparse
# converts its command-line flag to.
_READER_TYPES = {
    _integer: ("integer", int), _seed: ("integer >= 0", int), _number: ("number", float),
    _level: ("number >= 0", float), _discount_factor: ("number in [0, 1)", float),
    _string: ("string", str), _numbers: ("list of numbers", None),
}


class _Key(NamedTuple):
    read: Callable
    default: object  # None: unset unless given
    help: str
    flag: str | None = None  # the command-line option that overrides the config line


# Every config key a command reads.  The env.* keys are the UavEnvConfig
# fields, read by their field's type; a default taken from a dataclass is the
# one its library users get.
_KEYS = {
    "sim.env": _Key(_string, None, '"linear" or "uav"', "env"),
    "sim.runs": _Key(_integer, 64, "runs per ensemble", "runs"),
    "sim.horizon": _Key(_integer, 100, "steps per run", "horizon"),
    "sim.seed": _Key(_seed, 0, "master seed; run r uses seed + r", "seed"),
    "sim.policy": _Key(_string, "centroid_greedy", "uav policy: " + " | ".join(POLICY_KINDS),
                       "policy"),
    "linear.A": _Key(_numbers, None, "state matrix"),
    "linear.F": _Key(_numbers, None, "policy matrix"),
    "linear.x0": _Key(_numbers, None, "initial state"),
    "linear.noise_std": _Key(_number, LinearSurrogateConfig.noise_std,
                             "process noise standard deviation"),
    "disturbance.kind": _Key(_string, "scaled_gaussian_projected", " | ".join(DISTURBANCE_KINDS),
                             "disturbance_kind"),
    "disturbance.gamma": _Key(_level, 1.0, "disturbance level for verify", "gamma"),
    "disturbance.seed": _Key(_seed, 0, "disturbance RNG seed", "disturbance_seed"),
    "disturbance.direction": _Key(_numbers, None, "spatial direction of the deterministic kinds"),
    "disturbance.omega": _Key(_number, DisturbanceSpec.omega, "tone frequency of single_tone"),
    "analysis.gamma": _Key(_level, 1.0, "disturbance level for analyze", "gamma"),
    "analysis.gamma_d": _Key(_discount_factor, 0.9, "reward discount factor", "gamma_d"),
    "analysis.rank_tol": _Key(_number, DEFAULT_RANK_TOL, "DMD rank tolerance", "rank_tol"),
    "analysis.L": _Key(_level, None, "analytic reward Lipschitz constant override"),
    **{"env." + f.name: _Key({int: _integer, float: _number, str: _string}[type(f.default)],
                             f.default, "UavEnvConfig field") for f in fields(UavEnvConfig)},
}


def _setting(key: str, cfg: dict, args=None, required: bool = False):
    """The key's command-line flag, else its config line, else its default,
    read by the key's reader.  An unset key without a default is None, or an
    error when it is required."""
    entry = _KEYS[key]
    value = getattr(args, entry.flag, None) if entry.flag else None
    value = cfg.get(key, entry.default) if value is None else value
    if value is not None:
        return entry.read(key, value)
    if required:
        raise ParameterError(f"config is missing key {key!r}")
    return None


def _config_key_help() -> str:
    def wrap(key: str, text: str) -> list:
        return textwrap.wrap(text, 80, initial_indent=f"  {key:<24}", subsequent_indent=" " * 26,
                             break_on_hyphens=False)

    lines = ["config keys (flat `key = value` lines, values parsed as JSON when possible):"]
    env = []
    for key, entry in _KEYS.items():
        kind = _READER_TYPES[entry.read][0]
        if key.startswith("env."):
            env.append(key[4:] if entry.read is _number else f"{key[4:]} ({kind})")
        else:
            default = "" if entry.default is None else f", default {entry.default}"
            lines += wrap(key, f"{entry.help} ({kind}{default})")
    lines += wrap("env.<field>", f"UavEnvConfig field, a number unless marked: {', '.join(env)}; "
                  "defaults are the baseline simulation values")
    return "\n".join(lines) + "\n"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(command: str, config_path, seed, inputs, outputs, **stats) -> None:
    """Write the manifest of one command next to its first output; ``stats``
    are the command's own timings and counts."""
    manifest = {
        "command": command,
        "config": str(config_path) if config_path else None,
        "master_seed": seed,
        "tool_version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **stats,
    }
    first_out = Path(outputs[0])
    write_json(manifest, first_out.with_name(first_out.name + ".manifest.json"))


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    cfg = load_flat_config(args.config)
    for key in cfg:
        if key not in _KEYS:
            print(f"warning: unknown config key {key!r}", file=sys.stderr)
    return cfg


class _Simulation(NamedTuple):
    """The rollout settings of simulate and verify, read before any work, so
    a bad value exits before a rollout starts."""

    env: str
    config: LinearSurrogateConfig | UavEnvConfig
    policy: str
    horizon: int
    runs: int
    seed: int

    def rollout(self, disturbance=None):
        run_args = (self.horizon, self.runs, self.seed)
        if self.env == "linear":
            return linear_ensemble(self.config, *run_args, disturbance=disturbance)
        return uav_ensemble(self.config, self.policy, *run_args, disturbance=disturbance)


def _simulation(cfg: dict, args, groups: int = 1) -> _Simulation:
    """The rollout settings, with the size of a rollout of ``groups``
    ensembles checked before anything is drawn or allocated."""
    env = _setting("sim.env", cfg, args, required=True)
    if env not in ("linear", "uav"):
        raise ParameterError(f"sim.env must be 'linear' or 'uav', got {env!r}")
    if env == "linear":
        a, f, x0 = (_setting("linear." + name, cfg, required=True) for name in ("A", "F", "x0"))
        config = LinearSurrogateConfig(A=a, F=f, x0_mean=x0,
                                       noise_std=_setting("linear.noise_std", cfg))
    else:
        config = UavEnvConfig(**{field.name: _setting("env." + field.name, cfg)
                                 for field in fields(UavEnvConfig)})
    policy, horizon, runs, seed = (
        _setting(key, cfg, args) for key in ("sim.policy", "sim.horizon", "sim.runs", "sim.seed")
    )
    check_rollout_size(groups, runs, horizon, config.n if env == "linear" else config.state_dim)
    return _Simulation(env, config, policy, horizon, runs, seed)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    sim = _simulation(cfg, args)
    ensemble = sim.rollout()
    out = Path(args.out or "trajectories.csv")
    save_trajectories(ensemble, out)
    inputs = [args.config] if args.config else []
    _write_manifest("simulate", args.config, sim.seed, inputs, [out])
    print(f"wrote {out}: {ensemble.r_count} runs, K={ensemble.horizon}, "
          f"n={ensemble.n}, m={ensemble.m}")
    return 0


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    rank_tol = _setting("analysis.rank_tol", cfg, args)
    ensemble = load_trajectories(args.trajectories)
    model = fit_koopman_model(ensemble_mean(ensemble), rank_tol)
    # The one gain search of a pipeline: it goes into the model file, and
    # analyze and verify read it from there.
    start = time.perf_counter()
    hinf = certified_gain(model).hinf
    search_s = time.perf_counter() - start
    out = Path(args.out or "model.json")
    save_model(model, out)
    inputs = [args.trajectories] + ([args.config] if args.config else [])
    _write_manifest("fit", args.config, None, inputs, [out],
                    gain_search={"seconds": search_s, "iterations": hinf.iterations})
    meta = model.fit_metadata
    print(
        f"wrote {out}: n={model.n}, m={model.m}, rank={model.state_dmd.rank}, "
        f"state_residual={meta['state_residual']:.3e}, "
        f"action_residual={meta['action_residual']:.3e}, T_hinf={hinf.value:.6g}, "
        f"omega*={hinf.omega_star:.6g}, 1-rho={1.0 - hinf.spectral_radius:.3e}"
    )
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    model = load_model(args.model)
    gamma = _setting("analysis.gamma", cfg, args)
    gamma_d = _setting("analysis.gamma_d", cfg, args)
    analytic_l = _setting("analysis.L", cfg)
    hinf, kf_hinf = certified_gain(model)
    t_value = hinf.value
    state_energy, state_max = state_deviation_bounds(t_value, gamma)
    action_energy, action_max = action_deviation_bounds(kf_hinf, t_value, gamma)
    doc = {
        "spectral_radius": hinf.spectral_radius,
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
        "L": analytic_l,
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


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    model = load_model(args.model)
    sim = _simulation(cfg, args, groups=2)
    gamma_d = _setting("analysis.gamma_d", cfg, args)
    analytic_l = _setting("analysis.L", cfg)
    if analytic_l is None and sim.env == "linear":
        analytic_l = sim.config.reward_lipschitz
    spec = DisturbanceSpec(
        kind=_setting("disturbance.kind", cfg, args),
        gamma=_setting("disturbance.gamma", cfg, args),
        horizon=sim.horizon,
        seed=_setting("disturbance.seed", cfg, args),
        dim=model.n,
        direction=_setting("disturbance.direction", cfg),
        omega=_setting("disturbance.omega", cfg),
    )
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
    nominal, disturbed = split_groups(sim.rollout(disturbance=(None, w)), 2)
    nominal_mean = ensemble_mean(nominal)
    disturbed_mean = ensemble_mean(disturbed)
    reward = RewardDescriptor(name=f"{sim.env}-reward", analytic_L=analytic_l)

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
    label = args.label or (f"uav:{sim.policy}" if sim.env == "uav" else sim.env)
    out = Path(args.out or "verify_report.json")
    save_report(report, out, label=label)
    steps_path = out.with_suffix(".steps.csv")
    write_per_step_table(
        per_step_table(nominal_mean, disturbed_mean, nominal, disturbed), steps_path
    )
    inputs = [args.model] + ([args.config] if args.config else [])
    _write_manifest("verify", args.config, sim.seed, inputs, [out, steps_path])
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
        p.add_argument("--out", default=None, help="output path")

    def flags(p, *keys):
        for key in keys:
            entry = _KEYS[key]
            p.add_argument("--" + entry.flag.replace("_", "-"), type=_READER_TYPES[entry.read][1],
                           help=f"overrides {key}")

    simulation = ("sim.env", "sim.runs", "sim.horizon", "sim.seed", "sim.policy")
    p = sub.add_parser("simulate", help="roll out an ensemble and write a trajectory file")
    common(p, config_required=True)
    flags(p, *simulation)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit state and action operators from a trajectory file")
    common(p)
    p.add_argument("trajectories", help="trajectory file from simulate")
    flags(p, "analysis.rank_tol")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("analyze", help="worst-case gains and deviation bounds of a model")
    common(p)
    p.add_argument("model", help="model JSON from fit")
    flags(p, "analysis.gamma", "analysis.gamma_d")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="inject admissible disturbances and check every bound")
    common(p, config_required=True)
    p.add_argument("model", help="model JSON from fit")
    flags(p, *simulation, "disturbance.gamma", "analysis.gamma_d", "disturbance.kind",
          "disturbance.seed")
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
