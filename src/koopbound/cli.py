"""Command-line pipeline: simulate, fit, analyze, verify, report.

Every command but report reads a flat dotted-key config.  Each writes
machine-readable output (JSON or CSV) and one manifest with input/output
digests, beside its first output file; no output may be one of its inputs
or another of its outputs.  Analysis findings such as an unstable
fitted operator or bound violations are reported in the output with exit
code 0; only I/O and validation problems exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import os
import sys
import textwrap
import time
import unicodedata
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from ._jsonio import _RANGES, _in_range, as_integer, as_numbers, as_string, is_number, write_json
from .bounds import (
    DISTURBANCE_KINDS,
    DisturbanceSpec,
    certified_gain,
    deviation_bounds,
    disturbance_admissible,
    generate_disturbance,
    load_report,
    save_report,
    spectral_grid_values,
    verify_bounds,
    write_per_step_table,
)
from .errors import (DataError, DimensionMismatchError, KoopboundError, ParameterError,
                     SchemaError)
from .flatconfig import load_flat_config
from .koopman_dmd import (
    DEFAULT_RANK_TOL,
    fit_koopman_model,
    load_model,
    save_model,
)
from .env_sim import (
    _UAV_KINDS,
    POLICY_KINDS,
    LinearSurrogateConfig,
    UavEnvConfig,
    check_rollout_size,
    linear_ensemble,
    split_groups,
    uav_ensemble,
)
from .trajectory_data import load_trajectories, save_trajectories

# Not called here: fit_koopman_model takes the ensemble mean, verify_bounds
# builds the per-step table and certified_gain the gain.  perfbench/layers.py
# wraps these names in koopbound.cli, and reports their layers as missing
# when they are gone.
from .bounds import per_step_table  # noqa: F401
from .hinf_spectral import hinf_norm  # noqa: F401
from .trajectory_data import ensemble_mean  # noqa: F401


# Readers of config values: each takes the JSON value of a key (or its
# command-line flag) and the key, and returns the typed value or names the key
# in a SchemaError.  Integers, strings and lists are read by the document
# readers of _jsonio; numbers by the config-only reader below.
def _number(value, key: str) -> float:
    """A number, as a Python float (true, "x" and integers beyond float range
    exit 2).  Unlike a document number, NaN and +-inf pass: the range kind of
    the key refuses them, naming the key."""
    if not is_number(value):
        raise SchemaError(f"{key} must be a number, got {value!r}")
    return float(value)


# The value type each reader takes, as --help names it for a key without a
# range kind, and the type argparse converts its command-line flag to.
_READER_TYPES = {
    as_integer: ("integer", int), _number: ("number", float), as_string: ("string", str),
    as_numbers: ("list of numbers", None),
}


class _Key(NamedTuple):
    read: Callable
    default: object  # None: unset unless given
    help: str
    flag: str | None = None  # the command-line option that overrides the config line
    kind: str | tuple | None = None  # the range kind of _jsonio._RANGES, or the allowed names


# Every config key a command reads.  The env.* keys are the UavEnvConfig
# fields, read by their field's type and checked against its range kind; a
# default taken from a dataclass is the one its library users get.
_KEYS = {
    "sim.env": _Key(as_string, None, "environment", "env", ("linear", "uav")),
    "sim.runs": _Key(as_integer, 64, "runs per ensemble", "runs", "count"),
    "sim.horizon": _Key(as_integer, 100, "steps per run", "horizon", "count"),
    "sim.seed": _Key(as_integer, 0, "master seed; run r uses seed + r", "seed", "seed"),
    "sim.policy": _Key(as_string, "centroid_greedy", "uav policy", "policy", POLICY_KINDS),
    "linear.A": _Key(as_numbers, None, "state matrix"),
    "linear.F": _Key(as_numbers, None, "policy matrix"),
    "linear.x0": _Key(as_numbers, None, "initial state"),
    "linear.noise_std": _Key(_number, LinearSurrogateConfig.noise_std,
                             "process noise standard deviation", kind="level"),
    "disturbance.kind": _Key(as_string, "scaled_gaussian_projected", "disturbance kind",
                             "disturbance_kind", DISTURBANCE_KINDS),
    "disturbance.gamma": _Key(_number, 1.0, "disturbance level of analyze and verify", "gamma",
                              "level"),
    "disturbance.seed": _Key(as_integer, 0, "disturbance RNG seed", "disturbance_seed", "seed"),
    "disturbance.direction": _Key(as_numbers, None, "spatial direction of the deterministic kinds"),
    "disturbance.omega": _Key(_number, DisturbanceSpec.omega, "tone frequency of single_tone",
                              kind="finite"),
    "analysis.gamma_d": _Key(_number, 0.9, "reward discount factor of verify", "gamma_d",
                             "discount factor"),
    "analysis.rank_tol": _Key(_number, DEFAULT_RANK_TOL, "DMD rank tolerance", "rank_tol",
                              "rank tolerance"),
    **{"env." + f.name: _Key({int: as_integer, float: _number, str: as_string}[type(f.default)],
                             f.default, "UavEnvConfig field", kind=_UAV_KINDS.get(f.name))
       for f in fields(UavEnvConfig)},
}


def _setting(key: str, cfg: dict, args=None, required: bool = False):
    """The key's command-line flag, else its config line, else its default,
    read by the key's reader and checked against its range kind.  An unset
    key without a default is None, or an error when it is required."""
    entry = _KEYS[key]
    value = getattr(args, entry.flag, None) if entry.flag else None
    value = cfg.get(key, entry.default) if value is None else value
    if value is not None:
        value = entry.read(value, key)
        return value if entry.kind is None else _in_range(value, key, entry.kind)
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
        kind = entry.kind or _READER_TYPES[entry.read][0]
        if isinstance(kind, tuple):
            kind = "one of " + " | ".join(kind)
        if key.startswith("env."):
            env.append(f"{key[4:]} ({kind})")
        else:
            default = "" if entry.default is None else f", default {entry.default}"
            lines += wrap(key, f"{entry.help} ({kind}{default})")
    lines += wrap("env.<field>", f"UavEnvConfig field: {', '.join(env)}; defaults are the "
                  "baseline simulation values")
    lines.append("range kinds (a value out of range exits 2, naming its key):")
    kinds = {entry.kind for entry in _KEYS.values()}
    for kind, (_, rule) in _RANGES.items():
        if kind in kinds:
            lines += wrap(kind, rule)
    return "\n".join(lines) + "\n"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.name + ".manifest.json")


def _inputs(args, *positional: tuple) -> list:
    """The (option, path) pairs of the files a command reads: its positional
    files, then its config when it has one."""
    config = getattr(args, "config", None)
    return [*positional, *([("--config", config)] if config else [])]


def _check_outputs(command: str, inputs: list, out: Path, tables: tuple = ()) -> None:
    """Refuse, before anything is read or written, an output that resolves to
    one of the command's inputs or to another of its outputs.  The outputs
    are ``out``, the (name, path) ``tables`` named after it, and the
    manifest named after it, which no other path can be."""
    for name, path in tables:
        if path == out:
            raise ParameterError(f"{command} --out {out} is also the path of its {name}; "
                                 f"give it a suffix other than {out.suffix}")
    # realpath, not Path.resolve: a symlink loop is left to the write's
    # OSError rather than raising RuntimeError here.
    read = {os.path.realpath(path): f"{option} {path}" for option, path in inputs}
    for name, path in ((None, out), *tables, ("manifest", _manifest_path(out))):
        clash = read.get(os.path.realpath(path))
        if clash:
            written = "" if name is None else f" with its {name} {path}"
            raise ParameterError(f"{command} --out {out} would overwrite its input "
                                 f"{clash}{written}")


def _write_manifest(command: str, config_path, seed, inputs, outputs, **stats) -> None:
    """Write the manifest of one command next to its first output; ``inputs``
    are its (option, path) pairs, and ``stats`` the command's own timings
    and counts."""
    manifest = {
        "command": command,
        "config": str(config_path) if config_path else None,
        "master_seed": seed,
        "tool_version": __version__,
        "inputs": {str(p): _sha256(p) for _, p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **stats,
    }
    write_json(manifest, _manifest_path(Path(outputs[0])))


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


def _simulation(cfg: dict, args, verify: bool = False) -> _Simulation:
    """The rollout settings, with the size of the work checked before
    anything is drawn or allocated: the rollout's state buffer and, for
    verify, both lane groups and the disturbance's spectral grid."""
    env = _setting("sim.env", cfg, args, required=True)
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
    _in_range(seed + runs - 1, "sim.seed + sim.runs - 1", "seed")
    check_rollout_size(2 if verify else 1, runs, horizon, config.n,
                       grid_values=spectral_grid_values(horizon) if verify else 0, prefix="sim.")
    return _Simulation(env, config, policy, horizon, runs, seed)


def cmd_simulate(args) -> int:
    inputs, out = _inputs(args), Path(args.out or "trajectories.csv")
    _check_outputs("simulate", inputs, out)
    cfg = _load_config(args)
    sim = _simulation(cfg, args)
    ensemble = sim.rollout()
    start = time.perf_counter()
    fallback = save_trajectories(ensemble, out)
    save_s = time.perf_counter() - start
    values = ensemble.states.size + ensemble.actions.size + ensemble.rewards.size
    _write_manifest("simulate", args.config, sim.seed, inputs, [out],
                    trajectory_writer={"seconds": save_s, "values": values,
                                       "repr_fallback_values": fallback})
    print(f"wrote {out}: {ensemble.r_count} runs, K={ensemble.horizon}, "
          f"n={ensemble.n}, m={ensemble.m}")
    return 0


def cmd_fit(args) -> int:
    inputs = _inputs(args, ("trajectories", args.trajectories))
    out = Path(args.out or "model.json")
    _check_outputs("fit", inputs, out)
    cfg = _load_config(args)
    rank_tol = _setting("analysis.rank_tol", cfg, args)
    ensemble = load_trajectories(args.trajectories)
    model = fit_koopman_model(ensemble, rank_tol)
    # The one gain search of a pipeline: it goes into the model file, and
    # analyze and verify read it from there.
    start = time.perf_counter()
    hinf = certified_gain(model).hinf
    search_s = time.perf_counter() - start
    save_model(model, out)
    _write_manifest("fit", args.config, None, inputs, [out],
                    gain_search={"seconds": search_s, "iterations": hinf.iterations})
    print(
        f"wrote {out}: n={model.n}, m={model.m}, rank={model.rank}, "
        f"state_residual={model.state_residual:.3e}, "
        f"action_residual={model.action_residual:.3e}, T_hinf={hinf.value:.6g}, "
        f"omega*={hinf.omega_star:.6g}, 1-rho={1.0 - hinf.spectral_radius:.3e}"
    )
    return 0


def cmd_analyze(args) -> int:
    inputs, out = _inputs(args, ("model", args.model)), Path(args.out or "analysis.json")
    _check_outputs("analyze", inputs, out)
    cfg = _load_config(args)
    model = load_model(args.model)
    gamma = _setting("disturbance.gamma", cfg, args)
    hinf, kf_hinf = certified_gain(model)
    doc = {"gamma": gamma, "hinf": hinf.to_dict(), "Kf_hinf": kf_hinf,
           **deviation_bounds(gamma, hinf.value, kf_hinf)}
    write_json(doc, out)
    _write_manifest("analyze", args.config, None, inputs, [out])
    if not hinf.converged:
        print(
            "warning: fitted state operator is not stable "
            f"(spectral radius {hinf.spectral_radius:.6f}); worst-case gain is infinite",
            file=sys.stderr,
        )
    print(f"wrote {out}: T_hinf={hinf.value}, Kf_hinf={kf_hinf:.6g}")
    return 0


def cmd_verify(args) -> int:
    inputs, out = _inputs(args, ("model", args.model)), Path(args.out or "verify_report.json")
    steps_path = out.with_suffix(".steps.csv")
    _check_outputs("verify", inputs, out, (("steps table", steps_path),))
    cfg = _load_config(args)
    model = load_model(args.model)
    sim = _simulation(cfg, args, verify=True)
    if (model.n, model.m) != (sim.config.n, sim.config.m):
        raise DimensionMismatchError(
            f"model {args.model} has (n, m) = ({model.n}, {model.m}), but the {sim.env} "
            f"environment of config {args.config} has ({sim.config.n}, {sim.config.m})")
    gamma_d = _setting("analysis.gamma_d", cfg, args)
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
    report, table = verify_bounds(nominal, disturbed, model, spec.gamma, gamma_d,
                                  sim.config.reward_lipschitz)
    label = args.label or (f"uav:{sim.policy}" if sim.env == "uav" else sim.env)
    save_report(report, out, label=label)
    write_per_step_table(table, steps_path)
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


# The bound values of a report row, in its CSV column order.
_REPORT_BOUNDS = ("M", "N", "state_energy_bound", "action_energy_bound", "reward_impact_bound",
                  "generalization_error_bound")


def cmd_report(args) -> int:
    out = Path(args.out or "report.json")
    csv_path = out.with_suffix(".csv")
    inputs = [("reports", path) for path in args.reports]
    _check_outputs("report", inputs, out, (("CSV table", csv_path),))
    rows = []
    for path in args.reports:
        report, label = load_report(path)
        label = label or Path(path).stem
        # csv leaves a bare carriage return unquoted, which splits the row.
        if any(unicodedata.category(ch) == "Cc" for ch in label):
            raise DataError(f"report label {label!r} holds a control character")
        bounds = report.bounds
        rows.append(
            {
                "label": label,
                "T_hinf": report.inputs.T_hinf,
                "Kf_hinf": report.inputs.Kf_hinf,
                **{key: bounds[key] for key in _REPORT_BOUNDS},
                "reward_impact_pct": report.empirical["reward_impact_pct"],
                "violations": len(report.violations),
            }
        )
    rows.sort(key=lambda r: r["T_hinf"])
    write_json({"rows": rows}, out)
    columns = list(rows[0].keys())
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
    _write_manifest("report", None, None, inputs, [out, csv_path])
    header = f"{'label':<24}{'T_hinf':>14}{'Kf_hinf':>12}{'impact_pct':>12}"
    print(header)
    for row in rows:
        print(f"{row['label']:<24}{row['T_hinf']:>14.4f}{row['Kf_hinf']:>12.4f}"
              f"{row['reward_impact_pct']:>12.4f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and building it (the help text of every config key
    included) costs more than most of an analyze call."""
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
    flags(p, "disturbance.gamma")
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
