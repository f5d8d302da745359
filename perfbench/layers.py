"""Which program names are traced, and the per-layer metrics built from the spans.

The layers are the repository's modules.  Spans are recorded around the names
``koopbound.cli`` and ``koopbound.bounds`` import from them; the CLI stage
spans (``cli.simulate``, ...) are opened by the runner around each CLI call.
"""

from __future__ import annotations

import os
import statistics

from tracing import Patcher, Tracer, fingerprint, self_time

STAGES = ("simulate", "fit", "analyze", "verify", "report")
ROLLOUTS = ("uav_ensemble", "linear_ensemble")


def _describe_rollout(span, args, kwargs, result):
    span.attrs.update(
        steps=result.r_count * result.horizon,
        disturbed=kwargs.get("disturbance") is not None,
        key=fingerprint((span.name, args, kwargs)),
    )


def _rows(ensemble) -> int:
    return ensemble.r_count * (ensemble.horizon + 1)


def _describe_save(span, args, kwargs, result):
    span.attrs.update(rows=_rows(args[0]), bytes=os.path.getsize(args[1]))


def _describe_load(span, args, kwargs, result):
    span.attrs.update(rows=_rows(result), bytes=os.path.getsize(args[0]))


def _describe_hinf(span, args, kwargs, result):
    tf = args[0]
    span.attrs.update(resolvent=tf.kind == "resolvent", key=fingerprint(tf.matrix))


# (module attribute, span name, describe) traced in koopbound.cli.
CLI_TARGETS = (
    ("uav_ensemble", "env_sim.rollout", _describe_rollout),
    ("linear_ensemble", "env_sim.rollout", _describe_rollout),
    ("save_trajectories", "trajectory_data.save", _describe_save),
    ("load_trajectories", "trajectory_data.load", _describe_load),
    ("ensemble_mean", "trajectory_data.ensemble_mean", None),
    ("fit_koopman_model", "koopman_dmd.fit", None),
    ("save_model", "koopman_dmd.model_io", None),
    ("load_model", "koopman_dmd.model_io", None),
    ("hinf_norm", "hinf_spectral.hinf_norm", _describe_hinf),
    ("generate_disturbance", "bounds.generate", None),
    ("disturbance_admissible", "bounds.admissible", None),
    ("verify_bounds", "bounds.verify_bounds", None),
    ("per_step_table", "bounds.per_step_table", None),
    ("write_per_step_table", "bounds.per_step_table", None),
)
# Traced in koopbound.bounds: the gain computed inside verify_bounds.
BOUNDS_TARGETS = (("hinf_norm", "hinf_spectral.hinf_norm", _describe_hinf),)


def install(tracer: Tracer | None, captured: list) -> Patcher:
    """Wrap the traced names (all of them when ``tracer`` is given) and, in
    every mode, capture each disturbance sequence the CLI generates so the
    admissibility oracle can check it after the timed region."""
    import koopbound.bounds
    import koopbound.cli

    patcher = Patcher()

    def capture(fn):
        def generate(spec, *args, **kwargs):
            w = fn(spec, *args, **kwargs)
            captured.append((float(spec.gamma), w))
            return w

        return generate

    patcher.replace(koopbound.cli, "generate_disturbance", capture)
    if tracer is not None:
        for module, targets in ((koopbound.cli, CLI_TARGETS), (koopbound.bounds, BOUNDS_TARGETS)):
            for attr, name, describe in targets:
                patcher.replace(module, attr, lambda fn, n=name, d=describe: tracer.wrap(fn, n, d))
    return patcher


class PassView:
    """Span queries over one traced pass."""

    def __init__(self, spans):
        self.spans = spans

    def named(self, name, **attrs):
        return [s for s in self.spans
                if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total(self, name, **attrs) -> float:
        return sum(s.duration for s in self.named(name, **attrs))

    def attr_sum(self, name, attr, **attrs) -> float:
        return sum(s.attrs[attr] for s in self.named(name, **attrs))

    def self_total(self, name) -> float:
        return sum(self_time(s, self.spans) for s in self.named(name))


def _ratio(num, den):
    return num / den if den else None


def _unique(spans):
    return _ratio(len({s.attrs["key"] for s in spans}), len(spans))


# (metric, unit, traced names it needs, value from a PassView and the checks' facts)
PER_LAYER = (
    ("env_sim.calls", "count", ROLLOUTS, lambda p, f: len(p.named("env_sim.rollout"))),
    ("env_sim.busy_s", "s", ROLLOUTS, lambda p, f: p.total("env_sim.rollout")),
    ("env_sim.steps", "count", ROLLOUTS,
     lambda p, f: p.attr_sum("env_sim.rollout", "steps")),
    ("env_sim.us_per_step_nominal", "us", ROLLOUTS,
     lambda p, f: _ratio(1e6 * p.total("env_sim.rollout", disturbed=False),
                         p.attr_sum("env_sim.rollout", "steps", disturbed=False))),
    ("env_sim.us_per_step_disturbed", "us", ROLLOUTS,
     lambda p, f: _ratio(1e6 * p.total("env_sim.rollout", disturbed=True),
                         p.attr_sum("env_sim.rollout", "steps", disturbed=True))),
    ("env_sim.unique_ratio", "ratio", ROLLOUTS,
     lambda p, f: _unique(p.named("env_sim.rollout"))),
    ("trajectory_data.save_s", "s", ("save_trajectories",),
     lambda p, f: p.total("trajectory_data.save")),
    ("trajectory_data.load_s", "s", ("load_trajectories",),
     lambda p, f: p.total("trajectory_data.load")),
    ("trajectory_data.rows", "count", ("save_trajectories",),
     lambda p, f: p.attr_sum("trajectory_data.save", "rows")),
    ("trajectory_data.bytes", "bytes", ("save_trajectories",),
     lambda p, f: p.attr_sum("trajectory_data.save", "bytes")),
    ("trajectory_data.save_rows_per_s", "rows/s", ("save_trajectories",),
     lambda p, f: _ratio(p.attr_sum("trajectory_data.save", "rows"),
                         p.total("trajectory_data.save"))),
    ("trajectory_data.load_rows_per_s", "rows/s", ("load_trajectories",),
     lambda p, f: _ratio(p.attr_sum("trajectory_data.load", "rows"),
                         p.total("trajectory_data.load"))),
    ("trajectory_data.ensemble_mean_s", "s", ("ensemble_mean",),
     lambda p, f: p.total("trajectory_data.ensemble_mean")),
    ("trajectory_data.ensemble_mean_calls", "count", ("ensemble_mean",),
     lambda p, f: len(p.named("trajectory_data.ensemble_mean"))),
    ("koopman_dmd.fit_s", "s", ("fit_koopman_model",), lambda p, f: p.total("koopman_dmd.fit")),
    ("koopman_dmd.model_io_s", "s", ("save_model", "load_model"),
     lambda p, f: p.total("koopman_dmd.model_io")),
    ("koopman_dmd.rank", "count", (), lambda p, f: f.get("rank")),
    ("koopman_dmd.state_residual", "ratio", (), lambda p, f: f.get("state_residual")),
    ("hinf_spectral.calls", "count", ("hinf_norm",),
     lambda p, f: len(p.named("hinf_spectral.hinf_norm", resolvent=True))),
    ("hinf_spectral.busy_s", "s", ("hinf_norm",),
     lambda p, f: p.total("hinf_spectral.hinf_norm", resolvent=True)),
    ("hinf_spectral.s_per_call", "s", ("hinf_norm",),
     lambda p, f: _ratio(p.total("hinf_spectral.hinf_norm", resolvent=True),
                         len(p.named("hinf_spectral.hinf_norm", resolvent=True)))),
    ("hinf_spectral.one_minus_rho", "ratio", (), lambda p, f: f.get("one_minus_rho")),
    ("hinf_spectral.unique_ratio", "ratio", ("hinf_norm",),
     lambda p, f: _unique(p.named("hinf_spectral.hinf_norm", resolvent=True))),
    ("hinf_spectral.gain_oracle_ratio", "ratio", (), lambda p, f: f.get("gain_oracle_ratio")),
    ("bounds.generate_s", "s", ("generate_disturbance",), lambda p, f: p.total("bounds.generate")),
    ("bounds.admissible_s", "s", ("disturbance_admissible",),
     lambda p, f: p.total("bounds.admissible")),
    ("bounds.per_step_table_s", "s", ("per_step_table",),
     lambda p, f: p.total("bounds.per_step_table")),
    ("bounds.violations", "count", (), lambda p, f: f.get("violations")),
    ("bounds.verify_self_s", "s", ("verify_bounds",),
     lambda p, f: p.self_total("bounds.verify_bounds")),
    ("bounds.disturbance_peak_ratio", "ratio", (), lambda p, f: f.get("disturbance_peak_ratio")),
    *(
        (f"cli.{stage}_s", "s", (), lambda p, f, s=stage: p.total(f"cli.{s}"))
        for stage in STAGES
    ),
    *(
        (f"cli.{stage}_self_s", "s", (), lambda p, f, s=stage: p.self_total(f"cli.{s}"))
        for stage in STAGES[:-1]
    ),
    ("check_failures", "share", (), lambda p, f: f.get("check_failures")),
)


def per_layer_metrics(tracers, facts: dict, missing: list, overhead_s: float) -> dict:
    """Median over the traced passes' tracers of every per-layer metric; a
    metric whose traced name is missing from the program has the value None.

    ``trace.overhead_s`` (traced minus untraced scaled pass time) is mostly
    what the host-speed scaling leaves of the drift between the passes;
    ``trace.bookkeeping_s`` is the time the tracer itself spent in a traced
    pass."""
    gone = {name.rsplit(".", 1)[1] for name in missing}
    metrics = {}
    for name, unit, needs, compute in PER_LAYER:
        if gone.intersection(needs):
            value = None
        else:
            values = [compute(PassView(t.spans), facts) for t in tracers]
            values = [v for v in values if v is not None]
            value = float(statistics.median(values)) if values else None
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    metrics["trace.bookkeeping_s"] = {
        "value": float(statistics.median(t.bookkeeping_s for t in tracers)), "unit": "s"}
    return metrics
