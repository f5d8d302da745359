#!/usr/bin/env python3
"""Benchmark of the koopbound CLI pipeline (simulate -> fit -> analyze -> verify -> report).

Run from the repository root:

    python3 perfbench/run.py --workload uav-policies --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One client in one process, pinned to one core, issues each CLI call
(``koopbound.cli.main``) after the previous one returns: a closed loop.  A
run generates the workload's inputs from ``--seed``, sets up three times
(here and in two fresh interpreters) and reports the median set-up time, then
repeats full passes of the workload's command sequence until ``--seconds``
have elapsed (at least one pass; with ``--trace 1`` at least one untraced and
one traced pass, alternating).  Times are reported scaled to a nominal host
speed measured by a reference job around every call (reference.py); the wall
times are kept in the result file.  The outputs are checked after the timed
region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The full
result (environment fingerprint, samples, output digests, check failures) is
written to ``.perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

# End-to-end metrics.  The per-stage times (simulate_s, fit_s, ...) are
# recorded in the result file of every run and reported as the per-layer
# metrics cli.<stage>_s: a stage of 0.1 s does not repeat within the largest
# bound the benchmark may set.
END_TO_END_UNITS = {"pipeline_scaled_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Checks whose failure means the run's outputs are wrong; the soundness
# oracles (gain and admissibility) feed check_failures only.
HARD_CHECKS = ("exit_code", "report_reload", "bound_arithmetic", "determinism")


def pin_to_one_core() -> tuple[int, int]:
    """Pin this process (and the set-up probes it starts) to one core and run
    BLAS on one thread; must run before numpy loads.

    The host's cores change speed independently of each other, so the
    reference job (reference.py) tracks the speed the program gets only when
    both run on the same core.  Returns (usable cores before pinning, core)."""
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[0]})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(cores), cores[0]


def import_program():
    """Import koopbound from this checkout's src/ and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "koopbound" / "__init__.py").is_file():
        raise RuntimeError(f"no koopbound sources under {src}")
    sys.path.insert(0, str(src))
    import koopbound.cli

    if not Path(koopbound.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"koopbound imported from {koopbound.cli.__file__}, not {src}")
    return koopbound.cli


def call_cli(cli, argv) -> tuple[int, str]:
    """One CLI call with its console output captured; (exit code, captured text)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising command is a failed call, recorded
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=sink)
    return code, sink.getvalue()


def run_pass(cli, steps, out_dir: Path, tracer=None, scale=True) -> dict:
    """One closed-loop pass of the command sequence; returns times, calls, captures.

    With ``scale`` the reference job is timed before the first call and after
    each call, outside the calls' timed intervals, and every call's wall time
    is scaled by the reference times around it; ``scaled_s`` is the sum of
    the scaled times, ``wall_s`` the sum of the wall times."""
    import layers
    import reference

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    captured, calls = [], []
    stages = dict.fromkeys(layers.STAGES, 0.0)
    scaled_stages = dict.fromkeys(layers.STAGES, 0.0)
    patcher = layers.install(tracer, captured)
    measure = reference.reference_s if scale else (lambda: math.nan)
    refs = []
    try:
        before = measure()
        refs.append(before)
        for step in steps:
            t0 = time.perf_counter()
            if tracer is None:
                code, text = call_cli(cli, step.argv)
            else:
                with tracer.span(f"cli.{step.stage}"):
                    code, text = call_cli(cli, step.argv)
            wall = time.perf_counter() - t0
            after = measure()
            refs.append(after)
            stages[step.stage] += wall
            scaled_stages[step.stage] += reference.scaled(wall, before, after)
            before = after
            calls.append((step, code, text))
    finally:
        patcher.restore()
    return {"scaled_s": sum(scaled_stages.values()), "wall_s": sum(stages.values()),
            "refs": refs, "stages": stages, "scaled_stages": scaled_stages,
            "calls": calls, "captured": captured, "missing": patcher.missing}


def set_up(workload: str, seed: int, work: Path):
    """Import (numpy and scipy included), input generation and one untimed
    warm-up pass on a small problem.

    Returns the CLI module, the full-size steps, and the warm-up pass."""
    cli = import_program()
    import oracles
    import workloads

    steps = workloads.build(workload, seed, work / "full" / "inputs", work / "full" / "out")
    warm_steps = workloads.build(workload, seed, work / "warmup" / "inputs",
                                 work / "warmup" / "out", scale="warmup")
    warm = run_pass(cli, warm_steps, work / "warmup" / "out", scale=False)
    warm["digest"] = oracles.combined_digest(oracles.file_digests(work / "warmup" / "out"))
    return cli, steps, warm


def environment(seed: int, nproc: int, core: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "pinned_core": core,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


def probe_setup(workload: str, seed: int) -> tuple[float, str]:
    """Set up once in a fresh interpreter; (setup seconds, warm-up digest)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["warmup_digest"]


def median(values):
    return float(statistics.median(values)) if values else None


def benchmark(args, nproc: int, core: int) -> dict:
    work = STATE_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        cli, steps, warm = set_up(args.workload, args.seed, work)
        setup_wall = [time.perf_counter() - t0]
        warm_digests = [warm["digest"]]

        import layers
        import oracles
        import reference
        from tracing import Tracer

        # Reference times around the set-ups; with those of the passes they
        # give the host speed of the whole run, which scales the set-up times.
        run_refs = [reference.reference_s()]
        for _ in range(SETUP_PROBES):
            seconds, digest = probe_setup(args.workload, args.seed)
            setup_wall.append(seconds)
            warm_digests.append(digest)
            run_refs.append(reference.reference_s())

        out_dir = work / "full" / "out"
        passes, tracers = [], []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            result = run_pass(cli, steps, out_dir, tracer)
            result["traced"] = traced
            result["digests"] = oracles.file_digests(out_dir)
            result["digest"] = oracles.combined_digest(result["digests"])
            if traced:
                tracers.append(tracer)
            passes.append(result)
            run_refs += result["refs"]
            kinds = {p["traced"] for p in passes}
            if time.perf_counter() - start >= args.seconds and (
                    not args.trace or kinds == {False, True}):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Checks, outside the timed region.  check_failures counts the last
        # pass's checks and the cross-process determinism check, so its
        # denominator does not depend on how many passes the run held; the
        # other passes' exit codes and their determinism go into `correct`.
        log, other = oracles.CheckLog(), oracles.CheckLog()
        last = passes[-1]
        for p in (warm, *passes):
            for step, code, text in p["calls"]:
                (log if p is last else other).record(
                    "exit_code", code == 0,
                    f"{step.argv[0]} exited {code}: {text.strip()[-300:]}")
        facts = oracles.check_outputs(log, out_dir, steps, last["captured"])
        log.record("determinism", len(set(warm_digests)) == 1,
                   "warm-up passes in separate processes wrote different outputs")
        if len(passes) > 1:
            other.record("determinism", len({p["digest"] for p in passes}) == 1,
                         "timed passes with one seed wrote different outputs")
        facts["check_failures"] = log.failed() / log.run()

        plain = [p for p in passes if not p["traced"]]
        stages = {f"{stage}_s": median([p["stages"][stage] for p in plain])
                  for stage in layers.STAGES}
        scaled_stages = {f"{stage}_s": median([p["scaled_stages"][stage] for p in plain])
                         for stage in layers.STAGES}
        # A set-up runs in another process, and two reference times around a
        # 3 s set-up follow the host speed less well than the run's median.
        run_ref = median(run_refs)
        setup_samples = [reference.scaled(wall, run_ref, run_ref) for wall in setup_wall]
        values = {
            "pipeline_scaled_s": median([p["scaled_s"] for p in plain]),
            "setup_s": median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        end_to_end = {name: {"value": values[name], "unit": unit}
                      for name, unit in END_TO_END_UNITS.items()}
        per_layer = None
        if args.trace:
            overhead = (median([p["scaled_s"] for p in passes if p["traced"]])
                        - values["pipeline_scaled_s"])
            missing = sorted({m for p in passes for m in p["missing"]})
            per_layer = layers.per_layer_metrics(tracers, facts, missing, overhead)
            per_layer["pipeline_wall_s"] = {
                "value": median([p["wall_s"] for p in plain]), "unit": "s"}
            per_layer["host.reference_ms"] = {"value": 1e3 * run_ref, "unit": "ms"}
        attempted = sum(len(p["calls"]) for p in passes)
        failed = sum(code != 0 for p in passes for _, code, _ in p["calls"])
        return {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "environment": environment(args.seed, nproc, core),
            "correct": log.failed(HARD_CHECKS) + other.failed(HARD_CHECKS) == 0,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "end_to_end": end_to_end,
            "stages": stages,
            "scaled_stages": scaled_stages,
            "per_layer": per_layer,
            "samples": {
                "setup_s": setup_samples,
                "setup_wall_s": setup_wall,
                "passes": [{key: p[key] for key in (
                    "traced", "scaled_s", "wall_s", "refs", "stages", "scaled_stages")}
                    for p in passes],
                "reference_s": run_ref,
            },
            "digest": last["digest"],
            "output_digests": last["digests"],
            "warmup_digests": warm_digests,
            "checks": {"counts": log.counts, "other_counts": other.counts,
                       "failures": log.failures + other.failures,
                       "check_failures": facts["check_failures"]},
            "facts": facts,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"{env['blas']} threads={env['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r}")
    samples = result["samples"]["passes"]
    print(f"# passes={len(samples)} (traced {sum(p['traced'] for p in samples)}), "
          f"setup samples={len(result['samples']['setup_s'])}")
    table = result["per_layer"] if result["trace"] else result["end_to_end"]
    for name, metric in table.items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name:<40}{value:>16} {metric['unit']}")
    for kind in ("stages", "scaled_stages"):
        print(f"# untraced {kind.replace('_', ' ')} (median over passes): " + ", ".join(
            f"{name}={value:.4g} s" for name, value in result[kind].items()))
    checks = result["checks"]
    print(f"# correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} error_rate={result['error_rate']:.6g} "
          f"check_failures={checks['check_failures']:.6g} "
          f"({sum(f for _, f in checks['counts'].values())}/"
          f"{sum(r for r, _ in checks['counts'].values())})")
    for kind, (runs, fails) in sorted(checks["counts"].items()):
        print(f"#   {kind:<22} {fails}/{runs} failed")
    for kind, (runs, fails) in sorted(checks["other_counts"].items()):
        print(f"#   {kind:<22} {fails}/{runs} failed (warm-up and earlier passes)")
    for failure in checks["failures"][:20]:
        print(f"#   FAIL {failure}")
    print(f"# output digest {result['digest']}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
            )
            print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                code = 1
    print(f"# results in {STATE_DIR / 'results'}")
    return code


def probe(args) -> int:
    """--setup-probe: set up once and print the set-up time and warm-up digest."""
    work = STATE_DIR / "work" / f"probe-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        _, _, warm = set_up(args.workload, args.seed, work)
        seconds = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": seconds, "warmup_digest": warm["digest"]}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced and print each table")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc, core = pin_to_one_core()
    sys.path.insert(0, str(HERE))
    if args.all:
        return run_all(args)
    try:
        if args.setup_probe:
            return probe(args)
        result = benchmark(args, nproc, core)
    except (KeyError, RuntimeError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print_report(result)
    print(f"# full result in {path.relative_to(ROOT)}")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
