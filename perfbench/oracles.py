"""Correctness checks on the CLI's outputs, run outside the timed region.

Each check fails only on a definite error:

* hard checks -- every CLI call exits 0, every verify report reloads through
  ``load_report``, every report's bound arithmetic holds against its own
  numbers, and passes with the same seed write byte-identical outputs;
* soundness oracles -- the reported gain ``T`` is not below a lower bound of
  the true worst-case gain, and each generated disturbance's spectral peak on
  a 64K-point grid (a lower bound of its supremum) does not exceed gamma.

The slack in every comparison covers float round-off only.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

EPS = np.finfo(float).eps
# Relative slack of the program's own comparisons (bounds._CHECK_RTOL); the
# oracles allow the same and no more.
CHECK_RTOL = 1e-9
# A bound expression is a handful of products, sums and one power, so its
# value depends on evaluation order by a few ulps at most.
ARITH_RTOL = 64 * EPS
ORACLE_OVERSAMPLING = 64
# Evaluations of the bounded 1-D search around each eigenvalue angle.
REFINE_MAX_ITER = 60


@dataclass
class CheckLog:
    """Counts every check run; keeps a message for each failure."""

    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def record(self, kind: str, ok: bool, message: str = "") -> bool:
        runs, fails = self.counts.get(kind, (0, 0))
        self.counts[kind] = (runs + 1, fails + (not ok))
        if not ok:
            self.failures.append(f"{kind}: {message}")
        return ok

    def failed(self, kinds=None) -> int:
        return sum(f for k, (_, f) in self.counts.items() if kinds is None or k in kinds)

    def run(self) -> int:
        return sum(r for r, _ in self.counts.values())


# ---------------------------------------------------------------------------
# Worst-case gain oracle
# ---------------------------------------------------------------------------


def _sigma_min(k: np.ndarray, omega: float) -> float:
    a = np.exp(1j * omega) * np.eye(k.shape[0]) - k
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def gain_lower_bound(k: np.ndarray) -> tuple[float, float]:
    """Certified lower bound of sup_w 1/sigma_min(e^{jw} I - K), and its omega.

    At each eigenvalue angle of K (and at 0 and pi) the gain is evaluated and
    then refined by a bounded 1-D search over a window a few times the
    eigenvalue's distance to the unit circle.  Every evaluated frequency gives
    a lower bound of the supremum; the best one is deflated by the backward
    error of the SVD (n * eps * ||e^{jw} I - K||), so round-off cannot make
    the oracle exceed the true supremum.
    """
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    slack = n * EPS * (1.0 + np.linalg.norm(k, 2))
    best = [0.0, 0.0]  # (gain, omega)

    def neg_gain(omega: float) -> float:
        smin = _sigma_min(k, omega)
        lower = 1.0 / (smin + slack)
        if lower > best[0]:
            best[:] = [lower, omega]
        return -lower

    eigs = np.linalg.eigvals(k)
    if np.max(np.abs(eigs)) >= 1.0:
        return math.inf, float(abs(np.angle(eigs[np.argmax(np.abs(eigs))])))
    for omega in (0.0, math.pi):
        neg_gain(omega)
    for lam in eigs[eigs.imag >= 0.0]:
        theta = abs(float(np.angle(lam)))
        neg_gain(theta)
        half = max(4.0 * (1.0 - abs(lam)), 1e-9)
        lo, hi = max(theta - half, 0.0), min(theta + half, math.pi)
        minimize_scalar(neg_gain, bounds=(lo, hi), method="bounded",
                        options={"xatol": half * 1e-9, "maxiter": REFINE_MAX_ITER})
    return float(best[0]), float(best[1])


def check_gain(log: CheckLog, reported: float, oracle: float, where: str) -> float | None:
    """The reported T must not be below the oracle's lower bound; returns oracle/T."""
    if math.isinf(reported):
        log.record("gain_oracle", True)
        return None
    log.record(
        "gain_oracle",
        oracle <= reported * (1.0 + CHECK_RTOL),
        f"{where}: reported T={reported!r} is below the lower bound {oracle!r}",
    )
    return oracle / reported if reported > 0 and math.isfinite(oracle) else None


# ---------------------------------------------------------------------------
# Disturbance admissibility oracle
# ---------------------------------------------------------------------------


def spectral_peak(w: np.ndarray) -> float:
    """max_j ||W(2 pi j / (ORACLE_OVERSAMPLING K))|| for W(z) = sum_k w_k z^-k.

    A real sequence's spectrum norm is symmetric about pi, so the half grid
    of rfft covers it; components are accumulated one at a time to keep the
    memory at one column of the dense grid.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    grid = ORACLE_OVERSAMPLING * w.shape[0]
    power = np.zeros(grid // 2 + 1)
    for column in w.T:
        power += np.abs(np.fft.rfft(column, n=grid)) ** 2
    return float(np.sqrt(np.max(power)))


def check_admissible(log: CheckLog, w: np.ndarray, gamma: float, where: str) -> float | None:
    """The dense-grid peak must not exceed gamma; returns peak/gamma."""
    peak = spectral_peak(w)
    log.record(
        "admissibility_oracle",
        peak <= gamma * (1.0 + CHECK_RTOL),
        f"{where}: spectral peak {peak!r} exceeds gamma={gamma!r} "
        f"by a factor {peak / gamma if gamma else math.inf:.6f}",
    )
    return peak / gamma if gamma > 0 else None


# ---------------------------------------------------------------------------
# Bound arithmetic
# ---------------------------------------------------------------------------


def _num(v) -> float:
    return math.inf if v == "inf" else float(v)


def _same(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=ARITH_RTOL, abs_tol=0.0)


def _times_gamma(gain: float, gamma: float) -> float:
    return 0.0 if gamma == 0.0 else gain * gamma


def arithmetic_errors(doc: dict) -> list[str]:
    """Bound expressions recomputed from a report's own inputs.

    Works on verify reports (inputs under "inputs") and analyze outputs
    (T under "hinf.value"); L/Q/C-dependent bounds are checked when present.
    """
    if "inputs" in doc:
        inputs = doc["inputs"]
        gamma, t, kf = _num(inputs["gamma"]), _num(inputs["T_hinf"]), _num(inputs["Kf_hinf"])
    else:
        inputs = None
        gamma, t, kf = _num(doc["gamma"]), _num(doc["hinf"]["value"]), _num(doc["Kf_hinf"])
    m, n = _times_gamma(t, gamma), _times_gamma(kf * t, gamma)
    expected = {
        "M": m,
        "N": n,
        "state_max_bound": m,
        "state_energy_bound": m * m,
        "action_max_bound": n,
        "action_energy_bound": n * n,
    }
    if inputs is not None:
        lip, q, c = _num(inputs["L"]), _num(inputs["Q"]), _num(inputs["C"])
        gamma_d, horizon = _num(inputs["gamma_d"]), _num(inputs["horizon"])
        discount = (1.0 / (1.0 - gamma_d) if math.isinf(horizon)
                    else (1.0 - gamma_d ** (horizon + 1)) / (1.0 - gamma_d))
        expected["reward_impact_bound"] = 0.0 if lip == 0.0 else lip * (q + m + n) * discount
        expected["generalization_error_bound"] = (
            0.0 if lip == 0.0 else (lip * (q + m + n) + lip * c) / (1.0 - gamma_d)
        )
    return [
        f"{key}={doc[key]!r}, expected {value!r}"
        for key, value in expected.items()
        if not _same(_num(doc[key]), value)
    ]


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------


def file_digests(directory: Path) -> dict:
    """SHA-256 of every output file except manifests, which carry timestamps."""
    digests = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            digests[path.relative_to(directory).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def combined_digest(digests: dict) -> str:
    lines = "".join(f"{name} {sha}\n" for name, sha in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


# ---------------------------------------------------------------------------
# All checks on one pass's outputs
# ---------------------------------------------------------------------------


def check_outputs(log: CheckLog, out_dir: Path, steps, captured) -> dict:
    """Run the reload, arithmetic and soundness checks on one pass's outputs.

    ``steps`` are the pass's CLI calls; ``captured`` holds (gamma, w) for each
    disturbance the pass generated.  Returns the facts the per-layer metrics
    report (ranks, residuals, 1 - rho, oracle ratios, violations).
    """
    from koopbound.bounds import load_report

    facts = {"violations": 0}
    ranks, residuals, margins, gain_ratios, peak_ratios = [], [], [], [], []
    oracle_cache = {}

    def oracle_for(model_path: Path) -> float:
        if model_path not in oracle_cache:
            model = json.loads(model_path.read_text())
            k = np.asarray(model["state_operator"], dtype=float)
            oracle_cache[model_path] = gain_lower_bound(k)[0]
            ranks.append(model.get("rank"))
            residuals.append((model.get("residuals") or {}).get("state"))
            margins.append(1.0 - float(np.max(np.abs(np.linalg.eigvals(k)))))
        return oracle_cache[model_path]

    for step in steps:
        argv = step.argv
        if step.stage not in ("analyze", "verify"):
            continue
        out = Path(argv[argv.index("--out") + 1])
        model_path = Path(next(a for a in argv[1:] if a.endswith("_model.json")))
        doc = json.loads(out.read_text())
        errors = arithmetic_errors(doc)
        log.record("bound_arithmetic", not errors, f"{out.name}: {'; '.join(errors)}")
        if step.stage == "verify":
            try:
                report, _ = load_report(out)
                ok, message = True, ""
                facts["violations"] += len(report.violations)
            except Exception as exc:  # any failure to reload is the finding
                ok, message = False, f"{out.name}: {type(exc).__name__}: {exc}"
            log.record("report_reload", ok, message)
            reported = _num(doc["inputs"]["T_hinf"])
        else:
            reported = _num(doc["hinf"]["value"])
        ratio = check_gain(log, reported, oracle_for(model_path), out.name)
        if ratio is not None:
            gain_ratios.append(ratio)

    for i, (gamma, w) in enumerate(captured):
        ratio = check_admissible(log, w, gamma, f"disturbance {i} (gamma={gamma})")
        if ratio is not None:
            peak_ratios.append(ratio)

    ranks = [r for r in ranks if r is not None]
    residuals = [r for r in residuals if r is not None]
    facts.update(
        rank=min(ranks) if ranks else None,
        state_residual=max(residuals) if residuals else None,
        one_minus_rho=min(margins) if margins else None,
        gain_oracle_ratio=max(gain_ratios) if gain_ratios else None,
        disturbance_peak_ratio=max(peak_ratios) if peak_ratios else None,
    )
    return facts
