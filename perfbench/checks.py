"""Correctness checks on maxdater reports, independent of draw layouts.

Each check compares a report with a closed form or a fixed verdict, never
with a digest of earlier output, so a change that reorders draws still
passes as long as the numbers stay right.  Stdlib only: the end-to-end
benchmark process does not import numpy.
"""

from __future__ import annotations

import json
import math

# Tolerances in standard errors.  Ten seeds times a handful of checks per
# run keep the chance of a false alarm far below one in a million.
_SIGMAS = 5.0


def _exp_exp_cdf(x: float) -> float:
    """Stationary workload law for Exp(1) arrivals and Exp(1) service.

    The newest job's service is Exp(1); every older job's residual deadline
    sits at a Poisson(1) point, so by Campbell's formula
    F(x) = (1 - e^-x) * exp(-e^-x).
    """
    e = math.exp(-x)
    return (1.0 - e) * math.exp(-e)


def _exp_exp_density(x: float) -> float:
    e = math.exp(-x)
    return e * math.exp(-e) * (2.0 - e)


def _exp_exp_quantile(p: float) -> float:
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _exp_exp_cdf(mid) >= p:
            hi = mid
        else:
            lo = mid
    return hi


def _exp_exp_mean() -> float:
    # E X = integral of 1 - F over [0, 60] by Simpson's rule; the tail
    # beyond 60 is below 1e-25
    n, h = 6000, 60.0 / 6000
    acc = 0.0
    for i in range(n + 1):
        w = 1 if i in (0, n) else (4 if i % 2 else 2)
        acc += w * (1.0 - _exp_exp_cdf(i * h))
    return acc * h / 3.0


def check_stationary(report: dict) -> list[str]:
    """Quantiles and mean against the closed-form Exp/Exp law."""
    res = report["result"]
    if res.get("divergence_suspected"):
        return ["stationary: divergence suspected on a positive recurrent model"]
    n = res["reps"]
    problems = []
    for key, got in res["quantiles"].items():
        p = float(key)
        want = _exp_exp_quantile(p)
        tol = _SIGMAS * math.sqrt(p * (1.0 - p) / n) / _exp_exp_density(want)
        if abs(got - want) > tol:
            problems.append(f"stationary: quantile {key} is {got:.5f}, "
                            f"law gives {want:.5f} (tolerance {tol:.5f})")
    want = _exp_exp_mean()
    tol = _SIGMAS * res["sd"] / math.sqrt(n)
    if abs(res["mean"] - want) > tol:
        problems.append(f"stationary: mean is {res['mean']:.5f}, law gives "
                        f"{want:.5f} (tolerance {tol:.5f})")
    return problems


def check_regen(report: dict) -> list[str]:
    """Cesaro mean of the renewal sequence against F(w0) * P(T_m0 > w0).

    A window regenerates when the stationary workload is at most w0 and the
    next m0 Exp(1) gaps, a Gamma(m0, 1) sum, exceed w0.  u_hat[0] = 1 by
    convention, so the Cesaro mean over L entries is (1 + (L-1) p) / L.
    """
    res = report["result"]
    w0, m0 = res["params"]["w0"], res["params"]["m0"]
    renewal = res["renewal"]
    gap = math.exp(-w0) * sum(w0 ** k / math.factorial(k) for k in range(m0))
    p = _exp_exp_cdf(w0) * gap
    length = renewal["u_hat"]["length"]
    want = (1.0 + (length - 1) * p) / length
    # window indicators decorrelate within a few windows; allow a factor
    # four on the variance for that
    tol = _SIGMAS * math.sqrt(4.0 * p * (1.0 - p) / (renewal["reps"] * (length - 1)))
    got = renewal["cesaro"]
    if abs(got - want) > tol:
        return [f"regen: cesaro is {got:.5f}, F(w0) P(T_m0 > w0) gives "
                f"{want:.5f} (tolerance {tol:.5f})"]
    return []


def check_classify(report: dict) -> list[str]:
    verdict = report["result"]["verdict"]
    if verdict != "transient":
        return [f"classify: verdict is {verdict}, expected transient"]
    return []


CHECKS = {
    "stationary": check_stationary,
    "regen": check_regen,
    "classify": check_classify,
}


def check_report(command: str, text: bytes) -> list[str]:
    """Problems found in one report; an empty list means it is correct."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"{command}: report is not JSON ({exc})"]
    if report.get("command") != command:
        return [f"{command}: report is for command {report.get('command')!r}"]
    return CHECKS[command](report)
