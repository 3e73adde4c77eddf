"""Finite-difference verification of analytic gradients.

The harness scalarizes an op through a fixed random projection

    L(inputs) = sum(forward(inputs) * R)

and compares the analytic gradient backward(R) against central differences
of L for every element of every checked input.  Checks default to float64
evaluation so the differencing noise stays far below the tolerance; the
ops are dtype-preserving, so this exercises exactly the same code paths
as float32 execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradCheckReport:
    max_rel_err: float
    tolerance: float
    passed: bool
    per_input: dict[str, float] = field(default_factory=dict)

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        detail = ", ".join(f"{k}={v:.3e}" for k, v in self.per_input.items())
        return f"[{verdict}] max_rel_err={self.max_rel_err:.3e} tol={self.tolerance:.0e} ({detail})"


def _rel_err(a: float, n: float, floor: float = 1e-8) -> float:
    return abs(a - n) / max(abs(a), abs(n), floor)


def finite_diff_check(forward, backward, inputs, eps: float = 1e-3,
                      tolerance: float = 1e-3, seed: int = 0,
                      input_names=None) -> GradCheckReport:
    """Compare analytic and central-difference gradients element by element.

    forward(*inputs) -> ndarray; backward(*inputs, grad_out) -> per-input
    gradients (entries may be None for non-differentiable inputs).
    """
    inputs = [np.asarray(x, dtype=np.float64).copy() for x in inputs]
    names = list(input_names) if input_names else [f"input{i}" for i in range(len(inputs))]
    rng = np.random.default_rng(seed)
    out = forward(*inputs)
    proj = rng.standard_normal(out.shape)
    analytic = backward(*inputs, proj)
    if len(analytic) != len(inputs):
        raise ValueError("backward must return one gradient per input")

    report = GradCheckReport(max_rel_err=0.0, tolerance=tolerance, passed=True)
    for i, (x, grad) in enumerate(zip(inputs, analytic)):
        if grad is None:
            continue
        worst = 0.0
        flat = x.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp = float(np.sum(forward(*inputs) * proj))
            flat[j] = orig - eps
            lm = float(np.sum(forward(*inputs) * proj))
            flat[j] = orig
            numeric = (lp - lm) / (2.0 * eps)
            worst = max(worst, _rel_err(float(gflat[j]), numeric))
        report.per_input[names[i]] = worst
        report.max_rel_err = max(report.max_rel_err, worst)
    report.passed = report.max_rel_err <= tolerance
    return report
