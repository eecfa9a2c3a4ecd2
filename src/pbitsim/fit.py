"""Bounded Levenberg-Marquardt least squares, shared by the dwell and sigmoid fits.

A module of its own so that `device` fits its sigmoid without loading trace
analysis.
"""

from __future__ import annotations

import numpy as np

from .params import AnalysisError


class FitDiverged(AnalysisError):
    """Raised when a least-squares fit does not converge, or when the
    exponential ACF fit is out of range or too poor."""


# Step budget of least_squares; the fits here take 6-12 steps at the median
# and about 60 at most.
_FIT_MAX_STEPS = 200


def least_squares(model, y, p0, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Minimise |model(p) - y|^2 over the box lower <= p <= upper.

    model(p) returns the prediction and its Jacobian J; returns p and the
    residuals r = model(p) - y.  Levenberg-Marquardt (Moré, LNM 630, 1978)
    with Marquardt's scaling: each step solves [J; sqrt(damping * diag(J^T J))]
    step = [-r; 0] by least squares, and the damping falls tenfold after a
    trial that lowers the cost and rises tenfold after one that does not (a
    non-finite cost or Jacobian included).  A parameter on a bound its
    gradient pushes against stays there; a step that would cross a bound goes
    half way to the first bound it crosses and the other parameters step
    again given that, so that one long step cannot land on a bound where a
    logistic's gradient vanishes.  Converges when an accepted step moves no
    parameter by more than 1e-12 relative or lowers the cost by at most 1e-14
    relative, when the gradient or the step vanishes, or when the residuals
    are at the rounding level of y.  Raises FitDiverged when the starting
    point gives non-finite residuals or _FIT_MAX_STEPS trial steps do not
    converge.
    """
    y = np.asarray(y, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    floor = (np.finfo(float).eps * np.linalg.norm(y)) ** 2
    p = np.clip(np.asarray(p0, dtype=float), lower, upper)
    with np.errstate(all="ignore"):  # overflow is a large residual, not an error
        f, jac = model(p)
    r = f - y
    cost = r @ r
    if not (np.isfinite(cost) and np.isfinite(jac).all()):
        raise FitDiverged("least squares: non-finite residuals at the starting point")
    damping = 1e-3
    for _ in range(_FIT_MAX_STEPS):
        if cost <= floor:
            return p, r
        grad = jac.T @ r
        scale = np.einsum("ij,ij->j", jac, jac)
        # a bound counts as reached within 1e-10 relative: a parameter that
        # halves its distance each step gets there before its steps converge
        at_lower = p - lower <= 1e-10 * np.abs(p)
        at_upper = upper - p <= 1e-10 * np.abs(p)
        held = (at_lower & (grad > 0)) | (at_upper & (grad < 0))
        free = (scale > 0) & ~held
        if not np.any(grad[free]):
            return p, r
        step = np.zeros(p.size)
        while np.any(free):
            rest = r + jac[:, ~free] @ step[~free]
            step[free] = np.linalg.lstsq(
                np.vstack([jac[:, free], np.diag(np.sqrt(damping * scale[free]))]),
                np.concatenate([-rest, np.zeros(np.count_nonzero(free))]),
                rcond=None,
            )[0]
            room = np.abs(np.where(step < 0, lower, upper) - p)
            crossing = np.flatnonzero(free & (np.abs(step) > room))
            if not crossing.size:
                break
            # half way to the first bound crossed; the rest step again given that
            first = crossing[np.argmin(room[crossing] / np.abs(step[crossing]))]
            step[first] = 0.5 * np.copysign(room[first], step[first])
            free[first] = False
        trial = p + step
        if np.array_equal(trial, p):
            return p, r
        with np.errstate(all="ignore"):
            f_trial, jac_trial = model(trial)
        r_trial = f_trial - y
        cost_trial = r_trial @ r_trial
        if cost_trial < cost and np.isfinite(jac_trial).all():
            done = cost - cost_trial <= 1e-14 * cost or np.all(
                np.abs(trial - p) <= 1e-12 * np.abs(trial)
            )
            p, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            damping = max(0.1 * damping, 1e-16)
            if done:
                return p, r
        else:
            damping *= 10.0
    raise FitDiverged(f"least squares did not converge in {_FIT_MAX_STEPS} steps")
