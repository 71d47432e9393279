"""The 1/2-Tsallis-entropy online-mirror-descent step.

Algorithm 1, line 3 computes

    p = argmin_{p in simplex}  <p, C_hat>  -  sum_n (4 sqrt(p_n) - 2 p_n) / eta.

First-order stationarity gives the closed form

    p_n(x) = 4 / (eta^2 (C_hat_n - x)^2),

where ``x`` (a shifted Lagrange multiplier) must satisfy
``x <= min_n C_hat_n - 2/eta`` so that every ``p_n <= 1``.  The map
``x -> sum_n p_n(x)`` is strictly increasing on that interval, equals at most
``N * small`` at the left end of our bracket and at least 1 at the right end,
so the normalization ``sum_n p_n(x) = 1`` has a unique root which we find by
a safeguarded Newton iteration (Newton steps with a bisection fallback —
the same derivative-based root polishing as Brent's method the paper cites).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_finite, check_positive, check_simplex

__all__ = ["tsallis_inf_probabilities", "tsallis_inf_probabilities_batch"]

_MAX_ITER = 200
_TOL = 1e-12
_SIMPLEX_ATOL = 1e-9  # check_simplex's default tolerance


def _check_simplex_rows(matrix: np.ndarray, name: str) -> np.ndarray:
    """Whole-matrix form of :func:`check_simplex`'s postcondition.

    Same invariants and tolerances, checked with three array reductions
    instead of one Python-level call per row (the per-row loop was a
    profiled hotspot of the batched solver).  Like ``check_simplex``, this
    never alters values — it only raises when a row is off the simplex.
    """
    if not np.all(np.isfinite(matrix)):
        raise ArithmeticError(f"{name} contains non-finite probabilities")
    low = float(matrix.min())
    if low < -_SIMPLEX_ATOL:
        raise ArithmeticError(f"{name} has negative probability mass: min={low!r}")
    totals = matrix.sum(axis=1)
    tolerance = max(_SIMPLEX_ATOL * matrix.shape[1], _SIMPLEX_ATOL)
    off = np.abs(totals - 1.0) > tolerance
    if np.any(off):
        row = int(np.argmax(off))
        raise ArithmeticError(
            f"{name} row {row} must sum to 1, got {float(totals[row])!r}"
        )
    return matrix


def tsallis_inf_probabilities(cumulative_losses: np.ndarray, eta: float) -> np.ndarray:
    """Solve the Tsallis-entropy OMD step.

    Parameters
    ----------
    cumulative_losses:
        ``C_hat`` — cumulative importance-weighted loss estimates, one per arm.
    eta:
        Learning rate ``eta > 0``.

    Returns
    -------
    Probability vector over the arms; lower cumulative loss gets higher mass.
    """
    losses = check_finite(cumulative_losses, "cumulative_losses")
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError(f"cumulative_losses must be a non-empty vector, got {losses.shape}")
    check_positive(eta, "eta")
    n = losses.size
    if n == 1:
        return np.ones(1)

    lo = float(losses.min()) - 2.0 * np.sqrt(n) / eta  # sum(p) <= 1 here
    hi = float(losses.min()) - 2.0 / eta  # sum(p) >= 1 here

    # ``np.add.reduce`` is the reduction inside ``ndarray.sum``/``np.sum``
    # (bit-identical) without their Python wrapper layers.
    reduce_add = np.add.reduce

    def mass_and_derivative(x: float) -> tuple[float, float]:
        gaps = losses - x  # >= 2/eta > 0 on [lo, hi]
        p = 4.0 / (eta * gaps) ** 2
        return float(reduce_add(p)), float((8.0 / eta**2) * reduce_add(gaps**-3))

    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        mass, derivative = mass_and_derivative(x)
        if mass > 1.0:
            hi = x
        else:
            lo = x
        if abs(mass - 1.0) <= _TOL:
            break
        step = (mass - 1.0) / derivative
        candidate = x - step
        # Newton step, safeguarded: fall back to bisection when the step
        # leaves the current bracket.
        x = candidate if lo < candidate < hi else 0.5 * (lo + hi)
        if hi - lo <= _TOL * max(1.0, abs(hi)):
            break

    gaps = losses - x
    p = 4.0 / (eta * gaps) ** 2
    total = p.sum()
    if not np.isfinite(total) or total <= 0:
        raise ArithmeticError("Tsallis OMD normalization failed")
    return check_simplex(p / total, "tsallis_inf_probabilities")


def tsallis_inf_probabilities_batch(
    cumulative_losses: np.ndarray, etas: np.ndarray
) -> np.ndarray:
    """Solve ``B`` independent Tsallis-OMD steps at once.

    Row ``b`` of the result is **bitwise identical** to
    ``tsallis_inf_probabilities(cumulative_losses[b], etas[b])``: every row
    follows the exact safeguarded-Newton trajectory of the scalar solver
    (per-row bracket state, per-row convergence freezing), and NumPy's
    pairwise reduction over the last axis of a C-contiguous matrix performs
    the same addition sequence as the scalar solver's 1-D sums.  This is
    what lets every engine batch block openings across edges
    (:func:`repro.sim.vector.batch_block_opens`) without moving the golden
    digests.

    Parameters
    ----------
    cumulative_losses:
        ``(B, N)`` matrix of cumulative importance-weighted loss estimates,
        one row per independent problem.
    etas:
        ``(B,)`` positive learning rates, one per row.

    Returns
    -------
    ``(B, N)`` row-stochastic matrix of sampling distributions.
    """
    losses = check_finite(cumulative_losses, "cumulative_losses")
    if losses.ndim != 2 or losses.shape[0] == 0 or losses.shape[1] == 0:
        raise ValueError(
            f"cumulative_losses must be a non-empty (B, N) matrix, got {losses.shape}"
        )
    etas = np.asarray(etas, dtype=float)
    if etas.shape != (losses.shape[0],):
        raise ValueError(
            f"etas must have shape ({losses.shape[0]},), got {etas.shape}"
        )
    if not np.all(np.isfinite(etas)) or np.any(etas <= 0):
        bad = int(np.argmax(~(np.isfinite(etas) & (etas > 0))))
        check_positive(float(etas[bad]), "eta")  # raises the scalar message
    losses = np.ascontiguousarray(losses, dtype=float)
    num_rows, n = losses.shape
    if n == 1:
        return np.ones((num_rows, 1))

    row_min = losses.min(axis=1)
    lo = row_min - 2.0 * np.sqrt(n) / etas
    hi = row_min - 2.0 / etas
    x = 0.5 * (lo + hi)
    eta_column = etas[:, None]
    slope = 8.0 / etas**2
    active = np.ones(num_rows, dtype=bool)
    reduce_add = np.add.reduce

    # Every row is evaluated each iteration, but only an active row's ``x``
    # moves: the same per-element arithmetic as solving the active rows
    # alone, without gathering and scattering them.  A frozen row's bracket
    # may keep moving; it is never read again.
    for _ in range(_MAX_ITER):
        gaps = losses - x[:, None]  # >= 2/eta > 0 on [lo, hi]
        mass = reduce_add(4.0 / (eta_column * gaps) ** 2, axis=1)
        derivative = slope * reduce_add(gaps**-3, axis=1)
        above = mass > 1.0
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        excess = mass - 1.0
        moving = active & ~(np.abs(excess) <= _TOL)
        candidate = x - excess / derivative
        inside = (lo < candidate) & (candidate < hi)
        x = np.where(moving, np.where(inside, candidate, 0.5 * (lo + hi)), x)
        collapsed = (hi - lo) <= _TOL * np.maximum(1.0, np.abs(hi))
        active = moving & ~collapsed
        if not np.count_nonzero(active):
            break

    gaps = losses - x[:, None]
    p = 4.0 / (etas[:, None] * gaps) ** 2
    totals = p.sum(axis=1)
    if not np.all(np.isfinite(totals)) or np.any(totals <= 0):
        raise ArithmeticError("Tsallis OMD normalization failed")
    probabilities = p / totals[:, None]
    return _check_simplex_rows(probabilities, "tsallis_inf_probabilities_batch")
