"""Online one-step-ahead price forecasters.

Both models are fully online (O(1) state and update), matching the paper's
information structure: at slot ``t`` they have seen prices up to ``t-1``
only.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_in_range, check_positive

__all__ = ["PriceForecaster", "EwmaForecaster", "AR1Forecaster"]


class PriceForecaster:
    """Interface: observe realized prices, predict the next one."""

    def update(self, price: float) -> None:
        """Fold in the price realized at the current slot."""
        raise NotImplementedError

    def predict(self, steps: int = 1) -> float:
        """Forecast the price ``steps`` slots ahead of the last observation."""
        raise NotImplementedError

    def path(self, steps: int) -> list[float]:
        """``[predict(1), ..., predict(steps)]``, bit-identical to the calls."""
        return [self.predict(k) for k in range(1, steps + 1)]

    @property
    def observations(self) -> int:
        """Number of prices observed so far."""
        raise NotImplementedError

    @staticmethod
    def _check_price(price: float) -> float:
        if not np.isfinite(price) or price <= 0:
            raise ValueError(f"price must be finite and positive, got {price!r}")
        return float(price)


class EwmaForecaster(PriceForecaster):
    """Exponentially weighted moving average: flat forecast at the EWMA."""

    def __init__(self, alpha: float = 0.3) -> None:
        check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
        self.alpha = alpha
        self._mean: float | None = None
        self._count = 0

    def update(self, price: float) -> None:
        price = self._check_price(price)
        if self._mean is None:
            self._mean = price
        else:
            self._mean = self.alpha * price + (1.0 - self.alpha) * self._mean
        self._count += 1

    def predict(self, steps: int = 1) -> float:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if self._mean is None:
            raise RuntimeError("cannot predict before any observation")
        return self._mean

    @property
    def observations(self) -> int:
        return self._count


class AR1Forecaster(PriceForecaster):
    """Recursive least squares for ``p_{t+1} = a * p_t + b + noise``.

    A forgetting factor keeps the fit adaptive to regime changes.  Before
    two observations exist, the forecast falls back to the last price
    (random-walk prior).
    """

    def __init__(self, forgetting: float = 0.98, regularization: float = 1e3) -> None:
        check_in_range(forgetting, "forgetting", 0.5, 1.0)
        check_positive(regularization, "regularization")
        self.forgetting = forgetting
        # RLS state over feature vector [p_t, 1].
        self._p_matrix = regularization * np.eye(2)
        self._theta = np.array([1.0, 0.0])  # start at a random walk
        self._last_price: float | None = None
        self._count = 0

    def update(self, price: float) -> None:
        price = self._check_price(price)
        if self._last_price is not None:
            x = np.array([self._last_price, 1.0])
            lam = self.forgetting
            px = self._p_matrix @ x
            gain = px / (lam + x @ px)
            error = price - self._theta @ x
            self._theta = self._theta + gain * error
            self._p_matrix = (self._p_matrix - np.outer(gain, px)) / lam
        self._last_price = price
        self._count += 1

    def predict(self, steps: int = 1) -> float:
        return self.path(steps)[-1]

    def path(self, steps: int) -> list[float]:
        """One pass of the recurrence gives every horizon up to ``steps``."""
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if self._last_price is None:
            raise RuntimeError("cannot predict before any observation")
        a, b = self._theta
        price = self._last_price
        out = []
        for _ in range(steps):
            price = float(a * price + b)
            # Prices are positive; keep the forecast physically sensible.
            out.append(max(price, 1e-9))
        return out

    @property
    def coefficients(self) -> tuple[float, float]:
        """Current ``(a, b)`` estimates."""
        return float(self._theta[0]), float(self._theta[1])

    @property
    def observations(self) -> int:
        return self._count
