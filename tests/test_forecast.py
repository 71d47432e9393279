"""Tests for the price-forecasting extension."""

import numpy as np
import pytest

from repro.core import OnlineCarbonTrading
from repro.forecast.price_models import AR1Forecaster, EwmaForecaster
from repro.forecast.trading import ForecastCarbonTrading
from repro.policies.trading import TradeDecision, TradingContext


class TestEwmaForecaster:
    def test_predict_before_update_raises(self):
        with pytest.raises(RuntimeError):
            EwmaForecaster().predict()

    def test_constant_series_converges(self):
        forecaster = EwmaForecaster(alpha=0.5)
        for _ in range(20):
            forecaster.update(8.0)
        assert forecaster.predict() == pytest.approx(8.0)

    def test_tracks_level_shift(self):
        forecaster = EwmaForecaster(alpha=0.5)
        for _ in range(10):
            forecaster.update(6.0)
        for _ in range(10):
            forecaster.update(10.0)
        assert forecaster.predict() == pytest.approx(10.0, abs=0.1)

    def test_flat_multi_step_forecast(self):
        forecaster = EwmaForecaster()
        forecaster.update(7.0)
        assert forecaster.predict(1) == forecaster.predict(5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EwmaForecaster(alpha=0.0)
        forecaster = EwmaForecaster()
        with pytest.raises(ValueError):
            forecaster.update(-1.0)


class TestAR1Forecaster:
    def test_learns_ar1_coefficients(self):
        rng = np.random.default_rng(0)
        a, b = 0.8, 1.6  # stationary mean 8
        forecaster = AR1Forecaster(forgetting=0.9999)  # long memory for identification
        price = 8.0
        for _ in range(5000):
            price = a * price + b + 0.5 * rng.standard_normal()
            forecaster.update(price)
        a_hat, b_hat = forecaster.coefficients
        assert a_hat == pytest.approx(a, abs=0.1)
        # The intercept is collinear with the slope around the mean; check
        # the implied stationary mean instead of b directly.
        assert b_hat / (1 - a_hat) == pytest.approx(b / (1 - a), rel=0.1)

    def test_one_step_prediction_beats_last_value(self):
        """On a strongly mean-reverting series, AR(1) must beat persistence."""
        rng = np.random.default_rng(1)
        a, b = 0.5, 4.0
        forecaster = AR1Forecaster()
        price = 8.0
        ar_errors, last_errors = [], []
        for t in range(1500):
            next_price = a * price + b + 0.1 * rng.standard_normal()
            if t > 300:
                ar_errors.append((forecaster.predict(1) - next_price) ** 2)
                last_errors.append((price - next_price) ** 2)
            forecaster.update(next_price)
            price = next_price
        assert np.mean(ar_errors) < 0.8 * np.mean(last_errors)

    def test_fallback_before_two_observations(self):
        forecaster = AR1Forecaster()
        forecaster.update(7.5)
        assert forecaster.predict() == pytest.approx(7.5)

    def test_multi_step_iterates(self):
        forecaster = AR1Forecaster()
        for price in [8.0, 8.0, 8.0, 8.0]:
            forecaster.update(price)
        assert forecaster.predict(3) > 0

    def test_prediction_stays_positive(self):
        forecaster = AR1Forecaster()
        for price in [10.0, 5.0, 2.0, 1.0, 0.5]:
            forecaster.update(price)
        assert forecaster.predict(10) > 0

    @pytest.mark.parametrize("prices", [[8.0, 9.0, 7.5, 8.25], [10.0, 5.0, 2.0, 1.0, 0.5]])
    def test_path_is_every_horizon_of_the_recurrence(self, prices):
        # The router reads each slot's look-ahead from one path() call; it
        # must equal iterating the fitted recurrence k times for each k,
        # with only each output (not the iterate) clamped positive.
        forecaster = AR1Forecaster()
        for price in prices:
            forecaster.update(price)
        a, b = forecaster.coefficients
        expected, price = [], prices[-1]
        for _ in range(12):
            price = a * price + b
            expected.append(max(price, 1e-9))
        assert forecaster.path(12) == expected
        assert [forecaster.predict(k) for k in range(1, 13)] == expected

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AR1Forecaster(forgetting=0.3)
        with pytest.raises(ValueError):
            AR1Forecaster(regularization=0.0)


def make_context(t, buy, sell, horizon=200, cap=100.0, bound=60.0, emissions_sum=0.0):
    return TradingContext(
        t=t, horizon=horizon, cap=cap,
        buy_price=buy, sell_price=sell,
        prev_buy_price=buy, prev_sell_price=sell,
        prev_emissions=20.0, cumulative_emissions=emissions_sum,
        holdings=cap, mean_slot_emissions=20.0, trade_bound=bound,
    )


class TestForecastCarbonTrading:
    def test_first_slot_idle(self):
        policy = ForecastCarbonTrading()
        decision = policy.decide(make_context(0, 8.0, 7.2))
        assert decision.buy == decision.sell == 0.0

    def test_falls_back_to_prev_prices_without_history(self):
        """Before the forecaster saw anything, behave like Algorithm 2."""
        plain = OnlineCarbonTrading(gamma1=0.2, gamma2=4.0)
        forecast = ForecastCarbonTrading(gamma1=0.2, gamma2=4.0)
        ctx0 = make_context(0, 8.0, 7.2)
        plain.observe(ctx0, TradeDecision(0.0, 0.0), 30.0)
        # Mimic internal state but skip the forecaster update.
        forecast._lambda = plain.dual_variable
        ctx1 = make_context(1, 8.0, 7.2)
        assert forecast.decide(ctx1).buy == pytest.approx(plain.decide(ctx1).buy)

    def _drive(self, policy, prices, emissions=25.0):
        bought = sold = cost = emitted = 0.0
        horizon = len(prices)
        for t, price in enumerate(prices):
            ctx = make_context(t, price, 0.9 * price, horizon=horizon,
                               emissions_sum=emitted)
            decision = policy.decide(ctx)
            policy.observe(ctx, decision, emissions)
            bought += decision.buy
            sold += decision.sell
            cost += decision.buy * price - decision.sell * 0.9 * price
            emitted += emissions
        return bought, sold, cost, emitted

    def test_covers_emissions_like_vanilla(self):
        rng = np.random.default_rng(2)
        prices = rng.uniform(5.9, 10.9, size=300)
        policy = ForecastCarbonTrading(gamma1=0.2, gamma2=4.0)
        bought, sold, _, emitted = self._drive(policy, prices)
        violation = max(emitted - (100.0 + bought - sold), 0.0)
        assert violation < 0.05 * emitted

    def test_buys_cheaper_than_vanilla_on_predictable_prices(self):
        """On a mean-reverting (predictable) series, forecasting must not
        pay more per unit than the previous-price rule."""
        rng = np.random.default_rng(3)
        a, b = 0.7, 2.5  # mean ~8.3
        prices = []
        price = 8.3
        for _ in range(400):
            price = float(np.clip(a * price + b + 0.6 * rng.standard_normal(), 5.9, 10.9))
            prices.append(price)
        results = {}
        for name, policy in {
            "plain": OnlineCarbonTrading(gamma1=0.2, gamma2=4.0),
            "forecast": ForecastCarbonTrading(
                gamma1=0.2, gamma2=4.0, trend_weight=1.0
            ),
        }.items():
            bought, sold, cost, emitted = self._drive(policy, prices)
            net = bought - sold
            assert net > 0
            results[name] = cost / net
        assert results["forecast"] <= results["plain"] * 1.03

    def test_trend_tilt_slashes_violation_on_predictable_prices(self):
        """With a strong tilt, coverage arrives earlier: fit collapses."""
        rng = np.random.default_rng(5)
        a, b = 0.55, 3.7
        prices = []
        price = 8.3
        for _ in range(300):
            price = float(np.clip(a * price + b + 0.5 * rng.standard_normal(), 5.9, 10.9))
            prices.append(price)

        def final_fit(policy):
            bought, sold, _, emitted = self._drive(policy, prices)
            return max(emitted - (100.0 + bought - sold), 0.0)

        plain = final_fit(OnlineCarbonTrading(gamma1=0.2, gamma2=4.0))
        tilted = final_fit(
            ForecastCarbonTrading(gamma1=0.2, gamma2=4.0, trend_weight=40.0)
        )
        assert tilted < 0.5 * plain

    def test_trend_weight_validation(self):
        with pytest.raises(ValueError):
            ForecastCarbonTrading(trend_weight=-1.0)

    def test_runner_integration(self, small_scenario):
        from repro.experiments.runner import run_combo

        result = run_combo(small_scenario, "Ours", "Forecast", seed=0)
        assert result.horizon == small_scenario.horizon
        assert result.final_fit() < 0.2 * result.emissions.sum()
