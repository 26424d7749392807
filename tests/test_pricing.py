"""Pricing engine: worked example, cost table, and exactness properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import pricing
from lcsim.harness import Metrics, ProviderSpec, ScenarioConfig, run_scenario
from lcsim.light_client import ClientConfig
from lcsim.pricing import (
    CoverageInputs,
    PricingParams,
    eth_to_wei,
    min_coverage_duration,
    premium,
    total_cost_usd,
    unit_cost,
    usd_cents,
)

ETH = pricing.WEI_PER_ETH


class TestUtilization:
    """Measured utilization: `Metrics.mean_utilization` over the
    (locked, stake, ticks) runs `Metrics.sample_utilization` records."""

    @staticmethod
    def mean(*samples):
        metrics = Metrics()
        for sample in samples:
            metrics.sample_utilization(*sample)
        return metrics.mean_utilization()

    def test_all_unlocked_is_zero(self):
        assert self.mean((0, 32 * ETH)) == 0

    def test_worked_example_single_provider(self):
        assert self.mean((24 * ETH, 32 * ETH)) == Fraction(3, 4)

    def test_two_providers(self):
        # 32 of 32 and 16 of 32 locked: one sample of the sums.
        assert self.mean((48 * ETH, 64 * ETH)) == Fraction(3, 4)

    def test_no_providers(self):
        # A run whose one provider stakes nothing takes no sample.
        config = ScenarioConfig(
            min_stake=0,
            providers=(ProviderSpec(stake=0),),
            clients=(ClientConfig(challenge_period=13, target_value=ETH),),
        )
        metrics, _ = run_scenario(config)
        assert metrics.utilization == [] and metrics.mean_utilization() is None

    def test_average_constant_series(self):
        samples = [(24 * ETH, 32 * ETH, 10), (3, 4, 1), (48 * ETH, 64 * ETH, 89)]
        assert self.mean(*samples) == Fraction(3, 4)

    def test_average_of_extremes(self):
        assert self.mean((0, 64, 1), (64, 64, 1)) == Fraction(1, 2)

    def test_average_empty(self):
        assert self.mean() is None

    def test_average_matches_independent_resummation(self):
        # 100-sample schedule, checked against a plain accumulator loop.
        series = [(i % 7, 10) for i in range(100)]
        total = Fraction(0)
        for locked, stake in series:
            total += Fraction(locked, stake)
        assert self.mean(*series) == total / 100


class TestUnitCost:
    def test_worked_example_exact(self):
        params = PricingParams()
        assert unit_cost(params) == Fraction(1, 32_850_000)
        # ~3.04414e-8 ETH per ETH-block
        assert abs(float(unit_cost(params)) - 3.04414e-8) < 1e-13

    def test_zero_apy(self):
        assert unit_cost(PricingParams(apy=Fraction(0))) == 0

    def test_full_utilization(self):
        params = PricingParams(utilization=Fraction(1))
        assert unit_cost(params) == Fraction(6, 100) / 2_628_000

    def test_identity_cost_times_denominator_is_apy(self):
        params = PricingParams(apy=Fraction(7, 100), utilization=Fraction(2, 5))
        assert unit_cost(params) * params.blocks_per_year * params.utilization == params.apy


class TestPremium:
    def test_worked_example(self):
        # 100 ETH for 1500 blocks at u = 0.75: 0.004566 ETH within 1e-6.
        wei = premium(PricingParams(), 1500, 100 * ETH)
        assert abs(wei - 4_566_210_045_662_101) <= 1  # exact ceil of 1.5e23/32850000
        assert abs(Fraction(wei, ETH) - Fraction("0.004566")) < Fraction(1, 10**6)

    def test_zero_value(self):
        assert premium(PricingParams(), 1500, 0) == 0

    def test_ten_eth_scales_worked_example(self):
        wei = premium(PricingParams(), 1500, 10 * ETH)
        usd = Fraction(wei, ETH) * 3200
        assert abs(usd - Fraction("1.4611872")) < Fraction(1, 10**4)

    def test_rounding_never_undercharges(self):
        params = PricingParams()
        wei = premium(params, 1, 1)
        assert wei >= 1  # exact cost is a tiny fraction of a wei, rounded up

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=400 * ETH),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_in_value_up_to_one_wei(self, t_cov, v_cov):
        params = PricingParams()
        assert abs(premium(params, t_cov, 2 * v_cov) - 2 * premium(params, t_cov, v_cov)) <= 1

    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=0, max_value=200 * ETH),
        st.integers(min_value=0, max_value=200 * ETH),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_duration_and_value(self, t1, t2, v1, v2):
        params = PricingParams()
        if t1 <= t2 and v1 <= v2:
            assert premium(params, t1, v1) <= premium(params, t2, v2)

    def test_monotone_in_apy_and_antitone_in_utilization(self):
        lo = PricingParams(apy=Fraction(3, 100))
        hi = PricingParams(apy=Fraction(9, 100))
        assert premium(lo, 1500, 10 * ETH) <= premium(hi, 1500, 10 * ETH)
        tight = PricingParams(utilization=Fraction(1, 4))
        loose = PricingParams(utilization=Fraction(1))
        assert premium(loose, 1500, 10 * ETH) <= premium(tight, 1500, 10 * ETH)


class TestCoverageDuration:
    def test_all_zero(self):
        assert min_coverage_duration(CoverageInputs(0, ())) == 0

    def test_worked_sum(self):
        inputs = CoverageInputs(
            t_fin=64, challenge_periods=(1500, 1500), delta_comm=2, delta_comp=1
        )
        assert min_coverage_duration(inputs) == 3067

    def test_single_check_has_two_challenge_periods(self):
        # n = 1: one period for the insurance payment, one for the target.
        inputs = CoverageInputs(t_fin=8, challenge_periods=(13, 13), delta_comm=4, delta_comp=2)
        assert min_coverage_duration(inputs) == 8 + 26 + 6


class TestUsdCosts:
    def test_gas_cost_six_dollars(self):
        gas_usd, _, _ = total_cost_usd(PricingParams(), 1500, 10 * ETH)
        assert abs(gas_usd - Fraction("6.00128")) < Fraction(1, 10**6)

    def test_total_for_ten_eth(self):
        _, _, total = total_cost_usd(PricingParams(), 1500, 10 * ETH)
        assert abs(total - Fraction("7.45")) <= Fraction(2, 100)

    def test_headline_cost_table(self):
        params = PricingParams()
        expected = {10: "7.45", 32: "10.68", 160: "29.38", 320: "52.76"}
        for value_eth, dollars in expected.items():
            _, _, total = total_cost_usd(params, 1500, value_eth * ETH)
            assert abs(total - Fraction(dollars)) <= Fraction(2, 100), value_eth

    def test_gas_cancels_between_rows(self):
        params = PricingParams()
        for v1, v2 in [(10, 32), (160, 320)]:
            g1, p1, t1 = total_cost_usd(params, 1500, v1 * ETH)
            g2, p2, t2 = total_cost_usd(params, 1500, v2 * ETH)
            assert t2 - t1 == p2 - p1
            assert g1 == g2

    def test_usd_cents_rounds_half_up(self):
        assert usd_cents(Fraction("1.455")) == 146
        assert usd_cents(Fraction("1.454")) == 145


class TestUnits:
    def test_eth_to_wei_exact(self):
        assert eth_to_wei("0.5") == ETH // 2
        assert eth_to_wei(32) == 32 * ETH

    def test_eth_to_wei_rejects_sub_wei(self):
        with pytest.raises(ValueError):
            eth_to_wei(Fraction(1, 3 * 10**18))

    def test_gas_price_from_gwei(self):
        params = PricingParams.create(gas_price_gwei="9.377")
        assert params.gas_price_wei == 9_377_000_000
        assert params.gas_cost_wei == 200_000 * 9_377_000_000
