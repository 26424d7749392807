#!/usr/bin/env python3
"""Walk through the insurance pricing math, end to end.

Utilization -> unit cost -> premium -> full fiat cost, reproducing the
headline numbers: 0.004566 ETH to cover 100 ETH for 1500 blocks, and
$7.45-ish all-in for a 10 ETH check.

Usage:
    python3 demos/pricing_walkthrough.py
"""

from lcsim.cli import report_row
from lcsim.harness import run_scenario
from lcsim.pricing import (
    CoverageInputs,
    PricingParams,
    eth_to_wei,
    format_eth,
    format_usd,
    min_coverage_duration,
    premium,
    total_cost_usd,
    unit_cost,
)
from lcsim.scenario import builtin_scenario_path, load_scenario


def main() -> None:
    params = PricingParams()  # APY 6%, 2,628,000 blocks/year, u = 0.75
    print("=" * 68)
    print("Stake utilization")
    print("=" * 68)
    print(f"quote input (a market parameter)  : u = {params.utilization}")
    metrics, _ = run_scenario(load_scenario(builtin_scenario_path("insured")))
    print(f"measured in the insured scenario  : u = {metrics.mean_utilization()}")
    print("(the measured figure is reported, never fed back into quotes)")
    print()

    print("=" * 68)
    print("Unit cost and premium")
    print("=" * 68)
    c = unit_cost(params)
    print(f"c = APY / (B * u) = {c} ETH per ETH-block  (~{float(c):.5e})")
    p = premium(params, 1500, eth_to_wei(100))
    print(f"covering 100 ETH for 1500 blocks  : {format_eth(p)} ETH")
    p10 = premium(params, 1500, eth_to_wei(10))
    print(f"covering  10 ETH for 1500 blocks  : {format_eth(p10)} ETH")
    print()

    print("=" * 68)
    print("Coverage duration floor")
    print("=" * 68)
    inputs = CoverageInputs(
        t_fin=64, challenge_periods=(1500, 1500), delta_comm=2, delta_comp=1
    )
    print("finality 64 + challenge 1500 (purchase) + 1500 (target) + delays 3")
    print(f"minimum T_cov = {min_coverage_duration(inputs)} blocks")
    print()

    print("=" * 68)
    print("All-in fiat cost (gas 200k units at 9.377 Gwei, $3200/ETH)")
    print("=" * 68)
    for value_eth in (10, 32, 160, 320):
        gas_usd, premium_usd, total = total_cost_usd(params, 1500, eth_to_wei(value_eth))
        row = report_row(params, value_eth, 1500, 1500)
        print(
            f"{value_eth:>4} ETH: premium ${format_usd(premium_usd):>6}"
            f" + gas ${format_usd(gas_usd)} = ${format_usd(total):>6}"
            f"   ({row.provider_count} provider(s), {row.signature_count} signature(s))"
        )
    print()
    print("Longer coverage scales linearly:")
    for duration in (500, 1500, 3000):
        _, _, total = total_cost_usd(params, duration, eth_to_wei(10))
        print(f"  10 ETH for {duration:>4} blocks: ${format_usd(total)}")


if __name__ == "__main__":
    main()
