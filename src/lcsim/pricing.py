"""Insurance pricing: unit cost, premiums, coverage bounds.

All money is integer wei; everything else is exact `Fraction` arithmetic.
The only rounding anywhere is the final ceil to a whole wei when a premium
is charged (never under-charge), and half-up cents when a USD figure is
*displayed*.  The utilization used for quoting is a configured market
parameter; the realized utilization a simulation measures
(`harness.Metrics.mean_utilization`) is reported, never fed back into quotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

WEI_PER_ETH = 10**18
WEI_PER_GWEI = 10**9

#: Blocks per year at a 12-second slot time.
BLOCKS_PER_YEAR = 2_628_000


def as_fraction(value: int | str | float | Fraction) -> Fraction:
    """Exact fraction; floats are taken at their decimal-literal value."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def eth_to_wei(amount: int | str | float | Fraction) -> int:
    wei = as_fraction(amount) * WEI_PER_ETH
    if wei.denominator != 1:
        raise ValueError(f"{amount} ETH is not a whole number of wei")
    return int(wei)


@dataclass(frozen=True)
class PricingParams:
    """Market parameters for quoting: APY, year length, utilization, fiat."""

    apy: Fraction = Fraction(6, 100)
    blocks_per_year: int = BLOCKS_PER_YEAR
    utilization: Fraction = Fraction(3, 4)
    eth_price_usd: Fraction = Fraction(3200)
    gas_price_wei: int = 9_377_000_000
    gas_units: int = 200_000

    def __post_init__(self) -> None:
        if self.apy < 0:
            raise ValueError("apy must be non-negative")
        if self.blocks_per_year <= 0:
            raise ValueError("blocks_per_year must be positive")
        if not 0 < self.utilization <= 1:
            raise ValueError("utilization must be in (0, 1]")
        if self.eth_price_usd < 0:
            raise ValueError("eth_price_usd must be non-negative")
        if self.gas_price_wei < 0:
            raise ValueError("gas price must be non-negative")
        if self.gas_units < 0:
            raise ValueError("gas_units must be non-negative")

    @classmethod
    def create(cls, **given: int | str | float | Fraction) -> "PricingParams":
        """Params from numbers or their text (gas price in gwei); unset ones keep the default."""
        counts = ("blocks_per_year", "gas_units")
        values = {key: int(given.pop(key)) for key in counts if key in given}
        if "gas_price_gwei" in given:
            gas_price = as_fraction(given.pop("gas_price_gwei")) * WEI_PER_GWEI
            if gas_price.denominator != 1:
                raise ValueError("gas price must be a whole number of wei")
            values["gas_price_wei"] = int(gas_price)
        values.update((key, as_fraction(value)) for key, value in given.items())
        return cls(**values)

    @property
    def gas_cost_wei(self) -> int:
        return self.gas_units * self.gas_price_wei


@dataclass(frozen=True)
class CoverageInputs:
    """Components of the coverage-duration lower bound, all in blocks."""

    t_fin: int
    challenge_periods: tuple[int, ...]
    delta_comm: int = 0
    delta_comp: int = 0

    def __post_init__(self) -> None:
        if self.t_fin < 0 or self.delta_comm < 0 or self.delta_comp < 0:
            raise ValueError("coverage components must be non-negative")
        if any(cp < 0 for cp in self.challenge_periods):
            raise ValueError("challenge periods must be non-negative")


def unit_cost(params: PricingParams) -> Fraction:
    """Cost of locking one unit of stake for one block: apy / (B * u)."""
    return params.apy / (params.blocks_per_year * params.utilization)


def premium(params: PricingParams, t_cov: int, v_cov: int) -> int:
    """Premium in wei for covering `v_cov` wei over `t_cov` blocks.

    Exact rational arithmetic with a single ceil at the end.
    """
    if t_cov < 0 or v_cov < 0:
        raise ValueError("coverage duration and value must be non-negative")
    exact = unit_cost(params) * t_cov * v_cov
    return -(-exact.numerator // exact.denominator)


def min_coverage_duration(inputs: CoverageInputs) -> int:
    """Lower bound on T_cov: finality, all challenge periods, and delays."""
    return inputs.t_fin + sum(inputs.challenge_periods) + inputs.delta_comm + inputs.delta_comp


def total_cost_usd(
    params: PricingParams, t_cov: int, v_cov: int
) -> tuple[Fraction, Fraction, Fraction]:
    """(gas_usd, premium_usd, total_usd), all exact fractions."""
    gas_usd = Fraction(params.gas_cost_wei) * params.eth_price_usd / WEI_PER_ETH
    premium_usd = Fraction(premium(params, t_cov, v_cov)) * params.eth_price_usd / WEI_PER_ETH
    return gas_usd, premium_usd, gas_usd + premium_usd


def usd_cents(amount: Fraction) -> int:
    """Round a USD amount half-up to whole cents (display only)."""
    scaled = amount * 100
    return (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)


def format_cents(cents: int) -> str:
    """Whole cents as a USD amount with two decimals: 746 -> "7.46"."""
    return f"{cents // 100}.{cents % 100:02d}"


def format_usd(amount: Fraction) -> str:
    return format_cents(usd_cents(amount))


def format_eth(wei: int, places: int = 6) -> str:
    """Fixed-point ETH rendering, half-up at `places` decimals."""
    scale = 10**places
    units = (2 * wei * scale + WEI_PER_ETH) // (2 * WEI_PER_ETH)
    return f"{units // scale}.{units % scale:0{places}d}"
