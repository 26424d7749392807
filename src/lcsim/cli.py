"""Command-line entry point: run scenarios, quote insurance, emit tables.

Exit codes for `run`: 0 clean, 1 invariant violation (named on stderr),
2 invalid scenario configuration or an output path that cannot be written
(named on stderr, before the simulation starts). `table3` and `fig1` exit 2
on an output path that cannot be written, too.
"""

from __future__ import annotations

import json
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

import click

from . import pricing
from .harness import ConfigInvalidError, run_scenario
from .light_client import select_providers
from .pricing import PricingParams, eth_to_wei, format_cents, format_eth, format_usd, usd_cents
from .scenario import load_scenario

TABLE3_VALUES_ETH = (10, 32, 160, 320)
TABLE3_CHALLENGE_PERIOD = 1500
PROVIDER_STAKE_ETH = 32


@dataclass(frozen=True)
class ReportRow:
    """One cost-table row; total is premium plus gas to the cent."""

    covered_value_eth: int
    provider_count: int
    premium_usd_cents: int
    gas_usd_cents: int
    signature_count: int
    latency_ticks: int

    @property
    def total_usd_cents(self) -> int:
        return self.premium_usd_cents + self.gas_usd_cents

    def csv(self) -> str:
        return ",".join(
            [
                str(self.covered_value_eth),
                str(self.provider_count),
                format_cents(self.premium_usd_cents),
                format_cents(self.gas_usd_cents),
                format_cents(self.total_usd_cents),
                str(self.signature_count),
                str(self.latency_ticks),
            ]
        )


def provider_count_for_value(value_eth: int, stake_eth: int = PROVIDER_STAKE_ETH) -> int:
    """Providers a fewest-providers client selects when each stakes 32 ETH."""
    pool = [
        (bytes([i]) * 32, eth_to_wei(stake_eth))
        for i in range((value_eth // stake_eth) + 2)
    ]
    return len(select_providers(pool, eth_to_wei(value_eth)))


def report_row(
    params: PricingParams, value_eth: int, duration: int, latency_ticks: int
) -> ReportRow:
    gas_usd, premium_usd, _ = pricing.total_cost_usd(
        params, duration, eth_to_wei(value_eth)
    )
    count = provider_count_for_value(value_eth)
    return ReportRow(
        covered_value_eth=value_eth,
        provider_count=count,
        premium_usd_cents=usd_cents(premium_usd),
        gas_usd_cents=usd_cents(gas_usd),
        signature_count=count,
        latency_ticks=latency_ticks,
    )


def _number(ctx, param, text: str) -> Fraction:
    """An exact number option (`pricing.as_fraction`)."""
    try:
        return pricing.as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"{text!r} is not a number") from exc


def _counts(ctx, param, text: str) -> list[int]:
    """A comma-separated list of non-negative integers."""
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise click.BadParameter(f"{text!r} is not a list of integers") from exc
    if any(count < 0 for count in counts):
        raise click.BadParameter(f"{text!r} holds a negative number")
    return counts


_NON_NEGATIVE = click.IntRange(min=0)


def _unwritable(exc: OSError) -> NoReturn:
    """Exit 2, naming the output path that could not be written and why."""
    click.echo(f"cannot write {exc.filename}: {exc.strerror}", err=True)
    sys.exit(2)


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _unwritable(exc)


@click.group()
def main() -> None:
    """Light-client protocol simulator and insurance pricing."""


@main.command("run")
@click.argument("scenario_path", type=click.Path())
@click.option("--out-dir", "-o", type=click.Path(), default="out", show_default=True)
def cmd_run(scenario_path: str, out_dir: str) -> None:
    """Run a scenario file; write metrics.json and events.log."""
    try:
        config = load_scenario(scenario_path)
    except ConfigInvalidError as exc:
        click.echo(f"invalid scenario: {exc}", err=True)
        sys.exit(2)
    out = Path(out_dir)
    with ExitStack() as files:
        try:
            out.mkdir(parents=True, exist_ok=True)
            metrics_file = files.enter_context((out / "metrics.json").open("w"))
            log_file = files.enter_context((out / "events.log").open("wb"))
        except OSError as exc:
            _unwritable(exc)
        metrics, log = run_scenario(config)
        metrics_file.write(json.dumps(metrics.to_dict(), indent=2) + "\n")
        log_file.write(log.serialize())
    if metrics.violations:
        for violation in metrics.violations:
            click.echo(f"invariant violated: {violation}", err=True)
        sys.exit(1)
    click.echo(
        f"ok: {len(log.lines)} events, {metrics.slash_count} slashes, "
        f"{sum(m.accepted for m in metrics.clients.values())} acceptances"
    )


@main.command("price")
@click.option("--value", required=True, callback=_number, help="Covered value in ETH.")
@click.option(
    "--duration", required=True, type=_NON_NEGATIVE, help="Coverage duration in blocks."
)
@click.option("--apy", default="0.06", callback=_number, show_default=True)
@click.option("--utilization", default="0.75", callback=_number, show_default=True)
@click.option("--eth-usd", default="3200", callback=_number, show_default=True)
@click.option("--gas-gwei", default="9.377", callback=_number, show_default=True)
@click.option("--gas-units", default=200_000, type=int, show_default=True)
@click.option("--blocks-per-year", default=pricing.BLOCKS_PER_YEAR, type=int, show_default=True)
def cmd_price(
    value: Fraction,
    duration: int,
    apy: Fraction,
    utilization: Fraction,
    eth_usd: Fraction,
    gas_gwei: Fraction,
    gas_units: int,
    blocks_per_year: int,
) -> None:
    """Quote an insurance purchase."""
    try:
        params = PricingParams.create(
            apy=apy,
            blocks_per_year=blocks_per_year,
            utilization=utilization,
            eth_price_usd=eth_usd,
            gas_price_gwei=gas_gwei,
            gas_units=gas_units,
        )
        value_wei = eth_to_wei(value)
        premium_wei = pricing.premium(params, duration, value_wei)
    except ValueError as exc:
        raise click.UsageError(f"invalid pricing: {exc}") from exc
    gas_usd, premium_usd, total_usd = pricing.total_cost_usd(params, duration, value_wei)
    click.echo(f"premium: {format_eth(premium_wei)} ETH (${format_usd(premium_usd)})")
    click.echo(f"gas: ${format_usd(gas_usd)}")
    click.echo(f"total: ${format_usd(total_usd)}")


_CSV_HEADER = (
    "covered_value_eth,provider_count,premium_usd,gas_usd,total_usd,"
    "signature_count,latency_ticks"
)


@main.command("table3")
@click.argument("out_path", type=click.Path())
@click.option(
    "--challenge-period", default=TABLE3_CHALLENGE_PERIOD, type=_NON_NEGATIVE, show_default=True
)
def cmd_table3(out_path: str, challenge_period: int) -> None:
    """Reproduce the headline cost table as CSV."""
    params = PricingParams()
    lines = [_CSV_HEADER]
    for value_eth in TABLE3_VALUES_ETH:
        lines.append(report_row(params, value_eth, challenge_period, challenge_period).csv())
    _write_text(out_path, "\n".join(lines) + "\n")
    click.echo(f"wrote {len(TABLE3_VALUES_ETH)} rows to {out_path}")


@main.command("fig1")
@click.argument("out_path", type=click.Path())
@click.option("--durations", default="500,1500,3000", callback=_counts, show_default=True)
@click.option("--values", default="1,5,10,32,64,100,160,320", callback=_counts, show_default=True)
def cmd_fig1(out_path: str, durations: list[int], values: list[int]) -> None:
    """Insurance cost grid (value x duration) for plotting."""
    params = PricingParams()
    lines = ["value_eth,duration_blocks,total_usd"]
    for duration in durations:
        for value_eth in values:
            _, _, total = pricing.total_cost_usd(params, duration, eth_to_wei(value_eth))
            lines.append(f"{value_eth},{duration},{format_usd(total)}")
    _write_text(out_path, "\n".join(lines) + "\n")
    click.echo(f"wrote {len(lines) - 1} points to {out_path}")


if __name__ == "__main__":
    main()
