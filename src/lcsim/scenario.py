"""Scenario files: structured key-value text mirroring ScenarioConfig.

INI sections: one `[scenario]`, one optional `[pricing]`, then any number
of `[provider.<label>]` and `[client.<label>]` sections in the order the
simulation should index them.
"""

from __future__ import annotations

import configparser
from importlib import resources
from pathlib import Path

from .actors import ProviderStrategy
from .harness import ConfigInvalidError, ProviderSpec, ScenarioConfig
from .light_client import ClientConfig, Protocol
from .pricing import CoverageInputs, PricingParams, eth_to_wei


def builtin_scenario_path(name: str) -> Path:
    """Path of a scenario bundled with the package (no .ini suffix needed)."""
    if not name.endswith(".ini"):
        name += ".ini"
    return Path(str(resources.files("lcsim").joinpath("scenarios", name)))


def list_builtin_scenarios() -> list[str]:
    folder = resources.files("lcsim").joinpath("scenarios")
    return sorted(p.name[: -len(".ini")] for p in folder.iterdir() if p.name.endswith(".ini"))


def _get_int(section, key: str, default: int | None = None) -> int | None:
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigInvalidError(f"{key} must be an integer, got {raw!r}") from exc


def _get_bool(section, key: str, default: bool) -> bool:
    try:
        return section.getboolean(key, fallback=default)
    except ValueError as exc:
        raise ConfigInvalidError(f"{key} must be a boolean, got {section.get(key)!r}") from exc


def _get_wei(section, key_eth: str, default_eth: str | None = None) -> int | None:
    raw = section.get(key_eth, default_eth)
    if raw is None or str(raw).strip() == "":
        return None
    try:
        return eth_to_wei(str(raw))
    except ValueError as exc:
        raise ConfigInvalidError(f"{key_eth}: {exc}") from exc


def _parse_provider(label: str, section) -> ProviderSpec:
    stake = _get_wei(section, "stake_eth")
    if stake is None:
        raise ConfigInvalidError(f"provider {label}: stake_eth is required")
    strategy_raw = section.get("strategy", "honest")
    try:
        strategy = ProviderStrategy(strategy_raw)
    except ValueError as exc:
        raise ConfigInvalidError(f"provider {label}: unknown strategy {strategy_raw!r}") from exc
    return ProviderSpec(
        stake=stake,
        strategy=strategy,
        register_tick=_get_int(section, "register_tick", 1),
        withdraw_tick=_get_int(section, "withdraw_tick", None),
    )


def _parse_client(label: str, section, t_fin: int) -> ClientConfig:
    protocol_raw = section.get("protocol", "eco")
    try:
        protocol = Protocol(protocol_raw)
    except ValueError as exc:
        raise ConfigInvalidError(f"client {label}: unknown protocol {protocol_raw!r}") from exc
    value = _get_wei(section, "target_value_eth")
    if value is None:
        raise ConfigInvalidError(f"client {label}: target_value_eth is required")
    challenge_period = _get_int(section, "challenge_period")
    if challenge_period is None:
        raise ConfigInvalidError(f"client {label}: challenge_period is required")
    coverage = None
    if protocol is Protocol.INS:
        try:
            coverage = CoverageInputs(
                t_fin=t_fin,
                challenge_periods=(
                    _get_int(section, "insurance_challenge_period", challenge_period),
                    challenge_period,
                ),
                delta_comm=_get_int(section, "delta_comm", 0),
                delta_comp=_get_int(section, "delta_comp", 0),
            )
        except ValueError as exc:
            raise ConfigInvalidError(f"client {label}: {exc}") from exc
    balance = _get_wei(section, "initial_balance_eth")
    return ClientConfig(
        protocol=protocol,
        challenge_period=challenge_period,
        target_value=value,
        target_block=_get_int(section, "target_block", 2),
        start_tick=_get_int(section, "start_tick", None),
        coverage_inputs=coverage,
        initial_balance=balance if balance is not None else eth_to_wei(1),
        maintain=_get_bool(section, "maintain", False),
        maintenance_challenge_period=_get_int(section, "maintenance_challenge_period", None),
        perform_check=_get_bool(section, "perform_check", True),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    # No interpolation: a `%` in a value is read literally.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigInvalidError(f"malformed scenario file: {exc}") from exc
    if not read:
        raise ConfigInvalidError(f"scenario file not found: {path}")
    if "scenario" not in parser:
        raise ConfigInvalidError("scenario file needs a [scenario] section")
    base = parser["scenario"]

    if "pricing" in parser:
        p = parser["pricing"]
        try:
            params = PricingParams.create(
                apy=p.get("apy", "0.06"),
                blocks_per_year=int(p.get("blocks_per_year", "2628000")),
                utilization=p.get("utilization", "0.75"),
                eth_price_usd=p.get("eth_price_usd", "3200"),
                gas_price_gwei=p.get("gas_price_gwei", "9.377"),
                gas_units=int(p.get("gas_units", "200000")),
            )
        except ValueError as exc:
            raise ConfigInvalidError(f"pricing: {exc}") from exc
    else:
        params = PricingParams()

    slots = _get_int(base, "slots_per_epoch", 4)
    depth = _get_int(base, "finality_depth_epochs", 2)
    t_fin = slots * depth
    providers = []
    clients = []
    for section_name in parser.sections():
        if section_name.startswith("provider."):
            providers.append(_parse_provider(section_name, parser[section_name]))
        elif section_name.startswith("client."):
            clients.append(_parse_client(section_name, parser[section_name], t_fin))
    if not providers:
        raise ConfigInvalidError("scenario needs at least one [provider.*] section")
    if not clients:
        raise ConfigInvalidError("scenario needs at least one [client.*] section")

    min_stake = _get_wei(base, "min_stake_eth")
    config = ScenarioConfig(
        seed=_get_int(base, "seed", 7),
        providers=tuple(providers),
        clients=tuple(clients),
        slots_per_epoch=slots,
        finality_depth_epochs=depth,
        update_epoch_blocks=_get_int(base, "update_epoch_blocks", 32),
        max_challenge_period=_get_int(base, "max_challenge_period", 16),
        delta_ticks=_get_int(base, "delta_ticks", 2),
        total_ticks=_get_int(base, "total_ticks", 300),
        min_stake=min_stake if min_stake is not None else eth_to_wei(1),
        watcher_count=_get_int(base, "watcher_count", 1),
        pricing=params,
    )
    config.validate()
    return config
