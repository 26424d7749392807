"""Scenario files: structured key-value text mirroring ScenarioConfig.

INI sections: one `[scenario]`, one optional `[pricing]`, then any number
of `[provider.<label>]` and `[client.<label>]` sections in the order the
simulation should index them. `_KEYS` lists the keys each kind of section
may hold; any other key or section is rejected. A key that is left out, or
left blank where its converter allows, keeps the config class's default.

The file is UTF-8 text read line by line. A line is blank, a comment (its
first non-blank character is `#` or `;`), a `[name]` header, or a
`key = value` pair split at its first `=`; headers and pairs start at
column 0. Keys are case-insensitive, values are stripped and read
literally (a `;` after a value belongs to it). Anything else, a line that
continues the one before it included, and a section or a key within one
given twice, is a malformed file.
"""

from __future__ import annotations

from dataclasses import replace
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


_BOOLEANS = {
    **dict.fromkeys(("1", "yes", "true", "on"), True),
    **dict.fromkeys(("0", "no", "false", "off"), False),
}

# What a key's text that does not read as its type fails with (an enum's: unknown).
_ERRORS = {
    int: "{where}: {key} must be an integer, got {raw!r}",
    bool: "{where}: {key} must be a boolean, got {raw!r}",
    eth_to_wei: "{where}: {key}: {exc}",
}


def _value(where: str, key: str, raw: str, kind):
    """`raw` read as `kind`; None, to keep the default, for a blank integer or ETH amount."""
    if kind in (int, eth_to_wei) and not raw.strip():
        return None
    try:
        return _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        message = _ERRORS.get(kind, "{where}: unknown {key} {raw!r}")
        raise ConfigInvalidError(message.format(where=where, key=key, raw=raw, exc=exc)) from exc


_COVERAGE = ("insurance_challenge_period", "delta_comm", "delta_comp")

# The keys of each kind of section (its name up to the first dot) and their types. A key
# `<field>_eth` sets `<field>` in wei, any other the field of its own name; PricingParams.create
# reads the pricing keys, and only an insured client the coverage keys.
_KEYS = {
    "scenario": {
        **dict.fromkeys(
            "seed slots_per_epoch finality_depth_epochs update_epoch_blocks max_challenge_period"
            " delta_ticks total_ticks watcher_count".split(),
            int,
        ),
        "min_stake_eth": eth_to_wei,
    },
    "pricing": dict.fromkeys(
        ("apy", "blocks_per_year", "utilization", "eth_price_usd", "gas_price_gwei", "gas_units"),
        str,
    ),
    "provider.": {
        "stake_eth": eth_to_wei,
        "strategy": ProviderStrategy,
        "register_tick": int,
        "withdraw_tick": int,
    },
    "client.": {
        "protocol": Protocol,
        "challenge_period": int,
        "target_value_eth": eth_to_wei,
        "target_block": int,
        "start_tick": int,
        "initial_balance_eth": eth_to_wei,
        "maintain": bool,
        "maintenance_challenge_period": int,
        "perform_check": bool,
        **dict.fromkeys(_COVERAGE, str),
    },
}
_REQUIRED = ("stake_eth", "target_value_eth", "challenge_period")


def _sections(path: str | Path) -> dict[str, dict[str, str]]:
    """Each section's values by key, in file order."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigInvalidError(f"scenario file not found: {path}") from exc
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read scenario file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalidError(f"malformed scenario file: {path}: not UTF-8: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    values = None
    for number, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0].isspace():
            problem = "a line may not start with whitespace (values do not continue)"
        elif line[0] == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]" or not name:
                problem = "expected a [section] header"
            elif name in sections:
                problem = f"section [{name}] given twice"
            else:
                values = sections[name] = {}
                continue
        else:
            key, eq, value = line.partition("=")
            key = key.strip().lower()
            if not eq or not key:
                problem = "expected 'key = value'"
            elif values is None:
                problem = "a key comes before any [section]"
            elif key in values:
                problem = f"key {key!r} given twice in its section"
            else:
                values[key] = value.strip()
                continue
        raise ConfigInvalidError(f"malformed scenario file: {path}:{number}: {problem}: {line!r}")
    return sections


def _read(name: str, given: dict[str, str]) -> dict:
    """The fields section `name` sets, read by the table of its kind."""
    head, dot, _ = name.partition(".")
    keys = _KEYS.get(head + dot)
    if keys is None:
        raise ConfigInvalidError(f"unknown section [{name}]")
    where = f"{head} {name}" if dot else name
    values = {}
    for key, raw in given.items():
        if key not in keys:
            raise ConfigInvalidError(f"[{name}]: unknown key {key!r}")
        value = _value(where, key, raw, keys[key])
        if value is not None:
            values[key.removesuffix("_eth")] = value
    for key in _REQUIRED:
        if key in keys and key.removesuffix("_eth") not in values:
            raise ConfigInvalidError(f"{where}: {key} is required")
    return values


def _client(name: str, values: dict, t_fin: int) -> ClientConfig:
    where = f"client {name}"
    given = {key: values.pop(key) for key in _COVERAGE if key in values}
    if values.get("protocol") is Protocol.INS:
        cp = values["challenge_period"]
        coverage = {k: v for k in given if (v := _value(where, k, given[k], int)) is not None}
        try:
            values["coverage_inputs"] = CoverageInputs(
                t_fin=t_fin,
                challenge_periods=(coverage.pop("insurance_challenge_period", cp), cp),
                **coverage,
            )
        except ValueError as exc:
            raise ConfigInvalidError(f"{where}: {exc}") from exc
    return ClientConfig(**values)


def load_scenario(path: str | Path) -> ScenarioConfig:
    sections = {name: _read(name, given) for name, given in _sections(path).items()}
    if "scenario" not in sections:
        raise ConfigInvalidError("scenario file needs a [scenario] section")
    try:
        params = PricingParams.create(**sections.get("pricing", {}))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalidError(f"pricing: {exc}") from exc
    config = ScenarioConfig(**sections["scenario"], providers=(), clients=(), pricing=params)
    t_fin = config.t_fin
    providers = tuple(ProviderSpec(**v) for n, v in sections.items() if n.startswith("provider."))
    clients = tuple(_client(n, v, t_fin) for n, v in sections.items() if n.startswith("client."))
    if not providers:
        raise ConfigInvalidError("scenario needs at least one [provider.*] section")
    if not clients:
        raise ConfigInvalidError("scenario needs at least one [client.*] section")
    config = replace(config, providers=providers, clients=clients)
    config.validate()
    return config
