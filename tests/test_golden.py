"""Behaviour oracle: pinned digests of whole runs.

Each case pins the sha256 of the canonical event log and of the metrics
as canonical JSON. A refactor or speed-up must leave every pin as it is;
an intended change of behaviour updates the pins in the same change and
says why.

    PYTHONPATH=src python3 tests/test_golden.py            # print every case's digests
    PYTHONPATH=src python3 tests/test_golden.py NAME ...   # print the named cases only

Each printed line ends with a comment: the seconds the case took to set
up, run and hash, and for each half of the pin, log then metrics, whether
it is the same as in `PINNED` or changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from lcsim import scenario
from lcsim.actors import ProviderStrategy
from lcsim.harness import (
    ProviderSpec,
    ScenarioConfig,
    Simulation,
    build_scenario,
    min_compliant_challenge_period,
)
from lcsim.light_client import Protocol
from lcsim.pricing import eth_to_wei


def scaled_dispute() -> ScenarioConfig:
    """Eight providers, three of them adversarial, and six eco clients."""
    delta = 2
    cp = min_compliant_challenge_period(8, delta)
    base = build_scenario(ProviderStrategy.WRONG_HASH, delta, cp, Protocol.ECO, seed=3)
    b_u = base.update_epoch_blocks
    strategies = (
        [ProviderStrategy.WRONG_HASH, ProviderStrategy.UNRESPONSIVE, ProviderStrategy.EXIT_SCAM]
        + [ProviderStrategy.HONEST] * 5
    )
    providers = tuple(
        ProviderSpec(stake=eth_to_wei(60 - 3 * i), strategy=s) for i, s in enumerate(strategies)
    )
    clients = tuple(
        dataclasses.replace(
            base.clients[0],
            target_value=eth_to_wei(10 + 25 * i),
            target_block=2 + i,
            start_tick=2 * b_u + 1 + 3 * i,
        )
        for i in range(6)
    )
    return dataclasses.replace(
        base, providers=providers, clients=clients, total_ticks=5 * b_u
    )


def scaled_maintain() -> ScenarioConfig:
    """24 churning honest providers and 12 maintaining clients, eco and ins
    alternating."""
    delta = 1
    cp = min_compliant_challenge_period(8, delta)
    eco = build_scenario(ProviderStrategy.HONEST, delta, cp, Protocol.ECO, seed=5)
    ins = build_scenario(ProviderStrategy.HONEST, delta, cp, Protocol.INS, seed=5)
    b_u = eco.update_epoch_blocks
    providers = []
    for i in range(24):
        spec = ProviderSpec(stake=eth_to_wei(20 + (7 * i) % 40), strategy=ProviderStrategy.HONEST)
        if i >= 20:
            spec = dataclasses.replace(spec, register_tick=b_u + 5 * i)
        elif i >= 16:
            spec = dataclasses.replace(spec, stake=eth_to_wei(16), withdraw_tick=2 * b_u + 3 * i)
        providers.append(spec)
    clients = []
    for i in range(12):
        template = (eco if i % 2 == 0 else ins).clients[0]
        start = (2 + i % 3) * b_u + 1 + i % 4
        clients.append(
            dataclasses.replace(
                template,
                target_value=eth_to_wei(3 + 4 * i),
                target_block=start - 10 - i,
                start_tick=start,
                maintain=True,
                maintenance_challenge_period=cp,
            )
        )
    return dataclasses.replace(
        eco, providers=tuple(providers), clients=tuple(clients), total_ticks=7 * b_u
    )


def scaled_insured() -> ScenarioConfig:
    """Six insured clients in two waves of three against an unresponsive,
    a wrong_hash and four honest providers. Each wave's purchases collide
    in one block, and the losers revert and re-bootstrap; the unresponsive
    provider voids policies, whose buyers buy again; the liar is slashed;
    policies expire, two of them at one boundary."""
    delta = 2
    cp = min_compliant_challenge_period(8, delta)
    base = build_scenario(ProviderStrategy.WRONG_HASH, delta, cp, Protocol.INS, seed=17)
    b_u = base.update_epoch_blocks
    strategies = [ProviderStrategy.UNRESPONSIVE, ProviderStrategy.WRONG_HASH] + [
        ProviderStrategy.HONEST
    ] * 4
    providers = tuple(
        ProviderSpec(stake=eth_to_wei(70 - 6 * i), strategy=s) for i, s in enumerate(strategies)
    )
    clients = tuple(
        dataclasses.replace(
            base.clients[0],
            target_value=eth_to_wei(20 + 5 * (i % 3)),
            target_block=2 + i,
            start_tick=2 * b_u + 1 + 4 * (i // 3),
        )
        for i in range(6)
    )
    return dataclasses.replace(
        base, providers=providers, clients=clients, total_ticks=6 * b_u
    )


def grid(providers: int, clients: int, ticks: int) -> ScenarioConfig:
    """ROADMAP's grid: honest providers at 24 + (7i mod 40) ETH and
    maintaining clients at 10 ETH, eco and ins alternating, starting 0-6
    ticks into epoch 2. Insured purchases collide, and every client shares
    its provider-set views with the others."""
    delta = 1
    cp = min_compliant_challenge_period(8, delta)
    eco = build_scenario(ProviderStrategy.HONEST, delta, cp, Protocol.ECO, seed=1)
    ins = build_scenario(ProviderStrategy.HONEST, delta, cp, Protocol.INS, seed=1)
    b_u = eco.update_epoch_blocks
    return dataclasses.replace(
        eco,
        providers=tuple(
            ProviderSpec(stake=eth_to_wei(24 + (7 * i) % 40), strategy=ProviderStrategy.HONEST)
            for i in range(providers)
        ),
        clients=tuple(
            dataclasses.replace(
                (eco if i % 2 == 0 else ins).clients[0],
                target_value=eth_to_wei(10),
                start_tick=2 * b_u + 1 + i % 7,
                maintain=True,
                maintenance_challenge_period=cp,
            )
            for i in range(clients)
        ),
        total_ticks=ticks,
    )


def grid_churn(providers: int, clients: int, ticks: int) -> ScenarioConfig:
    """The grid with churn: the last ten providers register one by one
    through epoch 1, and the ten before them hold 16 ETH and withdraw one by
    one through epoch 2, so every maintaining client merges non-empty
    pushed event lists."""
    config = grid(providers, clients, ticks)
    b_u = config.update_epoch_blocks
    specs = list(config.providers)
    for k in range(10):
        joiner, leaver = providers - 10 + k, providers - 20 + k
        specs[joiner] = dataclasses.replace(specs[joiner], register_tick=b_u + 3 * k)
        specs[leaver] = dataclasses.replace(
            specs[leaver], stake=eth_to_wei(16), withdraw_tick=2 * b_u + 5 * k
        )
    return dataclasses.replace(config, providers=tuple(specs))


def delta_case(
    adversary: ProviderStrategy, delta: int, protocol: Protocol, seed: int
) -> ScenarioConfig:
    """The two-provider template at a wider delay bound, with three
    watchers so the delay table has more edges."""
    cp = min_compliant_challenge_period(8, delta)
    base = build_scenario(adversary, delta, cp, protocol, seed=seed)
    return dataclasses.replace(base, watcher_count=3)


def table3_row(protocol: Protocol) -> ScenarioConfig:
    """Table 3's 10 ETH row at cp = 1500 over two 32 ETH providers: one
    client waits out a long challenge period (eco) or buys a policy that
    expires mid-run (ins), so almost every tick is quiet."""
    return build_scenario(
        ProviderStrategy.HONEST,
        1,
        1500,
        protocol,
        value_eth=10,
        adversary_stake_eth=32,
        honest_stake_eth=32,
    )


def configs() -> dict[str, ScenarioConfig]:
    out = {
        name: scenario.load_scenario(scenario.builtin_scenario_path(name))
        for name in scenario.list_builtin_scenarios()
    }
    out["scaled_dispute"] = scaled_dispute()
    out["scaled_maintain"] = scaled_maintain()
    out["scaled_insured"] = scaled_insured()
    out["delta3_ins"] = delta_case(ProviderStrategy.WRONG_HASH, 3, Protocol.INS, seed=11)
    out["delta4_eco"] = delta_case(ProviderStrategy.WRONG_HASH, 4, Protocol.ECO, seed=13)
    out["grid_100x100"] = grid(100, 100, 600)
    out["grid_churn_100x100"] = grid_churn(100, 100, 600)
    out["grid_300x1000"] = grid(300, 1000, 600)
    out["table3_10eth_eco"] = table3_row(Protocol.ECO)
    out["table3_10eth_ins"] = table3_row(Protocol.INS)
    return out


def digests(config: ScenarioConfig, simulation=Simulation) -> tuple[str, str]:
    metrics, log = simulation(config).run()
    canonical = json.dumps(metrics.to_dict(), sort_keys=True, separators=(",", ":"))
    return (
        hashlib.sha256(log.serialize()).hexdigest(),
        hashlib.sha256(canonical.encode()).hexdigest(),
    )


# name -> (sha256 of EventLog.serialize(), sha256 of canonical metrics JSON)
PINNED: dict[str, tuple[str, str]] = {
    "exit_scam": (
        "f730b956a8d06d45ff37ba3cbb7ff5251faafdeeab6f0a1538601787cec619a3",
        "fa9f1a369924f6f267f947140472af91adc95675e96994e7398b004f2f0a70f6",
    ),
    "honest": (
        "8413ad9784fd7fd86a3efac2d812f0430c6e3e4dfd03cc38199eaf4a20516e16",
        "090085330a385abd8232317dfb8d62b910f7c17f26e2071b773b6385cb740f5f",
    ),
    "insured": (
        "34fbb68397574870873e46d5f5f154921e005704cd6b7c463b054dc7b9f29f99",
        "a2eeaa221a53c84ab509f80d6ac837abbedeb5248a45348bb0b553171c11ada5",
    ),
    "maintenance": (
        "fc0030bc7449509c8bfbc243eeb3b64f38fec44da9d0f12324d22331cef600c1",
        "077760bc1f88584a7ab794c400b8551b54ea847d116d60a390dfb4b77dd77a73",
    ),
    "wrong_hash": (
        "5931bd21733085d490c0bcef4f792720b92b0c0d2864de33cc37313e742de9b3",
        "fa9f1a369924f6f267f947140472af91adc95675e96994e7398b004f2f0a70f6",
    ),
    "scaled_dispute": (
        "4ab4bbe08f02c1b90e8afd5191253d8e34ea69e064ffb1d39360dd7beccbd560",
        "d5f1ea66c7e6ad5de448aa6c9d068379c16ea91cb0f3f44b6afe2aec7d13091e",
    ),
    "scaled_maintain": (
        "a4c3db073c53506edf16c98a004396defe922a0425e64cdf78a93abdff0fdf2f",
        "99c30a8a1103a935a8bc9463d36526aa2d211c76b39b4fd591b737d19b79c953",
    ),
    "scaled_insured": (
        "f93d7fe9e4916e88968eb00be8c69316ea9094eff4920475678be96fa8e041a6",
        "c179f560322862e283b24cc23889f4af6615bbdbb53bf3f5bfac6d938dc4a554",
    ),
    "delta3_ins": (
        "f5243d8347bad534cd0969e96d2b76109be9e2dbb45d1addaeac81cf506fc69f",
        "0c4b82822662e3bd6e3290174c1fa07e66962989c6d0fcf6dbb7380b54b5a742",
    ),
    "delta4_eco": (
        "056d14f1d14aa7482b59ee6cd5ff89a74bc60d64dff20de270e2ce6cefb5e7ed",
        "9cf8df43ce41df2d9b20545997c69579615bbb9d893f7a11fc780ed7473c6908",
    ),
    "grid_100x100": (
        "6a93ede2b257ff172bd30dbd5731bd53ae3c9bda3a2de4a866f7c92a90307da6",
        "d25cd2e29fa837922887b22aeeef12bc2683543fcf994e1a150fcfadd0485aca",
    ),
    "grid_churn_100x100": (
        "d7e53f3f353d77f4a10637380903b010ce2cdeee4f57f08acef0a2a26953ec35",
        "083aa258b9d6c06799540ff26f267d0b5885e78d61f991376cf90be42fdfb504",
    ),
    "grid_300x1000": (
        "279349cf68ea43a1f3e342da4a48516d1efb665c2af545a6f96a9b481b19a570",
        "006606b8085e00c04ea18ebe432eeb7c49e826cf752556eb0d6bfa7b9e81496a",
    ),
    "table3_10eth_eco": (
        "ea53147ef3649444ac96c90b3e2bf76f1135dd4dacb3d8dad4fe8dac5f0e5a83",
        "60a404c6f7087408e610646bd6200f359e482cb91e6daa0487b961c005328b9b",
    ),
    "table3_10eth_ins": (
        "2d7dac41623d45a8c317e1f18dbf580e16043ca3957d620a237147ec699362b2",
        "95c472855eb7f7d6bce62e7a5166348a0c983c2f8e64209fbecc8e05b6dfec73",
    ),
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(configs())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_digests(name):
    assert digests(configs()[name]) == PINNED[name]


if __name__ == "__main__":
    import sys
    import time

    cases = configs()
    for name in sys.argv[1:] or cases:
        start = time.perf_counter()
        pinned = digests(cases[name])
        seconds = time.perf_counter() - start
        old = PINNED.get(name, (None, None))
        log, metrics = ("same" if new == was else "changed" for new, was in zip(pinned, old))
        print(f"    {name!r}: {pinned!r},  # {seconds:.3f} s, log {log}, metrics {metrics}")
