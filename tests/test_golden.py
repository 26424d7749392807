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
from lcsim.contract import PolicyState, ProviderStatus
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
    a wrong_hash and four honest providers, and a seventh in the second
    wave whose value the held stakes back but the unlocked stake does not.
    Each wave's purchases name the same providers in one block, and the
    contract allocates each from what the ones before it left; the seventh
    reverts and gives up; the unresponsive provider voids policies, whose
    buyers buy again; the liar is slashed; policies expire, two of them at
    one boundary."""
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
    short = dataclasses.replace(
        base.clients[0], target_value=eth_to_wei(290), target_block=8, start_tick=2 * b_u + 5
    )
    return dataclasses.replace(
        base, providers=providers, clients=(*clients, short), total_ticks=6 * b_u
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
    event lists."""
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
        "9fc78e4bbdef9f0638be0a49986ef5c98c0f0b4bff999bdb5f4e0629aee8e988",
    ),
    "honest": (
        "8413ad9784fd7fd86a3efac2d812f0430c6e3e4dfd03cc38199eaf4a20516e16",
        "b0150819a5ac77ccddd2985210d664175728101e9614d7b77f746adc66c6c33f",
    ),
    "insured": (
        "dd32282de38eac7a772e8c45c93cbf3f14aaaacc9edaba671597eb41ecc1d00d",
        "8ddf3bcdca21d07751355164373d40c43de7f8cefa6df12436a8926b19354d0d",
    ),
    "maintenance": (
        "e871fea582bf482c1ceb264747471c3ce66bbfc9e1b530930bec2a741e4af529",
        "e75a5c42fd8889270c8034b7207296fbe3f381e54264d62ee8713a1b9551fde8",
    ),
    "wrong_hash": (
        "5931bd21733085d490c0bcef4f792720b92b0c0d2864de33cc37313e742de9b3",
        "9fc78e4bbdef9f0638be0a49986ef5c98c0f0b4bff999bdb5f4e0629aee8e988",
    ),
    "scaled_dispute": (
        "7b4bfb2c9858ad7bc053e625edc475f201527cd1df120bb7b43f833dc2c5312f",
        "5ed3456e5700021330aa4214d01007927d339fceb4bbfff62bdb663595f51fd5",
    ),
    "scaled_maintain": (
        "68699845852286527b3e2357219f7cba72d92fb6795114926c0e08b1cfdc7293",
        "3fb764510655ff84bb63c3d41d33f88fec1fb6e6fb8d52c066feff779ee9f004",
    ),
    "scaled_insured": (
        "e94cdd28a00ea6e012ec8d179980f5b4cce4e5c2df25c214a4065dae89420262",
        "2b71c3ea2f00979812fb810933cd36c1612668c0bc89ed97f7c830f7c1ab4224",
    ),
    "delta3_ins": (
        "149d82e78db72c75dfe77b544da5af6c3643cab7144913bcad87cadb65ecf757",
        "3c2148d8ecb5383f90a667d32c3a4a2e26f348168f8d112a4c51e8f5fd826a44",
    ),
    "delta4_eco": (
        "056d14f1d14aa7482b59ee6cd5ff89a74bc60d64dff20de270e2ce6cefb5e7ed",
        "babdd3a80ff3f469635da6ea0c2a4d95939d3e8f6a348ddbf4caa10c29a1092d",
    ),
    "grid_100x100": (
        "478cefaffce65d84b856cd079faf7314e8469f763fd62c6ae8d00ddb8e7b6d93",
        "96691b2e8a4f626b69549c2f5a849cd313518fdfced0cc735306d9a00ce55c1d",
    ),
    "grid_churn_100x100": (
        "13509fa969a44ee03a215838b5a73588cbecd186ae38c5f0d63cbbc70fcee4f7",
        "eeac5a489d0502c39d3ffbb8ed26aba8907570a903c3688d213964af04b937fb",
    ),
    "grid_300x1000": (
        "095382a54264561aba360836b7f4c12dfbda8b7d6ac5cf44e7c5c298e256f350",
        "03531cb2e8a74fdfbaad31680c8a626b4830534d43566f25a46cd44f5befd922",
    ),
    "table3_10eth_eco": (
        "ea53147ef3649444ac96c90b3e2bf76f1135dd4dacb3d8dad4fe8dac5f0e5a83",
        "b6f5ad5d630aab02db01b8a4a854070e60eda519e128b6e2e82a0a812f5b99c9",
    ),
    "table3_10eth_ins": (
        "2d7dac41623d45a8c317e1f18dbf580e16043ca3957d620a237147ec699362b2",
        "7b1c6716d58ff86e0fb010d52ee0d8502468d17b4e9787b6b5c6239e21ea2d03",
    ),
}


# Heavy checks by (protocol, cause) over the 80 two-provider cells that
# `bench/workloads.sweep` builds for one scenario seed: every strategy x
# delta 1-4 x {T_cp, T_cp + 5} x eco/ins, here at 288545019, the first seed
# its seed-1 round draws. A change that adds a heavy check fails here.
SWEEP_SEED = 288545019
SWEEP_HEAVY_CHECKS = {
    ("eco", "bootstrap"): 40,
    ("eco", "alert"): 16,
    ("ins", "bootstrap"): 40,
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(configs())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_digests(name):
    assert digests(configs()[name]) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_heavy_checks_by_cause_sum_to_the_total(name):
    metrics, _ = Simulation(configs()[name]).run()
    for client in metrics.clients.values():
        assert sum(client.heavy_checks_by_cause.values()) == client.heavy_checks


@pytest.mark.parametrize("name", sorted(PINNED))
def test_no_provider_is_over_allocated(name):
    """At the end of the run every unslashed provider's locked stake is its
    allocations in open policies, and at most its stake."""
    sim = Simulation(configs()[name])
    sim.run()
    allocated: dict[bytes, int] = {}
    for policy in sim.contract.policies.values():
        if policy.state is PolicyState.OPEN:
            for pk, amount in policy.allocations:
                allocated[pk] = allocated.get(pk, 0) + amount
    for pk, record in sim.contract.providers.items():
        if record.status is not ProviderStatus.SLASHED:
            assert record.locked == allocated.get(pk, 0)
            assert record.locked <= record.stake


def test_sweep_heavy_checks_by_cause():
    counts: dict[tuple[str, str], int] = {}
    cells = 0
    for strategy in ProviderStrategy:
        for delta in (1, 2, 3, 4):
            cp = min_compliant_challenge_period(8, delta)
            for challenge_period in (cp, cp + 5):
                for protocol in Protocol:
                    config = build_scenario(
                        strategy, delta, challenge_period, protocol, seed=SWEEP_SEED
                    )
                    metrics, _ = Simulation(config).run()
                    cells += 1
                    for client in metrics.clients.values():
                        assert sum(client.heavy_checks_by_cause.values()) == client.heavy_checks
                        for cause, n in client.heavy_checks_by_cause.items():
                            key = (protocol.value, cause)
                            counts[key] = counts.get(key, 0) + n
    assert cells == 80
    assert counts == SWEEP_HEAVY_CHECKS


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
