"""Workload generators: each returns the INI scenario texts of one round.

Every workload is a closed population on the simulated clock: the clients,
providers and their schedules are fixed before the run starts and nothing
arrives in response to host time. Everything that varies comes from the
`--seed` argument through one `random.Random`; the fault cells named in
README.md ignore the seed on purpose, so the operations that fail in them
fail identically in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from lcsim.actors import ProviderStrategy
from lcsim.harness import ScenarioConfig, build_scenario, min_compliant_challenge_period
from lcsim.light_client import Protocol

WEI_PER_ETH = 10**18
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "lcsim" / "scenarios"
BUNDLED = ("exit_scam", "honest", "insured", "maintenance", "wrong_hash")


@dataclass
class Cell:
    """One scenario of a round: its INI text, and for a sweep cell the
    config `build_scenario` returned, which the INI text must load back to."""

    name: str
    ini: str
    built: ScenarioConfig | None = None


def eth_str(wei: int) -> str:
    """Exact decimal ETH text for a wei amount (load_scenario parses it back)."""
    return f"{wei // WEI_PER_ETH}.{wei % WEI_PER_ETH:018d}"


def _section(name: str, items: dict) -> str:
    lines = [f"[{name}]"]
    lines += [f"{key} = {value}" for key, value in items.items() if value is not None]
    return "\n".join(lines) + "\n"


def render(scenario: dict, providers: list[dict], clients: list[dict], comment: str) -> str:
    parts = [f"# {comment}\n", _section("scenario", scenario)]
    parts += [_section(f"provider.p{i}", p) for i, p in enumerate(providers)]
    parts += [_section(f"client.c{i}", c) for i, c in enumerate(clients)]
    return "\n".join(parts)


def _eco(cp: int, value_eth: int, target_block: int, start_tick: int, **extra) -> dict:
    return dict(
        protocol="eco",
        challenge_period=cp,
        target_value_eth=value_eth,
        target_block=target_block,
        start_tick=start_tick,
        **extra,
    )


def _ins(cp: int, delta: int, value_eth: int, target_block: int, start_tick: int, **extra) -> dict:
    return dict(
        protocol="ins",
        challenge_period=cp,
        insurance_challenge_period=cp,
        delta_comm=8 * delta + 4,
        delta_comp=2,
        target_value_eth=value_eth,
        target_block=target_block,
        start_tick=start_tick,
        initial_balance_eth=2,
        **extra,
    )


# ---------------------------------------------------------------------------
# maintain
# ---------------------------------------------------------------------------

MAINTAIN_EPOCH = 32
MAINTAIN_TICKS = 600


def maintain(seed: int) -> list[Cell]:
    """~100 churning honest providers, 100 maintaining clients (half eco)."""
    rng = random.Random(seed)
    delta = 1
    cp = 8 + 2 * delta + 1  # minimal compliant T_cp at T_fin = 8
    providers = []
    for i in range(100):
        p = dict(stake_eth=rng.randint(24, 64), strategy="honest")
        if i >= 90:
            # Late registrations land over the first half of the run.
            p["register_tick"] = rng.randint(40, MAINTAIN_TICKS // 2)
        providers.append(p)
    # Withdrawals come from the smallest stakes, which greedy selection
    # never reaches at these values: a leaving provider refuses to answer,
    # and a refused epoch-event query pushes the prediction past the epoch
    # boundary on some seeds (see the maintain note in README.md).
    for i in range(80, 90):
        providers[i]["stake_eth"] = rng.randint(16, 20)
        providers[i]["withdraw_tick"] = rng.randint(100, MAINTAIN_TICKS - 150)
    rng.shuffle(providers)

    clients = []
    first_epoch, last_epoch = 2, MAINTAIN_TICKS // 2 // MAINTAIN_EPOCH
    for i in range(100):
        # Start epochs are fixed by index so every seed makes the same number
        # of prediction checks; the offset stays early in the epoch (F2).
        epoch = first_epoch + i % (last_epoch - first_epoch + 1)
        start = epoch * MAINTAIN_EPOCH + rng.randint(1, 6)
        target = start - rng.randint(10, 24)
        common = dict(maintain="true", maintenance_challenge_period=cp)
        if i % 2 == 0:
            clients.append(_eco(cp, rng.randint(5, 120), target, start, **common))
        else:
            clients.append(_ins(cp, delta, rng.randint(2, 8), target, start, **common))
    scenario = dict(
        seed=rng.randrange(1, 2**31),
        update_epoch_blocks=MAINTAIN_EPOCH,
        max_challenge_period=16,
        delta_ticks=delta,
        total_ticks=MAINTAIN_TICKS,
    )
    main = Cell(
        "maintain",
        render(scenario, providers, clients, f"maintain workload, seed {seed}"),
    )
    return [main, fault_f2()]


def fault_f2() -> Cell:
    """Seed-independent F2 cell: maintaining clients that come online late
    in an update epoch whose previous epoch carries provider records."""
    providers = [dict(stake_eth=32 + 8 * i, strategy="honest") for i in range(6)]
    providers.append(dict(stake_eth=24, strategy="honest", register_tick=70))
    providers.append(dict(stake_eth=20, strategy="honest", register_tick=2, withdraw_tick=80))
    clients = []
    for i, offset in enumerate((14, 18, 22, 26)):
        start = 3 * MAINTAIN_EPOCH + offset
        clients.append(
            dict(
                protocol="eco",
                challenge_period=11,
                maintenance_challenge_period=11,
                target_value_eth=10,
                target_block=start - 12,
                start_tick=start,
                maintain="true",
                perform_check="false",
            )
        )
    scenario = dict(
        seed=1,
        update_epoch_blocks=MAINTAIN_EPOCH,
        max_challenge_period=16,
        delta_ticks=1,
        total_ticks=6 * MAINTAIN_EPOCH,
    )
    return Cell("fault-F2", render(scenario, providers, clients, "F2 fault cell"))


# ---------------------------------------------------------------------------
# dispute
# ---------------------------------------------------------------------------

DISPUTE_TICKS = 1200
WAVES = 20
WAVE_SIZE = 20
WAVE_GAP = 50
ECO_ONLY_WAVES = 5
STAKE_BANDS = dict(
    wrong_hash=(49, 64), exit_scam=(49, 64), unresponsive=(41, 48), unfinalized_hash=(33, 40)
)


def dispute(seed: int) -> list[Cell]:
    """~100 providers, one in five adversarial; 400 clients in 20 waves."""
    rng = random.Random(seed)
    delta = 2
    cp = 8 + 2 * delta + 1
    providers = [dict(stake_eth=32, strategy="honest") for _ in range(80)]
    adversaries = ("wrong_hash", "exit_scam", "unfinalized_hash", "unresponsive")
    for i in range(20):
        strategy = adversaries[i % 4]
        # Stake bands fix the order greedy selection walks the adversaries
        # in. Liars come first, so the first economic wave exposes all of
        # them before any insured client arrives (a liar answering both
        # modes at once hits F1 on seed-dependent timing; F1 is measured in
        # its own cell). Every later client then times out on all five
        # unresponsive providers before an unfinalized_hash one answers.
        low, high = STAKE_BANDS[strategy]
        providers.append(dict(stake_eth=rng.randint(low, high), strategy=strategy))
    rng.shuffle(providers)

    clients = []
    for wave in range(WAVES):
        start = 2 * 32 + 1 + wave * WAVE_GAP
        target = start - rng.randint(10, 20)
        n_ins = 0 if wave < ECO_ONLY_WAVES else 13 + (wave % 3 == 0)
        for k in range(WAVE_SIZE):
            tick = start + rng.randint(0, 3)
            value = rng.randint(5, 30)
            if k < n_ins:
                clients.append(_ins(cp, delta, value, target, tick))
            else:
                clients.append(_eco(cp, value, target, tick))
    scenario = dict(
        seed=rng.randrange(1, 2**31),
        max_challenge_period=16,
        delta_ticks=delta,
        total_ticks=DISPUTE_TICKS,
        watcher_count=3,
    )
    main = Cell("dispute", render(scenario, providers, clients, f"dispute workload, seed {seed}"))
    return [main, fault_f1()]


def fault_f1() -> Cell:
    """Seed-independent F1 cell: three insured purchases in one block
    allocate the same lying provider, whose slash pays only one policy."""
    providers = [
        dict(stake_eth=64, strategy="wrong_hash"),
        dict(stake_eth=32, strategy="honest"),
        dict(stake_eth=32, strategy="honest"),
    ]
    clients = [_ins(13, 2, 10, 60, 70) for _ in range(3)]
    scenario = dict(seed=1, max_challenge_period=16, delta_ticks=2, total_ticks=260)
    return Cell("fault-F1", render(scenario, providers, clients, "F1 fault cell"))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_SEEDS = 3


def sweep(seed: int) -> list[Cell]:
    """Compliant sweep cells and the bundled scenarios over a few seeds."""
    rng = random.Random(seed)
    cells = []
    for _ in range(SWEEP_SEEDS):
        s = rng.randrange(1, 2**31)
        for strategy in ProviderStrategy:
            for delta in (1, 2, 3, 4):
                cp_min = min_compliant_challenge_period(8, delta)
                for cp in (cp_min, cp_min + 5):
                    for protocol in Protocol:
                        config = build_scenario(strategy, delta, cp, protocol, seed=s)
                        name = f"sweep-{strategy.value}-d{delta}-cp{cp}-{protocol.value}-s{s}"
                        cells.append(Cell(name, config_to_ini(config, name), built=config))
        for bundled in BUNDLED:
            text = (SCENARIO_DIR / f"{bundled}.ini").read_text()
            lines = [
                f"seed = {s}" if line.startswith("seed =") else line for line in text.splitlines()
            ]
            cells.append(Cell(f"{bundled}-s{s}", "\n".join(lines) + "\n"))
    return cells


def config_to_ini(config, comment: str) -> str:
    """INI text that load_scenario turns back into `config`."""
    scenario = dict(
        seed=config.seed,
        slots_per_epoch=config.slots_per_epoch,
        finality_depth_epochs=config.finality_depth_epochs,
        update_epoch_blocks=config.update_epoch_blocks,
        max_challenge_period=config.max_challenge_period,
        delta_ticks=config.delta_ticks,
        total_ticks=config.total_ticks,
        min_stake_eth=eth_str(config.min_stake),
        watcher_count=config.watcher_count,
    )
    providers = []
    for spec in config.providers:
        providers.append(
            dict(
                stake_eth=eth_str(spec.stake),
                strategy=spec.strategy.value,
                register_tick=spec.register_tick,
                withdraw_tick=spec.withdraw_tick,
            )
        )
    clients = []
    for c in config.clients:
        entry = dict(
            protocol=c.protocol.value,
            challenge_period=c.challenge_period,
            target_value_eth=eth_str(c.target_value),
            target_block=c.target_block,
            start_tick=c.start_tick,
            initial_balance_eth=eth_str(c.initial_balance),
        )
        if c.coverage_inputs is not None:
            entry.update(
                insurance_challenge_period=c.coverage_inputs.challenge_periods[0],
                delta_comm=c.coverage_inputs.delta_comm,
                delta_comp=c.coverage_inputs.delta_comp,
            )
        clients.append(entry)
    return render(scenario, providers, clients, comment)


WORKLOADS = {"maintain": maintain, "dispute": dispute, "sweep": sweep}
