"""End-to-end scenario behaviors on the deterministic event loop."""

import copy
import dataclasses
import json
import random
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcsim import actors, codec, crypto, harness, light_client, scenario
from lcsim.actors import AlertKind, DataProviderActor, ProviderStrategy
from lcsim.harness import (
    ConfigInvalidError,
    HeavyCheckOracle,
    Metrics,
    ProviderSpec,
    ScenarioConfig,
    Simulation,
    build_scenario,
    min_compliant_challenge_period,
    run_scenario,
)
from lcsim.chain import Chain
from lcsim.contract import (
    ContractConfig,
    Ledger,
    ProviderStatus,
    RejectReason,
    SlashEvidence,
    SlashingContract,
    SlashRejected,
)
from lcsim.light_client import ClientConfig, LightClientActor, Protocol, ProviderView, Stage
from lcsim.messages import EventListMsg, EventListRequest
from lcsim.pricing import CoverageInputs, PricingParams, eth_to_wei
from test_golden import configs as golden_configs
from test_golden import PINNED, scaled_dispute, scaled_insured, scaled_maintain
from test_golden import digests as golden_digests

ETH = eth_to_wei(1)


def load(name):
    return scenario.load_scenario(scenario.builtin_scenario_path(name))


def link_delay(sim: Simulation, src: str, dst: str) -> int:
    """Ticks a message from `src` takes to reach `dst`, read off the run's
    delay table, which only the harness reads."""
    return sim._delay_rows[src][sim._index[dst]]


class TestConfigValidation:
    def test_update_epoch_bound_named(self):
        config = dataclasses.replace(load("honest"), update_epoch_blocks=10)
        with pytest.raises(ConfigInvalidError, match="update_epoch_blocks"):
            config.validate()

    def test_delta_must_be_positive(self):
        config = dataclasses.replace(load("honest"), delta_ticks=0)
        with pytest.raises(ConfigInvalidError, match="delta_ticks"):
            config.validate()

    def test_delta_fits_one_byte(self):
        base = load("honest")
        config = dataclasses.replace(
            base, delta_ticks=256, update_epoch_blocks=base.update_epoch_blocks + 600
        )
        with pytest.raises(ConfigInvalidError, match="delta_ticks must be at most 255"):
            config.validate()

    def test_challenge_period_cap_named(self):
        base = load("honest")
        client = dataclasses.replace(base.clients[0], challenge_period=99)
        config = dataclasses.replace(base, clients=(client,))
        with pytest.raises(ConfigInvalidError, match="challenge_period"):
            config.validate()


class TestHonestScenario:
    def test_clean_run(self):
        metrics, _ = run_scenario(load("honest"))
        assert metrics.violations == []
        assert metrics.slash_count == 0
        client = metrics.clients["c0"]
        assert client.accepted == 1
        assert client.heavy_checks == 1
        assert client.target_signature_verifications == 1

    def test_eco_latency_is_challenge_period(self):
        config = load("honest")
        metrics, _ = run_scenario(config)
        record = metrics.acceptances[0]
        # Acceptance fires exactly T_cp ticks after the last forward, which
        # happened on the last response tick.
        assert record.accepted_tick - record.last_response_tick == 13

    def test_storage_stays_under_100_bytes_per_provider(self):
        config = load("honest")
        sim = Simulation(config)
        sim.run()
        client = sim.clients[0]
        snapshot = client.persistent_state_bytes()
        entries = len(client.current_set())
        assert entries > 0
        assert len(snapshot) / entries < 100


class TestWrongHashScenario:
    def test_slash_restart_accept(self):
        metrics, _ = run_scenario(load("wrong_hash"))
        assert metrics.violations == []
        assert metrics.slash_count == 1
        client = metrics.clients["c0"]
        assert client.accepted == 1
        assert client.rejected == 1
        # The first round's data is discarded at the alert, never verified;
        # only the honest retry is checked.
        assert client.target_signature_verifications == 1
        # Bootstrap plus the dispute-path slash verification.
        assert client.heavy_checks == 2

    def test_alert_latency_bound(self):
        config = load("wrong_hash")
        metrics, log = run_scenario(config)
        verdict_tick = None
        alert_tick = None
        for line in log.lines:
            tick, actor, event, _ = line.split("\t")
            if actor == "w0" and event == "verdict" and verdict_tick is None:
                verdict_tick = int(tick)
            if actor == "w0" and event == "alert" and alert_tick is None:
                alert_tick = int(tick)
        assert verdict_tick is not None and alert_tick is not None
        # Alert sent within T_fin + 2*delta of the watcher seeing the lie;
        # delivery adds at most delta more.
        assert alert_tick - verdict_tick <= config.t_fin + 2 * config.delta_ticks

    def test_negative_control_t_cp_zero(self):
        config = build_scenario(ProviderStrategy.WRONG_HASH, 2, 0, Protocol.ECO)
        metrics, _ = run_scenario(config)
        assert any(v.startswith("eco-safety") for v in metrics.violations)

    def test_bound_is_tight(self):
        # T_cp one tick short of the safe bound with delta = 1 must fail.
        t_fin = 8
        config = build_scenario(
            ProviderStrategy.WRONG_HASH, 1, t_fin + 2 * 1, Protocol.ECO
        )
        metrics, _ = run_scenario(config)
        assert any(v.startswith("eco-safety") for v in metrics.violations)
        safe = build_scenario(
            ProviderStrategy.WRONG_HASH, 1, min_compliant_challenge_period(t_fin, 1), Protocol.ECO
        )
        metrics, _ = run_scenario(safe)
        assert metrics.violations == []


class TestInsuredScenario:
    def test_compensation_covers_bad_data(self):
        metrics, _ = run_scenario(load("insured"))
        assert metrics.violations == []
        client = metrics.clients["c0"]
        assert client.accepted == 1
        assert client.compensated == 1
        assert client.compensation_received == 10 * ETH
        delta = client.final_balance - client.initial_balance
        assert delta == 10 * ETH - client.premium_spent - client.gas_spent

    def test_gas_follows_the_pricing_gas_units(self, tmp_path):
        """The contract charges the gas the quote and the budget count."""
        path = tmp_path / "insured_gas.ini"
        text = scenario.builtin_scenario_path("insured").read_text()
        path.write_text(text + "\n[pricing]\ngas_units = 300000\n")
        config = scenario.load_scenario(path)
        assert config.pricing.gas_units == 300_000
        metrics, _ = run_scenario(config)
        client = metrics.clients["c0"]
        assert client.gas_spent == config.pricing.gas_cost_wei  # one purchase
        assert client.gas_spent == 300_000 * config.pricing.gas_price_wei

    def test_fees_count_when_the_receipt_never_arrives(self):
        """A purchase executed on the run's last tick is charged and counted,
        though its receipt is still in flight when the run ends."""
        cp = min_compliant_challenge_period(8, 1)
        base = build_scenario(ProviderStrategy.HONEST, 1, cp, Protocol.INS, seed=0)
        client = dataclasses.replace(base.clients[0], start_tick=base.total_ticks)
        sim = Simulation(dataclasses.replace(base, clients=(client,)))
        metrics, _ = sim.run()
        [policy] = sim.contract.policies.values()
        assert sim.clients[0]._pending_purchase is not None  # no receipt yet
        spent = metrics.clients["c0"]
        gas = base.pricing.gas_cost_wei
        assert (spent.premium_spent, spent.gas_spent) == (policy.premium_wei, gas)
        assert spent.final_balance - spent.initial_balance == -(policy.premium_wei + gas)
        assert metrics.violations == []

    def test_fees_are_those_of_the_executed_purchases(self):
        """Colliding purchases revert and are bought again: each client has
        spent the premium and gas of exactly the policies it bought, as a
        revert moves no wei."""
        sim = Simulation(scaled_insured())
        metrics, log = sim.run()
        assert any("\tinsurance_reverted\t" in line for line in log.lines)
        gas = sim.config.pricing.gas_cost_wei
        for client in sim.clients:
            bought = [
                p for p in sim.contract.policies.values() if p.buyer_pk == client.public_key
            ]
            spent = metrics.clients[client.name]
            assert spent.premium_spent == sum(p.premium_wei for p in bought)
            assert spent.gas_spent == len(bought) * gas

    def test_instant_acceptance(self):
        metrics, _ = run_scenario(load("insured"))
        record = metrics.acceptances[0]
        assert record.accepted_tick == record.last_response_tick

    def test_single_signature_for_single_provider(self):
        metrics, _ = run_scenario(load("insured"))
        assert metrics.clients["c0"].target_signature_verifications == 1

    def test_slashes_pay_only_out_of_the_slashed_stakes(self):
        """A 48 ETH policy backed by 20 honest, 8 and 27 lying ETH: the two
        liars' slashes pay 8 and 27 and the run ends. Paying the full 48 out
        of the 8 ETH stake once emptied the vault mid-run."""
        cp = min_compliant_challenge_period(8, 2)
        base = build_scenario(ProviderStrategy.WRONG_HASH, 2, cp, Protocol.INS, seed=0)
        providers = (
            ProviderSpec(stake=20 * ETH, strategy=ProviderStrategy.HONEST),
            ProviderSpec(stake=8 * ETH, strategy=ProviderStrategy.WRONG_HASH),
            ProviderSpec(stake=27 * ETH, strategy=ProviderStrategy.WRONG_HASH),
        )
        client = dataclasses.replace(base.clients[0], target_value=48 * ETH)
        sim = Simulation(dataclasses.replace(base, providers=providers, clients=(client,)))
        total = sim.ledger.total()
        metrics, _ = sim.run()
        events = sim.contract.slash_events
        assert [(e.slashed_amount, e.compensation) for e in events] == [
            (8 * ETH, 8 * ETH),
            (27 * ETH, 27 * ETH),
        ]
        assert metrics.clients["c0"].compensation_received == 35 * ETH
        # The honest provider's 20 ETH slice is out of the liars' reach.
        assert metrics.violations == ["ins-protection:c0"]
        assert sim.ledger.total() == total

    def test_buyer_short_of_premium_plus_gas_gives_up_at_once(self, tmp_path):
        """A purchase that reverts for want of balance is not retried, with
        no heavy check: premium and gas do not depend on the selection."""
        path = tmp_path / "poor.ini"
        text = scenario.builtin_scenario_path("insured").read_text()
        path.write_text(text.replace("initial_balance_eth = 1", "initial_balance_eth = 0.0018"))
        sim = Simulation(scenario.load_scenario(path))
        metrics, log = sim.run()
        events = [line.split("\t")[2] for line in log.lines]
        assert events.count("tx-BuyInsuranceTx-InsufficientBalance") == 1
        client = metrics.clients["c0"]
        assert client.heavy_checks == 1
        assert client.rejected == 1
        assert sim.clients[0].stage is Stage.GAVE_UP


class TestExitScamScenario:
    def test_slash_beats_release(self):
        config = load("exit_scam")
        metrics, _ = run_scenario(config)
        assert metrics.violations == []
        assert metrics.slash_count == 1
        scam_pk = crypto.keygen(harness._derive_key_seed(config.seed, "p0")).public_key
        assert all(pk != scam_pk for _, pk, _ in metrics.withdrawals)
        assert metrics.clients["c0"].accepted == 1


class TestUnfinalizedTarget:
    def test_watcher_defers_then_clears(self):
        # The client asks about a block that exists but is not yet final:
        # the honest provider stays silent, the impatient one answers with
        # the true hash, the watcher defers until finality and never
        # slashes, and the acceptance is correct.
        b_u = 32
        start = 2 * b_u + 1
        config = ScenarioConfig(
            seed=11,
            providers=(
                ProviderSpec(stake=64 * ETH, strategy=ProviderStrategy.UNFINALIZED_HASH),
                ProviderSpec(stake=32 * ETH, strategy=ProviderStrategy.HONEST),
            ),
            clients=(
                ClientConfig(
                    protocol=Protocol.ECO,
                    challenge_period=13,
                    target_value=10 * ETH,
                    target_block=start - 4,  # exists, 4 blocks deep, not final
                    start_tick=start,
                ),
            ),
            update_epoch_blocks=b_u,
            max_challenge_period=16,
            delta_ticks=2,
            total_ticks=start + 80,
        )
        metrics, _ = run_scenario(config)
        assert metrics.slash_count == 0
        assert metrics.violations == []
        assert metrics.clients["c0"].accepted == 1
        assert metrics.acceptances[0].correct is True

    def test_watcher_defers_then_slashes_a_lie(self, monkeypatch):
        # The liar answers at once about a block that is not final yet: the
        # watcher defers its audit until finality, then disputes, so the
        # liar is slashed and the client alerted. The challenge period
        # covers the wait for the target's finality too.
        b_u = 40
        start = 2 * b_u + 1
        config = ScenarioConfig(
            seed=11,
            providers=(
                ProviderSpec(stake=64 * ETH, strategy=ProviderStrategy.WRONG_HASH),
                ProviderSpec(stake=32 * ETH, strategy=ProviderStrategy.HONEST),
            ),
            clients=(
                ClientConfig(
                    protocol=Protocol.ECO,
                    challenge_period=24,
                    target_value=10 * ETH,
                    target_block=start - 1,  # exists, 1 block deep, not final
                    start_tick=start,
                ),
            ),
            update_epoch_blocks=b_u,
            max_challenge_period=24,
            delta_ticks=2,
            total_ticks=start + 80,
        )
        verdicts = []
        watcher_check = actors.watcher_check

        def recorded(*args):
            verdicts.append(watcher_check(*args))
            return verdicts[-1]

        monkeypatch.setattr(actors, "watcher_check", recorded)
        sim = Simulation(config)
        metrics, _ = sim.run()
        liar = sim.providers[0].public_key
        assert verdicts[0] is actors.Verdict.PENDING
        assert actors.Verdict.DISPUTE in verdicts
        assert metrics.slash_count == 1
        assert [alert.offending_pk for alert in sim.clients[0].alerts_seen] == [liar]
        assert metrics.violations == []
        assert metrics.clients["c0"].accepted == 1


class TestEmptyBootstrap:
    def test_no_usable_providers_fails_cleanly(self):
        # Providers register too late to be in the client's epochal set:
        # the bootstrap snapshot is empty and selection fails without
        # crashing the run.
        b_u = 32
        config = ScenarioConfig(
            seed=9,
            providers=(
                ProviderSpec(
                    stake=32 * ETH,
                    strategy=ProviderStrategy.HONEST,
                    register_tick=2 * b_u + 2,
                ),
            ),
            clients=(
                ClientConfig(protocol=Protocol.ECO, challenge_period=13, target_value=10 * ETH),
            ),
            update_epoch_blocks=b_u,
            max_challenge_period=16,
            delta_ticks=2,
            total_ticks=3 * b_u,
        )
        metrics, _ = run_scenario(config)
        client = metrics.clients["c0"]
        assert client.accepted == 0
        assert client.rejected >= 1
        assert not metrics.incorrect_acceptances()


class TestInsuredResidualRisk:
    def test_uncovered_window_is_detected_not_hidden(self):
        # Known protocol gap: if the provider backing a policy is slashed
        # for a *different* client's query after the purchase-inclusion
        # check was audited but before the insured response arrives, the
        # instant acceptance has no alert to beat and the claim is
        # rejected (already slashed).  The harness must report this as an
        # ins-protection violation rather than paper over it.
        b_u = 32
        cov = CoverageInputs(t_fin=8, challenge_periods=(13, 13), delta_comm=20, delta_comp=2)
        config = ScenarioConfig(
            seed=5,
            providers=(
                ProviderSpec(stake=64 * ETH, strategy=ProviderStrategy.WRONG_HASH),
                ProviderSpec(stake=32 * ETH, strategy=ProviderStrategy.HONEST),
            ),
            clients=(
                # The insured client starts first: its purchase check is
                # audited while the adversary still looks clean.
                ClientConfig(
                    protocol=Protocol.INS,
                    challenge_period=13,
                    target_value=10 * ETH,
                    start_tick=2 * b_u + 1,
                    coverage_inputs=cov,
                    initial_balance=1 * ETH,
                ),
                # The economic client's dispute slashes the adversary in
                # the insured client's blind spot.
                ClientConfig(
                    protocol=Protocol.ECO,
                    challenge_period=13,
                    target_value=10 * ETH,
                    start_tick=2 * b_u + 16,
                ),
            ),
            update_epoch_blocks=b_u,
            max_challenge_period=16,
            delta_ticks=2,
            total_ticks=2 * b_u + 140,
        )
        metrics, _ = run_scenario(config)
        assert metrics.slash_count == 1
        insured = metrics.clients["c0"]
        assert insured.accepted == 1
        assert insured.compensation_received == 0
        assert any(v == "ins-protection:c0" for v in metrics.violations)
        # The economic client is unharmed: restart onto the honest node.
        assert metrics.clients["c1"].accepted == 1
        eco_records = [r for r in metrics.acceptances if r.client == "c1"]
        assert all(r.correct for r in eco_records)


class TestWatcherRace:
    def test_duplicate_dispute_yields_inactive_alert(self):
        base = load("wrong_hash")
        config = dataclasses.replace(base, watcher_count=2, total_ticks=base.total_ticks + 40)
        sim = Simulation(config)
        metrics, _ = sim.run()
        assert metrics.slash_count == 1  # second dispute rejected
        kinds = {alert.kind for alert in sim.clients[0].alerts_seen}
        assert kinds == {AlertKind.PROVIDER_SLASHED, AlertKind.PROVIDER_INACTIVE}
        assert metrics.violations == []
        assert metrics.clients["c0"].accepted == 1


class TestMaintenance:
    def test_predictions_match_with_one_heavy_check(self):
        metrics, _ = run_scenario(load("maintenance"))
        assert metrics.violations == []
        assert metrics.prediction_checks >= 3
        assert metrics.clients["c0"].heavy_checks == 1

    def test_offline_client_rebootstraps_once(self):
        base = load("maintenance")
        b_u = base.update_epoch_blocks
        # Dark from mid-epoch 2 into early epoch 4: the epoch 2 and 3
        # event checks are lost, so the prediction chain breaks and one
        # fresh heavy check is needed on resume.
        client = dataclasses.replace(base.clients[0], offline=(2 * b_u + 20, 4 * b_u + 5))
        config = dataclasses.replace(base, clients=(client,), total_ticks=8 * b_u)
        metrics, _ = run_scenario(config)
        assert metrics.clients["c0"].heavy_checks == 2
        assert not any(v.startswith("prediction") for v in metrics.violations)


class TestEarlyStart:
    """A maintaining client that starts in epoch 0 or 1 bootstraps into the
    empty set and has nobody to ask: it takes epoch 1's set as its held one
    and reads epoch 2's through a heavy check."""

    @pytest.mark.parametrize("perform_check", [False, True])
    @pytest.mark.parametrize("start", [1, 2, 9, 20, 33, 40])
    def test_predictions_match(self, start, perform_check):
        base = load("maintenance")
        client = dataclasses.replace(
            base.clients[0], start_tick=start, perform_check=perform_check
        )
        metrics, _ = run_scenario(dataclasses.replace(base, clients=(client,)))
        assert metrics.violations == []
        assert metrics.prediction_checks >= 5
        assert metrics.clients["c0"].heavy_checks == 2


def recorded_sets(monkeypatch) -> dict[tuple[str, int], tuple[str, dict]]:
    """Every set a client takes during a run, by (client, epoch): from a
    bootstrap or a prediction. Clients keep only the held and next epoch's."""
    sets = {}
    bootstrap = LightClientActor.bootstrap
    predict = LightClientActor._predict

    def recorded_bootstrap(client, ctx, now):
        bootstrap(client, ctx, now)
        sets[client.name, client.current_epoch_held] = ("bootstrap", client.current_set())

    def recorded_predict(client, epoch, provider_set, ctx):
        predict(client, epoch, provider_set, ctx)
        sets[client.name, epoch] = ("predicted", provider_set)

    monkeypatch.setattr(LightClientActor, "bootstrap", recorded_bootstrap)
    monkeypatch.setattr(LightClientActor, "_predict", recorded_predict)
    return sets


class TestPredictionCheck:
    def test_a_missing_set_is_a_miss(self):
        """The check compares each held set with the contract's; a client
        holding no set for the epoch misses it."""
        sim = Simulation(load("maintenance"))
        client = sim.clients[0]
        assert client.config.maintain and sim.contract.active_set(1) == []
        client.bootstrap_epochs = [0]
        for held, violations in (
            (ProviderView(), []),
            (None, ["prediction:c0@epoch1"]),
            (ProviderView({client.public_key: ETH}), ["prediction:c0@epoch1"]),
        ):
            client.sets = {} if held is None else {1: held}
            sim.metrics.violations.clear()
            sim._check_predictions(1)
            assert sim.metrics.violations == violations


class TestBookkeeping:
    def test_bootstrap_snapshot_matches_contract(self, monkeypatch):
        config = load("maintenance")
        sets = recorded_sets(monkeypatch)
        sim = Simulation(config)
        sim.run()
        client = sim.clients[0]
        epoch = client.bootstrap_epochs[0]
        expected = {
            pk: stake for pk, stake, _ in sim.contract.active_set(epoch)
        }
        assert sets[client.name, epoch] == ("bootstrap", expected)
        assert len(expected) >= 2

    def test_clients_keep_only_the_held_and_next_epoch(self, monkeypatch):
        on_tick = LightClientActor.on_tick
        seen = []

        def checked(client, now, ctx):
            on_tick(client, now, ctx)
            if client.bootstrapped:
                held = client.current_epoch_held
                assert set(client.sets) <= {held, held + 1}, (client.name, now)
                maintenance = client._maintenance
                assert maintenance is None or maintenance.epoch == held, (client.name, now)
                seen.append(len(client.sets))

        monkeypatch.setattr(LightClientActor, "on_tick", checked)
        metrics, _ = Simulation(scaled_maintain()).run()
        assert metrics.violations == [] and metrics.prediction_checks > 0
        assert max(seen) == 2

    def test_non_maintaining_clients_keep_their_bootstrap_epoch(self, monkeypatch):
        """A client that does not maintain never moves its epoch on, never
        asks for event lists and never opens a maintenance record."""
        on_tick = LightClientActor.on_tick
        ticked = set()

        def checked(client, now, ctx):
            on_tick(client, now, ctx)
            if client.bootstrapped:
                assert client.current_epoch_held == client.bootstrap_epochs[-1]
                assert set(client.sets) == {client.current_epoch_held}
                assert client._maintenance is None
                ticked.add(client.name)

        requests = []
        enqueue_each = Simulation.enqueue_each

        def recorded(sim, src, dsts, payload, *rest):
            dsts = list(dsts)
            if isinstance(payload, EventListRequest):
                requests.extend((src, dst) for dst in dsts)
            return enqueue_each(sim, src, dsts, payload, *rest)

        monkeypatch.setattr(LightClientActor, "on_tick", checked)
        monkeypatch.setattr(Simulation, "enqueue_each", recorded)
        config = scaled_maintain()
        config = dataclasses.replace(
            config,
            clients=tuple(dataclasses.replace(c, maintain=False) for c in config.clients),
        )
        sim = Simulation(config)
        sim.run()
        assert ticked == {client.name for client in sim.clients}
        # The run spans several epochs past every client's bootstrap.
        last_epoch = config.total_ticks // config.update_epoch_blocks
        assert all(client.bootstrap_epochs[-1] < last_epoch - 1 for client in sim.clients)
        assert requests == []

    def test_latency_metric_recomputable_from_log(self):
        metrics, log = run_scenario(load("honest"))
        query_tick = accepted_tick = None
        for line in log.lines:
            tick, actor, event, _ = line.split("\t")
            if actor == "c0" and event == "query" and query_tick is None:
                query_tick = int(tick)
            if actor == "c0" and event == "accepted" and accepted_tick is None:
                accepted_tick = int(tick)
        assert metrics.clients["c0"].ticks_to_acceptance == [accepted_tick - query_tick]

    def test_empty_sweep_space(self):
        report = harness.sweep([], [1], None, Protocol.ECO)
        assert report.cells == []
        assert report.violations() == []


class TestConservation:
    """The harness re-sums the ledger only after a mint or a transfer; a
    transfer that loses wei still shows at the tick it runs."""

    def test_a_leaking_transfer_is_reported_at_its_tick(self, monkeypatch):
        config = load("insured")
        transfer = Ledger.transfer
        ticks = []

        def recorded(ledger, src, dst, amount):
            ticks.append(sim.ctx.now)
            return transfer(ledger, src, dst, amount)

        monkeypatch.setattr(Ledger, "transfer", recorded)
        sim = Simulation(config)
        assert sim.run()[0].violations == []
        # Leak from the second tick with a transfer on: the first stays clean.
        leak_from = sorted(set(ticks))[1]

        def leaking(ledger, src, dst, amount):
            transfer(ledger, src, dst, amount)
            if sim.ctx.now >= leak_from:
                ledger.balances[dst] -= 1

        monkeypatch.setattr(Ledger, "transfer", leaking)
        sim = Simulation(config)
        metrics, _ = sim.run()
        assert [v for v in metrics.violations if v.startswith("conservation:")] == [
            f"conservation:tick{leak_from}"
        ]


class TestDeterminism:
    @pytest.mark.parametrize("name", scenario.list_builtin_scenarios())
    def test_bundled_scenarios_are_reproducible(self, name):
        config = load(name)
        _, log_a = run_scenario(config)
        _, log_b = run_scenario(config)
        assert log_a.serialize() == log_b.serialize()

    def test_different_seed_different_log(self):
        base = load("honest")
        _, log_a = run_scenario(base)
        _, log_b = run_scenario(dataclasses.replace(base, seed=base.seed + 1))
        assert log_a.serialize() != log_b.serialize()


def with_endpoints(n: int, delta: int, seed: int) -> ScenarioConfig:
    """The honest scenario padded with watchers to n endpoints (the
    contract included); n = 2 keeps only the contract and one watcher."""
    base = load("honest")
    if n == 2:
        base = dataclasses.replace(base, providers=(), clients=())
    padding = n - 1 - len(base.providers) - len(base.clients)
    return dataclasses.replace(
        base,
        seed=seed,
        delta_ticks=delta,
        watcher_count=padding,
        update_epoch_blocks=base.max_challenge_period + base.t_fin + 2 * delta,
    )


class TestDelayTable:
    """The bulk-drawn table equals one `randint(1, delta)` per ordered pair
    in sorted-name order, which is what the pinned digests were made with."""

    SEEDS = (1, 7, 12345, 2**31 - 5)

    @pytest.mark.parametrize("delta", [1, 2, 3, 4, 7, 255])
    @pytest.mark.parametrize("n", [2, 5, 37, 504])
    def test_matches_per_pair_randint(self, n, delta):
        # Two seeds at n = 504 keep the per-pair reference draws short.
        for seed in self.SEEDS if n < 504 else self.SEEDS[::3]:
            sim = Simulation(with_endpoints(n, delta, seed))
            names = sorted([a.name for a in sim.actors] + [harness.CONTRACT_ENDPOINT])
            assert len(names) == n
            rng = random.Random(seed)
            pairs = [(a, b) for a in names for b in names if a != b]
            expected = [rng.randint(1, delta) for _ in pairs]
            assert [sim._delay_rows[a][sim._index[b]] for a, b in pairs] == expected

    def test_draw_in_many_small_passes(self, monkeypatch):
        monkeypatch.setattr(harness, "_MAX_WORDS_PER_PASS", 7)
        for delta in (1, 3, 200):
            ref = random.Random(99)
            expected = [ref.randint(1, delta) for _ in range(1000)]
            assert list(harness._draw_delays(random.Random(99), delta, 1000)) == expected

    def test_self_send_is_a_delivery_bound_violation(self):
        sim = Simulation(load("honest"))
        sim.enqueue("c0", "c0", None)
        assert sim.metrics.violations == ["delivery-bound:c0->c0"]


@st.composite
def populations(draw) -> ScenarioConfig:
    """A few providers, some adversarial or late, and a mix of eco, ins,
    maintaining, non-checking and offline clients."""
    delta = draw(st.integers(1, 2))
    cp = min_compliant_challenge_period(8, delta)
    seed = draw(st.integers(0, 2**32))
    eco = build_scenario(ProviderStrategy.HONEST, delta, cp, Protocol.ECO, seed=seed)
    ins = build_scenario(ProviderStrategy.HONEST, delta, cp, Protocol.INS, seed=seed)
    b_u = eco.update_epoch_blocks
    total = 6 * b_u
    # One honest provider always backs liveness.
    stake = eth_to_wei(draw(st.integers(20, 64)))
    providers = [ProviderSpec(stake=stake, strategy=ProviderStrategy.HONEST)]
    for _ in range(draw(st.integers(1, 4))):
        strategy = draw(st.sampled_from(ProviderStrategy))
        spec = ProviderSpec(stake=eth_to_wei(draw(st.integers(8, 64))), strategy=strategy)
        if draw(st.booleans()):
            spec = dataclasses.replace(spec, register_tick=draw(st.integers(2, 3 * b_u)))
        if strategy is ProviderStrategy.HONEST and draw(st.booleans()):
            # Never before the register tick, which the config rejects.
            withdraw_tick = draw(st.integers(max(b_u, spec.register_tick), 4 * b_u))
            spec = dataclasses.replace(spec, withdraw_tick=withdraw_tick)
        providers.append(spec)
    clients = []
    for _ in range(draw(st.integers(1, 5))):
        template = draw(st.sampled_from([eco, ins])).clients[0]
        start = draw(st.integers(b_u // 2, 3 * b_u))
        offline = None
        if draw(st.booleans()):
            begin = draw(st.integers(start, total))
            offline = (begin, begin + draw(st.integers(0, 2 * b_u)))
        clients.append(
            dataclasses.replace(
                template,
                target_value=eth_to_wei(draw(st.integers(1, 60))),
                target_block=draw(st.integers(2, b_u)),
                start_tick=start,
                maintain=draw(st.booleans()),
                perform_check=draw(st.integers(0, 3)) > 0,
                offline=offline,
            )
        )
    return dataclasses.replace(
        eco,
        providers=tuple(providers),
        clients=tuple(clients),
        watcher_count=draw(st.integers(1, 2)),
        total_ticks=total,
    )


def outputs(sim: Simulation) -> tuple[bytes, bytes]:
    metrics, log = sim.run()
    return log.serialize(), json.dumps(metrics.to_dict(), sort_keys=True).encode()


def observable(client: LightClientActor, sim: Simulation) -> tuple:
    """Everything a client's on_tick could touch."""
    return (
        copy.deepcopy(vars(client)),
        repr(sim.metrics.clients.get(client.name)),
        len(sim.metrics.acceptances),
        len(sim.metrics.violations),
        len(sim.log.lines),
        sum(len(batch) for batch in sim._mailbox.values()),
        len(sim._pool),
    )


def scaled_dispute_population() -> ScenarioConfig:
    """Six eco clients against two liars and four honest providers."""
    cp = min_compliant_challenge_period(8, 2)
    base = build_scenario(ProviderStrategy.WRONG_HASH, 2, cp, Protocol.ECO, seed=3)
    b_u = base.update_epoch_blocks
    strategies = [ProviderStrategy.WRONG_HASH, ProviderStrategy.UNRESPONSIVE] + [
        ProviderStrategy.HONEST
    ] * 4
    providers = tuple(
        ProviderSpec(stake=eth_to_wei(60 - 3 * i), strategy=s) for i, s in enumerate(strategies)
    )
    clients = tuple(
        dataclasses.replace(
            base.clients[0], target_value=eth_to_wei(10 + 20 * i), start_tick=2 * b_u + 1 + 3 * i
        )
        for i in range(6)
    )
    return dataclasses.replace(base, providers=providers, clients=clients, total_ticks=6 * b_u)


@st.composite
def maintaining_populations(draw) -> ScenarioConfig:
    """Churning providers and clients that all maintain their set: eco and
    ins, late starts anywhere in an epoch, and offline windows that may
    span epoch boundaries and force a re-bootstrap."""
    config = draw(populations())
    b_u = config.update_epoch_blocks
    cp = config.clients[0].challenge_period
    churn = []
    for _ in range(draw(st.integers(1, 3))):
        register_tick = draw(st.integers(2, 4 * b_u))
        churn.append(
            ProviderSpec(
                stake=eth_to_wei(draw(st.integers(8, 40))),
                strategy=ProviderStrategy.HONEST,
                register_tick=register_tick,
                # Never before the register tick, which the config rejects.
                withdraw_tick=draw(st.none() | st.integers(max(b_u, register_tick), 5 * b_u)),
            )
        )
    clients = []
    for client in config.clients:
        start = draw(st.integers(1, 4 * b_u))
        offline = None
        if draw(st.booleans()):
            begin = draw(st.integers(start, 5 * b_u))
            offline = (begin, begin + draw(st.integers(0, 3 * b_u)))
        clients.append(
            dataclasses.replace(
                client,
                start_tick=start,
                target_block=draw(st.integers(1, max(1, start - 1))),
                maintain=True,
                maintenance_challenge_period=draw(st.sampled_from([None, 0, cp])),
                offline=offline,
            )
        )
    return dataclasses.replace(
        config,
        providers=config.providers + tuple(churn),
        clients=tuple(clients),
        total_ticks=draw(st.integers(4 * b_u, 7 * b_u)),
    )


class TestWakeUps:
    """Sleeping clients until their next deadline is invisible: the same
    run with every client ticked on every tick gives the same bytes."""

    @given(populations() | maintaining_populations())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_same_log_and_metrics_as_ticking_every_client(self, monkeypatch, config):
        fast = outputs(Simulation(config))
        next_tick = LightClientActor.next_tick
        on_tick = LightClientActor.on_tick
        handle_message = LightClientActor.handle_message
        wake: dict[str, float] = {}  # when the real schedule ticks a client next

        def recorded_handle(client, sender, payload, ctx):
            wake[client.name] = min(wake.get(client.name, 0), ctx.now)
            return handle_message(client, sender, payload, ctx)

        def checked_on_tick(client, now, ctx):
            if now >= wake.get(client.name, 0):
                on_tick(client, now, ctx)
            else:
                # A tick the real schedule skips changes nothing.
                before = observable(client, ctx._sim)
                on_tick(client, now, ctx)
                assert observable(client, ctx._sim) == before, (client.name, now)
            due = next_tick(client, now)
            assert due is None or due > now
            wake[client.name] = float("inf") if due is None else due

        with monkeypatch.context() as patch:
            patch.setattr(LightClientActor, "next_tick", lambda self, now: now + 1)
            patch.setattr(LightClientActor, "on_tick", checked_on_tick)
            patch.setattr(LightClientActor, "handle_message", recorded_handle)
            slow = outputs(Simulation(config))
        assert slow == fast

    def test_population_skips_most_client_ticks(self, monkeypatch):
        """The scaled dispute population: most client ticks are skipped."""
        config = scaled_dispute_population()
        calls = []
        on_tick = LightClientActor.on_tick

        def counted(client, now, ctx):
            calls.append(client.name)
            return on_tick(client, now, ctx)

        monkeypatch.setattr(LightClientActor, "on_tick", counted)
        outputs(Simulation(config))
        assert 0 < len(calls) < config.total_ticks * len(config.clients) // 2

    def test_maintaining_clients_sleep_between_deadlines(self, monkeypatch):
        """The scaled maintain population: a maintaining client is ticked on
        under a third of the ticks from its start on."""
        config = scaled_maintain()
        calls = []
        on_tick = LightClientActor.on_tick

        def counted(client, now, ctx):
            calls.append(client.name)
            return on_tick(client, now, ctx)

        monkeypatch.setattr(LightClientActor, "on_tick", counted)
        outputs(Simulation(config))
        online = sum(config.total_ticks + 1 - c.start_tick for c in config.clients)
        assert 0 < len(calls) < online // 3

    def test_clients_are_ticked_from_start_and_on_delivery(self, monkeypatch):
        """With no client naming a tick after its start tick, a client is
        ticked only at its start tick and on ticks that deliver to it, in
        index order."""
        sim = Simulation(scaled_dispute_population())
        index = {client.name: i for i, client in enumerate(sim.clients)}
        delivered = {(client.config.start_tick, client.name) for client in sim.clients}
        ticked = []
        handle_message = LightClientActor.handle_message
        on_tick = LightClientActor.on_tick

        def recorded_handle(client, sender, payload, ctx):
            delivered.add((ctx.now, client.name))
            return handle_message(client, sender, payload, ctx)

        def recorded_tick(client, now, ctx):
            ticked.append((now, client.name))
            return on_tick(client, now, ctx)

        def start_only(client, now):
            return client.config.start_tick if now == 0 else None

        monkeypatch.setattr(LightClientActor, "next_tick", start_only)
        monkeypatch.setattr(LightClientActor, "handle_message", recorded_handle)
        monkeypatch.setattr(LightClientActor, "on_tick", recorded_tick)
        sim.run()
        assert len(delivered) > len(sim.clients)
        assert ticked == sorted(delivered, key=lambda item: (item[0], index[item[1]]))

    def test_clients_wake_at_the_tick_they_name(self, monkeypatch):
        """A client that names tick w is ticked at w at the latest. It is
        ticked only at its start, on deliveries and at ticks it named; a
        tick named before a delivery woke it is one no-op tick."""
        sim = Simulation(scaled_maintain())
        next_tick = LightClientActor.next_tick
        on_tick = LightClientActor.on_tick
        handle_message = LightClientActor.handle_message
        due = {client.name: client.config.start_tick for client in sim.clients}
        explained = {(tick, name) for name, tick in due.items()}
        slept = 0

        def recorded_handle(client, sender, payload, ctx):
            explained.add((ctx.now, client.name))
            return handle_message(client, sender, payload, ctx)

        def recorded_tick(client, now, ctx):
            nonlocal slept
            assert (now, client.name) in explained, (client.name, now)
            assert due[client.name] is None or now <= due[client.name], (client.name, now)
            on_tick(client, now, ctx)
            due[client.name] = next_tick(client, now)
            if due[client.name] is not None:
                explained.add((due[client.name], client.name))
                slept += due[client.name] > now + 1

        monkeypatch.setattr(LightClientActor, "handle_message", recorded_handle)
        monkeypatch.setattr(LightClientActor, "on_tick", recorded_tick)
        sim.run()
        assert slept > 0
        # No client was left asleep past a tick it named.
        assert all(tick is None or tick > sim.config.total_ticks for tick in due.values())

    def test_idle_client_tick_is_a_no_op(self):
        config = load("wrong_hash")
        sim = Simulation(config)
        sim.run()
        client = sim.clients[0]
        assert client.next_tick(config.total_ticks) is None
        before = observable(client, sim)
        end = config.total_ticks + 3 * config.update_epoch_blocks
        for tick in range(config.total_ticks + 1, end):
            sim.ctx.now = tick
            client.on_tick(tick, sim.ctx)
        assert observable(client, sim) == before

    def test_maintaining_or_unfinished_client_is_never_idle(self):
        base = load("maintenance")
        sim = Simulation(base)
        sim.run()
        client = sim.clients[0]
        assert client.config.maintain
        # A maintaining client always has the next epoch's fetch ahead.
        next_epoch = (client.epoch_of_tick(base.total_ticks) + 1) * base.update_epoch_blocks
        assert base.total_ticks < client.next_tick(base.total_ticks) <= next_epoch + 1
        fresh = Simulation(load("honest")).clients[0]
        # Not bootstrapped yet: due at its start tick.
        assert fresh.next_tick(0) == fresh.config.start_tick


class TickEveryActor(Simulation):
    """The reference schedule: every actor is ticked on every tick, after
    the tick's deliveries, in index order."""

    def run(self):
        ctx = self.ctx
        for tick in range(1, self.config.total_ticks + 1):
            ctx.now = tick
            for src, dst, payload in self._mailbox.pop(tick, []):
                self._actor_by_name[dst].handle_message(src, payload, ctx)
            for actor in self.actors:
                actor.on_tick(tick, ctx)
            self._close_tick(tick)
        self._finalize()
        return self.metrics, self.log


def every_strategy_population() -> ScenarioConfig:
    """One provider of each strategy plus a leaver, three watchers, and eco
    and ins clients, half of them maintaining."""
    cp = min_compliant_challenge_period(8, 2)
    eco = build_scenario(ProviderStrategy.HONEST, 2, cp, Protocol.ECO, seed=21)
    ins = build_scenario(ProviderStrategy.HONEST, 2, cp, Protocol.INS, seed=21)
    b_u = eco.update_epoch_blocks
    providers = tuple(
        ProviderSpec(stake=eth_to_wei(60 - 4 * i), strategy=strategy)
        for i, strategy in enumerate(
            [
                ProviderStrategy.EXIT_SCAM,
                ProviderStrategy.UNFINALIZED_HASH,
                ProviderStrategy.WRONG_HASH,
                ProviderStrategy.UNRESPONSIVE,
                ProviderStrategy.HONEST,
            ]
        )
    ) + (
        ProviderSpec(
            stake=eth_to_wei(30),
            strategy=ProviderStrategy.HONEST,
            register_tick=b_u // 2,
            withdraw_tick=2 * b_u + 5,
        ),
    )
    # Each value needs the two largest stakes. The first client asks about
    # a block that is not final yet, which the unfinalized_hash provider
    # answers and a watcher audits only once the block is final.
    start = 2 * b_u + 1
    clients = tuple(
        dataclasses.replace(
            (eco if i % 2 == 0 else ins).clients[0],
            target_value=eth_to_wei(70 + 10 * i),
            target_block=start - 4 if i == 0 else 2 + i,
            start_tick=start + 5 * i,
            maintain=i >= 2,
        )
        for i in range(4)
    )
    return dataclasses.replace(
        eco, providers=providers, clients=clients, watcher_count=3, total_ticks=6 * b_u
    )


class TestSchedule:
    """Ticking each actor only at its deadlines and deliveries gives the
    bytes that ticking every actor on every tick gives."""

    # Ticking grid_300x1000's 1 300 actors on each of its 600 ticks would
    # cost many times its own run.
    @pytest.mark.parametrize("name", sorted(set(golden_configs()) - {"grid_300x1000"}))
    def test_golden_configs(self, name):
        config = golden_configs()[name]
        assert outputs(Simulation(config)) == outputs(TickEveryActor(config))

    def test_every_strategy_and_several_watchers(self, monkeypatch):
        config = every_strategy_population()
        waiting = []
        on_tick = actors.WatcherActor.on_tick

        def recorded(watcher, now, ctx):
            waiting.append((bool(watcher._deferred), bool(watcher._pending_alerts)))
            return on_tick(watcher, now, ctx)

        monkeypatch.setattr(actors.WatcherActor, "on_tick", recorded)
        sim = Simulation(config)
        assert outputs(sim) == outputs(TickEveryActor(config))
        # The run takes every path the watchers' and providers' schedules
        # cover: audits that wait for finality, slashes and the alerts that
        # wait for their records' finality, a register and a withdraw past
        # tick 1, and standing event lists.
        assert any(deferred for deferred, _ in waiting)
        assert any(pending for _, pending in waiting)
        assert sim.metrics.slash_count > 0
        assert sim.metrics.withdrawals
        assert sim.metrics.prediction_checks > 0

    @given(populations() | maintaining_populations())
    @settings(
        max_examples=40,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drawn_populations(self, config):
        assert outputs(Simulation(config)) == outputs(TickEveryActor(config))

    def test_a_list_only_delivery_ticks_no_client(self, monkeypatch):
        """A client is ticked at a tick its next_tick named (its first tick
        included), or on a delivery other than an event list; never for
        lists alone, which move none of its deadlines."""
        allowed, ticked, list_only = set(), [], set()
        next_tick = LightClientActor.next_tick
        on_tick = LightClientActor.on_tick
        handle_message = LightClientActor.handle_message

        def recorded_next_tick(client, now):
            wake = next_tick(client, now)
            allowed.add((client.name, wake))
            return wake

        def recorded_on_tick(client, now, ctx):
            ticked.append((client.name, now))
            return on_tick(client, now, ctx)

        def recorded_handle_message(client, sender, payload, ctx):
            if type(payload) is EventListMsg:
                list_only.add((client.name, ctx.now))
            else:
                allowed.add((client.name, ctx.now))
            return handle_message(client, sender, payload, ctx)

        monkeypatch.setattr(LightClientActor, "next_tick", recorded_next_tick)
        monkeypatch.setattr(LightClientActor, "on_tick", recorded_on_tick)
        monkeypatch.setattr(LightClientActor, "handle_message", recorded_handle_message)
        sim = Simulation(scaled_maintain())
        sim.run()
        assert list_only - allowed  # some ticks bring a client only lists
        assert set(ticked) <= allowed

    def test_quiet_actors_are_not_ticked(self, monkeypatch):
        """Past its register tick a provider is ticked only for deliveries
        and standing pushes; a watcher only for deliveries and pending
        audits and alerts."""
        calls = []
        for cls in (DataProviderActor, actors.WatcherActor):
            on_tick = cls.on_tick

            def counted(actor, now, ctx, on_tick=on_tick):
                calls.append(actor.name)
                return on_tick(actor, now, ctx)

            monkeypatch.setattr(cls, "on_tick", counted)
        config = load("wrong_hash")
        outputs(Simulation(config))
        assert 0 < len(calls) < config.total_ticks // 4


class SampleEveryTick(Simulation):
    """The reference tick close: the pool is executed on every tick, and
    utilization and conservation are summed afresh on every tick, quiet
    stretches included."""

    def _close_stretch(self, first, stop):
        for tick in range(first, stop):
            self.ctx.now = tick
            self._close_tick(tick)

    def _close_tick(self, tick):
        block_txs = self._execute_pool(tick)
        block_txs.extend(self._target_payloads.pop(tick, ()))
        block = self.chain.append_block(block_txs)
        self.log.add_block(tick, block)
        for effect in self.contract.process_block_boundary(block.number):
            self.log.add(tick, harness.CONTRACT_ENDPOINT, effect[0], repr(effect).encode())
            if effect[0] == "withdrawn":
                self.metrics.withdrawals.append((tick, effect[1], effect[2]))
        active = [
            r for r in self.contract.providers.values() if r.status is ProviderStatus.ACTIVE
        ]
        stake = sum(r.stake for r in active)
        if stake > 0:
            self.metrics.sample_utilization(sum(r.locked for r in active), stake)
        total = sum(self.ledger.balances.values())
        if total != self.metrics.conservation_total and not self._conservation_broken:
            self._conservation_broken = True
            self.metrics.violations.append(f"conservation:tick{tick}")
        if tick % self.config.update_epoch_blocks == 0:
            self._check_predictions(tick // self.config.update_epoch_blocks)


class TestLeanTick:
    """A quiet tick appends and logs its block and reads the invariants
    only once their inputs have changed; the bytes are those of executing
    and sampling on every tick."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_golden_configs(self, name):
        assert golden_digests(golden_configs()[name], SampleEveryTick) == PINNED[name]

    @given(populations() | maintaining_populations())
    @settings(
        max_examples=40,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drawn_populations(self, config):
        assert outputs(Simulation(config)) == outputs(SampleEveryTick(config))

    def test_samples_follow_every_change_of_stake_or_locks(self):
        """Each tick whose block registers, starts a withdrawal, sells a
        policy or expires one starts a new run of samples, as in the
        reference; between them one run grows a tick at a time."""
        config = scaled_maintain()
        metrics, log = Simulation(config).run()
        assert metrics.utilization == SampleEveryTick(config).run()[0].utilization
        events = [line.split("\t") for line in log.lines]
        expiries = {int(tick) for tick, _, event, _ in events if event == "policy_expired"}
        changed = expiries | {
            int(tick)
            for tick, _, event, _ in events
            if event in ("tx-register-ok", "tx-withdraw-ok", "tx-buy_insurance-ok")
        }
        starts, tick = set(), 1
        for _, _, ticks in metrics.utilization:
            starts.add(tick)
            tick += ticks
        assert tick == config.total_ticks + 1
        assert len(expiries) >= 3
        assert changed == starts


class TestBlockLines:
    """Each tick, busy or quiet, logs one block line, and its digest is the
    first 8 bytes of the block's own header hash."""

    @given(populations() | maintaining_populations())
    @settings(
        max_examples=40,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drawn_populations(self, config):
        sim = Simulation(config)
        _, log = sim.run()
        fields = [line.split("\t") for line in log.lines]
        blocks = [
            (int(tick), digest) for tick, *event, digest in fields if event == ["chain", "block"]
        ]
        assert blocks == [
            (tick, sim.chain.blocks[tick].hash[:8].hex())
            for tick in range(1, config.total_ticks + 1)
        ]


class RecordStretches(Simulation):
    """Records each quiet stretch (first, stop) and each tick closed alone."""

    def __init__(self, config):
        super().__init__(config)
        self.stretches = []
        self.closed = []

    def _close_stretch(self, first, stop):
        self.stretches.append((first, stop))
        super()._close_stretch(first, stop)

    def _close_tick(self, tick):
        self.closed.append(tick)
        super()._close_tick(tick)


class TestStretches:
    """A tick with nothing due and no mail closes every tick before the next
    event in one pass; each kind of event ends the stretch at its tick,
    which is then closed alone, and the bytes are the reference's."""

    @staticmethod
    def run(config):
        sim = RecordStretches(config)
        assert outputs(sim) == outputs(SampleEveryTick(config))
        ticks = [t for first, stop in sim.stretches for t in range(first, stop)] + sim.closed
        assert sorted(ticks) == list(range(1, config.total_ticks + 1))
        return sim

    @staticmethod
    def ends(sim, tick):
        """Whether a stretch of more than one tick stops at `tick`, which
        is closed alone."""
        return tick in sim.closed and any(
            stop == tick and stop - first > 1 for first, stop in sim.stretches
        )

    @staticmethod
    def base():
        """One eco client from tick 51 (B_u = 25, delta 1, 144 ticks)."""
        return build_scenario(ProviderStrategy.HONEST, 1, 11, Protocol.ECO)

    def test_a_policy_expiry(self):
        config = golden_configs()["table3_10eth_ins"]
        sim = self.run(config)
        (expired,) = [
            int(line.split("\t")[0]) for line in sim.log.lines if "\tpolicy_expired\t" in line
        ]
        assert self.ends(sim, expired)

    def test_an_epoch_end_with_a_leaving_provider(self):
        base = self.base()
        b_u = base.update_epoch_blocks
        leaver = dataclasses.replace(base.providers[1], withdraw_tick=5)
        sim = self.run(dataclasses.replace(base, providers=(base.providers[0], leaver)))
        # The withdraw requested in epoch 0 is released at epoch 1's last
        # block; epoch 0's last block acts on the leaver too, releasing nothing.
        assert sim.metrics.withdrawals[0][0] == 2 * b_u - 1
        assert self.ends(sim, 2 * b_u - 1)
        assert self.ends(sim, b_u - 1)
        # With no provider leaving, epoch ends lie inside stretches.
        quiet = self.run(base)
        assert b_u - 1 not in quiet.closed and 2 * b_u - 1 not in quiet.closed

    def test_a_target_block(self):
        base = self.base()
        client = dataclasses.replace(base.clients[0], target_block=40)
        sim = self.run(dataclasses.replace(base, clients=(client,)))
        assert self.ends(sim, 40)

    def test_a_mail_arrival(self):
        # The providers register at tick 1, and their receipts take 4 ticks.
        config = build_scenario(
            ProviderStrategy.HONEST, 4, min_compliant_challenge_period(8, 4), Protocol.ECO, seed=1
        )
        sim = RecordStretches(config)
        assert {link_delay(sim, harness.CONTRACT_ENDPOINT, p.name) for p in sim.providers} == {4}
        sim = self.run(config)
        assert self.ends(sim, 5)

    def test_a_prediction_tick_with_a_maintaining_client(self):
        config = load("maintenance")
        b_u = config.update_epoch_blocks
        sim = self.run(config)
        assert sim.metrics.prediction_checks > 0
        epochs = [t for t in range(b_u, config.total_ticks + 1, b_u)]
        assert set(epochs) <= set(sim.closed)
        assert self.ends(sim, 2 * b_u)
        # Without a maintaining client no prediction is checked, and the
        # epochs' first ticks lie inside stretches.
        client = dataclasses.replace(config.clients[0], maintain=False)
        sim = self.run(dataclasses.replace(config, clients=(client,)))
        assert not set(epochs[2:]) & set(sim.closed)

    def test_total_ticks(self):
        config = golden_configs()["table3_10eth_eco"]
        sim = self.run(config)
        first, stop = sim.stretches[-1]
        assert stop == config.total_ticks + 1
        assert stop - first > 1000


class TestMessageCounts:
    def test_scaled_maintain_enqueues_by_type(self, monkeypatch):
        """Per-type message counts of the scaled maintain run. With standing
        requests each client asks each held provider once: 240 requests, was
        900 with one per held provider per epoch. Lists: 720, was 900. The 660
        non-empty lists of held providers are all still sent, none of the 240
        empty ones, and 60 more come from providers that have left a client's
        set but were asked before; the client drops those."""
        counts: dict[str, int] = {}
        enqueue_each = Simulation.enqueue_each

        def counted(sim, src, dsts, payload, *rest):
            dsts = list(dsts)
            name = type(payload).__name__
            counts[name] = counts.get(name, 0) + len(dsts)
            return enqueue_each(sim, src, dsts, payload, *rest)

        monkeypatch.setattr(Simulation, "enqueue_each", counted)
        Simulation(scaled_maintain()).run()
        assert counts == {
            "EventListMsg": 720,
            "EventListRequest": 240,
            "ForwardMsg": 114,
            "QueryMsg": 114,
            "ReceiptMsg": 34,
            "ResponseMsg": 114,
        }

    def test_each_held_provider_is_asked_once_then_pushes(self, monkeypatch):
        """Each held provider gets one request object per client, sent the
        first time the client opens an epoch holding it; from then on it
        answers every epoch unasked. Every held provider's non-empty list
        reaches the client at the tick the answer to a request sent at the
        epoch's fetch tick would, and none arrives for an empty epoch."""
        sent: list[tuple[int, str, str, object, int | None]] = []
        enqueue_each = Simulation.enqueue_each

        def recorded(sim, src, dsts, payload, asked=None):
            dsts = list(dsts)
            if isinstance(payload, (EventListRequest, EventListMsg)):
                sent.extend((sim.ctx.now, src, dst, payload, asked) for dst in dsts)
            return enqueue_each(sim, src, dsts, payload, asked)

        monkeypatch.setattr(Simulation, "enqueue_each", recorded)
        sim = Simulation(scaled_maintain())
        opened = []  # (client, epoch, tick, held provider names)
        run_maintenance = LightClientActor._run_maintenance

        def recorded_maintenance(client, now, ctx):
            before = client._maintenance
            run_maintenance(client, now, ctx)
            maintenance = client._maintenance
            if maintenance is not None and maintenance is not before:
                held = [sim.provider_names[pk] for pk in client.current_set()]
                opened.append((client.name, maintenance.epoch, now, held))

        monkeypatch.setattr(LightClientActor, "_run_maintenance", recorded_maintenance)
        sim.run()
        fetch = sim.config.t_fin + 1
        blocks = sim.config.update_epoch_blocks
        requests = [(tick, src, dst, msg) for tick, src, dst, msg, _ in sent if src[0] == "c"]
        lists = [entry for entry in sent if entry[1][0] == "p"]
        # Every open is on time, and each (client, provider) pair is asked once.
        assert opened and all(tick == epoch * blocks + fetch for _, epoch, tick, _ in opened)
        pairs = [(src, dst) for _, src, dst, _ in requests]
        assert len(pairs) == len(set(pairs)) == 240
        asked_at = {}
        for tick, src, dst, msg in requests:
            asked_at[src, dst] = tick
            # One request object per client and open, for the epoch before.
            assert msg.epoch == (tick - fetch) // blocks - 1
        assert len({id(msg) for *_, msg in requests}) == len(
            {(tick, src) for tick, src, _, _ in requests}
        )
        arrivals = {}
        for tick, src, dst, msg, asked in lists:
            assert msg.events
            # A reply leaves at once; a push leaves at the fetch tick and
            # arrives a round trip after it.
            at = tick + link_delay(sim, src, dst)
            if asked is not None:
                assert asked == tick == (tick - fetch) // blocks * blocks + fetch
                at += link_delay(sim, dst, src)
            arrivals.setdefault((dst, msg.epoch + 1), set()).add((src, at))
        provider_records = (codec.TAG_REGISTER, codec.TAG_WITHDRAW_REQUEST)
        with_records = 0
        for client, epoch, tick, held in opened:
            assert all(asked_at[client, name] <= tick for name in held)
            records = any(
                codec.record_tag(tx.payload) in provider_records
                for block in sim.chain.blocks[(epoch - 1) * blocks : epoch * blocks]
                for tx in block.transactions
            )
            got = {(src, at) for src, at in arrivals.get((client, epoch), ()) if src in held}
            answer = {
                (name, tick + link_delay(sim, client, name) + link_delay(sim, name, client))
                for name in held
            }
            assert got == (answer if records else set()), (client, epoch)
            with_records += records
        assert 0 < with_records < len(opened)


def collected_unions(monkeypatch, every_epoch: bool) -> dict:
    """Record the union each client collects for each epoch it opens. With
    `every_epoch`, the run is the reference: clients ask every held provider
    at every epoch's open and providers answer requests only."""
    unions = {}
    run_maintenance = LightClientActor._run_maintenance

    def recorded(client, now, ctx):
        if every_epoch:
            client._asked.clear()
        before = client._maintenance
        was_collected = before is not None and before.collected
        run_maintenance(client, now, ctx)
        maintenance = client._maintenance
        if maintenance is not None and maintenance.collected and not (
            maintenance is before and was_collected
        ):
            unions[client.name, maintenance.epoch, now] = sorted(maintenance.events)

    monkeypatch.setattr(LightClientActor, "_run_maintenance", recorded)
    if every_epoch:
        monkeypatch.setattr(DataProviderActor, "_push_event_lists", lambda self, now, ctx: None)
    return unions


@st.composite
def collection_edge_populations(draw) -> ScenarioConfig:
    """Maintaining populations whose clients go offline or come back just
    before or inside an epoch's event-list collection window, where the
    tick a list arrives decides whether the client has it."""
    config = draw(maintaining_populations())
    b_u, delta = config.update_epoch_blocks, config.delta_ticks
    clients = []
    for client in config.clients:
        fetch = draw(st.integers(1, 5)) * b_u + config.t_fin + 1
        edge = fetch + draw(st.integers(-1, 2 * delta + 2))
        length = draw(st.integers(0, 2 * delta + 2))
        offline = (edge, edge + length) if draw(st.booleans()) else (edge - length, edge)
        clients.append(dataclasses.replace(client, offline=offline))
    return dataclasses.replace(config, clients=tuple(clients))


def leaver_and_silent_provider() -> ScenarioConfig:
    """A client that holds only a silent provider (p1, wrong_hash) once the
    honest p0 has left, while p0, asked before, still answers: the client
    must not use p0's list, so it misses p2's registration as it would if
    it asked its held providers afresh."""
    base = load("maintenance")
    providers = (
        ProviderSpec(stake=eth_to_wei(40), strategy=ProviderStrategy.HONEST, withdraw_tick=40),
        ProviderSpec(stake=eth_to_wei(64), strategy=ProviderStrategy.WRONG_HASH),
        ProviderSpec(stake=eth_to_wei(24), strategy=ProviderStrategy.HONEST, register_tick=70),
    )
    return dataclasses.replace(base, providers=providers)


class TestStandingRequests:
    """Asking each provider once and letting it push is invisible: the run
    equals one in which every held provider is asked every epoch."""

    def assert_same_as_reference(self, monkeypatch, config) -> None:
        with monkeypatch.context() as patch:
            unions = collected_unions(patch, every_epoch=False)
            got = outputs(Simulation(config))
        with monkeypatch.context() as patch:
            reference_unions = collected_unions(patch, every_epoch=True)
            reference = outputs(Simulation(config))
        assert got == reference
        assert unions == reference_unions

    @given(maintaining_populations() | collection_edge_populations())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_same_run_as_asking_every_held_provider_every_epoch(self, monkeypatch, config):
        self.assert_same_as_reference(monkeypatch, config)

    @pytest.mark.parametrize("length", [0, 1, 3])
    @pytest.mark.parametrize("shift", range(-1, 5))
    def test_same_run_when_offline_at_the_collection_edges(self, monkeypatch, shift, length):
        """The maintenance client asks p0, p1 and p3 in epoch 2, then goes
        offline or comes back around epoch 3's fetch tick, 105. Epoch 2's
        lists, which carry the leaver's withdraw record, arrive at 107."""
        base = load("maintenance")
        begin = 3 * base.update_epoch_blocks + base.t_fin + 1 + shift
        client = dataclasses.replace(base.clients[0], offline=(begin, begin + length))
        self.assert_same_as_reference(monkeypatch, dataclasses.replace(base, clients=(client,)))

    def test_same_run_when_a_first_request_crosses_a_fetch_tick(self, monkeypatch):
        """T_fin = 1 and delta = 6: c0 starts on an epoch's last tick, asks
        its held providers at once, and requests that take more than 3 ticks
        arrive after the next fetch tick, whose push of the epoch carrying
        p2's registration they missed. Those providers send that list on
        arrival, timed as the push; without it c0 misses p2."""
        base = load("maintenance")
        delta, t_fin = 6, 1
        cp = t_fin + 2 * delta + 1
        b_u = cp + t_fin + 2 * delta
        client = dataclasses.replace(
            base.clients[0],
            challenge_period=cp,
            maintenance_challenge_period=None,
            start_tick=3 * b_u - 1,
            target_block=1,
        )
        providers = (
            ProviderSpec(stake=eth_to_wei(40)),
            ProviderSpec(stake=eth_to_wei(32)),
            ProviderSpec(stake=eth_to_wei(24), register_tick=2 * b_u + 3),
        )
        config = dataclasses.replace(
            base,
            seed=3,
            slots_per_epoch=1,
            finality_depth_epochs=1,
            delta_ticks=delta,
            max_challenge_period=cp,
            update_epoch_blocks=b_u,
            providers=providers,
            clients=(client,),
            total_ticks=6 * b_u,
        )
        late = []
        enqueue_each = Simulation.enqueue_each

        def recorded(sim, src, dsts, payload, asked=None):
            if asked is not None and asked < sim.ctx.now:
                late.extend((sim.ctx.now, src, dst, asked) for dst in dsts)
            return enqueue_each(sim, src, dsts, payload, asked)

        monkeypatch.setattr(Simulation, "enqueue_each", recorded)
        self.assert_same_as_reference(monkeypatch, config)
        fetch = 3 * b_u + t_fin + 1
        assert late and {asked for *_, asked in late} == {fetch}
        joiner = Simulation(config).providers[2].public_key
        with monkeypatch.context() as patch:
            sets = recorded_sets(patch)
            run_scenario(config)
        source, predicted = sets["c0", 5]
        assert source == "predicted" and joiner in predicted

    def test_lists_count_only_from_held_providers(self, monkeypatch):
        config = leaver_and_silent_provider()
        self.assert_same_as_reference(monkeypatch, config)
        metrics, _ = run_scenario(config)
        assert "prediction:c0@epoch4" in metrics.violations

    def omitting(self, monkeypatch, names: set[str], payload: bytes) -> None:
        """The named providers leave `payload` out of every list they send."""
        event_list = DataProviderActor._event_list

        def dropped(provider, epoch, ctx):
            msg = event_list(provider, epoch, ctx)
            if provider.name not in names:
                return msg
            return EventListMsg(msg.epoch, tuple(ev for ev in msg.events if ev[1] != payload))

        monkeypatch.setattr(DataProviderActor, "_event_list", dropped)

    def test_one_honest_list_protects_the_prediction(self, monkeypatch):
        """In the maintenance scenario the client holds base_a, base_b and
        the leaver (p0, p1, p3) when it fetches epoch 1's records, which
        register the joiner (p2). One provider omitting that record changes
        nothing; all three omitting it breaks the epoch 3 prediction."""
        config = load("maintenance")
        joiner = Simulation(config).providers[2]
        record = codec.register_record(joiner.public_key, joiner.stake)
        for omitters, violations in (
            (set(), []),
            ({"p0"}, []),
            ({"p1", "p3"}, []),
            # The missing joiner is carried into every later set.
            ({"p0", "p1", "p3"}, [f"prediction:c0@epoch{e}" for e in range(3, 8)]),
        ):
            with monkeypatch.context() as patch:
                self.omitting(patch, omitters, record)
                sets = recorded_sets(patch)
                metrics, _ = run_scenario(config)
            assert metrics.violations == violations, omitters
            assert (joiner.public_key in sets["c0", 3][1]) == (not violations)


class TestVerifyMemo:
    def test_each_simulation_has_its_own_memo(self, monkeypatch):
        real = crypto.verify
        calls = []
        monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or real(*args))
        config = load("wrong_hash")
        first = Simulation(config)
        first.run()
        first_calls = len(calls)
        second = Simulation(config)
        assert len(second.signatures) == 0
        second.run()
        # The second run checks every signature again.
        assert len(first.signatures) > 0
        assert len(second.signatures) == len(first.signatures)
        assert len(calls) == 2 * first_calls

    @pytest.mark.parametrize("name", scenario.list_builtin_scenarios())
    def test_protocol_counters_unchanged(self, monkeypatch, name):
        config = load(name)
        memoised, _ = run_scenario(config)
        monkeypatch.setattr(
            crypto.VerifyMemo, "verify", lambda self, pk, msg, sig: crypto.verify(pk, msg, sig)
        )
        plain, _ = run_scenario(config)
        assert memoised.to_dict() == plain.to_dict()
        assert sum(m.signature_verifications_total for m in memoised.clients.values()) > 0

    def test_repeats_are_served_from_the_memo(self, monkeypatch):
        real = crypto.verify
        calls = []
        requests = []
        memo_verify = crypto.VerifyMemo.verify
        monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(
            crypto.VerifyMemo,
            "verify",
            lambda self, *args: requests.append(args) or memo_verify(self, *args),
        )
        sim = Simulation(scaled_dispute_population())
        sim.run()
        requested = set(requests)
        # Clients and watchers ask again for what they checked before; each
        # distinct triple reaches the primitive once.
        assert len(requests) > len(requested) == len(sim.signatures)
        assert sorted(c for c in calls if c in requested) == sorted(requested)

    def test_slash_evidence_is_checked_through_the_memo(self, monkeypatch):
        """Three watchers submit the same evidence; the contract checks its
        signature once, and the losers are still rejected as AlreadySlashed."""
        real = crypto.verify
        calls = []
        monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or real(*args))
        sim = Simulation(dataclasses.replace(scaled_dispute(), watcher_count=3))
        metrics, log = sim.run()
        events = [line.split("\t")[2] for line in log.lines]
        assert events.count("tx-slash-ok") == metrics.slash_count == 2
        assert events.count("tx-SlashTx-AlreadySlashed") == 2
        assert len(calls) == len(set(calls)) == len(sim.signatures)

    def test_a_contract_built_alone_checks_with_crypto_verify(self, monkeypatch):
        calls = []
        monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or False)
        config = load("wrong_hash")
        contract = SlashingContract(config.contract_config(), Ledger(), config.pricing)
        evidence = SlashEvidence(bytes(32), 1, bytes(32), bytes(32), bytes(64))
        with pytest.raises(SlashRejected) as excinfo:
            contract.slash(evidence, Chain(), 1)
        assert excinfo.value.reason is RejectReason.SIGNATURE_INVALID
        assert calls == [(evidence.provider_pk, evidence.payload(), evidence.signature)]


class TestProviderViews:
    """Clients that read the same contract state share one read-only view
    of it, and what is computed from a view is computed once."""

    def test_one_view_per_contract_state(self):
        ledger = Ledger()
        contract = SlashingContract(
            ContractConfig(min_stake=ETH, update_epoch_blocks=8, max_challenge_period=4),
            ledger,
            PricingParams(),
        )
        metrics = Metrics()
        ctx = SimpleNamespace(
            oracle=HeavyCheckOracle(Chain(), contract, metrics), log=lambda *args: None
        )
        a, b, c = (crypto.keygen(seed).public_key for seed in (1, 2, 3))
        for pk in (a, b, c):
            ledger.mint(pk, 40 * ETH)
        contract.register(a, 32 * ETH, 1)
        contract.register(b, 16 * ETH, 1)
        for block in range(1, 17):
            contract.process_block_boundary(block)
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=1, target_value=ETH)
        first, second, third = (
            LightClientActor(f"c{i}", crypto.keygen(10 + i), config, 8, 1, 8) for i in range(3)
        )
        first.bootstrap(ctx, 17)
        second.bootstrap(ctx, 17)
        held = first.current_set()
        assert held == {a: 32 * ETH, b: 16 * ETH}
        assert second.current_set() is held
        assert second.attributable is first.attributable
        contract.register(c, 8 * ETH, 17)  # the state version moves
        third.bootstrap(ctx, 17)
        assert third.current_set() is not held and third.current_set() == held
        assert third.attributable is not first.attributable
        assert first.current_set() is held
        assert held == {a: 32 * ETH, b: 16 * ETH}
        assert all(metrics.client(name).heavy_checks == 1 for name in ("c0", "c1", "c2"))

    def test_each_view_pair_is_ranked_once(self, monkeypatch):
        ranks = []
        rank = light_client._rank
        monkeypatch.setattr(light_client, "_rank", lambda pairs: ranks.append(1) or rank(pairs))
        # (held view, capacities) of every selection, kept so ids stay unique.
        pairs: dict[tuple[int, int], tuple] = {}
        selections = []
        select = LightClientActor.select

        def recorded(client, use_attributable, value):
            held = client.current_set()
            capacities = client.attributable if use_attributable else held
            pairs.setdefault((id(held), id(capacities)), (held, capacities))
            selections.append(client.name)
            return select(client, use_attributable, value)

        monkeypatch.setattr(LightClientActor, "select", recorded)
        Simulation(scaled_maintain()).run()
        assert 0 < len(ranks) <= len(pairs) < len(selections)

    def test_no_view_outlives_its_last_holder(self, monkeypatch):
        """Every view still alive after a run is held by a client or by the
        oracle, or is cached on such a view."""
        made = []
        init = ProviderView.__init__

        def recorded(view, pairs=()):
            init(view, pairs)
            made.append(weakref.ref(view))

        monkeypatch.setattr(ProviderView, "__init__", recorded)
        sim = Simulation(scaled_maintain())
        sim.run()
        roots = list(sim.oracle._views[2:])
        for client in sim.clients:
            roots += [*client.sets.values(), client.attributable]
            if client._maintenance is not None:
                roots.append(client._maintenance.held)
        reachable: dict[int, ProviderView] = {}
        while roots:
            view = roots.pop()
            if id(view) not in reachable:
                reachable[id(view)] = view
                roots += (view._successors or {}).values()
                roots += [capacities for capacities, _ in view._by_capacity or ()]
        live = [view for view in (ref() for ref in made) if view is not None]
        assert len(live) < len(made)
        assert all(id(view) in reachable for view in live)


class TestResponseMemo:
    def test_scaled_maintain_signs_each_distinct_payload_once(self, monkeypatch):
        """Providers answer 114 queries: 26 distinct (secret key, payload)
        pairs, each signed once. Was 114 calls, one per answer sent. Clients
        sign no query."""
        calls = []
        real = crypto.sign
        monkeypatch.setattr(
            crypto, "sign", lambda sk, msg: calls.append((sk, msg)) or real(sk, msg)
        )
        Simulation(scaled_maintain()).run()
        assert len(calls) == len(set(calls)) == 26

    @given(populations() | maintaining_populations())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_same_run_as_building_every_answer_afresh(self, monkeypatch, config):
        got = outputs(Simulation(config))
        respond = actors.provider_respond
        with monkeypatch.context() as patch:
            patch.setattr(
                actors,
                "provider_respond",
                lambda strategy, query, chain, keypair, status, memo: respond(
                    strategy, query, chain, keypair, status
                ),
            )
            reference = outputs(Simulation(config))
        assert got == reference


class TestCacheAudit:
    """Each cache lcsim keeps must still pay: a cache that an outer layer
    has made dead shows here as one that never hits."""

    def test_every_kept_cache_still_hits(self, monkeypatch):
        """Each cache's method is wrapped from outside. A call that returns
        an answer without calling what the cache saves is a hit."""
        saved = Counter()  # calls of what the caches save
        calls = Counter()
        hits = Counter()

        def cache(owner, attr, name, *spares):
            """`name(*args)` names the cache a call of `owner.attr` reads, or
            is None when the call reads none; `spares` are the (owner, attr)
            that a hit does not call."""
            for spare in spares:
                spare_fn = getattr(*spare)

                def counted(*args, spare=spare, spare_fn=spare_fn):
                    saved[spare] += 1
                    return spare_fn(*args)

                monkeypatch.setattr(*spare, counted)
            fn = getattr(owner, attr)

            def wrapper(*args):
                which = name(*args)
                before = sum(saved[spare] for spare in spares)
                result = fn(*args)
                if which is not None and result is not None:
                    calls[which] += 1
                    hits[which] += sum(saved[spare] for spare in spares) == before
                return result

            monkeypatch.setattr(owner, attr, wrapper)

        cache(
            ProviderView,
            "ranking",
            lambda view, capacities: "ranking, own stakes"
            if capacities is view
            else "ranking, other capacities",
            (light_client, "_rank"),
        )
        cache(
            ProviderView,
            "successor",
            lambda view, events: "successor" if events else None,
            (light_client, "apply_epoch_events"),
        )
        cache(
            actors,
            "provider_respond",
            lambda *args: "response memo",
            (actors, "_fabricated_response"),
            (actors, "_true_response"),
        )
        cache(crypto.VerifyMemo, "verify", lambda *args: "VerifyMemo", (crypto, "verify"))
        cache(Chain, "inclusion_proof", lambda *args: "chain trees", (crypto, "merkle_levels"))
        cache(
            HeavyCheckOracle,
            "provider_set",
            lambda *args: "oracle views",
            (SlashingContract, "active_set"),
        )

        drive_checks = LightClientActor._drive_checks

        def skipping(client, now, ctx):
            closed = client.checks[: client._first_open]
            assert all(check.outcome is not None for check in closed)
            calls["_first_open"] += 1
            hits["_first_open"] += bool(closed)
            return drive_checks(client, now, ctx)

        monkeypatch.setattr(LightClientActor, "_drive_checks", skipping)

        folded: dict[SlashingContract, list[int]] = {}
        fold_epochs = SlashingContract._fold_epochs

        def folding(contract, members, first, last):
            folded.setdefault(contract, []).extend(range(first, last + 1))
            return fold_epochs(contract, members, first, last)

        monkeypatch.setattr(SlashingContract, "_fold_epochs", folding)

        for name in ("scaled_maintain", "scaled_insured", "grid_churn_100x100"):
            # The wrappers change nothing a run does.
            assert golden_digests(golden_configs()[name]) == PINNED[name]
        assert set(calls) == {
            "ranking, own stakes",
            "ranking, other capacities",
            "successor",
            "_first_open",
            "response memo",
            "VerifyMemo",
            "chain trees",
            "oracle views",
        }
        assert [name for name in calls if hits[name] == 0] == [], (hits, calls)
        # The running membership fold folds each epoch once: it never replays.
        assert folded and all(len(set(e)) == len(e) for e in folded.values())
