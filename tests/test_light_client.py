"""Provider selection, coverage sizing, event-set folding, and the client's
reject paths and lifecycle in whole runs."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import actors, codec, scenario
from lcsim.actors import ProviderStrategy
from lcsim.contract import fold_membership
from lcsim.harness import (
    ProviderSpec,
    Simulation,
    build_scenario,
    min_compliant_challenge_period,
)
from lcsim.light_client import (
    CheckKind,
    LightClientActor,
    NoEligibleProvidersError,
    Protocol,
    apply_epoch_events,
    required_coverage,
    select_providers,
    verify_response,
)
from lcsim.pricing import eth_to_wei

ETH = eth_to_wei(1)


def pks(n):
    return [bytes([i]) * 32 for i in range(n)]


class TestSelectProviders:
    def test_single_provider_trimmed_allocation(self):
        (pk,) = pks(1)
        assert select_providers([(pk, 32 * ETH)], 10 * ETH) == [(pk, 10 * ETH)]

    def test_five_providers_for_160_eth(self):
        pool = [(pk, 32 * ETH) for pk in pks(8)]
        chosen = select_providers(pool, 160 * ETH)
        assert len(chosen) == 5
        assert sum(a for _, a in chosen) == 160 * ETH
        assert all(a == 32 * ETH for _, a in chosen)

    def test_ten_providers_for_320_eth(self):
        pool = [(pk, 32 * ETH) for pk in pks(12)]
        assert len(select_providers(pool, 320 * ETH)) == 10

    def test_insufficient_backing(self):
        pool = [(pk, 32 * ETH) for pk in pks(9)]
        pool.append((bytes([99]) * 32, 31 * ETH))  # total 319
        with pytest.raises(NoEligibleProvidersError):
            select_providers(pool, 320 * ETH)

    def test_greedy_prefers_largest(self):
        a, b = bytes([1]) * 32, bytes([2]) * 32
        chosen = select_providers([(a, 8 * ETH), (b, 64 * ETH)], 10 * ETH)
        assert chosen == [(b, 10 * ETH)]

    def test_lexicographic_tie_break(self):
        a, b = bytes([1]) * 32, bytes([2]) * 32
        chosen = select_providers([(b, 32 * ETH), (a, 32 * ETH)], 10 * ETH)
        assert chosen == [(a, 10 * ETH)]

    def test_last_allocation_is_exact_remainder(self):
        pool = [(pk, 32 * ETH) for pk in pks(3)]
        chosen = select_providers(pool, 50 * ETH)
        assert [a for _, a in chosen] == [32 * ETH, 18 * ETH]

    def test_zero_backing_rejected(self):
        with pytest.raises(ValueError):
            select_providers([(bytes(32), ETH)], 0)

    def test_empty_pool(self):
        with pytest.raises(NoEligibleProvidersError):
            select_providers([], ETH)

    def test_count_minimal_against_brute_force(self):
        # Greedy-by-largest must use as few providers as any subset that
        # covers the value; brute force over all subsets of small pools.
        import itertools
        import random

        rng = random.Random(13)
        for _ in range(40):
            pool = [
                (bytes([i]) * 32, rng.randrange(1, 64) * ETH) for i in range(rng.randrange(1, 7))
            ]
            total = sum(c for _, c in pool)
            value = rng.randrange(1, total + 1)
            chosen = select_providers(pool, value)
            assert sum(a for _, a in chosen) == value
            best = min(
                (
                    len(subset)
                    for r in range(1, len(pool) + 1)
                    for subset in itertools.combinations(pool, r)
                    if sum(c for _, c in subset) >= value
                ),
            )
            assert len(chosen) == best


def reference_select(providers, required_backing):
    """`select_providers` as it was written first: one sort on a Python
    (-capacity, pk) key."""
    if required_backing <= 0:
        raise ValueError("required_backing must be positive")
    ordered = sorted(providers, key=lambda item: (-item[1], item[0]))
    chosen = []
    remaining = required_backing
    for pk, capacity in ordered:
        if capacity <= 0:
            continue
        take = min(capacity, remaining)
        chosen.append((pk, take))
        remaining -= take
        if remaining == 0:
            return chosen
    raise NoEligibleProvidersError("short")


def outcome(select, *args):
    try:
        return select(*args)
    except NoEligibleProvidersError:
        return "short"


class TestSelectionOrder:
    @given(
        st.lists(
            st.tuples(st.sampled_from(pks(6)), st.integers(0, 6).map(lambda n: n * 8 * ETH)),
            max_size=8,
        ),
        st.integers(1, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sorting_on_a_key(self, pool, value):
        """Equal capacities and repeated keys included."""
        assert outcome(select_providers, pool, value * ETH) == outcome(
            reference_select, pool, value * ETH
        )


class TestRequiredCoverage:
    def test_overlapping_checks_sum(self):
        checks = [(0, 100, 10 * ETH), (50, 150, 7 * ETH)]
        assert required_coverage(checks) == 17 * ETH

    def test_disjoint_checks_take_max(self):
        checks = [(0, 100, 10 * ETH), (200, 300, 7 * ETH)]
        assert required_coverage(checks) == 10 * ETH

    def test_nested_windows(self):
        checks = [(0, 300, 5 * ETH), (100, 150, 2 * ETH), (120, 130, 1 * ETH)]
        assert required_coverage(checks) == 8 * ETH

    def test_empty(self):
        assert required_coverage([]) == 0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            required_coverage([(10, 5, ETH)])


class TestApplyEpochEvents:
    def test_register_and_withdraw_fold(self):
        a, b = bytes([1]) * 32, bytes([2]) * 32
        base = {a: 32 * ETH}
        events = [
            (5, codec.register_record(b, 16 * ETH)),
            (7, codec.withdraw_record(a)),
        ]
        assert apply_epoch_events(base, events) == {b: 16 * ETH}

    def test_order_is_by_block_number(self):
        a = bytes([1]) * 32
        events = [
            (9, codec.withdraw_record(a)),
            (3, codec.register_record(a, 10 * ETH)),
        ]
        assert apply_epoch_events({}, events) == {}

    def test_base_set_not_mutated(self):
        a = bytes([1]) * 32
        base = {a: 2 * ETH}
        apply_epoch_events(base, [(1, codec.withdraw_record(a))])
        assert base == {a: 2 * ETH}

    def test_insurance_and_slash_records_leave_the_set(self):
        a, b = bytes([1]) * 32, bytes([2]) * 32
        base = {a: 32 * ETH, b: 16 * ETH}
        events = [
            (3, codec.insurance_record(1, bytes([9]) * 32, 5 * ETH, 3, 40, [(a, 5 * ETH)])),
            (4, codec.slash_record(b, 2, bytes(32), 16 * ETH, 1, bytes(64))),
        ]
        assert apply_epoch_events(base, events) == base
        assert fold_membership(dict(base), [payload for _, payload in events]) == base

    def test_fold_membership_mutates_in_place(self):
        a, b = bytes([1]) * 32, bytes([2]) * 32
        members = {a: 32 * ETH}
        records = [codec.register_record(b, 16 * ETH), codec.withdraw_record(a)]
        assert fold_membership(members, records) is members
        assert members == {b: 16 * ETH}


# -- the client in whole runs ---------------------------------------------------


def _purchases(log, client: str) -> int:
    return sum(1 for line in log.lines if line.split("\t")[1:3] == [client, "buy_insurance"])


def _tamper_provider(monkeypatch, bad_pk: bytes, insured_only: bool) -> None:
    """Flip one byte of every signature the provider `bad_pk` sends (only on
    insured target queries when `insured_only`); every other field stays."""
    honest_respond = actors.provider_respond

    def respond(strategy, query, chain, keypair, *args):
        response = honest_respond(strategy, query, chain, keypair, *args)
        if response is None or keypair.public_key != bad_pk:
            return response
        if insured_only and query.insurance_id is None:
            return response
        signature = bytes([response.signature[0] ^ 1]) + response.signature[1:]
        return dataclasses.replace(response, signature=signature)

    monkeypatch.setattr(actors, "provider_respond", respond)


class TestRejectPaths:
    """No provider strategy sends a response that fails the client's local
    checks, so these runs plant one: the larger of two honest providers,
    which greedy selection asks first, signs with a flipped byte."""

    def _run(self, monkeypatch, protocol: Protocol, insured_only: bool = False):
        cp = min_compliant_challenge_period(8, 2)
        config = build_scenario(ProviderStrategy.HONEST, 2, cp, protocol, seed=5)
        sim = Simulation(config)
        bad, good = (provider.public_key for provider in sim.providers)
        _tamper_provider(monkeypatch, bad, insured_only)
        _, log = sim.run()
        client = sim.clients[0]
        (target,) = [
            c for c in client.checks if c.kind is CheckKind.TARGET and c.outcome == "accepted"
        ]
        return sim, log, client, target, bad, good

    def test_economic_client_restarts_and_accepts_through_the_honest_provider(
        self, monkeypatch
    ):
        sim, _, client, target, bad, good = self._run(monkeypatch, Protocol.ECO)
        assert sim.metrics.clients["c0"].accepted == 1
        assert target.restarts == 1
        assert bad in client.dropped
        assert target.selected == [good]
        assert all(verify_response(target, r) for r in target.responses.values())
        assert len(sim.metrics.acceptances) == 1
        assert not sim.metrics.incorrect_acceptances()

    def test_insured_client_rejects_the_target_rebuys_and_accepts(self, monkeypatch):
        sim, log, client, target, bad, good = self._run(
            monkeypatch, Protocol.INS, insured_only=True
        )
        assert sim.metrics.clients["c0"].accepted == 1
        assert bad in client.dropped
        (abandoned,) = [
            c for c in client.checks if c.kind is CheckKind.TARGET and c.outcome == "abandoned"
        ]
        assert abandoned.restarts == 1
        assert abandoned.selected == [bad]
        assert target.selected == [good]
        assert _purchases(log, "c0") == 2


class TestTimeouts:
    def test_a_rebuy_requeries_the_timed_out_record_check(self):
        """An insured maintaining client checks epoch 1's register record at
        tick 62 through the unresponsive p1, which also backs its policy.
        The timeout at 65 voids the policy: the client buys again and queries
        the record check afresh at once, so it times out once, not again at
        66, and counts one rejection."""
        base = build_scenario(
            ProviderStrategy.HONEST, 1, min_compliant_challenge_period(8, 1), Protocol.INS, seed=0
        )
        providers = (
            ProviderSpec(stake=eth_to_wei(20), strategy=ProviderStrategy.HONEST),
            ProviderSpec(stake=eth_to_wei(20), strategy=ProviderStrategy.UNRESPONSIVE),
            ProviderSpec(stake=eth_to_wei(8), strategy=ProviderStrategy.HONEST, register_tick=25),
        )
        client = dataclasses.replace(
            base.clients[0], target_value=ETH, target_block=1, start_tick=54, maintain=True
        )
        sim = Simulation(dataclasses.replace(base, providers=providers, clients=(client,)))
        metrics, log = sim.run()
        events = [line.split("\t")[:3] for line in log.lines if line.split("\t")[1] == "c0"]
        assert [tick for tick, _, event in events if event == "timeout"] == ["65"]
        assert ["66", "c0", "buy_insurance"] in events
        assert metrics.clients["c0"].rejected == 1
        (record_check,) = [c for c in sim.clients[0].checks if c.kind is CheckKind.EPOCH_EVENT]
        assert record_check.restarts == 1
        assert record_check.query_tick == 65
        assert record_check.outcome == "accepted"


class TestLifecycle:
    @pytest.mark.parametrize(
        "name, walk",
        [
            ("honest", ["START", "QUERYING", "ACCEPTED"]),
            ("insured", ["START", "BUYING", "CONFIRMING", "CONFIRMED", "QUERYING", "ACCEPTED"]),
        ],
    )
    def test_bundled_scenario_walks_the_stages_in_order(self, monkeypatch, name, walk):
        stages = []

        def recording(method):
            def wrapper(self, *args):
                if not stages:
                    stages.append(self.stage)
                method(self, *args)
                if stages[-1] is not self.stage:
                    stages.append(self.stage)

            return wrapper

        for method in ("on_tick", "handle_message"):
            monkeypatch.setattr(
                LightClientActor, method, recording(getattr(LightClientActor, method))
            )
        sim = Simulation(scenario.load_scenario(scenario.builtin_scenario_path(name)))
        sim.run()
        assert [stage.name for stage in stages] == walk
        assert sim.clients[0].stage.name == "ACCEPTED"

    def test_second_alert_in_a_tick_does_not_strand_an_insured_client(self):
        # Two watchers alert c2 at tick 77 about the same slashed provider.
        # The first voids its policy; the second restarts its epoch-event
        # check, which must not stop the client from buying again.
        cp = min_compliant_challenge_period(8, 2)
        eco = build_scenario(ProviderStrategy.HONEST, 2, cp, Protocol.ECO, seed=997588)
        ins = build_scenario(ProviderStrategy.HONEST, 2, cp, Protocol.INS, seed=997588)
        rows = [  # template, value ETH, target_block, start_tick, maintain, offline
            (ins, 36, 8, 23, True, None),
            (eco, 36, 12, 61, True, None),
            (ins, 4, 25, 59, True, (111, 141)),
            (ins, 35, 23, 21, False, (58, 112)),
            (ins, 35, 3, 71, False, None),
        ]
        clients = tuple(
            dataclasses.replace(
                template.clients[0],
                target_value=eth_to_wei(value),
                target_block=block,
                start_tick=start,
                maintain=maintain,
                perform_check=True,
                offline=offline,
            )
            for template, value, block, start, maintain, offline in rows
        )
        providers = (
            ProviderSpec(stake=eth_to_wei(59), strategy=ProviderStrategy.HONEST),
            ProviderSpec(
                stake=eth_to_wei(24), strategy=ProviderStrategy.EXIT_SCAM, register_tick=35
            ),
            ProviderSpec(
                stake=eth_to_wei(64), strategy=ProviderStrategy.EXIT_SCAM, register_tick=2
            ),
        )
        config = dataclasses.replace(
            eco, providers=providers, clients=clients, watcher_count=2, total_ticks=174
        )
        sim = Simulation(config)
        metrics, log = sim.run()
        alerts = [line for line in log.lines if line.split("\t")[1:3] == ["c2", "alert"]]
        assert [line.split("\t")[0] for line in alerts] == ["77", "77"]
        assert _purchases(log, "c2") == 2
        assert metrics.clients["c2"].accepted == 1
