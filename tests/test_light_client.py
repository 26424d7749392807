"""Provider selection, coverage sizing, event-set folding, and the client's
reject paths and lifecycle in whole runs."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import actors, codec, crypto, scenario
from lcsim.actors import ProviderStrategy
from lcsim.contract import fold_membership
from lcsim.harness import (
    Metrics,
    ProviderSpec,
    Simulation,
    build_scenario,
    min_compliant_challenge_period,
)
from lcsim.light_client import (
    Check,
    CheckKind,
    ClientConfig,
    LightClientActor,
    NoEligibleProvidersError,
    Protocol,
    ProviderView,
    Stage,
    _Maintenance,
    apply_epoch_events,
    provider_views,
    select_providers,
    verify_response,
)
from lcsim.messages import EventListMsg
from lcsim.pricing import CoverageInputs, eth_to_wei

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


class _Oracle:
    """Heavy checks that return fresh views of whatever snapshot the test
    set last."""

    snapshot: list[tuple[bytes, int, int]] = []

    def provider_set(self, client, epoch=None):
        return (0, *provider_views(self.snapshot))


class _Ctx:
    def __init__(self):
        self.oracle = _Oracle()

    def log(self, *args):
        pass


def candidate_select(client, use_attributable, value):
    """`select_providers` over the client's held set less its dropped
    providers, listed afresh on every call."""
    held = client.current_set()
    capacities = client.attributable if use_attributable else held
    candidates = [
        (pk, capacities.get(pk, stake)) for pk, stake in held.items() if pk not in client.dropped
    ]
    return select_providers(candidates, value)


_capacities = st.integers(0, 4).map(lambda n: n * 8 * ETH)
_snapshots = st.lists(st.tuples(st.sampled_from(pks(6)), _capacities, _capacities), max_size=7)


class TestRankedSelection:
    """The client ranks its held set once and walks that order for each
    selection; every selection equals `select_providers` over a fresh
    candidate list."""

    @given(
        _snapshots,
        st.lists(
            st.one_of(
                st.tuples(st.just("select"), st.booleans(), st.integers(1, 120)),
                st.tuples(st.just("drop"), st.sampled_from(pks(6))),
                st.tuples(st.just("bootstrap"), _snapshots),
            ),
            max_size=25,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_select_providers(self, snapshot, actions):
        """Ties, zero capacities, a growing dropped set and bootstraps that
        replace the held set."""
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=1, target_value=ETH)
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        ctx = _Ctx()
        ctx.oracle.snapshot = snapshot
        client.bootstrap(ctx, 1)
        for action in actions:
            if action[0] == "select":
                _, use_attributable, value = action
                assert outcome(client.select, use_attributable, value * ETH) == outcome(
                    candidate_select, client, use_attributable, value * ETH
                )
            elif action[0] == "drop":
                client.dropped.add(action[1])
            else:
                ctx.oracle.snapshot = action[1]
                client.bootstrap(ctx, 1)


    def test_stake_and_attributable_orders_are_kept_apart(self):
        a, b = pks(2)
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=1, target_value=ETH)
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        ctx = _Ctx()
        ctx.oracle.snapshot = [(a, 32 * ETH, 8 * ETH), (b, 16 * ETH, 16 * ETH)]
        client.bootstrap(ctx, 1)
        for _ in range(2):
            assert client.select(True, ETH) == [(b, ETH)]
            assert client.select(False, ETH) == [(a, ETH)]
        client.dropped.add(a)
        assert client.select(False, 16 * ETH) == [(b, 16 * ETH)]
        with pytest.raises(NoEligibleProvidersError):
            client.select(False, 20 * ETH)


_records = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.one_of(
            st.tuples(st.sampled_from(pks(5)), _capacities).map(
                lambda pair: codec.register_record(pair[0], pair[1] + ETH)
            ),
            st.sampled_from(pks(5)).map(codec.withdraw_record),
        ),
    ),
    max_size=8,
)


class TestProviderView:
    def test_every_change_raises(self):
        a, b = pks(2)
        view = ProviderView({a: ETH})
        with pytest.raises(TypeError):
            view[b] = ETH
        with pytest.raises(TypeError):
            del view[a]
        with pytest.raises(TypeError):
            view |= {b: ETH}
        for change in (
            lambda: view.update({b: ETH}),
            lambda: view.setdefault(b, ETH),
            lambda: view.pop(a),
            view.popitem,
            view.clear,
        ):
            with pytest.raises(TypeError):
                change()
        assert view == {a: ETH} and type(dict(view)) is dict

    @given(
        st.lists(st.tuples(st.sampled_from(pks(5)), _capacities.map(lambda c: c + ETH))),
        _records,
    )
    @settings(max_examples=200, deadline=None)
    def test_successor_is_apply_epoch_events(self, pairs, events):
        view = ProviderView(pairs)
        plain = dict(pairs)
        successor = view.successor(tuple(events))
        assert type(successor) is ProviderView
        assert successor == apply_epoch_events(plain, events)
        assert view.successor(tuple(events)) is successor  # computed once
        assert view == plain  # the view itself is unchanged
        assert view.successor(()) is view

    @given(
        st.lists(st.tuples(st.sampled_from(pks(6)), _capacities)),
        st.lists(st.tuples(st.sampled_from(pks(6)), _capacities)),
    )
    @settings(max_examples=200, deadline=None)
    def test_ranking_is_the_selection_order(self, stakes, attributable):
        held, capacities = ProviderView(stakes), ProviderView(attributable)
        for caps in (held, capacities):
            expected = [
                pk
                for pk, _ in sorted(
                    ((pk, caps.get(pk, stake)) for pk, stake in held.items()),
                    key=lambda item: (-item[1], item[0]),
                )
            ]
            assert held.ranking(caps) == expected
            assert held.ranking(caps) is held.ranking(caps)


class TestEventListDelivery:
    """A list counts only while the held epoch's lists are collected, from a
    provider held when it opened, and while the client is online."""

    def test_each_condition_decides(self):
        held_pk, other_pk = pks(2)
        record = (40, codec.register_record(other_pk, ETH))
        config = ClientConfig(
            protocol=Protocol.ECO, challenge_period=1, target_value=ETH, offline=(50, 60)
        )
        ctx = _Ctx()
        ctx.provider_keys = {"p0": held_pk, "p1": other_pk}
        cases = [  # (now, sender, list epoch, collected, counted)
            (45, "p0", 1, False, True),
            (45, "p1", 1, False, False),  # not held
            (45, "p0", 2, False, False),  # another epoch's list
            (45, "p0", 1, True, False),  # collection over
            (55, "p0", 1, False, False),  # offline
            (61, "p0", 1, False, True),
        ]
        for now, sender, epoch, collected, counted in cases:
            client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
            maintenance = client._maintenance = _Maintenance(
                2, 41, ProviderView({held_pk: 8 * ETH}), collected=collected
            )
            ctx.now = now
            client.handle_message(sender, EventListMsg(epoch=epoch, events=(record,)), ctx)
            assert maintenance.events == ({record} if counted else set())


class _CountingSet(set):
    """A set that counts its `update` calls."""

    updates = 0

    def update(self, *others):
        self.updates += 1
        super().update(*others)


class TestMergeOnce:
    """A shared events tuple is merged once; another tuple, equal or not,
    is merged again, and the union is the one merging every list gives."""

    def deliver(self, lists):
        """Deliver (sender, events) lists of epoch 1 to a client collecting
        epoch 2's records and holding p0-p2; its maintenance record."""
        held = pks(3)
        ctx = _Ctx()
        ctx.now = 45
        ctx.provider_keys = {f"p{i}": pk for i, pk in enumerate(pks(4))}
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=1, target_value=ETH)
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        maintenance = client._maintenance = _Maintenance(
            2, 41, ProviderView({pk: 8 * ETH for pk in held})
        )
        maintenance.events = _CountingSet()
        for sender, events in lists:
            client.handle_message(sender, EventListMsg(epoch=1, events=events), ctx)
        return maintenance

    def records(self, n):
        return tuple((33 + i, codec.register_record(bytes([9 + i]) * 32, ETH)) for i in range(n))

    def test_shared_tuple_once_other_tuples_again(self):
        shared = self.records(3)
        copy = tuple(list(shared))  # equal, another object
        omitting = shared[1:]
        assert copy == shared and copy is not shared
        maintenance = self.deliver(
            [("p0", shared), ("p1", shared), ("p2", copy), ("p3", omitting), ("p2", shared)]
        )
        # p1's list is the tuple just merged; p3 is not held.
        assert maintenance.events.updates == 3
        assert maintenance.events == set(shared)

    @given(
        st.lists(st.tuples(st.sampled_from(["p0", "p1", "p2", "p3"]), st.integers(0, 3))),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_same_union_as_merging_every_list(self, deliveries):
        full = self.records(4)
        # The shared tuple, an equal copy, and two omitting lists.
        tuples = [full, tuple(list(full)), full[1:], full[:2]]
        lists = [(sender, tuples[k]) for sender, k in deliveries]
        maintenance = self.deliver(lists)
        counted = [events for sender, events in lists if sender != "p3"]
        assert maintenance.events == set().union(*counted)
        # One merge per run of one tuple object among the counted lists.
        runs = sum(1 for i, ev in enumerate(counted) if i == 0 or ev is not counted[i - 1])
        assert maintenance.events.updates == runs


class TestOpenChecks:
    """Accepting a check moves the client past the closed checks at the head
    of `checks`, and the loops that pass over closed checks start there."""

    def test_loops_skip_the_closed_prefix(self):
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=4, target_value=ETH)
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        client.bootstrap_epochs = [0]
        client.current_epoch_held = 0
        client.stage = Stage.QUERYING
        ctx = _Ctx()
        ctx.metrics = Metrics()
        checks = [
            Check(CheckKind.EPOCH_EVENT, 1, bytes(32), 4, ETH, query_tick=t) for t in range(12)
        ]
        client.checks = list(checks)
        for check in checks[:9] + checks[10:]:
            client._accept(check, 5, ctx)
        assert client._first_open == 9
        assert client.checks == checks  # the closed checks are kept
        # No loop reads the closed prefix.
        client.checks[:9] = [None] * 9
        assert client.next_tick(5) == 9
        client._drive_checks(5, ctx)
        response = SimpleNamespace(provider_pk=bytes(32))
        client._handle_response(response, 5, ctx)
        client._rebuy_policy()
        assert checks[9].outcome is None
        # A check closed elsewhere is passed at the next acceptance.
        checks[9].outcome = "abandoned"
        client.checks.append(Check(CheckKind.EPOCH_EVENT, 1, bytes(32), 4, ETH, query_tick=7))
        client._accept(client.checks[-1], 7, ctx)
        assert client._first_open == 13


class TestVoidedPolicy:
    def test_a_confirmed_client_rebuys_when_an_allocation_is_dropped(self):
        """A provider backing the confirmed policy was dropped (a record
        check timed out through it, say): the client buys anew instead of
        querying the target, and its open non-record checks are abandoned."""
        coverage = CoverageInputs(t_fin=8, challenge_periods=(4, 4))
        config = ClientConfig(
            protocol=Protocol.INS, challenge_period=4, target_value=ETH, coverage_inputs=coverage
        )
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        backer, other = pks(2)
        client.bootstrap_epochs = [0]
        client.stage = Stage.CONFIRMED
        client._allocations = [(backer, ETH)]
        client.dropped.add(backer)
        inclusion = Check(CheckKind.INSURANCE_INCLUSION, 3, bytes(32), 4, ETH, query_tick=5)
        record = Check(CheckKind.EPOCH_EVENT, 4, bytes(32), 4, ETH, query_tick=5)
        client.checks = [inclusion, record]
        ctx = _Ctx()
        ctx.target_state_hash = lambda name: bytes(32)
        client._drive_protocol(6, ctx)
        assert client.stage is Stage.START
        assert inclusion.outcome == "abandoned"
        assert record.outcome is None
        assert client.checks == [inclusion, record]  # no target check opened
        # With `other` dropped instead, the policy stands and the target is queried.
        client.stage = Stage.CONFIRMED
        client.dropped = {other}
        client._drive_protocol(7, ctx)
        assert client.stage is Stage.QUERYING
        assert client.checks[-1].kind is CheckKind.TARGET


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
