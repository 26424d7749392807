"""Provider selection, coverage sizing, event-set folding, and the client's
reject paths and lifecycle in whole runs."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import actors, codec, crypto, scenario
from lcsim.actors import Alert, AlertKind, ProviderStrategy, signed_event_list
from lcsim.contract import Receipt, RevertReason, fold_membership
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
    HeavyCheckCause,
    LightClientActor,
    NoEligibleProvidersError,
    Protocol,
    ProviderView,
    Stage,
    _Maintenance,
    apply_epoch_events,
    select_providers,
    verify_response,
)
from lcsim.pricing import CoverageInputs, eth_to_wei
from test_golden import configs as golden_configs

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

    snapshot: list[tuple[bytes, int]] = []

    def provider_set(self, client, cause, epoch=None):
        return (0, ProviderView(self.snapshot), frozenset())


class _Ctx:
    def __init__(self):
        self.oracle = _Oracle()

    def log(self, *args):
        pass


def candidate_select(client, value):
    """`select_providers` over the client's held set less its dropped
    providers, listed afresh on every call."""
    held = client.current_set()
    candidates = [(pk, stake) for pk, stake in held.items() if pk not in client.dropped]
    return select_providers(candidates, value)


_capacities = st.integers(0, 4).map(lambda n: n * 8 * ETH)
_snapshots = st.lists(st.tuples(st.sampled_from(pks(6)), _capacities), max_size=7)


class TestRankedSelection:
    """The client ranks its held set once and walks that order for each
    selection; every selection equals `select_providers` over a fresh
    candidate list."""

    @given(
        _snapshots,
        st.lists(
            st.one_of(
                st.tuples(st.just("select"), st.integers(1, 120)),
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
                value = action[1] * ETH
                assert outcome(client.select, value) == outcome(candidate_select, client, value)
            elif action[0] == "drop":
                client.dropped.add(action[1])
            else:
                ctx.oracle.snapshot = action[1]
                client.bootstrap(ctx, 1)


    def test_leaving_providers_are_passed_over(self):
        """A provider the last heavy read shows leaving is skipped by
        selections and purchases, as a dropped one is, while still held."""
        a, b, c = pks(3)
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=1, target_value=ETH)
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        ctx = _Ctx()
        ctx.oracle.snapshot = [(a, 32 * ETH), (b, 16 * ETH), (c, 8 * ETH)]
        client.bootstrap(ctx, 1)
        assert client.select(10 * ETH) == [(a, 10 * ETH)]
        client.leaving = frozenset({a})
        assert a in client.current_set()
        assert client.select(10 * ETH) == [(b, 10 * ETH)]
        assert client.select(20 * ETH) == [(b, 16 * ETH), (c, 4 * ETH)]
        assert list(client._eligible()) == [(b, 16 * ETH), (c, 8 * ETH)]
        client.dropped.add(b)
        assert client.select(8 * ETH) == [(c, 8 * ETH)]
        with pytest.raises(NoEligibleProvidersError):
            client.select(10 * ETH)


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

    @given(st.lists(st.tuples(st.sampled_from(pks(6)), _capacities)))
    @settings(max_examples=200, deadline=None)
    def test_ranking_is_the_selection_order(self, stakes):
        held = ProviderView(stakes)
        expected = [pk for pk, _ in sorted(held.items(), key=lambda item: (-item[1], item[0]))]
        assert held.ranking() == expected
        assert held.ranking() is held.ranking()


class TestEventListDelivery:
    """A list counts only while the held epoch's lists are collected, from a
    provider asked in the last round, while the client is online, and only
    when its root and signature check out; a list that counts is forwarded to
    every watcher."""

    def test_each_condition_decides(self):
        asked, other = crypto.keygen(2), crypto.keygen(3)
        record = (40, codec.register_record(other.public_key, ETH))
        good = signed_event_list(asked, 1, (record,))
        config = ClientConfig(
            protocol=Protocol.ECO, challenge_period=1, target_value=ETH, offline=(50, 60)
        )
        ctx = _Ctx()
        ctx.verify = crypto.verify
        ctx.watcher_names = ["w0", "w1"]
        cases = [  # (now, list, collected, counted)
            (45, good, False, True),
            (45, signed_event_list(other, 1, (record,)), False, False),  # not asked
            (45, signed_event_list(asked, 2, (record,)), False, False),  # another epoch's list
            (45, good, True, False),  # collection over
            (55, good, False, False),  # offline
            # Signed by another key, and records that are not the signed root's.
            (45, dataclasses.replace(good, provider_pk=other.public_key), False, False),
            (45, dataclasses.replace(good, events=()), False, False),
            (61, good, False, True),
        ]
        for now, msg, collected, counted in cases:
            client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
            maintenance = client._maintenance = _Maintenance(
                2, 41, asked=[asked.public_key], collected=collected
            )
            ctx.now = now
            forwards = []
            ctx.send_to_each = lambda src, dsts, payload: forwards.extend(
                (dst, payload) for dst in dsts
            )
            client.handle_message("p0", msg, ctx)
            assert maintenance.events == ({record} if counted else set())
            assert forwards == ([("w0", msg), ("w1", msg)] if counted else [])


class TestPredictionWait:
    """Once every selected provider's list is in, the prediction waits out
    the maintenance challenge period from the last list's arrival, and the
    client is woken for it."""

    def test_the_prediction_lands_a_challenge_period_after_the_last_list(self):
        a, b = crypto.keygen(2), crypto.keygen(3)
        joiner = crypto.keygen(4).public_key
        record = (40, codec.register_record(joiner, 8 * ETH))
        config = ClientConfig(
            protocol=Protocol.ECO,
            challenge_period=4,
            target_value=30 * ETH,
            maintain=True,
            maintenance_challenge_period=11,
            perform_check=False,
        )
        # 32-block epochs, delta 1, T_fin 8: epoch 2's fetch tick is 73.
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        client.sets[2] = ProviderView({a.public_key: 20 * ETH, b.public_key: 20 * ETH})
        client.bootstrap_epochs = [2]
        client._hold(2)
        ctx = _Ctx()
        ctx.verify = crypto.verify
        ctx.watcher_names = []
        ctx.send_to_each = lambda *args: None
        asked = []
        ctx.send_to_providers = lambda src, dsts, msg: asked.append((set(dsts), msg.epoch))
        arrivals = {74: a, 75: b}
        predicted_at = None
        for now in range(73, 97):
            ctx.now = now
            if now in arrivals:
                client.handle_message("p", signed_event_list(arrivals[now], 1, (record,)), ctx)
            client.on_tick(now, ctx)
            if now == 76:  # the round trip is over: every list is in
                assert client._maintenance.collected
                assert client.next_tick(now) == 75 + 11
            if predicted_at is None and 3 in client.sets:
                predicted_at = now
        assert asked == [({a.public_key, b.public_key}, 1)]
        assert predicted_at == 75 + 11
        assert client.sets[3] == {a.public_key: 20 * ETH, b.public_key: 20 * ETH, joiner: 8 * ETH}


class _CountingSet(set):
    """A set that counts its `update` calls."""

    updates = 0

    def update(self, *others):
        self.updates += 1
        super().update(*others)


class TestMergeOnce:
    """Each asked provider's list counts once; a shared events tuple is
    merged once, another tuple, equal or not, is merged again, and the union
    is the one merging every counted list gives."""

    KEYS = [crypto.keygen(20 + i) for i in range(4)]

    def deliver(self, lists):
        """Deliver (sender, events) lists of epoch 1, each signed by its
        sender, to a client collecting epoch 2's records that asked p0-p2;
        its maintenance record."""
        ctx = _Ctx()
        ctx.now = 45
        ctx.verify = crypto.verify
        ctx.watcher_names = []
        ctx.send_to_each = lambda *args: None
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=1, target_value=ETH)
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        asked = [key.public_key for key in self.KEYS[:3]]
        maintenance = client._maintenance = _Maintenance(2, 41, asked=asked)
        maintenance.events = _CountingSet()
        for sender, events in lists:
            key = self.KEYS[int(sender[1:])]
            client.handle_message(sender, signed_event_list(key, 1, events), ctx)
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
        # p1's list is the tuple just merged; p3 was not asked; p2's second
        # list does not count.
        assert maintenance.events.updates == 2
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
        counted, seen = [], set()
        for sender, events in lists:
            if sender != "p3" and sender not in seen:
                seen.add(sender)
                counted.append(events)
        assert maintenance.events == set().union(*counted)
        assert maintenance.listed == {self.KEYS[int(sender[1:])].public_key for sender in seen}
        # One merge per run of one tuple object among the counted lists.
        runs = sum(1 for i, ev in enumerate(counted) if i == 0 or ev is not counted[i - 1])
        assert maintenance.events.updates == runs


class TestVoidedPolicy:
    def test_a_confirmed_client_rebuys_when_an_allocation_is_dropped(self):
        """A provider backing the confirmed policy was dropped (its list
        request timed out, say): the client buys anew instead of querying
        the target, and its open checks are abandoned."""
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
        accepted = Check(CheckKind.INSURANCE_INCLUSION, 2, bytes(32), 4, ETH, query_tick=4)
        accepted.outcome = "accepted"
        client.checks = [accepted, inclusion]
        ctx = _Ctx()
        ctx.target_state_hash = lambda name: bytes(32)
        client._drive_protocol(6, ctx)
        assert client.stage is Stage.START
        assert inclusion.outcome == "abandoned"
        assert accepted.outcome == "accepted"  # a closed check keeps its outcome
        assert client.checks == [accepted, inclusion]  # no target check opened
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


class _HeavyCheckCtx(_Ctx):
    """Records the cause of each heavy check and the event of each log line;
    every slash proof verifies, and a provider-set read returns the snapshot
    the test set last."""

    def __init__(self, snapshot=()):
        super().__init__()
        self.oracle.snapshot = list(snapshot)
        self.metrics = Metrics()
        self.causes = []
        self.events = []
        read = self.oracle.provider_set

        def provider_set(client, cause, epoch=None):
            self.causes.append(cause)
            return read(client, cause, epoch)

        def verify_slash(client, cause, *proof):
            self.causes.append(cause)
            return True

        self.oracle.provider_set = provider_set
        self.oracle.verify_slash = verify_slash
        self.send_to_providers = lambda *args: None
        self.submit_tx = lambda *args: 1
        self.record_acceptance = lambda *args: None

    def log(self, actor, event, payload=b""):
        self.events.append(event)


def _alert(pk: bytes) -> Alert:
    return Alert(AlertKind.PROVIDER_SLASHED, pk, 1, bytes(32), None)


class TestPurchaseReceipt:
    """A purchase's receipt decides the policy: its allocations are the ones
    the contract made, and a revert, which means the candidates together
    are short, ends the client's attempt."""

    def bought(self):
        backer, other = pks(2)
        coverage = CoverageInputs(t_fin=8, challenge_periods=(4, 4))
        config = ClientConfig(
            protocol=Protocol.INS, challenge_period=4, target_value=ETH, coverage_inputs=coverage
        )
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        ctx = _HeavyCheckCtx([(backer, 32 * ETH), (other, 16 * ETH)])
        client.bootstrap(ctx, 1)
        client._buy(ctx)  # the purchase's token is 1
        return client, ctx, other

    def test_the_insured_query_goes_to_the_receipts_allocations(self):
        client, ctx, other = self.bought()
        receipt = Receipt(
            "buy_insurance",
            True,
            block_number=3,
            record_tx_id=bytes(32),
            insurance_id=7,
            allocations=((other, ETH),),
        )
        client._handle_receipt(1, receipt, 4, ctx)
        assert client.stage is Stage.CONFIRMING
        assert client._allocations == [(other, ETH)]
        target = Check(CheckKind.TARGET, 2, bytes(32), 4, ETH, insurance_id=7)
        assert client._select_for_check(target) == [other]

    def test_a_revert_gives_up_without_a_heavy_check(self):
        client, ctx, _ = self.bought()
        reason = RevertReason.INSUFFICIENT_ATTRIBUTABLE_STAKE.value
        client._handle_receipt(1, Receipt("BuyInsuranceTx", False, reason=reason), 4, ctx)
        assert client.stage is Stage.GAVE_UP
        assert ctx.causes == [HeavyCheckCause.BOOTSTRAP]
        assert ctx.events[-1] == "insurance_reverted"
        assert ctx.metrics.client("c0").rejected == 1


class TestAlerts:
    """An alert costs one heavy check (`verify_slash`) when it can still
    change what the client does next, and none otherwise."""

    def test_an_alert_after_acceptance_costs_no_heavy_check(self):
        liar, other = pks(2)
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=4, target_value=ETH)
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        ctx = _HeavyCheckCtx([(liar, 32 * ETH), (other, 32 * ETH)])
        client.bootstrap(ctx, 1)
        target = Check(CheckKind.TARGET, 2, bytes(32), 4, ETH, selected=[liar], query_tick=1)
        client.checks = [target]
        client._accept(target, 9, ctx)
        ctx.causes.clear()
        client._handle_alert(_alert(liar), 10, ctx)
        assert ctx.causes == []
        assert liar in client.dropped
        assert "alert" not in ctx.events
        assert client.stage is Stage.ACCEPTED

    def test_an_alert_on_an_open_economic_check_costs_one(self):
        liar, other = pks(2)
        config = ClientConfig(protocol=Protocol.ECO, challenge_period=4, target_value=ETH)
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        ctx = _HeavyCheckCtx([(liar, 32 * ETH), (other, 16 * ETH)])
        client.bootstrap(ctx, 1)
        client.stage = Stage.QUERYING
        target = Check(CheckKind.TARGET, 2, bytes(32), 4, ETH, query_tick=1)
        client.checks = [target]
        client._drive_checks(1, ctx)
        assert target.selected == [liar]
        ctx.causes.clear()
        client._handle_alert(_alert(liar), 5, ctx)
        assert ctx.causes == [HeavyCheckCause.ALERT]
        assert liar in client.dropped
        assert ctx.events.count("alert") == 1
        assert target.restarts == 1 and target.selected == [other]

    def test_an_alert_that_voids_the_policy_costs_one(self):
        """The provider backs the confirmed policy, which the target query
        has not used yet: the client checks the alert and buys anew."""
        backer, other = pks(2)
        coverage = CoverageInputs(t_fin=8, challenge_periods=(4, 4))
        config = ClientConfig(
            protocol=Protocol.INS, challenge_period=4, target_value=ETH, coverage_inputs=coverage
        )
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        ctx = _HeavyCheckCtx([(backer, 32 * ETH), (other, 16 * ETH)])
        client.bootstrap(ctx, 1)
        client.stage = Stage.CONFIRMED
        client._allocations = [(backer, ETH)]
        ctx.causes.clear()
        client._handle_alert(_alert(backer), 5, ctx)
        assert ctx.causes == [HeavyCheckCause.ALERT]
        assert backer in client.dropped
        assert ctx.events.count("alert") == 1
        assert client.stage is Stage.START
        assert ctx.metrics.client("c0").rejected == 1

    def test_a_repeat_purchase_the_held_set_cannot_back_gives_up(self):
        """A purchase names every held provider the client may still use,
        each with its held stake as the most it may back. Once the backer
        of a voided policy is dropped, the rest cannot back the value: the
        repeat purchase gives up without a heavy check."""
        backer, other = pks(2)
        coverage = CoverageInputs(t_fin=8, challenge_periods=(4, 4))
        config = ClientConfig(
            protocol=Protocol.INS,
            challenge_period=4,
            target_value=20 * ETH,
            coverage_inputs=coverage,
        )
        client = LightClientActor("c0", crypto.keygen(1), config, 32, 1, 8)
        ctx = _HeavyCheckCtx([(other, 16 * ETH), (backer, 32 * ETH)])
        submitted = []
        ctx.submit_tx = lambda name, tx: submitted.append(tx) or len(submitted)
        client.bootstrap(ctx, 1)
        client._buy(ctx)
        assert client.stage is Stage.BUYING
        assert submitted[0].allocations == ((backer, 32 * ETH), (other, 16 * ETH))
        assert submitted[0].coverage_value == 20 * ETH
        client.dropped.add(backer)
        client.stage = Stage.START
        client._buy(ctx)
        assert ctx.causes == [HeavyCheckCause.BOOTSTRAP]
        assert client.stage is Stage.GAVE_UP and len(submitted) == 1
        assert ctx.metrics.client("c0").rejected == 1

    def test_whole_runs(self):
        """In a bundled run the insured client's alert comes after it has
        accepted and costs nothing; the economic client's comes while its
        target check is open and costs one."""
        for name, by_cause, alerted in [
            ("insured", {"bootstrap": 1}, 0),
            ("wrong_hash", {"bootstrap": 1, "alert": 1}, 1),
        ]:
            sim = Simulation(scenario.load_scenario(scenario.builtin_scenario_path(name)))
            metrics, log = sim.run()
            liar = sim.providers[0]
            assert liar.strategy is ProviderStrategy.WRONG_HASH
            client = metrics.clients["c0"]
            assert client.heavy_checks_by_cause == by_cause
            assert client.heavy_checks == sum(by_cause.values())
            assert liar.public_key in sim.clients[0].dropped
            events = [line.split("\t")[1:3] for line in log.lines]
            assert events.count(["w0", "alert"]) == 1
            assert events.count(["c0", "alert"]) == alerted

    @pytest.mark.parametrize(
        "name", ["scaled_dispute", "scaled_insured", "delta3_ins", "delta4_eco", "exit_scam"]
    )
    def test_every_alert_of_a_golden_run(self, monkeypatch, name):
        """Each alert costs one heavy check exactly when an open check
        queried the provider or the provider backs the unused policy."""
        seen = []
        handle_alert = LightClientActor._handle_alert

        def counted(client, alert, now, ctx):
            pk = alert.offending_pk
            matters = client._policy_voided((pk,)) or any(
                check.outcome is None and pk in check.selected for check in client.checks
            )
            metrics = ctx.metrics.client(client.name)
            before = metrics.heavy_checks
            handle_alert(client, alert, now, ctx)
            seen.append(matters)
            assert metrics.heavy_checks - before == matters
            assert pk in client.dropped

        monkeypatch.setattr(LightClientActor, "_handle_alert", counted)
        Simulation(golden_configs()[name]).run()
        assert seen


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
        # Two watchers alert c2 at tick 77 about the same slashed provider,
        # which also served c2's list. The first has c2 read its next set,
        # and voids its policy; the second changes nothing. Neither must
        # stop the client from buying again.
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
        assert [line.split("\t")[0] for line in alerts] == ["77"]
        assert metrics.clients["c2"].heavy_checks_by_cause["alert"] == 2
        assert _purchases(log, "c2") == 2
        assert metrics.clients["c2"].accepted == 1
