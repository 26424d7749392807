"""Provider strategies and watcher verdicts against a real chain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import codec, crypto
from lcsim.actors import (
    DataProviderActor,
    ProviderStrategy,
    Query,
    Verdict,
    provider_respond,
    watcher_check,
)
from lcsim.chain import Chain, Transaction
from lcsim.contract import (
    MEMBERSHIP_TAGS,
    ContractConfig,
    Ledger,
    ProviderStatus,
    SlashingContract,
)
from lcsim.light_client import Check, CheckKind, verify_response
from lcsim.messages import EventListMsg, EventListRequest, QueryMsg, fetch_tick
from lcsim.pricing import PricingParams, eth_to_wei

ETH = eth_to_wei(1)


@pytest.fixture
def env():
    chain = Chain()  # finality depth 8
    target = Transaction.create(b"the-target-state", value=10 * ETH)
    chain.append_block([])
    chain.append_block([target])  # block 2
    ledger = Ledger()
    contract = SlashingContract(
        ContractConfig(min_stake=ETH, update_epoch_blocks=16, max_challenge_period=4),
        ledger,
        PricingParams(),
    )
    kp = crypto.keygen(77)
    ledger.mint(kp.public_key, 32 * ETH)
    contract.register(kp.public_key, 32 * ETH, 2)
    for number in range(3, 12):
        chain.append_block([])
        contract.process_block_boundary(number)
    # block 2 now finalized (tip 11)
    return chain, contract, kp, target


def make_check(target, insurance_id=None):
    return Check(
        kind=CheckKind.TARGET,
        block_number=2,
        state_hash=target.id,
        challenge_period=4,
        value=10 * ETH,
        insurance_id=insurance_id,
    )


class TestProviderRespond:
    def test_honest_signs_finalized_hash(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.HONEST, query, chain, kp)
        assert response is not None
        assert response.block_hash == chain.finalized_block_hash(2)
        assert verify_response(make_check(target), response)

    def test_honest_silent_before_finality(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=chain.tip.number, state_hash=target.id)
        assert provider_respond(ProviderStrategy.HONEST, query, chain, kp) is None

    def test_honest_refuses_while_leaving(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(
            ProviderStrategy.HONEST, query, chain, kp, status=ProviderStatus.LEAVING
        )
        assert response is None

    def test_wrong_hash_lies_consistently(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.WRONG_HASH, query, chain, kp)
        assert response.block_hash != chain.finalized_block_hash(2)
        # The lie survives every local check the light client can run.
        assert verify_response(make_check(target), response)

    def test_wrong_hash_echoes_insurance_id(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id, insurance_id=5)
        response = provider_respond(ProviderStrategy.WRONG_HASH, query, chain, kp)
        assert response.insurance_id == 5
        assert response.payload()[0] == codec.TAG_RESPONSE_INS

    def test_wrong_hash_answers_record_queries_honestly(self, env):
        chain, contract, kp, target = env
        record_payload = codec.register_record(kp.public_key, 32 * ETH)
        record_tx = Transaction.create(record_payload)
        block = chain.append_block([record_tx])
        for number in range(block.number + 1, block.number + 9):
            chain.append_block([])
        query = Query(block_number=block.number, state_hash=record_tx.id)
        response = provider_respond(ProviderStrategy.WRONG_HASH, query, chain, kp)
        assert response.block_hash == chain.finalized_block_hash(block.number)

    def test_unresponsive_is_silent(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        assert provider_respond(ProviderStrategy.UNRESPONSIVE, query, chain, kp) is None

    def test_unfinalized_hash_speaks_early(self, env):
        chain, contract, kp, target = env
        fresh = chain.append_block([Transaction.create(b"fresh")])
        query = Query(block_number=fresh.number, state_hash=fresh.transactions[0].id)
        response = provider_respond(ProviderStrategy.UNFINALIZED_HASH, query, chain, kp)
        assert response is not None
        assert response.block_hash == fresh.hash  # true but unfinalized
        beyond = Query(block_number=chain.tip.number + 5, state_hash=target.id)
        assert provider_respond(ProviderStrategy.UNFINALIZED_HASH, beyond, chain, kp) is None


class TestWatcherCheck:
    def test_honest_response_ok(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.HONEST, query, chain, kp)
        assert watcher_check(response, chain, contract) is Verdict.OK

    def test_wrong_hash_disputed(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.WRONG_HASH, query, chain, kp)
        assert watcher_check(response, chain, contract) is Verdict.DISPUTE

    def test_dispute_evidence_slashes(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.WRONG_HASH, query, chain, kp)
        event, _ = contract.slash(response.evidence(), chain, chain.tip.number + 1)
        assert event.slashed_amount == 32 * ETH

    def test_honest_response_never_slashable(self, env):
        # Watcher soundness: the contract rejects a dispute built from an
        # honest response.
        from lcsim.contract import SlashRejected

        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.HONEST, query, chain, kp)
        with pytest.raises(SlashRejected):
            contract.slash(response.evidence(), chain, chain.tip.number + 1)

    def test_unfinalized_response_pending(self, env):
        chain, contract, kp, target = env
        fresh = chain.append_block([Transaction.create(b"fresh2")])
        query = Query(block_number=fresh.number, state_hash=fresh.transactions[0].id)
        response = provider_respond(ProviderStrategy.UNFINALIZED_HASH, query, chain, kp)
        assert watcher_check(response, chain, contract) is Verdict.PENDING
        for _ in range(9):
            chain.append_block([])
        assert watcher_check(response, chain, contract) is Verdict.OK

    def test_beyond_tip_pending(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.HONEST, query, chain, kp)
        lying_forward = type(response)(
            block_number=chain.tip.number + 10,
            block_hash=response.block_hash,
            state_hash=response.state_hash,
            parent_hash=response.parent_hash,
            transactions_root=response.transactions_root,
            inclusion_proof=response.inclusion_proof,
            provider_pk=response.provider_pk,
            signature=response.signature,
        )
        assert watcher_check(lying_forward, chain, contract) is Verdict.PENDING

    def test_slashed_provider_flagged_inactive(self, env):
        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.WRONG_HASH, query, chain, kp)
        contract.slash(response.evidence(), chain, chain.tip.number + 1)
        later = provider_respond(ProviderStrategy.WRONG_HASH, query, chain, kp)
        assert watcher_check(later, chain, contract) is Verdict.PROVIDER_INACTIVE

    def test_tampered_signature_disputed_then_rejected_on_chain(self, env):
        from lcsim.contract import RejectReason, SlashRejected

        chain, contract, kp, target = env
        query = Query(block_number=2, state_hash=target.id)
        response = provider_respond(ProviderStrategy.HONEST, query, chain, kp)
        tampered = type(response)(
            block_number=response.block_number,
            block_hash=crypto.digest(b"not-the-real-hash"),
            state_hash=response.state_hash,
            parent_hash=response.parent_hash,
            transactions_root=response.transactions_root,
            inclusion_proof=response.inclusion_proof,
            provider_pk=response.provider_pk,
            signature=response.signature,  # stale signature
        )
        assert watcher_check(tampered, chain, contract) is Verdict.DISPUTE
        with pytest.raises(SlashRejected) as excinfo:
            contract.slash(tampered.evidence(), chain, chain.tip.number + 1)
        assert excinfo.value.reason is RejectReason.SIGNATURE_INVALID


class _SendLog:
    """The slice of the harness context a provider answers event lists with:
    it records (tick, destination, message), gives each client's link delay
    to the provider and holds the run's list of each complete epoch."""

    def __init__(self, chain, contract, delays=None):
        self.chain = chain
        self.contract = contract
        self.delays = delays or {}
        self.now = 0
        self.sent = []
        self.event_lists = {}

    def send(self, src, dst, payload):
        self.sent.append((self.now, dst, payload))

    def send_to_each(self, src, dsts, payload):
        for dst in dsts:
            self.send(src, dst, payload)

    def delay(self, src, dst):
        return self.delays.get(src, 1)


class TestEpochEventMemo:
    def ask(self, provider, ctx, epoch):
        """The events of the reply to one request, or None when none is sent."""
        provider.handle_message("c0", EventListRequest(epoch=epoch), ctx)
        if not ctx.sent:
            return None
        _, dst, msg = ctx.sent.pop()
        assert dst == "c0" and isinstance(msg, EventListMsg) and msg.epoch == epoch
        return msg.events

    def test_open_epoch_is_rescanned_and_complete_epoch_memoised(self, env):
        chain, contract, kp, _ = env  # 16-block epochs, tip 11: epoch 0 still open
        provider = DataProviderActor("p0", kp, 32 * ETH, ProviderStrategy.HONEST)
        ctx = _SendLog(chain, contract)
        # No records yet: an empty list adds nothing to a union, so none is sent.
        assert self.ask(provider, ctx, 0) is None
        register = codec.register_record(crypto.keygen(78).public_key, 32 * ETH)
        block = chain.append_block([Transaction.create(register)])  # block 12
        assert self.ask(provider, ctx, 0) == ((block.number, register),)

        while chain.tip.number < 15:  # epoch 0's last block
            chain.append_block([])
        complete = self.ask(provider, ctx, 0)
        assert complete == ((block.number, register),)
        # Records appended to epoch 1 leave epoch 0's answer, the memoised
        # tuple itself, unchanged.
        withdraw = codec.withdraw_record(kp.public_key)
        chain.append_block([Transaction.create(withdraw)])  # block 16
        assert self.ask(provider, ctx, 0) is complete
        assert self.ask(provider, ctx, 1) == ((16, withdraw),)
        assert self.ask(provider, ctx, 2) is None

    def test_complete_epoch_is_answered_with_one_reply_object(self, env):
        chain, contract, kp, _ = env
        provider = DataProviderActor("p0", kp, 32 * ETH, ProviderStrategy.HONEST)
        ctx = _SendLog(chain, contract)
        register = codec.register_record(crypto.keygen(78).public_key, 32 * ETH)
        withdraw = codec.withdraw_record(kp.public_key)
        chain.append_block([Transaction.create(register)])  # block 12
        while chain.tip.number < 15:  # epoch 0's last block
            chain.append_block([])
        chain.append_block([Transaction.create(withdraw)])  # block 16, epoch 1
        replies = []
        for client in ("c0", "c1", "c0"):
            for epoch in (0, 1):
                provider.handle_message(client, EventListRequest(epoch=epoch), ctx)
                replies.append(ctx.sent.pop()[2])
        complete, open_ = replies[0::2], replies[1::2]
        assert all(msg is complete[0] for msg in complete)
        # Epoch 1 is still open: each request gets a fresh reply.
        assert len({id(msg) for msg in open_}) == len(open_)
        assert all(msg == EventListMsg(epoch=1, events=((16, withdraw),)) for msg in open_)


class TestSharedEventList:
    """A complete epoch's list is one object per run, which every provider
    that serves lists answers with; an open epoch is scanned afresh."""

    SERVING = (ProviderStrategy.HONEST, ProviderStrategy.UNFINALIZED_HASH)

    def test_every_serving_provider_answers_with_one_object(self, env):
        chain, contract, _, _ = env
        register = codec.register_record(crypto.keygen(78).public_key, 32 * ETH)
        chain.append_block([Transaction.create(register)])  # block 12
        while chain.tip.number < 16:  # epoch 0 complete, epoch 1 open
            chain.append_block([])
        ctx = _SendLog(chain, contract)
        providers = [
            DataProviderActor(f"p{i}", crypto.keygen(90 + i), 32 * ETH, strategy)
            for i, strategy in enumerate(self.SERVING * 3)
        ]
        for provider in providers:
            for client in ("c0", "c1"):
                provider.handle_message(client, EventListRequest(epoch=0), ctx)
        replies = [msg for _, _, msg in ctx.sent]
        assert len(replies) == 2 * len(providers)
        assert all(msg is replies[0] for msg in replies)
        assert replies[0] == EventListMsg(epoch=0, events=((12, register),))
        # A push is built by the same method: the same object again.
        assert all(p._event_list(0, ctx) is replies[0] for p in providers)
        # Another run has its own list.
        assert providers[0]._event_list(0, _SendLog(chain, contract)) is not replies[0]

    @given(
        st.integers(1, 6),
        st.lists(st.lists(st.sampled_from("rwo"), max_size=3), min_size=1, max_size=30),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_a_fresh_scan_at_every_tip(self, blocks, history):
        """Providers asked about every epoch at every tip of a random history
        of register, withdraw and other records answer what a fresh scan
        filtered by MEMBERSHIP_TAGS gives; an open epoch is never kept."""
        chain = Chain()
        contract = SlashingContract(
            ContractConfig(min_stake=ETH, update_epoch_blocks=blocks, max_challenge_period=4),
            Ledger(),
            PricingParams(),
        )
        ctx = _SendLog(chain, contract)
        providers = [
            DataProviderActor(f"p{i}", crypto.keygen(90 + i), 32 * ETH, s)
            for i, s in enumerate(self.SERVING)
        ]
        make = {
            "r": lambda n: codec.register_record(crypto.keygen(n).public_key, 8 * ETH),
            "w": lambda n: codec.withdraw_record(crypto.keygen(n).public_key),
            "o": lambda n: b"other-record:" + n.to_bytes(8, "big"),
        }
        for number, kinds in enumerate(history, start=1):
            chain.append_block(
                [Transaction.create(make[k](100 * number + j)) for j, k in enumerate(kinds)]
            )
            for epoch in range(chain.tip.number // blocks + 2):
                first, last = epoch * blocks, (epoch + 1) * blocks - 1
                fresh = tuple(
                    (n, tx.payload)
                    for n, tx in chain.transactions_between(first, last)
                    if codec.record_tag(tx.payload) in MEMBERSHIP_TAGS
                )
                answers = [p._event_list(epoch, ctx) for p in providers]
                assert all(msg == EventListMsg(epoch, fresh) for msg in answers)
                if last <= chain.tip.number:
                    assert all(msg is ctx.event_lists[epoch] for msg in answers)
                else:
                    assert epoch not in ctx.event_lists


class TestPushTiming:
    """The push tick a provider works out from its once-read epoch timing
    is the first tick from the request on at which a request sent at an
    epoch's fetch tick over the client's link arrives."""

    @staticmethod
    def first_arrival(tick, delay, blocks, t_fin):
        arrival = tick
        while (arrival - delay - fetch_tick(0, blocks, t_fin)) % blocks:
            arrival += 1
        return arrival

    @given(
        st.integers(1, 64),
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(0, 300), st.integers(1, 255)), min_size=1, max_size=4),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_precomputed_push_tick(self, blocks, slots, depth, requests):
        chain = Chain(slots_per_epoch=slots, finality_depth_epochs=depth)
        contract = SlashingContract(
            ContractConfig(min_stake=ETH, update_epoch_blocks=blocks, max_challenge_period=4),
            Ledger(),
            PricingParams(),
        )
        t_fin = slots * depth
        clients = {f"c{i}": delay for i, (_, delay) in enumerate(requests)}
        ctx = _SendLog(chain, contract, delays=clients)
        provider = DataProviderActor("p0", crypto.keygen(77), 32 * ETH, ProviderStrategy.HONEST)
        expected = []
        for (tick, delay), client in sorted(zip(requests, clients)):
            ctx.now = tick
            provider.handle_message(client, EventListRequest(epoch=0), ctx)
            due = self.first_arrival(tick, delay, blocks, t_fin)
            assert provider._push_tick(delay, tick, ctx) == due
            expected.append(due)
            assert provider._next_push == min(expected)


class TestStandingRequests:
    """A provider asked once pushes each later epoch's list at the tick a
    request sent at that epoch's fetch tick would reach it."""

    # 16-block epochs, T_fin = 8: epoch e's fetch tick is 16e + 9.
    RECORDS = {12: 0, 40: 2, 70: 4}  # block -> epoch of a register record
    REQUESTS = {26: ["c0"], 30: ["c1"], 60: ["c0"]}  # tick -> clients asking

    def run(self, env, strategy):
        chain, contract, kp, _ = env
        provider = DataProviderActor("p0", kp, 32 * ETH, strategy)
        ctx = _SendLog(chain, contract, delays={"c0": 1, "c1": 2})
        records = {}
        for tick in range(12, 96):  # the tip is block tick - 1 during a tick
            ctx.now = tick
            for client in self.REQUESTS.get(tick, []):
                epoch = (tick - 9) // 16 - 1
                provider.handle_message(client, EventListRequest(epoch=epoch), ctx)
            provider.on_tick(tick, ctx)
            txs = []
            if tick in self.RECORDS:
                records[tick] = codec.register_record(crypto.keygen(tick).public_key, 8 * ETH)
                txs.append(Transaction.create(records[tick]))
            chain.append_block(txs)
        return [(tick, dst, msg.epoch, msg.events) for tick, dst, msg in ctx.sent], records

    @pytest.mark.parametrize(
        "strategy", [ProviderStrategy.HONEST, ProviderStrategy.UNFINALIZED_HASH]
    )
    def test_asked_once_then_pushed_each_epoch(self, env, strategy):
        sent, records = self.run(env, strategy)
        lists = {self.RECORDS[b]: ((b, payload),) for b, payload in records.items()}
        assert sent == [
            (26, "c0", 0, lists[0]),  # the reply, and no push to c0 at the same tick
            (30, "c1", 0, lists[0]),  # a late request: the reply
            # Epochs 1 and 3 have no records: nothing is pushed.
            (58, "c0", 2, lists[2]),  # 16*3 + 9 + c0's delay of 1
            (59, "c1", 2, lists[2]),  # ... + c1's delay of 2
            (60, "c0", 2, lists[2]),  # a repeated request is answered ...
            (90, "c0", 4, lists[4]),  # ... but recorded once
            (91, "c1", 4, lists[4]),
        ]

    @pytest.mark.parametrize(
        "strategy",
        [ProviderStrategy.WRONG_HASH, ProviderStrategy.EXIT_SCAM, ProviderStrategy.UNRESPONSIVE],
    )
    def test_silent_strategies_record_nothing(self, env, strategy):
        sent, _ = self.run(env, strategy)
        assert sent == []


class TestResponseMemo:
    """A provider builds and signs each distinct answer once; every refusal
    check still runs on every query."""

    @pytest.fixture
    def signs(self, monkeypatch):
        calls = []
        real = crypto.sign
        monkeypatch.setattr(crypto, "sign", lambda sk, msg: calls.append(msg) or real(sk, msg))
        return calls

    def ask(self, provider, ctx, query, client="c0"):
        """The response `client` gets, or None when the provider is silent."""
        before = len(ctx.sent)
        provider.handle_message(client, QueryMsg(query=query), ctx)
        if len(ctx.sent) == before:
            return None
        _, dst, msg = ctx.sent.pop()
        assert dst == client
        return msg.response

    def test_identical_queries_share_one_signed_answer(self, env, signs):
        chain, contract, kp, target = env
        provider = DataProviderActor("p0", kp, 32 * ETH, ProviderStrategy.HONEST)
        ctx = _SendLog(chain, contract)
        first = self.ask(provider, ctx, Query(block_number=2, state_hash=target.id), "c0")
        again = self.ask(provider, ctx, Query(block_number=2, state_hash=target.id), "c1")
        assert first is again
        assert len(signs) == 1
        assert first == provider_respond(
            ProviderStrategy.HONEST, Query(block_number=2, state_hash=target.id), chain, kp
        )

    def test_honest_refuses_an_answered_query_once_leaving(self, env, signs):
        chain, contract, kp, target = env
        provider = DataProviderActor("p0", kp, 32 * ETH, ProviderStrategy.HONEST)
        ctx = _SendLog(chain, contract)
        query = Query(block_number=2, state_hash=target.id)
        assert self.ask(provider, ctx, query) is not None
        contract.request_withdraw(kp.public_key, chain.tip.number + 1)
        assert contract.provider(kp.public_key).status is ProviderStatus.LEAVING
        assert self.ask(provider, ctx, query) is None
        assert len(signs) == 1

    def test_silent_before_finality_then_answered(self, env, signs):
        chain, contract, kp, _ = env
        provider = DataProviderActor("p0", kp, 32 * ETH, ProviderStrategy.HONEST)
        ctx = _SendLog(chain, contract)
        fresh = chain.append_block([Transaction.create(b"fresh")])
        query = Query(block_number=fresh.number, state_hash=fresh.transactions[0].id)
        assert self.ask(provider, ctx, query) is None
        while not chain.is_finalized(fresh.number):
            chain.append_block([])
        response = self.ask(provider, ctx, query)
        assert response is not None and response.block_hash == fresh.hash
        assert self.ask(provider, ctx, query) is response
        assert len(signs) == 1

    @pytest.mark.parametrize("strategy", [ProviderStrategy.HONEST, ProviderStrategy.WRONG_HASH])
    def test_eco_and_insured_queries_get_their_own_answers(self, env, signs, strategy):
        chain, contract, kp, target = env
        provider = DataProviderActor("p0", kp, 32 * ETH, strategy)
        ctx = _SendLog(chain, contract)
        eco = self.ask(provider, ctx, Query(block_number=2, state_hash=target.id))
        ins = self.ask(provider, ctx, Query(block_number=2, state_hash=target.id, insurance_id=5))
        assert (eco.insurance_id, ins.insurance_id) == (None, 5)
        assert eco.signature != ins.signature
        assert self.ask(provider, ctx, Query(block_number=2, state_hash=target.id)) is eco
        assert len(signs) == 2

    def test_fabrication_is_reused_per_query(self, env, signs):
        chain, contract, kp, target = env
        provider = DataProviderActor("p0", kp, 32 * ETH, ProviderStrategy.WRONG_HASH)
        ctx = _SendLog(chain, contract)
        query = Query(block_number=2, state_hash=target.id)
        lie = self.ask(provider, ctx, query, "c0")
        assert lie.block_hash != chain.finalized_block_hash(2)
        assert self.ask(provider, ctx, query, "c1") is lie
        other = self.ask(provider, ctx, Query(block_number=3, state_hash=target.id))
        assert other is not lie and other.block_number == 3
        assert len(signs) == 2

    def test_record_reaching_the_chain_later_is_answered_truly(self, env):
        """A lying provider asked about a register record before it is on
        chain fabricates; once the record is final it answers truly, and
        the earlier fabrication is not served in its place."""
        chain, contract, kp, _ = env
        provider = DataProviderActor("p0", kp, 32 * ETH, ProviderStrategy.WRONG_HASH)
        ctx = _SendLog(chain, contract)
        record = Transaction.create(codec.register_record(kp.public_key, 32 * ETH))
        query = Query(block_number=chain.tip.number + 1, state_hash=record.id)
        lie = self.ask(provider, ctx, query)
        block = chain.append_block([record])
        assert block.number == query.block_number
        assert self.ask(provider, ctx, query) is None  # a record: final blocks only
        while not chain.is_finalized(block.number):
            chain.append_block([])
        truth = self.ask(provider, ctx, query)
        assert truth.block_hash == block.hash != lie.block_hash
