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
    RegisterTx,
    SlashingContract,
    WithdrawRequestTx,
)
from lcsim.light_client import Check, CheckKind, verify_response
from lcsim.messages import EventListMsg, EventListRequest, QueryMsg
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
    """The slice of the harness context a provider answers with: it records
    (tick, destination, message, asked) per message, `asked` being the tick
    a push answers as if asked then. It reads no delays and keeps no lists,
    so a provider that asks it for either fails."""

    def __init__(self, chain, contract):
        self.chain = chain
        self.contract = contract
        self.now = 0
        self.sent = []

    def send(self, src, dst, payload):
        self.sent.append((self.now, dst, payload, None))

    def send_to_each(self, src, dsts, payload, asked=None):
        for dst in dsts:
            self.sent.append((self.now, dst, payload, asked))


@pytest.fixture
def records_env():
    """A chain and a contract with 16-block epochs at tip 11, and no records:
    every record lands on both through `land`, as in a run."""
    chain = Chain()
    contract = SlashingContract(
        ContractConfig(min_stake=ETH, update_epoch_blocks=16, max_challenge_period=4),
        Ledger(),
        PricingParams(),
    )
    while chain.tip.number < 11:
        chain.append_block([])
    return chain, contract


def land(chain, contract, *items):
    """Append the next block: each submission executed by the contract at
    it, each bytes item put on chain as it is. Returns the block."""
    number = chain.tip.number + 1
    txs = []
    for item in items:
        if isinstance(item, bytes):
            txs.append(Transaction.create(item))
            continue
        if isinstance(item, RegisterTx):
            contract.ledger.mint(item.public_key, item.stake)
        records, receipt = contract.execute_transaction(item, chain, number)
        assert receipt.ok, receipt
        txs += [Transaction.create(payload) for payload in records]
    return chain.append_block(txs)


def scanned_records(chain, contract, epoch):
    """The (block, record) pairs of `epoch`'s register and withdraw records,
    by a linear scan of the chain's blocks."""
    blocks = contract.config.update_epoch_blocks
    return tuple(
        (block.number, tx.payload)
        for block in chain.blocks[epoch * blocks : (epoch + 1) * blocks]
        for tx in block.transactions
        if codec.record_tag(tx.payload) in MEMBERSHIP_TAGS
    )


class TestEpochEventMemo:
    def ask(self, provider, ctx, epoch):
        """The events of the reply to one request, or None when none is sent."""
        provider.handle_message("c0", EventListRequest(epoch=epoch), ctx)
        if not ctx.sent:
            return None
        _, dst, msg, _ = ctx.sent.pop()
        assert dst == "c0" and isinstance(msg, EventListMsg) and msg.epoch == epoch
        return msg.events

    def test_open_epoch_changes_only_when_a_record_lands(self, records_env):
        chain, contract = records_env  # epoch 0 still open
        provider = DataProviderActor("p0", crypto.keygen(77), 32 * ETH, ProviderStrategy.HONEST)
        ctx = _SendLog(chain, contract)
        # No records yet: an empty list adds nothing to a union, so none is sent.
        assert self.ask(provider, ctx, 0) is None
        pk = crypto.keygen(78).public_key
        block = land(chain, contract, RegisterTx(pk, 32 * ETH))  # block 12
        register = codec.register_record(pk, 32 * ETH)
        first = self.ask(provider, ctx, 0)
        assert first == ((block.number, register),) == scanned_records(chain, contract, 0)
        while chain.tip.number < 15:  # epoch 0's last block
            land(chain, contract, b"other-record")
        # Blocks without a membership record leave the tuple itself unchanged.
        assert self.ask(provider, ctx, 0) is first
        # Records landing in epoch 1 leave epoch 0's tuple unchanged.
        land(chain, contract, WithdrawRequestTx(pk))  # block 16
        assert self.ask(provider, ctx, 0) is first
        withdraw = codec.withdraw_record(pk)
        assert self.ask(provider, ctx, 1) == ((16, withdraw),)
        assert self.ask(provider, ctx, 2) is None

    def test_complete_epoch_is_answered_with_one_reply_object(self, records_env):
        """Every reply about an epoch carries the contract's tuple: one object
        for a complete epoch, replaced in an open one when a record lands."""
        chain, contract = records_env
        provider = DataProviderActor("p0", crypto.keygen(77), 32 * ETH, ProviderStrategy.HONEST)
        ctx = _SendLog(chain, contract)
        pks = [crypto.keygen(78 + i).public_key for i in range(3)]
        land(chain, contract, RegisterTx(pks[0], 32 * ETH))  # block 12
        while chain.tip.number < 15:  # epoch 0's last block
            land(chain, contract)
        land(chain, contract, RegisterTx(pks[1], 32 * ETH))  # block 16, epoch 1
        replies = []
        for client in ("c0", "c1", "c0"):
            for epoch in (0, 1):
                provider.handle_message(client, EventListRequest(epoch=epoch), ctx)
                replies.append(ctx.sent.pop()[2].events)
        complete, open_ = replies[0::2], replies[1::2]
        assert all(events is contract.membership_records(0) for events in complete)
        assert all(events is open_[0] for events in open_)
        land(chain, contract, RegisterTx(pks[2], 32 * ETH))  # block 17
        provider.handle_message("c0", EventListRequest(epoch=1), ctx)
        replaced = ctx.sent.pop()[2].events
        assert replaced is not open_[0]
        assert replaced == scanned_records(chain, contract, 1) == open_[0] + (
            (17, codec.register_record(pks[2], 32 * ETH)),
        )


class TestSharedEventList:
    """Every provider that serves lists answers with the contract's tuple of
    the epoch, so one object per epoch state serves the run."""

    SERVING = (ProviderStrategy.HONEST, ProviderStrategy.UNFINALIZED_HASH)

    def test_every_serving_provider_answers_with_one_object(self, records_env):
        chain, contract = records_env
        pk = crypto.keygen(78).public_key
        land(chain, contract, RegisterTx(pk, 32 * ETH))  # block 12
        while chain.tip.number < 16:  # epoch 0 complete, epoch 1 open
            land(chain, contract)
        ctx = _SendLog(chain, contract)
        providers = [
            DataProviderActor(f"p{i}", crypto.keygen(90 + i), 32 * ETH, strategy)
            for i, strategy in enumerate(self.SERVING * 3)
        ]
        for provider in providers:
            for client in ("c0", "c1"):
                provider.handle_message(client, EventListRequest(epoch=0), ctx)
        replies = [msg for _, _, msg, _ in ctx.sent]
        assert len(replies) == 2 * len(providers)
        assert all(msg.events is contract.membership_records(0) for msg in replies)
        register = codec.register_record(pk, 32 * ETH)
        assert replies[0] == EventListMsg(epoch=0, events=((12, register),))
        # A push is built by the same method: the same tuple again.
        assert all(p._event_list(0, ctx).events is replies[0].events for p in providers)

    @given(
        st.integers(1, 6),
        st.lists(st.lists(st.sampled_from("rwo"), max_size=3), min_size=1, max_size=30),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_a_fresh_scan_at_every_tip(self, blocks, history):
        """At every tip of a random history of register, withdraw and other
        records, `membership_records` of every epoch equals a linear scan of
        the chain's blocks, and is the same tuple object as at the last tip
        unless a record of that epoch landed in between; providers answer
        with it."""
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
        active = []
        seen = {}
        for number, kinds in enumerate(history, start=1):
            items = []
            for j, kind in enumerate(kinds):
                if kind == "r":
                    pk = crypto.keygen(100 * number + j).public_key
                    items.append(RegisterTx(pk, 8 * ETH))
                    active.append(pk)
                elif kind == "w" and active:
                    items.append(WithdrawRequestTx(active.pop(0)))
                else:
                    items.append(b"other-record:" + (100 * number + j).to_bytes(8, "big"))
            land(chain, contract, *items)
            landed = {number // blocks} if any(not isinstance(i, bytes) for i in items) else set()
            for epoch in range(chain.tip.number // blocks + 2):
                records = contract.membership_records(epoch)
                assert records == scanned_records(chain, contract, epoch)
                if epoch in seen and epoch not in landed:
                    assert records is seen[epoch]
                seen[epoch] = records
                assert all(p._event_list(epoch, ctx).events is records for p in providers)


class TestStandingRequests:
    """A provider asked once sends each later epoch's list at that epoch's
    fetch tick, as the answer to a request sent then."""

    # 16-block epochs, T_fin = 8: epoch e's fetch tick is 16e + 9.
    RECORDS = {12: 0, 40: 2, 70: 4}  # block -> epoch of a register record
    # tick -> (client, epoch asked) of each request arriving then.
    REQUESTS = {26: [("c0", 0)], 30: [("c1", 0)], 59: [("c2", 1)], 60: [("c0", 2)]}

    def run(self, records_env, strategy):
        chain, contract = records_env
        provider = DataProviderActor("p0", crypto.keygen(77), 32 * ETH, strategy)
        ctx = _SendLog(chain, contract)
        records = {}
        for tick in range(12, 96):  # the tip is block tick - 1 during a tick
            ctx.now = tick
            for client, epoch in self.REQUESTS.get(tick, []):
                provider.handle_message(client, EventListRequest(epoch=epoch), ctx)
            provider.on_tick(tick, ctx)
            assert chain.tip.number == tick - 1
            if tick in self.RECORDS:
                pk = crypto.keygen(tick).public_key
                records[tick] = codec.register_record(pk, 8 * ETH)
                land(chain, contract, RegisterTx(pk, 8 * ETH))
            else:
                land(chain, contract)
        sent = [(tick, dst, msg.epoch, msg.events, asked) for tick, dst, msg, asked in ctx.sent]
        return sent, records

    @pytest.mark.parametrize(
        "strategy", [ProviderStrategy.HONEST, ProviderStrategy.UNFINALIZED_HASH]
    )
    def test_asked_once_then_pushed_each_epoch(self, records_env, strategy):
        sent, records = self.run(records_env, strategy)
        lists = {self.RECORDS[b]: ((b, payload),) for b, payload in records.items()}
        assert sent == [
            (26, "c0", 0, lists[0], None),  # the reply
            (30, "c1", 0, lists[0], None),  # a later request: the reply
            # Epoch 1 has no records: nothing is pushed at 41, or replied at 59.
            (57, "c0", 2, lists[2], 57),  # the push at epoch 3's fetch tick
            (57, "c1", 2, lists[2], 57),
            # c2 asked for epoch 1 before 57 but arrives after: it gets the
            # push it missed, timed from 57.
            (59, "c2", 2, lists[2], 57),
            (60, "c0", 2, lists[2], None),  # a repeated request is answered ...
            (89, "c0", 4, lists[4], 89),  # ... but recorded once
            (89, "c1", 4, lists[4], 89),
            (89, "c2", 4, lists[4], 89),
        ]

    @pytest.mark.parametrize(
        "strategy",
        [ProviderStrategy.WRONG_HASH, ProviderStrategy.EXIT_SCAM, ProviderStrategy.UNRESPONSIVE],
    )
    def test_silent_strategies_record_nothing(self, records_env, strategy):
        sent, _ = self.run(records_env, strategy)
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
        _, dst, msg, _ = ctx.sent.pop()
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
