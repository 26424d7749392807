"""Data-provider and watcher behaviors, including adversarial strategies.

Providers answer inclusion queries by signing (block hash, proof) pairs;
adversarial variants fabricate internally consistent fake blocks so that
signature and proof checks pass on the light client and only a watcher
comparing against the real chain can catch them.  Watchers audit
forwarded responses, submit slash evidence on-chain, and alert the client
once the slash record is finalized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import codec, crypto
from .chain import Chain, TxNotInBlockError, block_hash
from .contract import (
    ProviderStatus,
    RegisterTx,
    RejectReason,
    SlashEvidence,
    SlashingContract,
    SlashTx,
    WithdrawRequestTx,
)
from .crypto import KeyPair, MerkleProof
from .messages import (
    EventListMsg,
    EventListRequest,
    ForwardMsg,
    QueryMsg,
    ReceiptMsg,
    ResponseMsg,
    fetch_tick,
)


class ProviderStrategy(enum.Enum):
    HONEST = "honest"
    WRONG_HASH = "wrong_hash"
    UNFINALIZED_HASH = "unfinalized_hash"
    UNRESPONSIVE = "unresponsive"
    EXIT_SCAM = "exit_scam"


@dataclass(frozen=True)
class Query:
    block_number: int
    state_hash: bytes
    insurance_id: int | None = None


@dataclass(frozen=True)
class SignedResponse:
    block_number: int
    block_hash: bytes
    state_hash: bytes
    parent_hash: bytes
    transactions_root: bytes
    inclusion_proof: MerkleProof
    provider_pk: bytes
    signature: bytes
    insurance_id: int | None = None

    def payload(self) -> bytes:
        return codec.response_payload(
            self.block_number, self.block_hash, self.state_hash, self.insurance_id
        )

    def evidence(self) -> SlashEvidence:
        return SlashEvidence(
            provider_pk=self.provider_pk,
            block_number=self.block_number,
            signed_block_hash=self.block_hash,
            state_hash=self.state_hash,
            signature=self.signature,
            insurance_id=self.insurance_id,
        )


class AlertKind(enum.Enum):
    PROVIDER_SLASHED = "provider_slashed"
    PROVIDER_INACTIVE = "provider_inactive"


@dataclass(frozen=True)
class Alert:
    kind: AlertKind
    offending_pk: bytes
    slash_event_block: int
    slash_record_tx_id: bytes
    slash_event_inclusion_proof: MerkleProof


# ---------------------------------------------------------------------------
# Provider response logic
# ---------------------------------------------------------------------------


def _sign_response(
    keypair: KeyPair,
    block_number: int,
    block_hash: bytes,
    state_hash: bytes,
    parent_hash: bytes,
    transactions_root: bytes,
    proof: MerkleProof,
    insurance_id: int | None,
) -> SignedResponse:
    payload = codec.response_payload(block_number, block_hash, state_hash, insurance_id)
    return SignedResponse(
        block_number=block_number,
        block_hash=block_hash,
        state_hash=state_hash,
        parent_hash=parent_hash,
        transactions_root=transactions_root,
        inclusion_proof=proof,
        provider_pk=keypair.public_key,
        signature=crypto.sign(keypair.secret_key, payload),
        insurance_id=insurance_id,
    )


def _fabricated_response(keypair: KeyPair, query: Query) -> SignedResponse:
    """Internally consistent lie: a fake single-leaf block holding the target.

    The proof verifies against the fake transactions_root and the fake
    header hashes to the signed block hash, so the light client's local
    checks all pass; only the finalized chain contradicts it.
    """
    fake_root = crypto.merkle_root([query.state_hash])
    fake_parent = crypto.digest(b"forged-parent", keypair.public_key, query.state_hash)
    fake_hash = block_hash(query.block_number, fake_parent, fake_root)
    proof = crypto.merkle_prove([query.state_hash], 0)
    return _sign_response(
        keypair,
        query.block_number,
        fake_hash,
        query.state_hash,
        fake_parent,
        fake_root,
        proof,
        query.insurance_id,
    )


def _true_response(keypair: KeyPair, query: Query, chain: Chain) -> SignedResponse | None:
    try:
        block = chain.block_at(query.block_number)
        proof = chain.inclusion_proof(query.block_number, query.state_hash)
    except (TxNotInBlockError, ValueError):
        return None
    return _sign_response(
        keypair,
        query.block_number,
        block.hash,
        query.state_hash,
        block.parent_hash,
        block.transactions_root,
        proof,
        query.insurance_id,
    )


_PROTOCOL_RECORD_TAGS = frozenset(
    {
        codec.TAG_REGISTER,
        codec.TAG_WITHDRAW_REQUEST,
        codec.TAG_INSURANCE,
        codec.TAG_SLASH_RECORD,
    }
)


def _is_protocol_record_query(query: Query, chain: Chain) -> bool:
    found = chain.find_transaction(query.state_hash)
    return found is not None and codec.record_tag(found[1].payload) in _PROTOCOL_RECORD_TAGS


def provider_respond(
    strategy: ProviderStrategy,
    query: Query,
    chain: Chain,
    keypair: KeyPair,
    status: ProviderStatus = ProviderStatus.ACTIVE,
    memo: dict | None = None,
) -> SignedResponse | None:
    """One provider's answer to a query; None is silence.

    Honest providers only speak about finalized blocks and refuse once
    leaving; adversaries never refuse.  Lying adversaries fabricate only
    for value-bearing target states: misreporting protocol bookkeeping
    records (insurance purchases, register/withdraw events) yields nothing
    and would burn their stake before any insured acceptance exists, so a
    rational attacker answers those honestly.

    `memo`, when given, holds the answers this provider has built. Every
    refusal check runs first; a query that passes them is answered from the
    memo when it was answered before. The chain only grows and has no
    forks, and Ed25519 signing is deterministic, so the stored answer is the
    one that would be built afresh.
    """
    if strategy is ProviderStrategy.UNRESPONSIVE:
        return None
    if strategy is ProviderStrategy.HONEST:
        if status is not ProviderStatus.ACTIVE:
            return None
        if not chain.is_finalized(query.block_number):
            return None
        fabricate = False
    elif strategy is ProviderStrategy.UNFINALIZED_HASH:
        if query.block_number > chain.tip.number:
            return None
        fabricate = False
    # WRONG_HASH and EXIT_SCAM.
    elif _is_protocol_record_query(query, chain):
        if not chain.is_finalized(query.block_number):
            return None
        fabricate = False
    else:
        fabricate = True
    # A record that reaches the chain only after a lying provider was asked
    # about it turns a fabrication into a true answer: keep the two apart.
    key = (fabricate, query.block_number, query.state_hash, query.insurance_id)
    if memo is not None and key in memo:
        return memo[key]
    if fabricate:
        response = _fabricated_response(keypair, query)
    else:
        response = _true_response(keypair, query, chain)
    if memo is not None and response is not None:
        memo[key] = response
    return response


# ---------------------------------------------------------------------------
# Watcher verdicts
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    OK = "ok"
    DISPUTE = "dispute"
    PROVIDER_INACTIVE = "provider_inactive"
    #: Pending finality; the watcher re-checks until the chain resolves it.
    PENDING = "pending"


def watcher_check(
    response: SignedResponse, chain: Chain, contract: SlashingContract, verify=None
) -> Verdict:
    """Full-node audit of a forwarded response; `verify` checks the
    signature and is `crypto.verify` by default."""
    record = contract.provider(response.provider_pk)
    if record is not None and record.status is ProviderStatus.SLASHED:
        return Verdict.PROVIDER_INACTIVE
    if response.block_number > chain.tip.number:
        return Verdict.PENDING
    finalized = chain.finalized_block_hash(response.block_number)
    if finalized is None:
        return Verdict.PENDING
    verify = verify or crypto.verify
    if finalized == response.block_hash and verify(
        response.provider_pk, response.payload(), response.signature
    ):
        return Verdict.OK
    return Verdict.DISPUTE


def find_slash_record(pk: bytes, contract: SlashingContract) -> tuple[int, bytes] | None:
    """(block, tx id) of the most recent slash record for a provider, if any."""
    for event in reversed(contract.slash_events):
        if event.provider_pk == pk:
            return event.recorded_in_block, event.record_tx_id
    return None


# ---------------------------------------------------------------------------
# Simulation actors
# ---------------------------------------------------------------------------


@dataclass
class _PendingAlert:
    client: str
    kind: AlertKind
    offending_pk: bytes
    record_tx_id: bytes
    record_block: int


class WatcherActor:
    """Honest watcher: audits forwards, slashes, and alerts clients.

    Alerts are delivered only once the slash record's own block is
    finalized, so the inclusion proof the client heavy-checks is stable.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._deferred: list[tuple[str, SignedResponse]] = []
        self._submitted: dict[int, tuple[str, SignedResponse]] = {}
        self._pending_alerts: list[_PendingAlert] = []

    def handle_message(self, sender: str, payload, ctx) -> None:
        if isinstance(payload, ForwardMsg):
            self._audit(sender, payload.response, ctx)
        elif isinstance(payload, ReceiptMsg):
            self._handle_receipt(payload.token, payload.receipt, ctx)

    def _audit(self, client: str, response: SignedResponse, ctx) -> None:
        verdict = watcher_check(response, ctx.chain, ctx.contract, ctx.verify)
        ctx.log(self.name, "verdict", verdict.value.encode() + b":" + response.provider_pk)
        if verdict is Verdict.PENDING:
            self._deferred.append((client, response))
        elif verdict is Verdict.DISPUTE:
            token = ctx.submit_tx(self.name, SlashTx(evidence=response.evidence()))
            self._submitted[token] = (client, response)
        elif verdict is Verdict.PROVIDER_INACTIVE:
            found = find_slash_record(response.provider_pk, ctx.contract)
            if found is not None:
                block_number, tx_id = found
                self._pending_alerts.append(
                    _PendingAlert(
                        client=client,
                        kind=AlertKind.PROVIDER_INACTIVE,
                        offending_pk=response.provider_pk,
                        record_tx_id=tx_id,
                        record_block=block_number,
                    )
                )

    def _handle_receipt(self, token: int, receipt, ctx) -> None:
        if token not in self._submitted:
            return
        client, response = self._submitted.pop(token)
        if receipt.ok:
            self._pending_alerts.append(
                _PendingAlert(
                    client=client,
                    kind=AlertKind.PROVIDER_SLASHED,
                    offending_pk=response.provider_pk,
                    record_tx_id=receipt.record_tx_id,
                    record_block=receipt.block_number,
                )
            )
        elif receipt.reason == RejectReason.ALREADY_SLASHED:
            # Lost the race to another watcher; alert with the winner's record.
            self._audit(client, response, ctx)

    def next_tick(self, now: int) -> int | None:
        """The next tick while an audit awaits finality or an alert awaits
        its record's finality; None when only a message can make it act."""
        return now + 1 if self._deferred or self._pending_alerts else None

    def on_tick(self, now: int, ctx) -> None:
        if self._deferred:
            deferred, self._deferred = self._deferred, []
            for client, response in deferred:
                verdict = watcher_check(response, ctx.chain, ctx.contract, ctx.verify)
                if verdict is Verdict.PENDING:
                    self._deferred.append((client, response))
                elif verdict is not Verdict.OK:
                    self._audit(client, response, ctx)
        if self._pending_alerts:
            pending, self._pending_alerts = self._pending_alerts, []
            for item in pending:
                if ctx.chain.is_finalized(item.record_block):
                    proof = ctx.chain.inclusion_proof(item.record_block, item.record_tx_id)
                    alert = Alert(
                        kind=item.kind,
                        offending_pk=item.offending_pk,
                        slash_event_block=item.record_block,
                        slash_record_tx_id=item.record_tx_id,
                        slash_event_inclusion_proof=proof,
                    )
                    ctx.send(self.name, item.client, alert)
                    ctx.log(self.name, "alert", item.kind.value.encode())
                else:
                    self._pending_alerts.append(item)


class DataProviderActor:
    """A staked provider node following one fixed strategy.

    An honest or unfinalized_hash provider serves the membership records
    of an epoch (`SlashingContract.membership_records`) to maintaining
    clients. A client's request for epoch e stands: the provider answers it
    at once, then sends every later epoch's list unasked. It is due once an
    epoch, at each fetch tick (`messages.fetch_tick`), and sends the epoch
    before to every standing client in one call, each list timed by the
    harness to arrive when the answer to a request sent then would. It reads
    no delays. Clients union the lists of every provider they hold, so one
    honest list suffices and an omission by one provider does not change a
    client's set.

    Every query passes the strategy's refusal checks afresh. One that passes
    and was answered before, by this provider to any client, gets the same
    signed answer again from the provider's memo, without a second proof
    or signature.
    """

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        stake: int,
        strategy: ProviderStrategy,
        register_tick: int = 1,
        withdraw_tick: int | None = None,
    ) -> None:
        self.name = name
        self.keypair = keypair
        self.stake = stake
        self.strategy = strategy
        self.register_tick = register_tick
        self.withdraw_tick = withdraw_tick
        self._misbehaved = False
        self._withdraw_submitted = False
        # The answers built so far; see `provider_respond`.
        self._responses: dict[tuple, SignedResponse] = {}
        # The clients with a standing event-list request, in first-request
        # order, and the next fetch tick at which they are sent a list.
        self._standing: dict[str, None] = {}
        self._next_push: int | None = None

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    def next_tick(self, now: int) -> int | None:
        """Earliest tick after `now` at which on_tick acts: the register
        tick, the withdraw tick while no withdrawal is submitted, and the next
        push of the standing event-list requests; None when only a message
        can make it act."""
        ticks = [] if self._next_push is None else [self._next_push]
        if self.register_tick > now:
            ticks.append(self.register_tick)
        if not self._withdraw_submitted and (self.withdraw_tick or 0) > now:
            ticks.append(self.withdraw_tick)
        return min(ticks, default=None)

    def on_tick(self, now: int, ctx) -> None:
        if now == self.register_tick:
            ctx.submit_tx(self.name, RegisterTx(self.public_key, self.stake))
        if (
            self.withdraw_tick is not None
            and now == self.withdraw_tick
            and not self._withdraw_submitted
        ):
            self._withdraw_submitted = True
            ctx.submit_tx(self.name, WithdrawRequestTx(self.public_key))
        if now == self._next_push:
            self._next_push = now + ctx.contract.config.update_epoch_blocks
            self._push_event_lists(now, ctx)

    def handle_message(self, sender: str, payload, ctx) -> None:
        if type(payload) is EventListRequest:  # the bulk of a provider's mail
            # Adversarial providers stay silent. An empty list adds nothing
            # to a client's union of every held provider's list: none is sent.
            if self.strategy in (ProviderStrategy.HONEST, ProviderStrategy.UNFINALIZED_HASH):
                if sender not in self._standing:
                    self._stand(sender, payload.epoch, ctx)
                msg = self._event_list(payload.epoch, ctx)
                if msg.events:
                    ctx.send(self.name, sender, msg)
        elif isinstance(payload, QueryMsg):
            record = ctx.contract.provider(self.public_key)
            status = record.status if record is not None else ProviderStatus.ACTIVE
            response = provider_respond(
                self.strategy, payload.query, ctx.chain, self.keypair, status, self._responses
            )
            if response is not None:
                ctx.send(self.name, sender, ResponseMsg(response=response))
                if (
                    self.strategy is ProviderStrategy.EXIT_SCAM
                    and not self._misbehaved
                    and (
                        response.block_number > ctx.chain.tip.number
                        or ctx.chain.block_at(response.block_number).hash != response.block_hash
                    )
                ):
                    # Sign false data, then rush the exit.
                    self._misbehaved = True
                    self._withdraw_submitted = True
                    ctx.submit_tx(self.name, WithdrawRequestTx(self.public_key))

    def _stand(self, client: str, epoch: int, ctx) -> None:
        """Record `client`'s request for `epoch` as standing. A client asks
        for epoch e between the fetch ticks of epochs e+1 and e+2, so a
        request for an epoch before the one the last fetch tick pushed left
        before that tick: it is sent that push now, timed as the push was."""
        self._standing[client] = None
        blocks = ctx.contract.config.update_epoch_blocks
        first_fetch = fetch_tick(0, blocks, ctx.chain.finality_depth_blocks)
        last = (ctx.now - first_fetch - 1) // blocks  # whose fetch tick is the last before now
        last_fetch = first_fetch + last * blocks
        self._next_push = last_fetch + blocks
        if last - 1 > epoch:
            msg = self._event_list(last - 1, ctx)
            if msg.events:
                ctx.send_to_each(self.name, (client,), msg, asked=last_fetch)

    def _push_event_lists(self, now: int, ctx) -> None:
        """At epoch e's fetch tick, send epoch e-1's list to every standing
        client, timed as the answer to a request each sent now."""
        blocks = ctx.contract.config.update_epoch_blocks
        epoch = (now - fetch_tick(0, blocks, ctx.chain.finality_depth_blocks)) // blocks - 1
        if epoch >= 0:
            msg = self._event_list(epoch, ctx)
            if msg.events:
                ctx.send_to_each(self.name, self._standing, msg, asked=now)

    def _event_list(self, epoch: int, ctx) -> EventListMsg:
        """The membership records of `epoch`, as the reply to send: every
        answer, pushed or replied, carries the contract's tuple."""
        return EventListMsg(epoch=epoch, events=ctx.contract.membership_records(epoch))
