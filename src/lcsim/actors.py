"""Data-provider and watcher behaviors, including adversarial strategies.

Providers answer inclusion queries by signing (block hash, proof) pairs;
adversarial variants fabricate internally consistent fake blocks so that
signature and proof checks pass on the light client and only a watcher
comparing against the real chain can catch them.  Providers also answer
membership-list requests with signed lists.  Watchers audit forwarded
responses and lists, submit slash evidence on-chain, and alert the client
once the slash record is finalized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import codec, crypto
from .chain import Chain, TxNotInBlockError, block_hash
from .contract import (
    ListEvidence,
    ProviderStatus,
    RegisterTx,
    RejectReason,
    SlashEvidence,
    SlashingContract,
    SlashTx,
    WithdrawRequestTx,
    records_root,
)
from .crypto import KeyPair, MerkleProof
from .messages import (
    EventListMsg,
    EventListRequest,
    ForwardMsg,
    QueryMsg,
    ReceiptMsg,
    ResponseMsg,
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
) -> SignedResponse | None:
    """One provider's answer to a query; None is silence.

    Honest providers only speak about finalized blocks and refuse once
    leaving; adversaries never refuse.  Lying adversaries fabricate only
    for value-bearing target states: misreporting protocol bookkeeping
    records (insurance purchases, register/withdraw events) yields nothing
    and would burn their stake before any insured acceptance exists, so a
    rational attacker answers those honestly.
    """
    if strategy is ProviderStrategy.UNRESPONSIVE:
        return None
    if strategy is ProviderStrategy.HONEST:
        if status is not ProviderStatus.ACTIVE:
            return None
        if not chain.is_finalized(query.block_number):
            return None
    elif strategy is ProviderStrategy.UNFINALIZED_HASH:
        if query.block_number > chain.tip.number:
            return None
    # WRONG_HASH and EXIT_SCAM.
    elif _is_protocol_record_query(query, chain):
        if not chain.is_finalized(query.block_number):
            return None
    else:
        return _fabricated_response(keypair, query)
    return _true_response(keypair, query, chain)


def signed_event_list(
    keypair: KeyPair, epoch: int, records: tuple[tuple[int, bytes], ...]
) -> EventListMsg:
    """`records` as `keypair`'s membership list of `epoch`, signed over their root."""
    root = records_root(records)
    signature = crypto.sign(keypair.secret_key, codec.event_list_payload(epoch, root))
    return EventListMsg(epoch, records, root, keypair.public_key, signature)


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


class WatcherActor:
    """Honest watcher: audits forwards, slashes, and alerts clients.

    A forwarded response is disputed when its block hash is not the
    finalized one (`watcher_check`), a forwarded membership list when its
    root is not the root of the contract's records of its epoch.

    An alert is built, with its slash record's inclusion proof, as soon as
    the record is known (blocks never change, so the proof holds for good),
    and sent once the record's block is final: the client's heavy check of
    it (`HeavyCheckOracle.verify_slash`) accepts only a final record.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._deferred: list[tuple[str, SignedResponse]] = []
        # Disputes awaiting their receipt: (client, disputed response or list).
        self._submitted: dict[int, tuple[str, SignedResponse | EventListMsg]] = {}
        # (client, alert) pairs whose slash record's block is not yet final.
        self._pending_alerts: list[tuple[str, Alert]] = []

    def handle_message(self, sender: str, payload, ctx) -> None:
        if isinstance(payload, ForwardMsg):
            self._audit(sender, payload.response, ctx)
        elif type(payload) is EventListMsg:
            self._audit_list(sender, payload, ctx)
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
            self._alert_inactive(client, response.provider_pk, ctx)

    def _audit_list(self, client: str, event_list: EventListMsg, ctx) -> None:
        """Dispute a forwarded list whose root is not the root of its epoch's
        records; a list with the right root needs nothing more."""
        if event_list.root == records_root(ctx.contract.membership_records(event_list.epoch)):
            return
        pk = event_list.provider_pk
        record = ctx.contract.provider(pk)
        if record is not None and record.status is ProviderStatus.SLASHED:
            self._alert_inactive(client, pk, ctx)
            return
        evidence = ListEvidence(pk, event_list.epoch, event_list.root, event_list.signature)
        token = ctx.submit_tx(self.name, SlashTx(evidence=evidence))
        self._submitted[token] = (client, event_list)

    def _handle_receipt(self, token: int, receipt, ctx) -> None:
        if token not in self._submitted:
            return
        client, signed = self._submitted.pop(token)
        if receipt.ok:
            record = (receipt.block_number, receipt.record_tx_id)
            self._queue_alert(client, AlertKind.PROVIDER_SLASHED, signed.provider_pk, record, ctx)
        elif receipt.reason == RejectReason.ALREADY_SLASHED:
            # Lost the race to another watcher; alert with the winner's record.
            if type(signed) is EventListMsg:
                self._audit_list(client, signed, ctx)
            else:
                self._audit(client, signed, ctx)

    def _alert_inactive(self, client: str, pk: bytes, ctx) -> None:
        """Alert `client` that `pk` is already slashed, with its slash record."""
        found = find_slash_record(pk, ctx.contract)
        if found is not None:
            self._queue_alert(client, AlertKind.PROVIDER_INACTIVE, pk, found, ctx)

    def _queue_alert(self, client: str, kind: AlertKind, pk: bytes, record, ctx) -> None:
        """Build the alert about provider `pk` from its slash record, a
        (block, tx id) pair, and hold it until that block is final."""
        block_number, tx_id = record
        proof = ctx.chain.inclusion_proof(block_number, tx_id)
        alert = Alert(kind, pk, block_number, tx_id, proof)
        self._pending_alerts.append((client, alert))

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
            for client, alert in pending:
                if ctx.chain.is_finalized(alert.slash_event_block):
                    ctx.send(self.name, client, alert)
                    ctx.log(self.name, "alert", alert.kind.value.encode())
                else:
                    self._pending_alerts.append((client, alert))


class DataProviderActor:
    """A staked provider node following one fixed strategy.

    Every provider but an unresponsive one answers an event-list request
    about an epoch whose last block is final with that epoch's membership
    records (`SlashingContract.membership_records`), signed over their root
    (`signed_event_list`), an empty list included. A list that leaves a
    record out is slashable, so even a lying provider, which gains nothing
    by omitting one, answers truly; and no provider speaks about an epoch
    whose records may still change. It signs each epoch's list once, and
    again only when the contract's tuple for the epoch is another object.

    Every query is answered afresh by `provider_respond`.
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
        # The signed list of each epoch asked about (`_event_list`).
        self._lists: dict[int, EventListMsg] = {}

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    def next_tick(self, now: int) -> int | None:
        """Earliest tick after `now` at which on_tick acts: the register
        tick, and the withdraw tick while no withdrawal is submitted; None
        when only a message can make it act."""
        ticks = []
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

    def handle_message(self, sender: str, payload, ctx) -> None:
        if type(payload) is EventListRequest:  # the bulk of a provider's mail
            epoch = payload.epoch
            final = ctx.chain.is_finalized(ctx.contract.epoch_last_block(epoch))
            if final and self.strategy is not ProviderStrategy.UNRESPONSIVE:
                ctx.send(self.name, sender, self._event_list(epoch, ctx))
        elif isinstance(payload, QueryMsg):
            record = ctx.contract.provider(self.public_key)
            status = record.status if record is not None else ProviderStatus.ACTIVE
            response = provider_respond(
                self.strategy, payload.query, ctx.chain, self.keypair, status
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

    def _event_list(self, epoch: int, ctx) -> EventListMsg:
        """This provider's signed list of `epoch`'s membership records."""
        records = ctx.contract.membership_records(epoch)
        msg = self._lists.get(epoch)
        if msg is None or msg.events is not records:
            msg = self._lists[epoch] = signed_event_list(self.keypair, epoch, records)
        return msg
