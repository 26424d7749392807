"""On-chain registry / slashing / insurance contract as a state machine.

The contract executes submissions at block boundaries and emits canonical
record transactions for every successful state change; failed submissions
produce a receipt and leave no trace on chain.  All balances move through
a single `Ledger`, so conservation of wei is checkable at any block.

Timing conventions: block `n` belongs to update epoch `n // B_u`; a
withdraw requested in epoch `e` becomes releasable at the last block of
epoch `e + 1`, deferred further while any of the provider's stake is locked.
A provider's `locked` moves only when a policy opens (`buy_insurance`) or
closes (`_close`: at expiry, or once a claim pays it in full), and a slash
zeroes it, so an unslashed provider's `locked` is the sum of its
allocations in open policies. A purchase names candidate backers, each with
a cap, and `buy_insurance` picks the allocations at execution, by the greedy
rule clients select with (`_rank`, `_take_greedily`).

The contract keeps one state version, bumped by every change of a provider
or policy record. Its readers key their own reuse on it: the oracle's
provider views and the harness's utilization samples are taken afresh
only once it has moved, so the contract's views are plain computations.
Open policies wait in a heap ordered by their last covered block, so a
block boundary touches only the policies that expire at it.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

from . import codec, crypto, pricing
from .chain import Chain
from .pricing import PricingParams

STAKE_VAULT = "contract:stake-vault"
REWARD_POOL = "contract:reward-pool"
BURN_SINK = "sink:burned"
GAS_SINK = "sink:gas"

#: Share of a slashed stake paid to the submitting watcher.
BOUNTY_FRACTION = (5, 100)

#: The longest coverage, in blocks, a policy may buy.
MAX_COVERAGE_DURATION = 100_000

#: Tags of the records that change the provider set (`fold_membership`).
MEMBERSHIP_TAGS = frozenset({codec.TAG_REGISTER, codec.TAG_WITHDRAW_REQUEST})


class ContractError(Exception):
    """Base for all rule violations the contract reports."""


class BelowMinStakeError(ContractError):
    pass


class DuplicateProviderError(ContractError):
    pass


class NotActiveError(ContractError):
    pass


class EpochTooFarError(ContractError):
    pass


class RevertReason(str, enum.Enum):
    INSUFFICIENT_ATTRIBUTABLE_STAKE = "InsufficientAttributableStake"
    DURATION_EXCEEDS_MAX = "DurationExceedsMax"
    INSUFFICIENT_BALANCE = "InsufficientBalance"


class Reverted(ContractError):
    """buy_insurance failed input validation; nothing was charged."""

    def __init__(self, reason: RevertReason) -> None:
        super().__init__(reason.value)
        self.reason = reason


class RejectReason(str, enum.Enum):
    SIGNATURE_INVALID = "SignatureInvalid"
    BLOCK_NOT_YET_FINAL = "BlockNotYetFinal"
    HASH_MATCHES_FINALIZED = "HashMatchesFinalized"
    ROOT_MATCHES_RECORDS = "RootMatchesRecords"
    ALREADY_SLASHED = "AlreadySlashed"
    UNKNOWN_PROVIDER = "UnknownProvider"


class SlashRejected(ContractError):
    """Dispute evidence did not prove misbehavior."""

    def __init__(self, reason: RejectReason) -> None:
        super().__init__(reason.value)
        self.reason = reason


class ProviderStatus(enum.Enum):
    ACTIVE = "active"
    LEAVING = "leaving"
    EXITED = "exited"
    SLASHED = "slashed"


class PolicyState(enum.Enum):
    OPEN = "open"
    CLAIMED = "claimed"
    EXPIRED = "expired"


@dataclass
class ProviderRecord:
    public_key: bytes
    stake: int
    status: ProviderStatus
    joined_epoch: int
    locked: int = 0
    withdraw_requested_epoch: int | None = None

    @property
    def attributable(self) -> int:
        return self.stake - self.locked


@dataclass
class InsurancePolicy:
    id: int
    buyer_pk: bytes
    allocations: tuple[tuple[bytes, int], ...]
    coverage_value: int
    start_block: int
    duration: int
    premium_wei: int
    state: PolicyState = PolicyState.OPEN
    paid: int = 0  # compensation paid so far; CLAIMED once it reaches coverage_value

    @property
    def last_covered_block(self) -> int:
        return self.start_block + self.duration

    def allocates(self, pk: bytes) -> bool:
        return any(p == pk for p, _ in self.allocations)


@dataclass(frozen=True)
class SlashEvent:
    provider_pk: bytes
    block_number: int
    slashed_amount: int
    insurance_id: int | None
    recorded_in_block: int
    record_tx_id: bytes
    compensation: int = 0
    bounty: int = 0
    burned: int = 0


@dataclass(frozen=True)
class SlashEvidence:
    """A disputed response: enough to replay the canonical signed payload."""

    provider_pk: bytes
    block_number: int
    signed_block_hash: bytes
    state_hash: bytes
    signature: bytes
    insurance_id: int | None = None

    def payload(self) -> bytes:
        return codec.response_payload(
            self.block_number, self.signed_block_hash, self.state_hash, self.insurance_id
        )


@dataclass(frozen=True)
class ListEvidence:
    """A disputed membership list: its provider's signature over (epoch, root)."""

    provider_pk: bytes
    epoch: int
    root: bytes
    signature: bytes

    def payload(self) -> bytes:
        return codec.event_list_payload(self.epoch, self.root)


@dataclass(frozen=True)
class ContractConfig:
    min_stake: int
    update_epoch_blocks: int
    max_challenge_period: int

    def validate(self, finality_depth_blocks: int, delta_ticks: int) -> None:
        """The safety bound behind "T_u much greater than maxT_cp"."""
        bound = self.max_challenge_period + finality_depth_blocks + 2 * delta_ticks
        if self.update_epoch_blocks < bound:
            raise ValueError(
                "update_epoch_blocks must satisfy "
                f"B_u >= maxT_cp + T_fin + 2*delta = {bound}, got {self.update_epoch_blocks}"
            )


class Ledger:
    """Flat wei accounts; every movement is a transfer, so Σ is invariant.

    `total()` sums the balances afresh, never from the amounts moved, so a
    transfer that loses or makes wei shows in it. `version` is bumped by
    every mint and transfer, so a caller can tell when Σ may have changed.
    """

    def __init__(self) -> None:
        self.balances: dict[object, int] = {
            STAKE_VAULT: 0,
            REWARD_POOL: 0,
            BURN_SINK: 0,
            GAS_SINK: 0,
        }
        self.version = 0

    def mint(self, account: object, amount: int) -> None:
        """Initial funding only; never called after a run starts."""
        self.balances[account] = self.balances.get(account, 0) + amount
        self.version += 1

    def balance(self, account: object) -> int:
        return self.balances.get(account, 0)

    def transfer(self, src: object, dst: object, amount: int) -> None:
        if amount < 0:
            raise ValueError("negative transfer")
        if self.balances.get(src, 0) < amount:
            raise ValueError(f"insufficient funds in {src!r}")
        self.balances[src] = self.balances.get(src, 0) - amount
        self.balances[dst] = self.balances.get(dst, 0) + amount
        self.version += 1

    def total(self) -> int:
        return sum(self.balances.values())


# Submissions actors place in the transaction pool.


@dataclass(frozen=True)
class RegisterTx:
    public_key: bytes
    stake: int


@dataclass(frozen=True)
class WithdrawRequestTx:
    public_key: bytes


@dataclass(frozen=True)
class BuyInsuranceTx:
    """A purchase of `coverage_value` for `duration` blocks. `allocations`
    lists candidates, (pk, cap) pairs: each provider may back at most its
    cap, and the contract decides the amounts (`buy_insurance`)."""

    buyer_pk: bytes
    allocations: tuple[tuple[bytes, int], ...]
    coverage_value: int
    duration: int


@dataclass(frozen=True)
class SlashTx:
    evidence: SlashEvidence | ListEvidence


Submission = RegisterTx | WithdrawRequestTx | BuyInsuranceTx | SlashTx


@dataclass(frozen=True)
class Receipt:
    """Execution outcome handed back to the submitter."""

    kind: str
    ok: bool
    reason: str | None = None
    block_number: int | None = None
    record_tx_id: bytes | None = None
    insurance_id: int | None = None
    premium_wei: int = 0
    gas_wei: int = 0
    allocations: tuple[tuple[bytes, int], ...] = ()  # a purchase's, as its record lists them


_capacity = itemgetter(1)


class NoEligibleProvidersError(ValueError):
    """Available backing cannot cover the requested value."""


def _rank(providers: Iterable[tuple[bytes, int]]) -> list[tuple[bytes, int]]:
    """`providers` in selection order: capacities descend, pk breaks ties."""
    # Two sorts without a Python key function: by pk, then stably by
    # descending capacity, which is the (-capacity, pk) order.
    ordered = sorted(providers)
    ordered.sort(key=_capacity, reverse=True)
    return ordered


def _take_greedily(
    ranked: Iterable[tuple[bytes, int]], required_backing: int
) -> list[tuple[bytes, int]]:
    """Walk `ranked` (pk, capacity) pairs in order, taking from each until
    `required_backing` is met; the last take is trimmed to the remainder
    and providers with no capacity are passed over. The one greedy rule of
    the contract's allocations and the clients' selections."""
    if required_backing <= 0:
        raise ValueError("required_backing must be positive")
    chosen: list[tuple[bytes, int]] = []
    remaining = required_backing
    for pk, capacity in ranked:
        if capacity <= 0:
            continue
        take = min(capacity, remaining)
        chosen.append((pk, take))
        remaining -= take
        if remaining == 0:
            return chosen
    raise NoEligibleProvidersError(
        f"available backing short by {remaining} wei of {required_backing}"
    )


def fold_membership(members: dict[bytes, int], records: Iterable[bytes]) -> dict[bytes, int]:
    """Apply record payloads, in order, to `members` (pk -> stake) and
    return it: the one membership rule of the contract, its providers and
    its clients. A register record sets its provider's stake, a withdraw
    record removes the provider, and any other record changes nothing."""
    for payload in records:
        tag = codec.record_tag(payload)
        if tag == codec.TAG_REGISTER:
            pk, stake = codec.decode_register_record(payload)
            members[pk] = stake
        elif tag == codec.TAG_WITHDRAW_REQUEST:
            members.pop(codec.decode_withdraw_record(payload), None)
    return members


@functools.lru_cache(maxsize=256)
def records_root(records: tuple[tuple[int, bytes], ...]) -> bytes:
    """The root a provider signs over a membership list of (block, record)
    pairs (`codec.event_list_payload`). Cached by value: every list that
    carries one epoch's records is hashed once."""
    return crypto.digest(codec.encode_records(records))


class SlashingContract:
    def __init__(
        self, config: ContractConfig, ledger: Ledger, params: PricingParams, verify=None
    ) -> None:
        self.config = config
        self._epoch_blocks = config.update_epoch_blocks
        self.ledger = ledger
        self.params = params
        # Checks slash evidence signatures; `crypto.verify` by default.
        self._verify = verify or crypto.verify
        self.providers: dict[bytes, ProviderRecord] = {}
        self.retired: list[ProviderRecord] = []
        self.policies: dict[int, InsurancePolicy] = {}
        self.slash_events: list[SlashEvent] = []
        self.reward_pool: dict[bytes, int] = {}
        # The (block, record) pairs of the membership records emitted in
        # each epoch, in execution order (`membership_records`).
        self._epoch_records: dict[int, tuple[tuple[int, bytes], ...]] = {}
        # Running fold of the records of every epoch up to `_folded_epoch`,
        # kept for the latest membership asked for.
        self._folded_epoch = -1
        self._folded: dict[bytes, int] = {}
        self._next_policy_id = 1
        self.current_block = 0
        # Open policies by (last covered block, id): the next to expire first.
        self._expiry: list[tuple[int, int]] = []
        # Providers in LEAVING status, the only ones an epoch end acts on.
        self._leaving = 0
        # Bumped by every change of provider or policy state.
        self.state_version = 0

    # -- time ---------------------------------------------------------------

    def epoch_of(self, block_number: int) -> int:
        return block_number // self._epoch_blocks

    @property
    def current_epoch(self) -> int:
        return self.epoch_of(self.current_block)

    def epoch_last_block(self, epoch: int) -> int:
        """The last block of `epoch`: its records are complete once it is final."""
        return (epoch + 1) * self._epoch_blocks - 1

    # -- registry -----------------------------------------------------------

    def register(self, pk: bytes, stake: int, block_number: int) -> bytes:
        if stake < self.config.min_stake:
            raise BelowMinStakeError(f"stake {stake} below minimum {self.config.min_stake}")
        existing = self.providers.get(pk)
        if existing is not None:
            if existing.status in (ProviderStatus.ACTIVE, ProviderStatus.LEAVING):
                raise DuplicateProviderError("provider already registered")
            # A node that exited and rejoins is a fresh provider.
            self.retired.append(existing)
        self.ledger.transfer(pk, STAKE_VAULT, stake)
        self.state_version += 1
        epoch = self.epoch_of(block_number)
        self.providers[pk] = ProviderRecord(
            public_key=pk,
            stake=stake,
            status=ProviderStatus.ACTIVE,
            joined_epoch=epoch,
        )
        return self._record(block_number, codec.register_record(pk, stake))

    def request_withdraw(self, pk: bytes, block_number: int) -> bytes:
        record = self.providers.get(pk)
        if record is None or record.status is not ProviderStatus.ACTIVE:
            raise NotActiveError("withdraw requires an active provider")
        epoch = self.epoch_of(block_number)
        record.status = ProviderStatus.LEAVING
        record.withdraw_requested_epoch = epoch
        self._leaving += 1
        self.state_version += 1
        return self._record(block_number, codec.withdraw_record(pk))

    def _record(self, block_number: int, payload: bytes) -> bytes:
        epoch = self.epoch_of(block_number)
        records = self._epoch_records.get(epoch, ())
        self._epoch_records[epoch] = records + ((block_number, payload),)
        if epoch <= self._folded_epoch:
            # Only a caller executing out of block order reaches a folded
            # epoch; start the fold over.
            self._folded_epoch, self._folded = -1, {}
        return payload

    def membership_records(self, epoch: int) -> tuple[tuple[int, bytes], ...]:
        """The (block, record) pairs of `epoch`'s membership records, in
        execution order (chain order in a run): the list providers serve.
        The tuple is replaced when a record lands, so until then every call
        returns the same object."""
        return self._epoch_records.get(epoch, ())

    def _fold_epochs(self, members: dict[bytes, int], first: int, last: int) -> dict[bytes, int]:
        """`fold_membership` of the records of epochs first..last."""
        epochs = (self.membership_records(e) for e in range(first, last + 1))
        return fold_membership(members, (payload for records in epochs for _, payload in records))

    # -- insurance ----------------------------------------------------------

    def buy_insurance(
        self,
        buyer_pk: bytes,
        candidates: Iterable[tuple[bytes, int]],
        coverage_value: int,
        duration: int,
        block_number: int,
    ) -> tuple[InsurancePolicy, bytes]:
        """Open a policy of `coverage_value` backed by `candidates`, (pk, cap)
        pairs: the buyer names who may back it and the most each may take,
        and the contract picks the amounts. It passes over candidates that
        are not active, ranks the rest by the lesser of cap and attributable
        stake (`_rank`; a pk named twice keeps its last cap) and takes
        greedily, the last take trimmed to the remainder. It reverts for
        want of stake only when the candidates together are short."""
        if duration > MAX_COVERAGE_DURATION:
            raise Reverted(RevertReason.DURATION_EXCEEDS_MAX)
        providers, active = self.providers, ProviderStatus.ACTIVE
        capacities = [
            (pk, min(cap, record.attributable))
            for pk, cap in dict(candidates).items()
            if (record := providers.get(pk)) is not None and record.status is active
        ]
        try:
            allocations = _take_greedily(_rank(capacities), coverage_value)
        except NoEligibleProvidersError:
            raise Reverted(RevertReason.INSUFFICIENT_ATTRIBUTABLE_STAKE) from None

        premium_wei = pricing.premium(self.params, duration, coverage_value)
        if self.ledger.balance(buyer_pk) < premium_wei + self.params.gas_cost_wei:
            raise Reverted(RevertReason.INSUFFICIENT_BALANCE)
        self.ledger.transfer(buyer_pk, REWARD_POOL, premium_wei)
        self.ledger.transfer(buyer_pk, GAS_SINK, self.params.gas_cost_wei)
        self._credit_reward_pools(allocations, premium_wei)

        for pk, amount in allocations:
            self.providers[pk].locked += amount
        policy = InsurancePolicy(
            id=self._next_policy_id,
            buyer_pk=buyer_pk,
            allocations=tuple(allocations),
            coverage_value=coverage_value,
            start_block=block_number,
            duration=duration,
            premium_wei=premium_wei,
        )
        self._next_policy_id += 1
        self.policies[policy.id] = policy
        heapq.heappush(self._expiry, (policy.last_covered_block, policy.id))
        self.state_version += 1
        payload = codec.insurance_record(
            policy.id, buyer_pk, coverage_value, block_number, duration, allocations
        )
        return policy, payload

    def _credit_reward_pools(
        self, allocations: list[tuple[bytes, int]], premium_wei: int
    ) -> None:
        # Pro-rata by allocation, remainders dealt one wei at a time so the
        # split is exact.
        total = sum(a for _, a in allocations)
        shares = [(pk, premium_wei * a // total) for pk, a in allocations]
        remainder = premium_wei - sum(s for _, s in shares)
        out = []
        for i, (pk, s) in enumerate(shares):
            extra = 1 if i < remainder else 0
            out.append((pk, s + extra))
        for pk, s in out:
            self.reward_pool[pk] = self.reward_pool.get(pk, 0) + s

    # -- slashing -----------------------------------------------------------

    def slash(
        self,
        evidence: SlashEvidence | ListEvidence,
        chain: Chain,
        block_number: int,
        submitter: object | None = None,
    ) -> tuple[SlashEvent, bytes]:
        """Slash the signer of `evidence`: a response whose block hash is not
        the finalized one, or a membership list whose root is not the root of
        its epoch's records, once that epoch's last block is final. Only a
        response can pay a policy; the slash record of a list names the
        epoch's last block and the signed root."""
        if not self._verify(evidence.provider_pk, evidence.payload(), evidence.signature):
            raise SlashRejected(RejectReason.SIGNATURE_INVALID)
        record = self.providers.get(evidence.provider_pk)
        if record is None or record.status is ProviderStatus.EXITED:
            raise SlashRejected(RejectReason.UNKNOWN_PROVIDER)
        if record.status is ProviderStatus.SLASHED:
            raise SlashRejected(RejectReason.ALREADY_SLASHED)
        if isinstance(evidence, ListEvidence):
            block = self.epoch_last_block(evidence.epoch)
            signed_hash, insurance_id = evidence.root, None
            if not chain.is_finalized(block):
                raise SlashRejected(RejectReason.BLOCK_NOT_YET_FINAL)
            if signed_hash == records_root(self.membership_records(evidence.epoch)):
                raise SlashRejected(RejectReason.ROOT_MATCHES_RECORDS)
        else:
            block, signed_hash = evidence.block_number, evidence.signed_block_hash
            insurance_id = evidence.insurance_id
            if block > chain.tip.number:
                raise SlashRejected(RejectReason.BLOCK_NOT_YET_FINAL)
            finalized = chain.finalized_block_hash(block)
            if finalized is None:
                raise SlashRejected(RejectReason.BLOCK_NOT_YET_FINAL)
            if finalized == signed_hash:
                raise SlashRejected(RejectReason.HASH_MATCHES_FINALIZED)

        slashed_amount = record.stake
        record.stake = 0
        record.locked = 0
        if record.status is ProviderStatus.LEAVING:
            self._leaving -= 1
        record.status = ProviderStatus.SLASHED
        self.state_version += 1

        compensation = 0
        claimed_id = None
        if insurance_id is not None:
            policy = self.policies.get(insurance_id)
            if (
                policy is not None
                and policy.state is PolicyState.OPEN
                and policy.allocates(evidence.provider_pk)
            ):
                # A slash pays only out of the slashed stake. A policy that one
                # stake cannot cover stays open for the next covered liar's slash.
                compensation = min(policy.coverage_value - policy.paid, slashed_amount)
                policy.paid += compensation
                if policy.paid == policy.coverage_value:
                    self._close(policy, PolicyState.CLAIMED)
                claimed_id = policy.id
                self.ledger.transfer(STAKE_VAULT, policy.buyer_pk, compensation)

        num, den = BOUNTY_FRACTION
        bounty = min(slashed_amount * num // den, slashed_amount - compensation)
        if submitter is not None and bounty > 0:
            self.ledger.transfer(STAKE_VAULT, submitter, bounty)
        elif bounty > 0:
            self.ledger.transfer(STAKE_VAULT, BURN_SINK, bounty)
        burned = slashed_amount - compensation - bounty
        self.ledger.transfer(STAKE_VAULT, BURN_SINK, burned)

        payload = codec.slash_record(
            evidence.provider_pk,
            block,
            signed_hash,
            slashed_amount,
            claimed_id,
            evidence.signature,
        )
        event = SlashEvent(
            provider_pk=evidence.provider_pk,
            block_number=block,
            slashed_amount=slashed_amount,
            insurance_id=claimed_id,
            recorded_in_block=block_number,
            record_tx_id=crypto.digest(payload),
            compensation=compensation,
            bounty=bounty,
            burned=burned,
        )
        self.slash_events.append(event)
        return event, payload

    # -- block boundary -----------------------------------------------------

    def next_boundary_block(self) -> int | float:
        """The first block after `current_block` whose boundary acts: the
        block after the next policy expiry or, while a provider is leaving,
        the next epoch's last block; infinity when neither is ahead."""
        expiry = self._expiry
        nxt = expiry[0][0] + 1 if expiry else math.inf
        if self._leaving:
            blocks = self._epoch_blocks
            nxt = min(nxt, ((self.current_block + 1) // blocks + 1) * blocks - 1)
        return nxt

    def process_block_boundary(self, block_number: int) -> list[tuple]:
        """Run once after each appended block; expiries, in policy id order,
        before withdrawals."""
        boundary = self.next_boundary_block()
        self.current_block = block_number
        if block_number < boundary:
            return []  # most blocks: nothing expires and no leaver's epoch ends
        expiry = self._expiry
        effects: list[tuple] = []
        due = []
        while expiry and expiry[0][0] < block_number:
            due.append(heapq.heappop(expiry)[1])
        for policy_id in sorted(due):
            policy = self.policies[policy_id]
            if policy.state is not PolicyState.OPEN:
                continue  # claimed in full before it ran out
            self._close(policy, PolicyState.EXPIRED)
            effects.append(("policy_expired", policy.id))
        if self._leaving and (block_number + 1) % self._epoch_blocks == 0:
            epoch = self.epoch_of(block_number)
            for record in list(self.providers.values()):
                if record.status is not ProviderStatus.LEAVING:
                    continue
                if record.withdraw_requested_epoch >= epoch:
                    continue  # releasable from the next epoch's last block
                if record.locked:
                    continue  # an open policy still allocates its stake
                amount = record.stake
                record.stake = 0
                record.status = ProviderStatus.EXITED
                self._leaving -= 1
                self.state_version += 1
                self.ledger.transfer(STAKE_VAULT, record.public_key, amount)
                effects.append(("withdrawn", record.public_key, amount))
        return effects

    def _close(self, policy: InsurancePolicy, state: PolicyState) -> None:
        """Close an open policy as `state`, releasing its locks on every unslashed provider."""
        policy.state = state
        for pk, amount in policy.allocations:
            record = self.providers[pk]
            if record.status is not ProviderStatus.SLASHED:
                record.locked -= amount
        self.state_version += 1

    # -- views --------------------------------------------------------------

    def active_set(self, epoch: int) -> list[tuple[bytes, int, int]]:
        """Epochal provider set: (pk, stake, attributable), pk-sorted.

        Membership is `fold_membership` of the records up to epoch i-2, the
        two-epoch lag an online light client can reconstruct from verified
        epoch i-1 events; the set is static within an epoch. Currently
        slashed providers are excluded, and only active ones, the only ones
        that can back a new policy, show attributable stake; others show 0.

        Each call builds a fresh list; the oracle keeps its views of it for
        one (epoch, state version).
        """
        if epoch > self.current_epoch + 1:
            raise EpochTooFarError(
                f"epoch {epoch} is beyond current epoch {self.current_epoch} + 1"
            )
        last = epoch - 2
        if last > self._folded_epoch:
            # Records only arrive for the current epoch or later, so every
            # epoch up to `last` is final: move the fold on.
            self._fold_epochs(self._folded, self._folded_epoch + 1, last)
            self._folded_epoch = last
        if last == self._folded_epoch:
            members = self._folded
        else:  # an earlier epoch: replay
            members = self._fold_epochs({}, 0, last)
        out = []
        for pk in sorted(members):
            record = self.providers.get(pk)
            if record is None or record.status is ProviderStatus.SLASHED:
                continue
            attributable = record.attributable if record.status is ProviderStatus.ACTIVE else 0
            out.append((pk, members[pk], attributable))
        return out

    def provider(self, pk: bytes) -> ProviderRecord | None:
        return self.providers.get(pk)

    def utilization_sample(self) -> tuple[int, int]:
        """(total locked, total stake) over currently active providers."""
        locked = 0
        stake = 0
        for record in self.providers.values():
            if record.status is ProviderStatus.ACTIVE:
                locked += record.locked
                stake += record.stake
        return locked, stake

    # -- transaction execution ----------------------------------------------

    def execute_transaction(
        self,
        submission: Submission,
        chain: Chain,
        block_number: int,
        submitter: object | None = None,
    ) -> tuple[list[bytes], Receipt]:
        """Execute one pooled submission; returns on-chain record payloads
        (empty on failure) and the submitter's receipt."""
        try:
            if isinstance(submission, RegisterTx):
                payload = self.register(submission.public_key, submission.stake, block_number)
                return [payload], self._ok("register", payload, block_number)
            if isinstance(submission, WithdrawRequestTx):
                payload = self.request_withdraw(submission.public_key, block_number)
                return [payload], self._ok("withdraw", payload, block_number)
            if isinstance(submission, BuyInsuranceTx):
                policy, payload = self.buy_insurance(
                    submission.buyer_pk,
                    submission.allocations,
                    submission.coverage_value,
                    submission.duration,
                    block_number,
                )
                receipt = Receipt(
                    kind="buy_insurance",
                    ok=True,
                    block_number=block_number,
                    record_tx_id=crypto.digest(payload),
                    insurance_id=policy.id,
                    premium_wei=policy.premium_wei,
                    gas_wei=self.params.gas_cost_wei,
                    allocations=policy.allocations,
                )
                return [payload], receipt
            if isinstance(submission, SlashTx):
                _, payload = self.slash(submission.evidence, chain, block_number, submitter)
                return [payload], self._ok("slash", payload, block_number)
        except ContractError as exc:
            return [], Receipt(kind=type(submission).__name__, ok=False, reason=str(exc))
        raise TypeError(f"unknown submission type: {submission!r}")

    @staticmethod
    def _ok(kind: str, payload: bytes, block_number: int) -> Receipt:
        return Receipt(
            kind=kind,
            ok=True,
            block_number=block_number,
            record_tx_id=crypto.digest(payload),
        )
