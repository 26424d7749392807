"""Light-client state machines: economic (wait-based) and insured modes.

The economic client queries providers whose cumulative stake backs the
target value, forwards the signed responses to watchers, and accepts only
after its challenge period passes alert-free.  The insured client first
buys stake-backed coverage, confirms the purchase transaction via the
economic path, then accepts target data the moment signatures verify,
keeping an ear open for compensation.

Both walk one lifecycle, `LightClientActor.stage`, one transition per event:

    START      --tick-->             QUERYING (economic) or BUYING (insured)
    BUYING     --receipt-->          CONFIRMING, or GAVE_UP if reverted
    CONFIRMING --record accepted-->  CONFIRMED
    CONFIRMED  --tick-->             QUERYING
    QUERYING   --target accepted-->  ACCEPTED

An insured client whose policy is voided before acceptance (an allocated
provider times out, is slashed or answers invalidly) goes back to START and
buys again.  GAVE_UP is terminal: the held stakes cannot back the value, a
purchase reverts, or no provider is left for the target.  Restarting one
check never moves the stage.

A purchase names every held provider the client may still use, each with
its held stake as the most it may back, and the contract decides the
amounts when it executes (`SlashingContract.buy_insurance`): purchases that
name the same providers in one block do not collide, and a revert means the
candidates together are short, so buying again would revert alike.

Clients that read the same contract state hold the same read-only
`ProviderView` of it, and clients that predict the same successor of a
view hold the same successor. Whatever is a pure function of a view is
computed once, on first use, and cached on the view: the pk order by
stake, and the view after each list of accepted records. Each selection
walks the held view's order greedily, passing over the client's dropped and
leaving providers (`LightClientActor.select`), as `select_providers` does
over a list.

A maintaining client that stays online never repeats the bootstrap heavy
check: it predicts the epoch e+1 provider set by folding the verified
membership records of epoch e-1 into its epoch e set with the contract's
own rule (`contract.fold_membership`). It learns those records from signed
lists, asked only of the providers its value selects: a list that leaves a
record out or adds one is slashable, so the selected providers' stake backs
the lists as it backs their answers, and a list is the client's one answer
about its epoch. Each list is forwarded to the watchers, and the client
predicts once the maintenance challenge period after the last list has
passed, as an economic check accepts once its challenge period has; a
slash alert about a provider whose list the prediction rests on has the
client read the next set through a heavy check instead. It keeps one
maintenance record, for the epoch it holds, and the sets of that epoch and
the next. A client that does not maintain keeps the set of its latest
bootstrap and never moves its epoch on.

Each tick-driven action has one deadline, written once and read both by
the driver that acts and by `next_tick`, which tells the harness when to
tick the client again: `_live_from` (start and offline window),
`_protocol_waits` (the lifecycle), `_epoch_due` (the next epoch),
`_maintenance_due` (fetch, collect and predict) and `_check_deadline`
(issue, time out or finish a check).
"""

from __future__ import annotations

import enum
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from operator import itemgetter

from . import codec, crypto
from .actors import Alert, Query, SignedResponse
from .chain import block_hash
from .contract import (
    BuyInsuranceTx,
    NoEligibleProvidersError,
    _rank,
    _take_greedily,
    fold_membership,
    records_root,
)
from .crypto import KeyPair
from .messages import (
    CompensationMsg,
    EventListMsg,
    EventListRequest,
    ForwardMsg,
    QueryMsg,
    ReceiptMsg,
    ResponseMsg,
)
from .pricing import CoverageInputs, min_coverage_duration


class Protocol(enum.Enum):
    ECO = "eco"
    INS = "ins"


class Stage(enum.Enum):
    """Where a client is on its path to the target (module docstring)."""

    START = "start"
    BUYING = "buying"  # purchase submitted, receipt pending
    CONFIRMING = "confirming"  # economic check of the purchase record
    CONFIRMED = "confirmed"  # policy confirmed, target query next
    QUERYING = "querying"  # target check open
    ACCEPTED = "accepted"
    GAVE_UP = "gave_up"


def select_providers(
    providers: list[tuple[bytes, int]], required_backing: int
) -> list[tuple[bytes, int]]:
    """Greedy fewest-providers selection.

    Capacities descend (pk as tie-break), the last allocation is trimmed
    to the exact remainder.  Raises NoEligibleProvidersError when the
    total available backing is short.
    """
    return _take_greedily(_rank(providers), required_backing)


def apply_epoch_events(
    provider_set: Mapping[bytes, int], events: Iterable[tuple[int, bytes]]
) -> dict[bytes, int]:
    """A copy of `provider_set` with the verified (block, record) `events`
    folded in, in block order, by `fold_membership`."""
    ordered = sorted(events, key=itemgetter(0))
    return fold_membership(dict(provider_set), [payload for _, payload in ordered])


class ProviderView(dict):
    """A read-only pk -> stake mapping that every client reading the same
    contract state, or predicting the same successor, shares.

    What is a pure function of the view is computed on first use and cached
    on it (`ranking`, `successor`), so the caches go with the view when the
    last client holding it lets go. It is a dict, so reads cost what a
    dict's do and it compares equal to a dict of the same pairs; every
    method that would change it raises TypeError.
    """

    __slots__ = ("_by_stake", "_successors", "__weakref__")

    def __init__(self, pairs=()) -> None:
        super().__init__(pairs)
        self._by_stake: list[bytes] | None = None
        self._successors: dict[tuple[tuple[int, bytes], ...], ProviderView] | None = None

    def _read_only(self, *args, **kwargs):
        raise TypeError("a provider view is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # Copies rebuild through the constructor; the caches start empty.
        return ProviderView, (dict(self),)

    def ranking(self) -> list[bytes]:
        """This view's pks in selection order: stakes descend, pk breaks
        ties (`_rank`). Computed once."""
        order = self._by_stake
        if order is None:
            order = self._by_stake = [pk for pk, _ in _rank(self.items())]
        return order

    def successor(self, events: tuple[tuple[int, bytes], ...]) -> ProviderView:
        """The view after the verified (block, record) `events`, by
        `apply_epoch_events`: computed once per tuple of events, and this
        view itself when there are none."""
        if not events:
            return self
        cache = self._successors
        if cache is None:
            cache = self._successors = {}
        view = cache.get(events)
        if view is None:
            view = cache[events] = ProviderView(apply_epoch_events(self, events))
        return view


@dataclass(frozen=True, kw_only=True)
class ClientConfig:
    protocol: Protocol = Protocol.ECO
    challenge_period: int
    target_value: int
    target_block: int = 2
    start_tick: int | None = None
    coverage_inputs: CoverageInputs | None = None
    initial_balance: int = 10**18
    maintain: bool = False
    maintenance_challenge_period: int | None = None
    offline: tuple[int, int] | None = None
    perform_check: bool = True

    def __post_init__(self) -> None:
        if self.protocol is Protocol.INS and self.coverage_inputs is None:
            raise ValueError("insured clients need coverage_inputs")

    @property
    def insurance_challenge_period(self) -> int:
        assert self.coverage_inputs is not None
        return self.coverage_inputs.challenge_periods[0]


class HeavyCheckCause(enum.Enum):
    """Why a client pays a heavy check (`HeavyCheckOracle`)."""

    BOOTSTRAP = "bootstrap"  # the first provider-set read
    EPOCH_GAP = "epoch_gap"  # no predicted set for the clock's epoch
    SHORT_BACKING = "short_backing"  # no selection backs a list request
    ALERT = "alert"  # a slash alert that can change the next step


class CheckKind(enum.Enum):
    TARGET = "target"
    INSURANCE_INCLUSION = "insurance_inclusion"


@dataclass
class Check:
    """One inclusion check: query, forward, listen, accept.

    An insured check (`insurance_id` set) accepts as soon as its responses
    verify; any other waits out its challenge period. A check is open while
    `outcome` is None."""

    kind: CheckKind
    block_number: int
    state_hash: bytes
    challenge_period: int
    value: int
    insurance_id: int | None = None
    selected: list[bytes] = field(default_factory=list)  # the providers queried
    responses: dict[bytes, SignedResponse] = field(default_factory=dict)
    query_tick: int | None = None
    accepted_tick: int | None = None
    first_response_tick: int | None = None
    last_response_tick: int | None = None
    restarts: int = 0
    outcome: str | None = None


@dataclass
class _Maintenance:
    """The prediction of the set after the held epoch: the signed lists of
    the epoch before it, from the providers the client's value selects, and
    then the maintenance challenge period from the last one's arrival."""

    epoch: int
    requested_tick: int  # when the providers in `asked` were asked
    asked: list[bytes] = field(default_factory=list)  # the last round's providers
    listed: set[bytes] = field(default_factory=set)  # whose verified list is merged
    events: set[tuple[int, bytes]] = field(default_factory=set)
    # The events tuple last merged into `events`. Providers send the
    # contract's tuple of the epoch, so a list carrying this very tuple adds
    # nothing; an equal tuple that is another object is merged again.
    merged: tuple[tuple[int, bytes], ...] | None = None
    last_list_tick: int = 0  # when the last verified list arrived
    collected: bool = False  # no further list counts


def verify_response(check: Check, response: SignedResponse, verify=None) -> bool:
    """Everything a light client can check locally: echo fields, the
    provider signature, header consistency, and the inclusion proof.

    `verify` checks the signature; by default it is `crypto.verify`.
    """
    if response.block_number != check.block_number:
        return False
    if response.state_hash != check.state_hash:
        return False
    if response.insurance_id != check.insurance_id:
        return False
    verify = verify or crypto.verify
    if not verify(response.provider_pk, response.payload(), response.signature):
        return False
    recomputed = block_hash(
        response.block_number, response.parent_hash, response.transactions_root
    )
    if recomputed != response.block_hash:
        return False
    return crypto.merkle_verify(
        response.transactions_root, response.state_hash, response.inclusion_proof
    )


class LightClientActor:
    """Deterministic client state machine driven by simulation ticks."""

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        config: ClientConfig,
        update_epoch_blocks: int,
        delta_ticks: int,
        t_fin: int,
    ) -> None:
        self.name = name
        self.keypair = keypair
        self.config = config
        self.update_epoch_blocks = update_epoch_blocks
        self.delta = delta_ticks
        self.t_fin = t_fin
        self.stage = Stage.START
        self.bootstrap_epochs: list[int] = []
        self.sets: dict[int, ProviderView] = {}
        self.current_epoch_held: int | None = None
        self.dropped: set[bytes] = set()
        self.checks: list[Check] = []
        self._pending_purchase: int | None = None  # token of the BUYING purchase
        self._insurance_id: int | None = None  # the policy, from CONFIRMING on
        self._allocations: list[tuple[bytes, int]] = []  # the policy's, from its receipt
        self._maintenance: _Maintenance | None = None
        # Providers that have asked to withdraw, as of the latest set read.
        self.leaving: frozenset[bytes] = frozenset()

    # -- helpers ------------------------------------------------------------

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    @property
    def bootstrapped(self) -> bool:
        return bool(self.bootstrap_epochs)

    def epoch_of_tick(self, tick: int) -> int:
        # Epoch of the newest block a client can have observed at this
        # tick (block tick-1), which keeps its clock aligned with the
        # contract's at every instant.
        return max(0, tick - 1) // self.update_epoch_blocks

    def _offline_at(self, tick: int) -> bool:
        window = self.config.offline
        return window is not None and window[0] <= tick <= window[1]

    def current_set(self) -> ProviderView:
        held = self.sets.get(self.current_epoch_held)
        return held if held is not None else ProviderView()

    def set_for_epoch(self, epoch: int) -> ProviderView | None:
        return self.sets.get(epoch)

    def _eligible(self) -> Iterator[tuple[bytes, int]]:
        """The held set's (pk, stake) pairs in selection order, less the
        dropped and the leaving providers: a leaving provider backs no new
        policy and an honest one answers no query.

        The held view ranks itself once, for every client that holds it
        (`ProviderView.ranking`); views are replaced, never changed, when
        the client learns a new set."""
        held = self.current_set()
        skip = self.dropped | self.leaving if self.leaving else self.dropped
        return ((pk, held[pk]) for pk in held.ranking() if pk not in skip)

    def select(self, value: int) -> list[tuple[bytes, int]]:
        """`select_providers` over the eligible held providers: walks their
        order and stops once `value` is backed."""
        return _take_greedily(self._eligible(), value)

    def persistent_state_bytes(self) -> bytes:
        """Canonical encoding of what survives between checks."""
        parts = []
        for pk, stake in sorted(self.current_set().items()):
            parts.append(codec.encode_bytes(pk) + codec.encode_u128(stake))
        return b"".join(parts)

    # -- bootstrap ------------------------------------------------------------

    def bootstrap(
        self, ctx, now: int, cause: HeavyCheckCause = HeavyCheckCause.BOOTSTRAP
    ) -> None:
        epoch, held, leaving = ctx.oracle.provider_set(self.name, cause)
        self.sets[epoch] = held
        self.leaving = leaving
        self._hold(epoch)
        self.bootstrap_epochs.append(epoch)
        ctx.log(self.name, "bootstrap", codec.encode_u64(epoch))

    # -- tick driver ----------------------------------------------------------

    def on_tick(self, now: int, ctx) -> None:
        if self._live_from(now) != now:
            return
        if not self.bootstrap_epochs:
            self.bootstrap(ctx, now)
        if self.config.maintain:
            self._advance_epoch(now, ctx)
            self._run_maintenance(now, ctx)
        self._drive_protocol(now, ctx)
        self._drive_checks(now, ctx)

    def next_tick(self, now: int) -> int | None:
        """Earliest tick after `now` at which on_tick could change anything,
        or None when only a delivered message can.

        It reads the same deadlines as the drivers that act on them, and a
        driver past its deadline stays ready until it acts, so the first
        live tick from the earliest deadline skips only no-op ticks. Waking
        too early costs one no-op tick.
        """
        soon = now + 1
        if not self.bootstrap_epochs or not self._protocol_waits():
            return self._live_from(soon)
        deadlines = []
        for check in self.checks:
            if check.outcome is None:
                deadline = self._check_deadline(check)
                if deadline is not None:
                    deadlines.append(deadline)
        if self.config.maintain:
            deadlines.append(self._epoch_due())
            due = self._maintenance_due()
            if due is not None:
                deadlines.append(due)
        if not deadlines:
            return None
        return self._live_from(max(soon, min(deadlines)))

    def _live_from(self, tick: int) -> int:
        """First tick from `tick` on at which on_tick does more than return:
        from the start tick on, outside the offline window."""
        tick = max(tick, self.config.start_tick or 0)
        if self._offline_at(tick):
            return self.config.offline[1] + 1
        return tick

    def _protocol_waits(self) -> bool:
        """True when _drive_protocol does nothing until a message arrives."""
        if self.stage is Stage.START:
            return not self.config.perform_check
        return self.stage is not Stage.CONFIRMED

    def _epoch_due(self) -> int:
        """First tick at which _advance_epoch acts: the first past the held
        epoch (the held epoch never runs ahead of the clock's)."""
        return (self.current_epoch_held + 1) * self.update_epoch_blocks + 1

    def _maintenance_due(self) -> int | None:
        """First tick at which _run_maintenance acts on the held epoch: its
        fetch tick, the first at which the previous epoch's last block is
        final, then the end of each round trip of list requests, then the
        end of the wait after the last list; None once the next set is
        predicted."""
        maintenance = self._maintenance
        if maintenance is None:
            return self.current_epoch_held * self.update_epoch_blocks + self.t_fin + 1
        if maintenance.epoch + 1 in self.sets:
            return None
        if not maintenance.collected:
            return maintenance.requested_tick + 2 * self.delta + 1
        cp = self.config.maintenance_challenge_period or self.config.challenge_period
        return maintenance.last_list_tick + cp

    def _check_deadline(self, check: Check) -> int | None:
        """First tick at which _drive_checks acts on the open `check`, or None."""
        if not check.selected:
            return check.query_tick  # issue the queries
        # Only the selected providers' responses are kept.
        if len(check.responses) < len(check.selected):
            return check.query_tick + 2 * self.delta + 1  # time out
        if check.insurance_id is not None:
            return None  # insured: accepted on receipt, listening only
        return check.last_response_tick + check.challenge_period  # accept

    def _advance_epoch(self, now: int, ctx) -> None:
        """Hold the clock's epoch: the predicted set, or a fresh heavy check."""
        if now < self._epoch_due():
            return
        epoch = self.epoch_of_tick(now)
        if epoch in self.sets:
            self._hold(epoch)
        else:
            # No predicted set for this epoch (offline across an epoch, or
            # the prediction was not done in time): a fresh heavy check.
            self.bootstrap(ctx, now, HeavyCheckCause.EPOCH_GAP)

    def _hold(self, epoch: int) -> None:
        """Make `epoch` the held epoch and let go of the view and maintenance
        record of every earlier one; only this epoch's and the next are
        read."""
        self.current_epoch_held = epoch
        self.sets = {e: held for e, held in self.sets.items() if e >= epoch}
        if self._maintenance is not None and self._maintenance.epoch < epoch:
            self._maintenance = None

    # -- main protocol ----------------------------------------------------------

    def _drive_protocol(self, now: int, ctx) -> None:
        if self._protocol_waits():
            return
        if self.stage is Stage.START:
            if self.config.protocol is Protocol.ECO:
                self._start_target(None, now, ctx)
            else:
                self._buy(ctx)
        elif self._policy_voided(self.dropped):  # CONFIRMED
            self._rebuy_policy()
        else:
            self._start_target(self._insurance_id, now, ctx)

    def _start_target(self, insurance_id: int | None, now: int, ctx) -> None:
        """Open the target check; an insured one accepts on verified signatures."""
        self.stage = Stage.QUERYING
        self.checks.append(
            Check(
                kind=CheckKind.TARGET,
                block_number=self.config.target_block,
                state_hash=ctx.target_state_hash(self.name),
                challenge_period=self.config.challenge_period,
                value=self.config.target_value,
                insurance_id=insurance_id,
                query_tick=now,
            )
        )

    def _buy(self, ctx) -> None:
        """Submit a purchase, or give up when the held stakes cannot back the value."""
        try:
            self._submit_purchase(ctx)
        except NoEligibleProvidersError:
            self.stage = Stage.GAVE_UP
            ctx.metrics.client(self.name).rejected += 1

    def _submit_purchase(self, ctx) -> None:
        assert self.config.coverage_inputs is not None
        duration = min_coverage_duration(self.config.coverage_inputs)
        value = self.config.target_value
        # Each eligible provider may back at most its held stake; the
        # contract allocates from them by their attributable stake then.
        candidates = tuple(self._eligible())
        if sum(cap for _, cap in candidates) < value:
            raise NoEligibleProvidersError(f"held stakes cannot back {value} wei")
        token = ctx.submit_tx(
            self.name,
            BuyInsuranceTx(
                buyer_pk=self.public_key,
                allocations=candidates,
                coverage_value=value,
                duration=duration,
            ),
        )
        self._pending_purchase = token
        self.stage = Stage.BUYING
        ctx.log(self.name, "buy_insurance", codec.encode_u64(token))

    def _policy_voided(self, dropped: Collection[bytes]) -> bool:
        """A provider backing the still-unconsumed policy went dark or was
        slashed: the coverage can no longer protect the target check."""
        if self.stage not in (Stage.CONFIRMING, Stage.CONFIRMED, Stage.QUERYING):
            return False
        return any(pk in dropped for pk, _ in self._allocations)

    def _rebuy_policy(self) -> None:
        """Abandon the voided policy and its checks; buy anew from START."""
        for check in self.checks:
            if check.outcome is None:
                check.outcome = "abandoned"
        self.stage = Stage.START

    # -- checks ------------------------------------------------------------------

    def _select_for_check(self, check: Check) -> list[bytes]:
        if check.insurance_id is not None:
            # The allocated providers back the policy; the insured query
            # goes exactly to them.
            return [pk for pk, _ in self._allocations if pk not in self.dropped]
        return [pk for pk, _ in self.select(check.value)]

    def _issue_queries(self, check: Check, now: int, ctx) -> None:
        check.selected = self._select_for_check(check)
        if not check.selected:
            raise NoEligibleProvidersError("no providers left for this check")
        check.responses.clear()
        check.query_tick = now
        msg = QueryMsg(query=Query(check.block_number, check.state_hash, check.insurance_id))
        ctx.send_to_providers(self.name, check.selected, msg)
        ctx.log(self.name, "query", check.state_hash)

    def _requery(self, check: Check, now: int, ctx) -> bool:
        """Query `check` afresh, or close it when no provider is eligible."""
        try:
            self._issue_queries(check, now, ctx)
        except NoEligibleProvidersError:
            check.outcome = "no_eligible_providers"
            if check.kind is CheckKind.TARGET:
                self.stage = Stage.GAVE_UP
            return False
        return True

    def _reject(self, check: Check, culprits: Iterable[bytes], ctx) -> None:
        """Drop the culprits and count one restart of `check`."""
        self.dropped.update(culprits)
        check.restarts += 1
        ctx.metrics.client(self.name).rejected += 1

    def _verify_all(self, check: Check, ctx) -> bool:
        """Verify every response of `check` and count the verifications."""
        metrics = ctx.metrics.client(self.name)
        metrics.signature_verifications_total += len(check.responses)
        if check.kind is CheckKind.TARGET:
            metrics.target_signature_verifications += len(check.responses)
        return all(verify_response(check, r, ctx.verify) for r in check.responses.values())

    def _drive_checks(self, now: int, ctx) -> None:
        """Issue, time out or finish each check whose deadline has come."""
        for check in self.checks:
            if check.outcome is not None:
                continue
            deadline = self._check_deadline(check)
            if deadline is None or now < deadline:
                continue
            if not check.selected:
                if not self._requery(check, now, ctx):
                    ctx.metrics.client(self.name).rejected += 1
                continue
            pending = [pk for pk in check.selected if pk not in check.responses]
            if pending:
                self._handle_timeout(check, pending, now, ctx)
            else:
                self._finish_economic_check(check, now, ctx)

    def _handle_timeout(self, check: Check, pending: list[bytes], now: int, ctx) -> None:
        self._reject(check, pending, ctx)
        ctx.log(self.name, "timeout", b"".join(sorted(pending)))
        if check.insurance_id is not None or self._policy_voided(pending):
            self._rebuy_policy()  # abandons `check` too
        else:
            self._requery(check, now, ctx)

    def _finish_economic_check(self, check: Check, now: int, ctx) -> None:
        if self._verify_all(check, ctx):
            self._accept(check, now, ctx)
            return
        # Signature or proof failed after the challenge period: discard
        # everything from this round and restart, never accept.
        self._reject(check, check.responses, ctx)
        self._requery(check, now, ctx)

    def _accept(self, check: Check, now: int, ctx) -> None:
        check.accepted_tick = now
        check.outcome = "accepted"
        metrics = ctx.metrics.client(self.name)
        if check.kind is CheckKind.TARGET:
            self.stage = Stage.ACCEPTED
            metrics.accepted += 1
            metrics.ticks_to_acceptance.append(now - (check.query_tick or now))
            ctx.record_acceptance(self.name, check)
        else:  # INSURANCE_INCLUSION
            self.stage = Stage.CONFIRMED
        ctx.log(self.name, "accepted", check.state_hash)

    # -- message handling ---------------------------------------------------------

    def handle_message(self, sender: str, payload, ctx) -> bool | None:
        """Act on a delivered message; False when it moves none of the
        client's deadlines (an event list), so it needs no tick."""
        now = ctx.now
        window = self.config.offline  # `_offline_at`, inline
        if window is not None and window[0] <= now <= window[1]:
            return
        if type(payload) is EventListMsg:
            # The bulk of a maintaining client's mail, decided inline. A list
            # counts only while the held epoch's lists are collected, from a
            # provider asked in the last round, once, and only when its root
            # and signature check out. It is then forwarded to the watchers,
            # who audit its root. A shared tuple is merged once.
            maintenance = self._maintenance
            pk = payload.provider_pk
            if (
                maintenance is not None
                and not maintenance.collected
                and maintenance.epoch == payload.epoch + 1
                and pk in maintenance.asked
                and pk not in maintenance.listed
                and records_root(payload.events) == payload.root
                and ctx.verify(pk, payload.payload(), payload.signature)
            ):
                maintenance.listed.add(pk)
                maintenance.last_list_tick = now
                events = payload.events
                if events is not maintenance.merged:
                    # An epoch's list names each record once, in a block of that epoch.
                    maintenance.merged = events
                    maintenance.events.update(events)
                ctx.send_to_each(self.name, ctx.watcher_names, payload)
            return False
        elif isinstance(payload, ResponseMsg):
            self._handle_response(payload.response, now, ctx)
        elif isinstance(payload, ReceiptMsg):
            self._handle_receipt(payload.token, payload.receipt, now, ctx)
        elif isinstance(payload, Alert):
            self._handle_alert(payload, now, ctx)
        elif isinstance(payload, CompensationMsg):
            ctx.metrics.client(self.name).compensated += 1
            ctx.metrics.client(self.name).compensation_received += payload.amount
            ctx.log(self.name, "compensated", codec.encode_u128(payload.amount))

    def _handle_response(self, response: SignedResponse, now: int, ctx) -> None:
        for check in self.checks:
            if check.outcome is not None or response.provider_pk not in check.selected:
                continue
            if (
                response.block_number != check.block_number
                or response.state_hash != check.state_hash
            ):
                continue
            if response.provider_pk in check.responses:
                return
            check.responses[response.provider_pk] = response
            if check.first_response_tick is None:
                check.first_response_tick = now
            check.last_response_tick = now
            # Forward to every watcher on receipt, so the challenge clock
            # runs from the last forward.
            ctx.send_to_each(self.name, ctx.watcher_names, ForwardMsg(response=response))
            if check.insurance_id is not None and len(check.responses) == len(check.selected):
                if self._verify_all(check, ctx):
                    self._accept(check, now, ctx)
                else:
                    self._reject(check, check.responses, ctx)
                    self._rebuy_policy()
            return

    def _handle_receipt(self, token: int, receipt, now: int, ctx) -> None:
        if token != self._pending_purchase:
            return
        self._pending_purchase = None
        if not receipt.ok:
            # The candidates together are short of the value, or the buyer's
            # balance of premium and gas: a retry would revert alike.
            ctx.log(self.name, "insurance_reverted", (receipt.reason or "").encode())
            self.stage = Stage.GAVE_UP
            ctx.metrics.client(self.name).rejected += 1
            return
        self.stage = Stage.CONFIRMING
        self._insurance_id = receipt.insurance_id
        # The record the inclusion check confirms lists these allocations, so
        # the insured query goes only to providers whose stake is locked for it.
        self._allocations = list(receipt.allocations)
        # Confirm the purchase record through the economic path.
        self.checks.append(
            Check(
                kind=CheckKind.INSURANCE_INCLUSION,
                block_number=receipt.block_number,
                state_hash=receipt.record_tx_id,
                challenge_period=self.config.insurance_challenge_period,
                value=self.config.target_value,
                query_tick=max(now, receipt.block_number + self.t_fin + 1),
            )
        )
        ctx.log(self.name, "insurance_open", codec.encode_u64(receipt.insurance_id))

    def _handle_alert(self, alert: Alert, now: int, ctx) -> None:
        pk = alert.offending_pk
        maintenance = self._maintenance
        if maintenance is not None and pk in maintenance.listed:
            # The prediction rests on a list whose signer's stake is gone, as
            # a list's is once slashed for a wrong root: read the next set
            # instead.
            maintenance.listed.discard(pk)
            self._read_next_set(maintenance, HeavyCheckCause.ALERT, ctx)
        active = [c for c in self.checks if c.outcome is None and pk in c.selected]
        policy_hit = self._policy_voided((pk,))
        if not active and not policy_hit:
            # The alert cannot change what the client does next: no open
            # check queried the provider and it backs no unused policy. Drop
            # it from future selection without a heavy check.
            self.dropped.add(pk)
            return
        # Verify the slashing event actually happened: the dispute path's
        # heavy check.
        verified = ctx.oracle.verify_slash(
            self.name,
            HeavyCheckCause.ALERT,
            alert.slash_event_block,
            alert.slash_record_tx_id,
            alert.slash_event_inclusion_proof,
        )
        ctx.log(self.name, "alert", pk)
        if not verified:
            return
        self.dropped.add(pk)
        if policy_hit:
            # The slashed provider backs our still-unconsumed policy, so the
            # coverage is void; start over with the remaining providers.
            ctx.metrics.client(self.name).rejected += 1
            self._rebuy_policy()
            return
        for check in active:
            if check.insurance_id is not None:
                # Insured mode: acceptance already happened or will not;
                # compensation arrives through the claim, nothing to redo.
                continue
            self._reject(check, (), ctx)
            self._requery(check, now, ctx)

    # -- provider-set maintenance --------------------------------------------------

    def _run_maintenance(self, now: int, ctx) -> None:
        """Predict the next epoch's set: at the fetch tick, ask the providers
        the client's value selects for the previous epoch's signed list; once
        the round trip is over, drop the ones still silent and ask the next
        ones selection names, as a check's timeout does; once every selected
        provider's list is in, wait out the maintenance challenge period from
        the last one's arrival, as an economic check does, and fold the
        listed records into the held set."""
        due = self._maintenance_due()
        if due is None or now < due:
            return
        epoch = self.current_epoch_held  # the clock's epoch, after _advance_epoch
        maintenance = self._maintenance
        if maintenance is None:  # the fetch tick has come
            maintenance = self._maintenance = _Maintenance(epoch, now)
            if epoch == 0:
                # No records precede epoch 0, so the next set is the held one.
                self._predict(1, self.sets[0], ctx)
            else:
                self._ask_for_lists(maintenance, now, ctx)
            return
        if not maintenance.collected:
            silent = [pk for pk in maintenance.asked if pk not in maintenance.listed]
            if silent:
                self.dropped.update(silent)
                ctx.log(self.name, "timeout", b"".join(sorted(silent)))
                if self._ask_for_lists(maintenance, now, ctx):
                    return
            maintenance.collected = True
            if now < self._maintenance_due():
                return
        # Sorted, so equal sets of records give equal tuples, and the held
        # view's memo one successor.
        events = tuple(sorted(maintenance.events))
        self._predict(epoch + 1, self.sets[epoch].successor(events), ctx)

    def _ask_for_lists(self, maintenance: _Maintenance, now: int, ctx) -> bool:
        """Ask the providers the client's value selects, less those whose
        list is in, for the list of the epoch before the held one; False when
        every one of them is in. When the providers left cannot back the
        value, read the next set through a heavy check instead."""
        try:
            selected = self.select(self.config.target_value)
        except NoEligibleProvidersError:
            self._read_next_set(maintenance, HeavyCheckCause.SHORT_BACKING, ctx)
            return True
        ask = [pk for pk, _ in selected if pk not in maintenance.listed]
        if not ask:
            return False
        maintenance.asked = ask
        maintenance.requested_tick = now
        ctx.send_to_providers(self.name, ask, EventListRequest(epoch=maintenance.epoch - 1))
        return True

    def _read_next_set(self, maintenance: _Maintenance, cause: HeavyCheckCause, ctx) -> None:
        """Take the set after the held epoch from one heavy check for `cause`,
        and close `maintenance`: its lists no longer decide the prediction."""
        maintenance.collected = True
        epoch = maintenance.epoch + 1
        _, held, self.leaving = ctx.oracle.provider_set(self.name, cause, epoch)
        self._predict(epoch, held, ctx)

    def _predict(self, epoch: int, provider_set: ProviderView, ctx) -> None:
        self.sets[epoch] = provider_set
        ctx.log(self.name, "predicted_set", codec.encode_u64(epoch))
