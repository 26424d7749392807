"""Light-client state machines: economic (wait-based) and insured modes.

The economic client queries providers whose cumulative stake backs the
target value, forwards the signed responses to watchers, and accepts only
after its challenge period passes alert-free.  The insured client first
buys stake-backed coverage, confirms the purchase transaction via the
economic path, then accepts target data the moment signatures verify,
keeping an ear open for compensation.

Both walk one lifecycle, `LightClientActor.stage`, one transition per event:

    START      --tick-->             QUERYING (economic) or BUYING (insured)
    BUYING     --receipt-->          CONFIRMING, or BUYING again if reverted
    CONFIRMING --record accepted-->  CONFIRMED
    CONFIRMED  --tick-->             QUERYING
    QUERYING   --target accepted-->  ACCEPTED

An insured client whose policy is voided before acceptance (an allocated
provider times out, is slashed or answers invalidly) goes back to START and
buys again.  GAVE_UP is terminal: no selection backs the value, purchases
revert too often or for want of balance, or no provider is left for the
target.  Restarting one check never moves the stage.

Clients that read the same contract state hold the same read-only
`ProviderView` of it, and clients that predict the same successor of a
view hold the same successor. Whatever is a pure function of a view is
computed once, on first use, and cached on the view: the pk order for each
capacity view, and the view after each list of accepted records. Each
selection walks the held view's order greedily, passing over the client's
dropped providers (`LightClientActor.select`), as `select_providers` does
over a list.

A maintaining client that stays online never repeats the bootstrap heavy
check: it predicts the epoch e+1 provider set by folding the verified
membership records of epoch e-1 into its epoch e set with the contract's
own rule (`contract.fold_membership`). It keeps one maintenance record, for
the epoch it holds, and the sets of that epoch and the next. A client that
does not maintain keeps the set of its latest bootstrap and never moves
its epoch on.

Each tick-driven action has one deadline, written once and read both by
the driver that acts and by `next_tick`, which tells the harness when to
tick the client again: `_live_from` (start and offline window),
`_protocol_waits` (the lifecycle), `_epoch_due` (the next epoch),
`_maintenance_due` (fetch and collect) and `_check_deadline` (issue, time
out or finish a check).
"""

from __future__ import annotations

import enum
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field
from operator import itemgetter

from . import codec, crypto
from .actors import Alert, Query, SignedResponse
from .chain import block_hash
from .contract import BuyInsuranceTx, RevertReason, fold_membership
from .crypto import KeyPair
from .messages import (
    CompensationMsg,
    EventListMsg,
    EventListRequest,
    ForwardMsg,
    QueryMsg,
    ReceiptMsg,
    ResponseMsg,
    fetch_tick,
)
from .pricing import CoverageInputs, min_coverage_duration


_capacity = itemgetter(1)


class NoEligibleProvidersError(ValueError):
    """Available backing cannot cover the requested value."""


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
    and providers with no capacity are passed over."""
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


def apply_epoch_events(
    provider_set: Mapping[bytes, int], events: Iterable[tuple[int, bytes]]
) -> dict[bytes, int]:
    """A copy of `provider_set` with the verified (block, record) `events`
    folded in, in block order, by `fold_membership`."""
    ordered = sorted(events, key=itemgetter(0))
    return fold_membership(dict(provider_set), [payload for _, payload in ordered])


class ProviderView(dict):
    """A read-only pk -> stake (or attributable stake) mapping that every
    client reading the same contract state, or predicting the same
    successor, shares.

    What is a pure function of the view is computed on first use and cached
    on it (`ranking`, `successor`), so the caches go with the view when the
    last client holding it lets go. It is a dict, so reads cost what a
    dict's do and it compares equal to a dict of the same pairs; every
    method that would change it raises TypeError.
    """

    __slots__ = ("_by_stake", "_by_capacity", "_successors", "__weakref__")

    def __init__(self, pairs=()) -> None:
        super().__init__(pairs)
        # The order by the view's own stakes, kept apart from the others so
        # that a view never refers to itself.
        self._by_stake: list[bytes] | None = None
        # (capacities, order) for each other capacity mapping, found by
        # identity; a view is ranked against one or a few.
        self._by_capacity: list[tuple[Mapping[bytes, int], list[bytes]]] | None = None
        self._successors: dict[tuple[tuple[int, bytes], ...], ProviderView] | None = None

    def _read_only(self, *args, **kwargs):
        raise TypeError("a provider view is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # Copies rebuild through the constructor; the caches start empty.
        return ProviderView, (dict(self),)

    def ranking(self, capacities: Mapping[bytes, int]) -> list[bytes]:
        """This view's pks in selection order by `capacities`, in which a
        pk that is missing keeps its stake: capacities descend, pk breaks
        ties (`_rank`). Computed once per capacity mapping."""
        if capacities is self:
            order = self._by_stake
            if order is None:
                order = self._by_stake = [pk for pk, _ in _rank(self.items())]
            return order
        cache = self._by_capacity
        if cache is None:
            cache = self._by_capacity = []
        for ranked_by, order in cache:
            if ranked_by is capacities:
                return order
        ranked = _rank((pk, capacities.get(pk, stake)) for pk, stake in self.items())
        order = [pk for pk, _ in ranked]
        cache.append((capacities, order))
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


def provider_views(rows: list[tuple[bytes, int, int]]) -> tuple[ProviderView, ProviderView]:
    """The stake view and the attributable-stake view of (pk, stake,
    attributable) rows, as `SlashingContract.active_set` lists them."""
    return (
        ProviderView((pk, stake) for pk, stake, _ in rows),
        ProviderView((pk, attributable) for pk, _, attributable in rows),
    )


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


class CheckKind(enum.Enum):
    TARGET = "target"
    INSURANCE_INCLUSION = "insurance_inclusion"
    EPOCH_EVENT = "epoch_event"


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
    event_payload: bytes | None = None
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
    """The prediction of the set after the held epoch: the event lists
    collected from the providers held when the epoch opened, then one check
    per record."""

    epoch: int
    requested_tick: int
    held: ProviderView
    events: set[tuple[int, bytes]] = field(default_factory=set)
    # The events tuple last merged into `events`. Providers send the
    # contract's tuple of the epoch, so a list carrying this very tuple adds
    # nothing; an equal tuple that is another object is merged again.
    merged: tuple[tuple[int, bytes], ...] | None = None
    checks: list[Check] = field(default_factory=list)
    collected: bool = False


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
        self.attributable: Mapping[bytes, int] = {}
        self.current_epoch_held: int | None = None
        self.dropped: set[bytes] = set()
        self.checks: list[Check] = []
        # Every check before this index is closed, so the loops that pass
        # over closed checks start here; `_accept` moves it on.
        self._first_open = 0
        self.alerts_seen: list[Alert] = []
        self._pending_purchase: int | None = None  # token of the BUYING purchase
        self._purchase_attempts: int = 0
        self._insurance_id: int | None = None  # the policy, from CONFIRMING on
        self._allocations: list[tuple[bytes, int]] = []  # set at purchase
        self._maintenance: _Maintenance | None = None
        # Providers sent an event-list request once; they keep answering.
        self._asked: set[bytes] = set()

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

    def select(self, use_attributable: bool, value: int) -> list[tuple[bytes, int]]:
        """`select_providers` over the held set less the dropped providers,
        by attributable stake or by stake.

        The held view ranks itself once per capacity view, for every client
        that holds it (`ProviderView.ranking`); views are replaced, never
        changed, when the client learns a new set. Each selection walks that
        order, passing over the dropped providers, and stops once `value` is
        backed."""
        held = self.current_set()
        capacities = self.attributable if use_attributable else held
        dropped = self.dropped
        return _take_greedily(
            (
                (pk, capacities.get(pk, held[pk]))
                for pk in held.ranking(capacities)
                if pk not in dropped
            ),
            value,
        )

    def persistent_state_bytes(self) -> bytes:
        """Canonical encoding of what survives between checks."""
        parts = []
        for pk, stake in sorted(self.current_set().items()):
            parts.append(
                codec.encode_bytes(pk)
                + codec.encode_u128(stake)
                + codec.encode_u128(self.attributable.get(pk, stake))
            )
        return b"".join(parts)

    # -- bootstrap ------------------------------------------------------------

    def bootstrap(self, ctx, now: int) -> None:
        epoch, held, attributable = ctx.oracle.provider_set(self.name)
        self.sets[epoch] = held
        self.attributable = attributable
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
        for check in self.checks[self._first_open :]:
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
        fetch tick, then the end of the collection window; None once the
        lists are collected."""
        maintenance = self._maintenance
        if maintenance is None:
            return fetch_tick(self.current_epoch_held, self.update_epoch_blocks, self.t_fin)
        if maintenance.collected:
            return None
        return maintenance.requested_tick + 2 * self.delta + 1

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
            # Offline across at least one full update epoch: prediction
            # chain broken, fall back to a fresh heavy check.
            self.bootstrap(ctx, now)

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
                self._buy(now, ctx)
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

    def _buy(self, now: int, ctx) -> None:
        """Submit a purchase, or give up when no selection backs the value."""
        try:
            self._submit_purchase(now, ctx)
        except NoEligibleProvidersError:
            self.stage = Stage.GAVE_UP
            ctx.metrics.client(self.name).rejected += 1

    def _submit_purchase(self, now: int, ctx) -> None:
        assert self.config.coverage_inputs is not None
        duration = min_coverage_duration(self.config.coverage_inputs)
        try:
            allocations = self.select(True, self.config.target_value)
        except NoEligibleProvidersError:
            if self._purchase_attempts == 0:
                raise
            # Stale attributable data; refresh it and retry once more.
            self.bootstrap(ctx, now)
            allocations = self.select(True, self.config.target_value)
        self._purchase_attempts += 1
        self._allocations = allocations
        token = ctx.submit_tx(
            self.name,
            BuyInsuranceTx(
                buyer_pk=self.public_key,
                allocations=tuple(allocations),
                coverage_value=self.config.target_value,
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
        for check in self.checks[self._first_open :]:
            if check.outcome is None and check.kind is not CheckKind.EPOCH_EVENT:
                check.outcome = "abandoned"
        self.stage = Stage.START

    # -- checks ------------------------------------------------------------------

    def _select_for_check(self, check: Check) -> list[bytes]:
        if check.insurance_id is not None:
            # The allocated providers back the policy; the insured query
            # goes exactly to them.
            return [pk for pk, _ in self._allocations if pk not in self.dropped]
        return [pk for pk, _ in self.select(False, check.value)]

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
        for check in self.checks[self._first_open :]:
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
            self._rebuy_policy()
        if check.outcome is None:  # a rebuy leaves record checks open
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
        # Most checks close here; an outcome is never reset.
        checks = self.checks
        first = self._first_open
        while first < len(checks) and checks[first].outcome is not None:
            first += 1
        self._first_open = first
        metrics = ctx.metrics.client(self.name)
        if check.kind is CheckKind.TARGET:
            self.stage = Stage.ACCEPTED
            metrics.accepted += 1
            metrics.ticks_to_acceptance.append(now - (check.query_tick or now))
            ctx.record_acceptance(self.name, check)
        elif check.kind is CheckKind.INSURANCE_INCLUSION:
            self.stage = Stage.CONFIRMED
        elif check.kind is CheckKind.EPOCH_EVENT:
            maintenance = self._maintenance
            # A check of an epoch no longer held changes nothing.
            if maintenance is not None and check in maintenance.checks:
                self._maintenance_event_done(maintenance, ctx)
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
            # The bulk of a maintaining client's mail, decided inline. Lists
            # count only while the held epoch's are collected, and only from
            # the providers held when it opened; one honest list among them
            # suffices, whoever else still answers. A shared tuple is merged
            # once.
            maintenance = self._maintenance
            events = payload.events
            if (
                maintenance is not None
                and events is not maintenance.merged
                and not maintenance.collected
                and maintenance.epoch == payload.epoch + 1
                and ctx.provider_keys[sender] in maintenance.held
            ):
                # An epoch's list names each record once, in a block of that epoch.
                maintenance.merged = events
                maintenance.events.update(events)
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
        for check in self.checks[self._first_open :]:
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
            ctx.log(self.name, "insurance_reverted", (receipt.reason or "").encode())
            if receipt.reason == RevertReason.INSUFFICIENT_BALANCE:
                # Premium and gas do not depend on the selection, so a
                # retry would revert alike.
                self.stage = Stage.GAVE_UP
                ctx.metrics.client(self.name).rejected += 1
                return
            # Reselect on a refreshed set and retry, a bounded number of times.
            if self._purchase_attempts >= len(self.current_set()) + 2:
                self.stage = Stage.GAVE_UP
                return
            self.bootstrap(ctx, now)
            self._buy(now, ctx)
            return
        self.stage = Stage.CONFIRMING
        self._insurance_id = receipt.insurance_id
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
        self.alerts_seen.append(alert)
        active = [
            check
            for check in self.checks
            if check.outcome is None and alert.offending_pk in check.selected
        ]
        involved_accepted = any(
            check.outcome == "accepted" and alert.offending_pk in check.selected
            for check in self.checks
        )
        policy_hit = self._policy_voided((alert.offending_pk,))
        if not active and not involved_accepted and not policy_hit:
            # Not ours; still drop the provider from future selection.
            self.dropped.add(alert.offending_pk)
            return
        # Verify the slashing event actually happened: the dispute path's
        # heavy check.
        verified = ctx.oracle.verify_slash(
            self.name,
            alert.slash_event_block,
            alert.slash_record_tx_id,
            alert.slash_event_inclusion_proof,
        )
        ctx.log(self.name, "alert", alert.offending_pk)
        if not verified:
            return
        self.dropped.add(alert.offending_pk)
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
        """Predict the next epoch's set: ask the held providers for the
        previous epoch's records at the fetch tick, collect their lists for
        one round trip, then check each record (`_maintenance_event_done`)."""
        due = self._maintenance_due()
        if due is None or now < due:
            return
        epoch = self.current_epoch_held  # the clock's epoch, after _advance_epoch
        maintenance = self._maintenance
        if maintenance is None:  # the fetch tick has come
            held = self.sets[epoch]
            maintenance = self._maintenance = _Maintenance(epoch, now, held)
            if epoch == 0 or not held:
                # Nobody to ask: no records precede epoch 0, so the next set
                # is the held one; an empty set names no provider, so the next
                # set is read through a heavy check.
                maintenance.collected = True
                if epoch > 0:
                    _, held, _ = ctx.oracle.provider_set(self.name, epoch + 1)
                self._predict(epoch + 1, held, ctx)
                return
            # A provider asked once answers every later epoch on its own, on
            # the tick its answer to a request sent now would arrive; a client
            # that opens late may have missed those and asks every held provider.
            # Most opens on time ask nobody, which the subset test finds
            # without building a list.
            if now > due:
                ask = list(held)
            elif self._asked.issuperset(held):
                ask = []
            else:
                ask = [pk for pk in held if pk not in self._asked]
            if ask:
                ctx.send_to_providers(self.name, ask, EventListRequest(epoch=epoch - 1))
                self._asked.update(ask)
            return
        maintenance.collected = True
        cp = self.config.maintenance_challenge_period or self.config.challenge_period
        for block_number, payload in sorted(maintenance.events):
            check = Check(
                kind=CheckKind.EPOCH_EVENT,
                block_number=block_number,
                state_hash=crypto.digest(payload),
                challenge_period=cp,
                value=self.config.target_value,
                event_payload=payload,
                query_tick=now,
            )
            maintenance.checks.append(check)
            self.checks.append(check)
        self._maintenance_event_done(maintenance, ctx)  # at once for no records

    def _maintenance_event_done(self, maintenance: _Maintenance, ctx) -> None:
        """Predict the set after the held epoch once each of its record
        checks has ended, at once when it has none."""
        if any(c.outcome is None for c in maintenance.checks):
            return
        # The checks are in (block, record) order, so equal sets of accepted
        # records give equal tuples, and the held view's memo one successor.
        events = tuple(
            (c.block_number, c.event_payload)
            for c in maintenance.checks
            if c.outcome == "accepted"
        )
        epoch = maintenance.epoch
        self._predict(epoch + 1, self.sets[epoch].successor(events), ctx)

    def _predict(self, epoch: int, provider_set: ProviderView, ctx) -> None:
        self.sets[epoch] = provider_set
        ctx.log(self.name, "predicted_set", codec.encode_u64(epoch))
