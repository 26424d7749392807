"""Deterministic discrete-event simulator.

One block per tick; synchronous network with per-edge delays drawn once
from the seeded generator in [1, delta]; fixed intra-tick ordering so that
identical (seed, config) pairs produce byte-identical event logs:

1. deliver the tick's messages in the order they were sent;
2. tick the actors due this tick in index order, so providers before
   watchers and watchers before clients. An actor is due at the tick it
   names before the run and after each of its ticks (`next_tick(now)`,
   with now = 0 before the run; None when only a message can make it
   act), and on every tick a message is delivered to it unless its
   `handle_message` returns False (a client's event list only adds to its
   collected records and moves none of its deadlines). Every tick an actor
   skips would have been a no-op, so the log is the one ticking every
   actor on every tick gives;
3. execute the transaction pool, append the block, run the contract's
   block boundary, and sample the invariants, which are read again only
   once the contract's or the ledger's version has moved. A tick at which
   no actor is due and no mail arrives starts a quiet stretch: every tick
   before the next event (a due actor, mail, a target block, a prediction
   tick while some client maintains, the contract's next boundary block,
   or the end of the run) is closed in one pass, each with one header hash
   and one log line.

Signature checks by clients, watchers and the contract's slash go through
one memo per run (`crypto.VerifyMemo`), so each distinct signed response is
verified once; the protocol's verification counters still count every
check.

The delays are the values `rng.randint(1, delta)` would give, one per
ordered pair of endpoints in sorted-name order, but drawn in bulk and kept
as one byte per edge (so delta is at most 255): a row of bytes per source,
indexed by the destination's position in the sorted names.
"""

from __future__ import annotations

import functools
import hashlib
import random
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

from . import codec, crypto, pricing
from .actors import (
    DataProviderActor,
    ProviderStrategy,
    WatcherActor,
)
from .chain import Block, Chain, Transaction
from .contract import (
    BuyInsuranceTx,
    ContractConfig,
    Ledger,
    ProviderStatus,
    SlashingContract,
    SlashTx,
    Submission,
)
from .light_client import (
    Check,
    CheckKind,
    ClientConfig,
    HeavyCheckCause,
    LightClientActor,
    Protocol,
    ProviderView,
)
from .messages import CompensationMsg, ReceiptMsg
from .pricing import CoverageInputs, PricingParams, eth_to_wei, min_coverage_duration


class ConfigInvalidError(ValueError):
    """Scenario configuration violates a named constraint."""


# Delays are stored one byte per edge.
MAX_DELTA_TICKS = 255

_sha256 = hashlib.sha256


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProviderSpec:
    stake: int
    strategy: ProviderStrategy = ProviderStrategy.HONEST
    register_tick: int = 1
    withdraw_tick: int | None = None


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    seed: int = 7
    providers: tuple[ProviderSpec, ...]
    clients: tuple[ClientConfig, ...]
    slots_per_epoch: int = 4
    finality_depth_epochs: int = 2
    update_epoch_blocks: int = 32
    max_challenge_period: int = 16
    delta_ticks: int = 2
    total_ticks: int = 300
    min_stake: int = eth_to_wei(1)
    watcher_count: int = 1
    pricing: PricingParams = field(default_factory=PricingParams)

    @property
    def t_fin(self) -> int:
        return self.slots_per_epoch * self.finality_depth_epochs

    def contract_config(self) -> ContractConfig:
        return ContractConfig(
            min_stake=self.min_stake,
            update_epoch_blocks=self.update_epoch_blocks,
            max_challenge_period=self.max_challenge_period,
        )

    def validate(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ConfigInvalidError("seed must be in [0, 2**64)")
        if self.slots_per_epoch < 1 or self.finality_depth_epochs < 1:
            raise ConfigInvalidError("slots_per_epoch and finality_depth_epochs must be positive")
        if self.delta_ticks < 1:
            raise ConfigInvalidError("delta_ticks must be at least 1")
        if self.delta_ticks > MAX_DELTA_TICKS:
            raise ConfigInvalidError(f"delta_ticks must be at most {MAX_DELTA_TICKS}")
        if self.total_ticks < 1:
            raise ConfigInvalidError("total_ticks must be positive")
        if self.watcher_count < 1:
            raise ConfigInvalidError("watcher_count must be at least 1")
        if self.min_stake < 0:
            raise ConfigInvalidError("min_stake must not be negative")
        try:
            self.contract_config().validate(self.t_fin, self.delta_ticks)
        except ValueError as exc:
            raise ConfigInvalidError(str(exc)) from exc
        for i, client in enumerate(self.clients):
            if client.target_value <= 0:
                raise ConfigInvalidError(f"client {i}: target_value must be positive")
            if client.challenge_period < 0:
                raise ConfigInvalidError(f"client {i}: challenge_period must not be negative")
            if (client.maintenance_challenge_period or 0) < 0:
                raise ConfigInvalidError(
                    f"client {i}: maintenance_challenge_period must not be negative"
                )
            if client.challenge_period > self.max_challenge_period:
                raise ConfigInvalidError(
                    f"client {i}: challenge_period exceeds max_challenge_period"
                )
            if (client.maintenance_challenge_period or 0) > self.max_challenge_period:
                raise ConfigInvalidError(
                    f"client {i}: maintenance_challenge_period exceeds max_challenge_period"
                )
            if client.initial_balance < 0:
                raise ConfigInvalidError(f"client {i}: initial_balance must not be negative")
            if client.target_block < 1:
                raise ConfigInvalidError(f"client {i}: target_block must be at least 1")
            if client.protocol is Protocol.INS:
                for cp in client.coverage_inputs.challenge_periods:
                    if cp > self.max_challenge_period:
                        raise ConfigInvalidError(
                            f"client {i}: insured challenge period exceeds "
                            "max_challenge_period"
                        )
        for i, spec in enumerate(self.providers):
            if spec.stake < self.min_stake:
                raise ConfigInvalidError(f"provider {i}: stake below min_stake")
            if spec.stake > codec.U128_MAX:
                raise ConfigInvalidError(f"provider {i}: stake above 2**128 - 1 wei")
            # The first tick is 1: an earlier tick never comes.
            if spec.register_tick < 1:
                raise ConfigInvalidError(f"provider {i}: register_tick must be at least 1")
            if spec.withdraw_tick is not None and spec.withdraw_tick < 1:
                raise ConfigInvalidError(f"provider {i}: withdraw_tick must be at least 1")
            if spec.withdraw_tick is not None and spec.withdraw_tick < spec.register_tick:
                # The withdraw would revert, as the provider is not registered yet.
                raise ConfigInvalidError(
                    f"provider {i}: withdraw_tick must not come before register_tick"
                )


# ---------------------------------------------------------------------------
# Metrics and event log
# ---------------------------------------------------------------------------


@dataclass
class ClientMetrics:
    initial_balance: int = 0
    final_balance: int = 0
    accepted: int = 0
    rejected: int = 0
    compensated: int = 0
    target_signature_verifications: int = 0
    signature_verifications_total: int = 0
    heavy_checks: int = 0
    heavy_checks_by_cause: dict[str, int] = field(default_factory=dict)  # cause value -> count
    premium_spent: int = 0
    gas_spent: int = 0
    compensation_received: int = 0
    ticks_to_acceptance: list[int] = field(default_factory=list)


@dataclass
class AcceptanceRecord:
    client: str
    kind: CheckKind
    value: int
    protocol: Protocol
    accepted_tick: int
    query_tick: int
    first_response_tick: int | None
    last_response_tick: int | None
    insurance_id: int | None
    responses: list[tuple[bytes, int, bytes]]  # (provider_pk, n_B, signed h_B)
    correct: bool | None = None


@dataclass
class Metrics:
    clients: dict[str, ClientMetrics] = field(default_factory=dict)
    slash_ticks: list[int] = field(default_factory=list)
    withdrawals: list[tuple[int, bytes, int]] = field(default_factory=list)
    acceptances: list[AcceptanceRecord] = field(default_factory=list)
    # Per-tick (locked, stake) samples as runs of equal samples:
    # [locked, stake, ticks].
    utilization: list[list[int]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    prediction_checks: int = 0
    conservation_total: int = 0

    def client(self, name: str) -> ClientMetrics:
        if name not in self.clients:
            self.clients[name] = ClientMetrics()
        return self.clients[name]

    def sample_utilization(self, locked: int, stake: int, ticks: int = 1) -> None:
        runs = self.utilization
        if runs and runs[-1][0] == locked and runs[-1][1] == stake:
            runs[-1][2] += ticks
        else:
            runs.append([locked, stake, ticks])

    def mean_utilization(self) -> Fraction | None:
        """The mean of locked / stake over the sampled ticks."""
        ticks = sum(n for _, _, n in self.utilization)
        if not ticks:
            return None
        return sum(Fraction(locked, stake) * n for locked, stake, n in self.utilization) / ticks

    @property
    def slash_count(self) -> int:
        return len(self.slash_ticks)

    def incorrect_acceptances(self) -> list[AcceptanceRecord]:
        return [r for r in self.acceptances if r.correct is False]

    def to_dict(self) -> dict:
        mean_utilization = self.mean_utilization()
        return dict(
            clients={name: asdict(m) for name, m in self.clients.items()},
            slash_ticks=list(self.slash_ticks),
            slash_count=self.slash_count,
            withdrawals=[(t, pk.hex(), a) for t, pk, a in self.withdrawals],
            violations=list(self.violations),
            prediction_checks=self.prediction_checks,
            mean_utilization=str(mean_utilization) if mean_utilization is not None else None,
            incorrect_acceptances=len(self.incorrect_acceptances()),
            acceptances=[
                dict(
                    client=r.client,
                    accepted_tick=r.accepted_tick,
                    query_tick=r.query_tick,
                    correct=r.correct,
                )
                for r in self.acceptances
            ],
        )


class EventLog:
    """Append-only, line-serializable record of everything observable.

    A line is `tick<TAB>actor<TAB>event<TAB>digest`, the digest 16 hex
    digits: the first 8 bytes of the sha256 of the event's payload (`add`),
    or on a `chain`/`block` line the first 8 bytes of the block's own
    header hash (`add_block`), which the chain has already computed.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, tick: int, actor: str, event_type: str, payload: bytes = b"") -> None:
        self.lines.append(f"{tick}\t{actor}\t{event_type}\t{_sha256(payload).hexdigest()[:16]}")

    def add_block(self, tick: int, block: Block) -> None:
        self.lines.append(f"{tick}\tchain\tblock\t{block.hash[:8].hex()}")

    def serialize(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode()


# ---------------------------------------------------------------------------
# Heavy-check oracle
# ---------------------------------------------------------------------------


class HeavyCheckOracle:
    """Trusted ground-truth reads with an invocation counter as the cost
    model.

    Every call counts one heavy check against the client, under the cause
    its caller gives (`HeavyCheckCause`). A client pays one when it first
    reads the provider set (bootstrap); when it has no prediction of the
    clock's epoch (epoch gap) or its held providers cannot back its value
    for the lists it would predict from (short backing); and when a slash
    alert names a provider that an open check queried, that backs the policy
    not yet used, or whose list the next prediction rests on (alert). An
    alert that can no longer change the client's next step costs none. An
    insured purchase costs none: the contract allocates it from the
    providers the client names, so the client needs no read of their locks.

    A provider-set read hands out a read-only pk -> stake view
    (`light_client.ProviderView`), one for each (epoch, contract state
    version), with the providers that have asked to withdraw: every client
    that reads the same contract state gets the same objects, and with them
    whatever is cached on them. The oracle keeps only the last read, so a
    view goes once no client holds it.
    """

    def __init__(self, chain: Chain, contract: SlashingContract, metrics: Metrics) -> None:
        self._chain = chain
        self._contract = contract
        self._metrics = metrics
        # (epoch, state version, stake view, leaving providers) of the last read.
        self._views: tuple[int, int, ProviderView, frozenset] | None = None

    def _count(self, client: str, cause: HeavyCheckCause) -> None:
        metrics = self._metrics.client(client)
        metrics.heavy_checks += 1
        by_cause = metrics.heavy_checks_by_cause
        by_cause[cause.value] = by_cause.get(cause.value, 0) + 1

    def provider_set(
        self, client: str, cause: HeavyCheckCause, epoch: int | None = None
    ) -> tuple[int, ProviderView, frozenset[bytes]]:
        """The contract's provider set of `epoch`, the current one by
        default: (epoch, pk -> stake view, the providers that have asked to
        withdraw and not yet left)."""
        self._count(client, cause)
        contract = self._contract
        if epoch is None:
            epoch = contract.current_epoch
        views = self._views
        if views is None or views[0] != epoch or views[1] != contract.state_version:
            rows = contract.active_set(epoch)
            leaving = frozenset(
                pk
                for pk, record in contract.providers.items()
                if record.status is ProviderStatus.LEAVING
            )
            held = ProviderView((pk, stake) for pk, stake, _ in rows)
            views = self._views = (epoch, contract.state_version, held, leaving)
        return epoch, views[2], views[3]

    def verify_slash(
        self,
        client: str,
        cause: HeavyCheckCause,
        block_number: int,
        record_tx_id: bytes,
        proof,
    ) -> bool:
        self._count(client, cause)
        if not self._chain.is_finalized(block_number):
            return False
        block = self._chain.block_at(block_number)
        if not crypto.merkle_verify(block.transactions_root, record_tx_id, proof):
            return False
        # An id is its payload's hash, so any transaction carrying it has this one's payload.
        found = self._chain.find_transaction(record_tx_id)
        return found is not None and codec.record_tag(found[1].payload) == codec.TAG_SLASH_RECORD


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

CONTRACT_ENDPOINT = "contract"


class SimContext:
    """What actors see: messaging, the pool, ground truth, metrics; no delays."""

    def __init__(self, sim: "Simulation") -> None:
        self._sim = sim
        self.now = 0
        self.chain: Chain = sim.chain
        self.contract: SlashingContract = sim.contract
        self.oracle: HeavyCheckOracle = sim.oracle
        self.metrics: Metrics = sim.metrics
        self.watcher_names: list[str] = sim.watcher_names
        # Signature checks of clients and watchers, memoised for the run.
        self.verify = sim.signatures.verify

    def send(self, src: str, dst: str, payload) -> None:
        self._sim.enqueue(src, dst, payload)

    def send_to_providers(self, src: str, pks, payload) -> None:
        """The same payload object to each provider of `pks`, in order."""
        names = self._sim.provider_names
        self._sim.enqueue_each(src, [names[pk] for pk in pks], payload)

    def send_to_each(self, src: str, dsts, payload) -> None:
        """The same payload object to each endpoint of `dsts`, in order."""
        self._sim.enqueue_each(src, dsts, payload)

    def submit_tx(self, src: str, submission: Submission) -> int:
        return self._sim.submit(src, submission)

    def log(self, actor: str, event_type: str, payload: bytes = b"") -> None:
        self._sim.log.add(self.now, actor, event_type, payload)

    def target_state_hash(self, client: str) -> bytes:
        return self._sim.target_tx_ids[client]

    def record_acceptance(self, client: str, check: Check) -> None:
        self._sim.record_acceptance(client, check)


@functools.cache
def _top_byte_tables(delta: int) -> tuple[bytes, bytes]:
    """`bytes.translate` tables mapping a word's top byte to the value
    `randint(1, delta)` takes from it, and deleting the bytes it redraws."""
    shift = 8 - delta.bit_length()
    keep = bytes(1 + (b >> shift) if b >> shift < delta else 0 for b in range(256))
    drop = bytes(b for b in range(256) if b >> shift >= delta)
    return keep, drop


# Words drawn per pass at most, so a huge table is built in bounded chunks.
_MAX_WORDS_PER_PASS = 1 << 20


def _draw_delays(rng: random.Random, delta: int, count: int) -> bytes:
    """The next `count` values of `rng.randint(1, delta)`, one per byte.

    CPython's randint(1, delta) is 1 + r, with r the top
    `delta.bit_length()` bits of one 32-bit Mersenne-Twister word, redrawn
    while r >= delta. `getrandbits(32 * m)` returns the next m words
    little-endian, so every fourth byte from index 3 is a word's top byte.
    The generator ends up further along than after `count` randint calls.
    """
    keep, drop = _top_byte_tables(delta)
    per_word = (1 << delta.bit_length()) / delta  # words per accepted value
    chunks: list[bytes] = []
    drawn = 0
    while drawn < count:
        words = min(int((count - drawn) * per_word) + 16, _MAX_WORDS_PER_PASS)
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        chunk = raw[3::4].translate(keep, drop)
        chunks.append(chunk)
        drawn += len(chunk)
    return b"".join(chunks)[:count]


def _derive_key_seed(seed: int, name: str) -> int:
    raw = crypto.digest(b"actor-key", seed.to_bytes(8, "big", signed=False), name.encode())
    return int.from_bytes(raw[:8], "big")


class Simulation:
    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        self.metrics = Metrics()
        self.log = EventLog()
        self.chain = Chain(
            slots_per_epoch=config.slots_per_epoch,
            finality_depth_epochs=config.finality_depth_epochs,
        )
        self.ledger = Ledger()
        self.signatures = crypto.VerifyMemo()
        self.contract = SlashingContract(
            config.contract_config(), self.ledger, config.pricing, self.signatures.verify
        )
        self.oracle = HeavyCheckOracle(self.chain, self.contract, self.metrics)
        self.providers: list[DataProviderActor] = []
        self.provider_names: dict[bytes, str] = {}

        rng = random.Random(config.seed)
        for i, spec in enumerate(config.providers):
            name = f"p{i}"
            keypair = crypto.keygen(_derive_key_seed(config.seed, name))
            actor = DataProviderActor(
                name=name,
                keypair=keypair,
                stake=spec.stake,
                strategy=spec.strategy,
                register_tick=spec.register_tick,
                withdraw_tick=spec.withdraw_tick,
            )
            self.providers.append(actor)
            self.provider_names[keypair.public_key] = name
            self.ledger.mint(keypair.public_key, spec.stake)

        self.watchers = [WatcherActor(f"w{i}") for i in range(config.watcher_count)]
        self.watcher_names = [w.name for w in self.watchers]
        self.ctx = SimContext(self)

        self.clients: list[LightClientActor] = []
        self.client_by_pk: dict[bytes, str] = {}
        self.target_tx_ids: dict[str, bytes] = {}
        self._target_payloads: dict[int, list[Transaction]] = {}
        for i, client_config in enumerate(config.clients):
            name = f"c{i}"
            keypair = crypto.keygen(_derive_key_seed(config.seed, name))
            if client_config.start_tick is None:
                start = 2 * config.update_epoch_blocks + 1
                client_config = replace(client_config, start_tick=start)
            actor = LightClientActor(
                name=name,
                keypair=keypair,
                config=client_config,
                update_epoch_blocks=config.update_epoch_blocks,
                delta_ticks=config.delta_ticks,
                t_fin=config.t_fin,
            )
            self.clients.append(actor)
            self.client_by_pk[keypair.public_key] = name
            self.ledger.mint(keypair.public_key, client_config.initial_balance)
            self.metrics.client(name).initial_balance = client_config.initial_balance
            payload = b"target-state:" + name.encode() + config.seed.to_bytes(8, "big")
            tx = Transaction.create(payload, value=client_config.target_value)
            self.target_tx_ids[name] = tx.id
            self._target_payloads.setdefault(client_config.target_block, []).append(tx)

        self.actors = [*self.providers, *self.watchers, *self.clients]
        self._actor_by_name = {a.name: a for a in self.actors}

        names = sorted([a.name for a in self.actors] + [CONTRACT_ENDPOINT])
        n = len(names)
        delays = _draw_delays(rng, config.delta_ticks, n * (n - 1))
        self._index = {name: i for i, name in enumerate(names)}
        self._delay_rows: dict[str, bytes] = {}
        for i, name in enumerate(names):
            row = delays[i * (n - 1) : (i + 1) * (n - 1)]
            self._delay_rows[name] = row[:i] + b"\0" + row[i:]
        self._mailbox: dict[int, list[tuple[str, str, object]]] = {}
        self._pool: list[tuple[int, str, Submission]] = []
        self._next_token = 1
        self.metrics.conservation_total = self.ledger.total()
        self._conservation_broken = False
        # What `_close_tick` last read: the ledger and contract versions, and
        # the utilization run it added to (None while no stake is active).
        self._checked_ledger = self.ledger.version
        self._sampled_contract = -1
        self._utilization_run: list[int] | None = None

    # -- plumbing -----------------------------------------------------------

    def enqueue(self, src: str, dst: str, payload) -> None:
        """Send one message (`enqueue_each`)."""
        self.enqueue_each(src, (dst,), payload)

    def enqueue_each(self, src: str, dsts: Iterable[str], payload) -> None:
        """Send the same `payload` object from `src` to each of `dsts`, in
        order, in one pass: one (src, dst, payload) entry per message in the
        list of its arrival tick. Every message is sent through here, and the
        delay table is read only here."""
        row = self._delay_rows[src]
        index = self._index
        bound = self.config.delta_ticks
        now = self.ctx.now
        mailbox = self._mailbox
        arrival = batch = None
        for dst in dsts:
            delay = row[index[dst]]
            if not 0 < delay <= bound:
                self.metrics.violations.append(f"delivery-bound:{src}->{dst}")
            if now + delay != arrival:  # most one-way fan-outs arrive in one tick
                arrival = now + delay
                batch = mailbox.setdefault(arrival, [])
            batch.append((src, dst, payload))

    def submit(self, src: str, submission: Submission) -> int:
        token = self._next_token
        self._next_token += 1
        self._pool.append((token, src, submission))
        return token

    def record_acceptance(self, client: str, check: Check) -> None:
        actor = self._actor_by_name[client]
        self.metrics.acceptances.append(
            AcceptanceRecord(
                client=client,
                kind=check.kind,
                value=check.value,
                protocol=actor.config.protocol,
                accepted_tick=check.accepted_tick,
                query_tick=check.query_tick,
                first_response_tick=check.first_response_tick,
                last_response_tick=check.last_response_tick,
                insurance_id=check.insurance_id,
                responses=[
                    (pk, r.block_number, r.block_hash)
                    for pk, r in sorted(check.responses.items())
                ],
            )
        )

    def _wallet_key(self, actor_name: str) -> object:
        actor = self._actor_by_name[actor_name]
        if isinstance(actor, WatcherActor):
            return actor.name
        return actor.keypair.public_key

    # -- main loop ----------------------------------------------------------

    def run(self) -> tuple[Metrics, EventLog]:
        ctx = self.ctx
        actors = self.actors
        position = {actor.name: i for i, actor in enumerate(actors)}
        mailbox = self._mailbox
        # Actors to tick at a tick, by index in `actors`. An entry for an
        # actor that has since been ticked on a delivery is stale and costs
        # one no-op tick.
        due: dict[int, set[int]] = {}
        for i, actor in enumerate(actors):
            first = actor.next_tick(0)
            if first is not None:
                due.setdefault(first, set()).add(i)
        targets = self._target_payloads
        next_boundary = self.contract.next_boundary_block
        # Predictions are checked at each epoch's first tick, and only
        # maintaining clients are checked.
        predict_every = (
            self.config.update_epoch_blocks
            if any(client.config.maintain for client in self.clients)
            else None
        )
        end = self.config.total_ticks + 1
        tick = 1
        while tick < end:
            ctx.now = tick
            ticking = due.pop(tick, None)
            delivered = mailbox.pop(tick, None)
            if delivered:
                if ticking is None:
                    ticking = set()
                for src, dst, payload in delivered:
                    i = position[dst]
                    if actors[i].handle_message(src, payload, ctx) is not False:
                        ticking.add(i)
            if ticking:
                for i in sorted(ticking):
                    actor = actors[i]
                    actor.on_tick(tick, ctx)
                    wake = actor.next_tick(tick)
                    if wake is not None:
                        due.setdefault(wake, set()).add(i)
            elif delivered is None:
                # Nothing is due and no mail arrives, so the pool is empty:
                # every tick before the next event is quiet.
                stop = min(
                    end,
                    min(due, default=end),
                    min(mailbox, default=end),
                    min(targets, default=end),
                    next_boundary(),
                )
                if predict_every:
                    stop = min(stop, -(-tick // predict_every) * predict_every)
                if stop > tick:
                    self._close_stretch(tick, stop)
                    tick = stop
                    continue
            self._close_tick(tick)
            tick += 1
        self._finalize()
        return self.metrics, self.log

    def _append_block(self, tick: int, transactions) -> Block:
        """Append the tick's block and log it."""
        block = self.chain.append_block(transactions)
        self.log.add_block(tick, block)
        return block

    def _close_stretch(self, first: int, stop: int) -> None:
        """Close the quiet ticks first..stop-1 in one pass: no actor acts,
        no target block lands, the contract's boundary does nothing and no
        prediction is checked, so each tick only appends and logs its empty
        block, and the utilization run grows by the stretch's length."""
        ctx = self.ctx
        append = self._append_block
        for tick in range(first, stop):
            ctx.now = tick
            append(tick, ())
        self.contract.current_block = stop - 1
        self._sample_utilization(stop - first)

    def _close_tick(self, tick: int) -> None:
        """Execute the pool, append the tick's block, run the contract's
        block boundary, and sample the invariants: utilization and
        conservation each afresh only once the contract's or the ledger's
        version has moved (else the last run of samples grows by a tick),
        and predictions at an epoch's end."""
        block_txs = self._execute_pool(tick) if self._pool else []
        targets = self._target_payloads.pop(tick, None)
        if targets:
            block_txs += targets
        block = self._append_block(tick, block_txs)
        for effect in self.contract.process_block_boundary(block.number):
            self.log.add(tick, CONTRACT_ENDPOINT, effect[0], repr(effect).encode())
            if effect[0] == "withdrawn":
                self.metrics.withdrawals.append((tick, effect[1], effect[2]))
        self._sample_utilization(1)
        ledger = self.ledger
        if ledger.version != self._checked_ledger and not self._conservation_broken:
            self._checked_ledger = ledger.version
            if ledger.total() != self.metrics.conservation_total:
                self._conservation_broken = True
                self.metrics.violations.append(f"conservation:tick{tick}")
        if tick % self.config.update_epoch_blocks == 0:
            self._check_predictions(tick // self.config.update_epoch_blocks)

    def _sample_utilization(self, ticks: int) -> None:
        """Sample utilization afresh once the contract's version has moved,
        else grow the last run of samples, by `ticks` ticks."""
        version = self.contract.state_version
        if version != self._sampled_contract:
            self._sampled_contract = version
            locked, stake = self.contract.utilization_sample()
            self._utilization_run = None
            if stake > 0:
                self.metrics.sample_utilization(locked, stake, ticks)
                self._utilization_run = self.metrics.utilization[-1]
        elif self._utilization_run is not None:
            self._utilization_run[2] += ticks

    def _execute_pool(self, tick: int) -> list[Transaction]:
        pool, self._pool = self._pool, []
        block_txs: list[Transaction] = []
        for token, src, submission in pool:
            slash_before = len(self.contract.slash_events)
            records, receipt = self.contract.execute_transaction(
                submission, self.chain, tick, submitter=self._wallet_key(src)
            )
            for payload in records:
                block_txs.append(Transaction.create(payload))
            self.log.add(
                tick,
                CONTRACT_ENDPOINT,
                f"tx-{receipt.kind}-{'ok' if receipt.ok else receipt.reason}",
                records[0] if records else b"",
            )
            self.enqueue(CONTRACT_ENDPOINT, src, ReceiptMsg(token=token, receipt=receipt))
            if isinstance(submission, BuyInsuranceTx) and receipt.ok:
                # Counted here, where the ledger moves, not when the receipt lands.
                spent = self.metrics.client(src)
                spent.premium_spent += receipt.premium_wei
                spent.gas_spent += receipt.gas_wei
            if isinstance(submission, SlashTx) and receipt.ok:
                self.metrics.slash_ticks.append(tick)
                event = self.contract.slash_events[-1]
                assert len(self.contract.slash_events) == slash_before + 1
                if event.compensation > 0:
                    buyer = self.client_by_pk.get(
                        self.contract.policies[event.insurance_id].buyer_pk
                    )
                    if buyer is not None:
                        self.enqueue(
                            CONTRACT_ENDPOINT,
                            buyer,
                            CompensationMsg(
                                insurance_id=event.insurance_id,
                                amount=event.compensation,
                            ),
                        )
        return block_txs

    def _check_predictions(self, epoch: int) -> None:
        # No client bootstrapped at this epoch: one at tick t <= epoch * B_u read (t - 1) // B_u.
        expected = None  # the contract's set, computed once the first client qualifies
        for client in self.clients:
            if not client.config.maintain or not client.bootstrapped:
                continue
            if client._offline_at(self.ctx.now):
                continue
            self.metrics.prediction_checks += 1
            if expected is None:
                expected = {pk: stake for pk, stake, _ in self.contract.active_set(epoch)}
            held = client.set_for_epoch(epoch)
            if held is None or held != expected:
                self.metrics.violations.append(
                    f"prediction:{client.name}@epoch{epoch}"
                )

    def _finalize(self) -> None:
        for record in self.metrics.acceptances:
            record.correct = all(
                number <= self.chain.tip.number
                and self.chain.block_at(number).hash == block_hash
                for _, number, block_hash in record.responses
            )
            if record.correct:
                continue
            if record.protocol is Protocol.ECO:
                self.metrics.violations.append(f"eco-safety:{record.client}")
            else:
                compensated = self.metrics.client(record.client).compensation_received
                if compensated < record.value:
                    self.metrics.violations.append(f"ins-protection:{record.client}")
        for client in self.clients:
            m = self.metrics.client(client.name)
            m.final_balance = self.ledger.balance(client.public_key)
            if m.final_balance - m.initial_balance < -(m.premium_spent + m.gas_spent):
                self.metrics.violations.append(f"net-loss-bound:{client.name}")


def run_scenario(config: ScenarioConfig) -> tuple[Metrics, EventLog]:
    """Run one scenario to completion; fully deterministic given the seed."""
    return Simulation(config).run()


# ---------------------------------------------------------------------------
# Scenario templates and the safety sweep
# ---------------------------------------------------------------------------


def min_compliant_challenge_period(t_fin: int, delta: int) -> int:
    """Smallest T_cp for which a watcher alert always beats acceptance."""
    return t_fin + 2 * delta + 1


def build_scenario(
    adversary: ProviderStrategy,
    delta: int,
    challenge_period: int,
    protocol: Protocol,
    seed: int = 7,
    value_eth: int = 10,
    adversary_stake_eth: int = 64,
    honest_stake_eth: int = 32,
    slots_per_epoch: int = 4,
    finality_depth_epochs: int = 2,
    target_block: int = 2,
) -> ScenarioConfig:
    """Two-provider template: the strategy under test holds the larger
    stake so greedy selection exercises it first; an honest provider backs
    liveness."""
    t_fin = slots_per_epoch * finality_depth_epochs
    max_cp = max(challenge_period, min_compliant_challenge_period(t_fin, delta))
    update_epoch_blocks = max_cp + t_fin + 2 * delta + 4
    params = PricingParams()
    value = eth_to_wei(value_eth)
    coverage = CoverageInputs(
        t_fin=t_fin,
        challenge_periods=(challenge_period, challenge_period),
        delta_comm=8 * delta + 4,
        delta_comp=2,
    )
    start_tick = 2 * update_epoch_blocks + 1
    if protocol is Protocol.ECO:
        client = ClientConfig(
            protocol=Protocol.ECO,
            challenge_period=challenge_period,
            target_value=value,
            target_block=target_block,
            start_tick=start_tick,
        )
        tail = 3 * (challenge_period + t_fin + 6 * delta + 6)
    else:
        t_cov = min_coverage_duration(coverage)
        cost = pricing.premium(params, t_cov, value) + params.gas_cost_wei
        client = ClientConfig(
            protocol=Protocol.INS,
            challenge_period=challenge_period,
            target_value=value,
            target_block=target_block,
            start_tick=start_tick,
            coverage_inputs=coverage,
            initial_balance=4 * cost + eth_to_wei(1),
        )
        tail = 3 * (2 * challenge_period + 2 * t_fin + 10 * delta + 10)
    return ScenarioConfig(
        seed=seed,
        providers=(
            ProviderSpec(stake=eth_to_wei(adversary_stake_eth), strategy=adversary),
            ProviderSpec(stake=eth_to_wei(honest_stake_eth), strategy=ProviderStrategy.HONEST),
        ),
        clients=(client,),
        slots_per_epoch=slots_per_epoch,
        finality_depth_epochs=finality_depth_epochs,
        update_epoch_blocks=update_epoch_blocks,
        max_challenge_period=max_cp,
        delta_ticks=delta,
        total_ticks=start_tick + tail,
        pricing=params,
    )


@dataclass(frozen=True)
class SweepCell:
    adversary: ProviderStrategy
    delta: int
    challenge_period: int
    compliant: bool
    violations: tuple[str, ...]
    slash_count: int
    accepted: int
    compensated: int


@dataclass
class SweepReport:
    cells: list[SweepCell] = field(default_factory=list)

    def violations(self) -> list[SweepCell]:
        return [cell for cell in self.cells if cell.violations]


def sweep(
    strategies: list[ProviderStrategy],
    deltas: list[int],
    challenge_periods: dict[int, list[int]] | None,
    protocol: Protocol,
    seed: int = 7,
) -> SweepReport:
    """Exhaustive strategy x delta x T_cp execution.

    `challenge_periods` maps each delta to the T_cp values to run (the
    compliance threshold depends on delta); None means "the minimal
    compliant value and one above it".
    """
    report = SweepReport()
    t_fin = 8  # desk-scale chain: 4 slots/epoch, depth 2
    for adversary in strategies:
        for delta in deltas:
            cps = (
                challenge_periods[delta]
                if challenge_periods is not None
                else [
                    min_compliant_challenge_period(t_fin, delta),
                    min_compliant_challenge_period(t_fin, delta) + 5,
                ]
            )
            for cp in cps:
                config = build_scenario(adversary, delta, cp, protocol, seed=seed)
                metrics, _ = run_scenario(config)
                report.cells.append(
                    SweepCell(
                        adversary=adversary,
                        delta=delta,
                        challenge_period=cp,
                        compliant=cp >= min_compliant_challenge_period(t_fin, delta),
                        violations=tuple(metrics.violations),
                        slash_count=metrics.slash_count,
                        accepted=sum(m.accepted for m in metrics.clients.values()),
                        compensated=sum(m.compensated for m in metrics.clients.values()),
                    )
                )
    return report
