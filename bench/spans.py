"""Span tracer that wraps lcsim's public functions from outside.

`Tracer.install()` replaces module attributes and class methods with timed
wrappers; `uninstall()` puts the originals back. lcsim's modules call each
other through module attributes (`crypto.verify`, `pricing.premium`) and
methods, so the wrappers see every call without a change to lcsim.

A span records its name, start, end, parent span and the simulation tick,
which is the identifier shared by all spans of one tick. Spans are kept in
flat arrays and written out once, after the run. Calls and self time
(duration less the time covered by child spans) are aggregated per name as
the spans close. A few very hot leaves are counted without a span.
"""

from __future__ import annotations

import array
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_tick = array.array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: dict[int, int] = defaultdict(int)
        self.self_s: dict[int, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.tick = 0
        self.tick_ends: list[float] = []
        self.mailbox_peak = 0
        self.prove_leaves = 0
        self.sim = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_tick.append(self.tick)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.calls[nid] += 1
            self.self_s[nid] += dur - self._child.pop()
            if self._child:
                self._child[-1] += dur

    def stats(self, name: str) -> tuple[int, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str) -> None:
        fn = owner.__dict__[attr]
        nid = self.name_id(name)
        call = self.call

        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        self._patch(owner, attr, wrapper)

    def span_by_type(self, owner, attr: str, prefix: str, names: dict[str, str], arg: int) -> None:
        """One span name per type of positional argument `arg`."""
        fn = owner.__dict__[attr]
        ids = {t: self.name_id(f"{prefix}.{n}") for t, n in names.items()}
        other = self.name_id(f"{prefix}.other")
        call = self.call

        def wrapper(*args, **kwargs):
            return call(ids.get(type(args[arg]).__name__, other), fn, args, kwargs)

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        fn = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        from lcsim import actors, chain, codec, contract, crypto, harness, light_client
        from lcsim import pricing, scenario

        self.span(scenario, "load_scenario", "scenario.load_scenario")

        sim_cls = harness.Simulation
        self.span(sim_cls, "__init__", "harness.init")
        self._wrap_run(sim_cls)
        self._wrap_enqueue(sim_cls)
        self.span(harness.HeavyCheckOracle, "provider_set", "harness.oracle.provider_set")
        self.span(harness.HeavyCheckOracle, "verify_slash", "harness.oracle.verify_slash")
        self.span(harness.EventLog, "add", "harness.log.add")

        for fn in ("keygen", "sign", "verify", "merkle_root", "merkle_verify"):
            self.span(crypto, fn, f"crypto.{fn}")
        self._wrap_prove(crypto)
        self.count(crypto, "digest", "crypto.digest.calls")

        self.count(codec, "record_tag", "codec.record_tag.calls")
        for fn in ("decode_register_record", "decode_withdraw_record", "decode_slash_record"):
            self.span(codec, fn, f"codec.{fn}")

        self._wrap_append(chain.Chain)
        for fn in ("block_at", "find_transaction", "inclusion_proof", "finalized_block_hash"):
            self.span(chain.Chain, fn, f"chain.{fn}")

        sc = contract.SlashingContract
        self.span_by_type(
            sc,
            "execute_transaction",
            "contract.tx",
            dict(
                RegisterTx="register",
                WithdrawRequestTx="withdraw",
                BuyInsuranceTx="buy_insurance",
                SlashTx="slash",
            ),
            1,
        )
        for fn in ("process_block_boundary", "active_set", "utilization_sample"):
            self.span(sc, fn, f"contract.{fn}")

        self.span(pricing, "premium", "pricing.premium")

        dp = actors.DataProviderActor
        self.span_by_type(
            dp, "handle_message", "actors.provider",
            dict(QueryMsg="query", EventListRequest="event_list"), 2,
        )
        self.span(dp, "on_tick", "actors.provider.on_tick")
        wa = actors.WatcherActor
        self.span_by_type(
            wa, "handle_message", "actors.watcher",
            dict(ForwardMsg="audit", ReceiptMsg="receipt"), 2,
        )
        self.span(wa, "on_tick", "actors.watcher.on_tick")
        for fn in ("find_slash_record", "provider_respond", "watcher_check"):
            self.span(actors, fn, f"actors.{fn}")

        lc = light_client.LightClientActor
        self.span(lc, "on_tick", "light_client.on_tick")
        self.span(lc, "handle_message", "light_client.handle_message")
        for fn in ("verify_response", "select_providers", "apply_epoch_events"):
            self.span(light_client, fn, f"light_client.{fn}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_run(self, sim_cls) -> None:
        fn = sim_cls.__dict__["run"]
        nid = self.name_id("harness.loop")
        tracer = self

        def run(sim):
            tracer.sim = sim
            tracer.tick = 1
            tracer.tick_ends.append(perf_counter())
            try:
                return tracer.call(nid, fn, (sim,), {})
            finally:
                tracer.tick_ends.append(float("nan"))  # no tick spans two runs

        self._patch(sim_cls, "run", run)

    def _wrap_enqueue(self, sim_cls) -> None:
        fn = sim_cls.__dict__["enqueue"]
        nid = self.name_id("harness.enqueue")
        tracer = self
        counts = self.counts

        def enqueue(sim, src, dst, payload):
            counts["harness.msgs." + type(payload).__name__] += 1
            return tracer.call(nid, fn, (sim, src, dst, payload), {})

        self._patch(sim_cls, "enqueue", enqueue)

    def _wrap_append(self, chain_cls) -> None:
        fn = chain_cls.__dict__["append_block"]
        nid = self.name_id("chain.append_block")
        tracer = self

        def append_block(chain, transactions):
            block = tracer.call(nid, fn, (chain, transactions), {})
            sim = tracer.sim
            if sim is not None and sim.chain is chain:
                # Messages still in flight once this tick's block is out.
                pending = sum(len(batch) for batch in sim._mailbox.values())
                tracer.mailbox_peak = max(tracer.mailbox_peak, pending)
                tracer.tick_ends.append(perf_counter())
                tracer.tick = block.number + 1
            return block

        self._patch(chain_cls, "append_block", append_block)

    def _wrap_prove(self, crypto) -> None:
        fn = crypto.__dict__["merkle_prove"]
        nid = self.name_id("crypto.merkle_prove")
        tracer = self

        def merkle_prove(leaves, index):
            tracer.prove_leaves += len(leaves)
            return tracer.call(nid, fn, (leaves, index), {})

        self._patch(crypto, "merkle_prove", merkle_prove)

    # -- results ------------------------------------------------------------

    def tick_ms(self) -> list[float]:
        """Host time between successive block appends, within each run."""
        ends = self.tick_ends
        out = []
        for a, b in zip(ends, ends[1:]):
            if a == a and b == b:  # skip the NaN run separators
                out.append((b - a) * 1000.0)
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip'd native-order columns after a JSON header line."""
        header = dict(
            names=self.names,
            count=len(self.span_start),
            byteorder=sys.byteorder,
            columns=["name:u16", "start:f64", "end:f64", "parent:i32", "tick:i32"],
        )
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_tick
            ):
                out.write(column.tobytes())
