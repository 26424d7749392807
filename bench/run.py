"""lcsim benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload maintain --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; lcsim is imported from its `src/`.
With `--trace 0` the workload's round is run once to check its outputs and
then repeated for `--seconds` with tracing off; the end-to-end metrics are
printed. With `--trace 1` one untraced and one traced round are run, then
a cProfile pass and the primitive micro-timings; the per-layer metrics are
printed. The last line of standard output is the JSON result; the exit
code is non-zero when a check fails or an operation fails for a cause
other than the known faults F1 and F2 (README.md).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import io
import json
import math
import pstats
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# setup_s is the median of at least this many set-up passes, spanning at
# least this much host time.
SETUP_SAMPLES = 9
SETUP_SECONDS = 3.0
# ticks_per_s is the median over groups of this many timed rounds; a run
# times at least one group, even past --seconds.
GROUP_ROUNDS = 4


def import_lcsim() -> None:
    if not (SRC / "lcsim" / "__init__.py").is_file():
        sys.exit(f"bench: no lcsim source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import lcsim

    if Path(lcsim.__file__).resolve().parent != SRC / "lcsim":
        sys.exit(f"bench: imported lcsim from {lcsim.__file__}, not from {SRC}")


def percentile_rank(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def make_sim(path):
    import lcsim.scenario
    from checks import BenchSimulation

    config = lcsim.scenario.load_scenario(path)
    return config, BenchSimulation(config)


class Round:
    """One pass over every cell of a workload; with a HostClock, each tick
    and set-up is also timed in reference seconds."""

    def __init__(self, cells, paths, keep: bool, clock: HostClock | None = None) -> None:
        self.clock = clock
        self.setup_s = 0.0
        self.run_s = 0.0
        self.ticks = 0
        self.kept = []
        digest = hashlib.sha256()
        for cell, path in zip(cells, paths):
            gc.collect()  # start each scenario from the same heap state
            t0 = time.perf_counter()
            config, sim = clock.set_up(lambda: make_sim(path)) if clock else make_sim(path)
            t1 = time.perf_counter()
            metrics, log = clock.run(sim) if clock else sim.run()
            t2 = time.perf_counter()
            self.setup_s += t1 - t0
            self.run_s += t2 - t1
            self.ticks += config.total_ticks
            digest.update(hashlib.sha256(log.serialize()).digest())
            canonical = json.dumps(metrics.to_dict(), sort_keys=True).encode()
            digest.update(hashlib.sha256(canonical).digest())
            if keep:
                self.kept.append((cell, config, sim))
        self.digest = digest.hexdigest()
        self.wall_s = self.setup_s + self.run_s


def setup_only(paths) -> HostClock:
    clock = HostClock()
    for path in paths:
        gc.collect()
        clock.set_up(lambda: make_sim(path))
    return clock


def checked_outcome(first: Round):
    from checks import Outcome, check

    total = Outcome()
    for cell, config, sim in first.kept:
        total.merge(check(cell, config, sim))
    return total


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was accepted (such a run has failed)."""
    return num / den if den else 0.0


def simulated_metrics(o) -> dict[str, tuple[float, str]]:
    eco, ins = o.eco_ticks or [0], o.ins_ticks or [0]
    return {
        "eco_accept_ticks_p50": (statistics.median(eco), "ticks"),
        "eco_accept_ticks_tail": (percentile_rank(eco, tail_percentile(len(eco))), "ticks"),
        "ins_accept_ticks_p50": (statistics.median(ins), "ticks"),
        "ins_accept_ticks_tail": (percentile_rank(ins, tail_percentile(len(ins))), "ticks"),
        "ins_fee_gwei": (ratio(o.ins_fees_wei / 1e9, len(o.ins_ticks)), "gwei"),
        "heavy_checks_per_client": (ratio(o.heavy_checks, o.clients), "count"),
        "sig_verifies_per_accept": (ratio(o.target_sig_verifies, o.accepts), "count"),
        "msgs_per_accept": (ratio(o.msgs, o.accepts), "count"),
    }


def failure_summary(outcome, rounds: int) -> tuple[int, int, dict[str, int]]:
    causes: dict[str, int] = {}
    for cause, _ in outcome.failures:
        causes[cause] = causes.get(cause, 0) + rounds
    return outcome.attempted * rounds, len(outcome.failures) * rounds, causes


def verdict(outcome) -> bool:
    from checks import KNOWN_FAULTS

    for error in outcome.errors[:10]:
        print(f"CHECK FAILED: {error}")
    unknown = [f for f in outcome.failures if f[0] not in KNOWN_FAULTS]
    for cause, where in unknown[:10]:
        print(f"UNEXPECTED FAILURE: {cause} at {where}")
    return not outcome.errors and not unknown


def end_to_end(cells, paths, seconds: float) -> tuple[dict, object, int]:
    first = Round(cells, paths, keep=True, clock=HostClock())
    outcome = checked_outcome(first)
    first.kept.clear()
    # Each tick's fastest time, in reference seconds, over a group of
    # GROUP_ROUNDS timed rounds, which run the same ticks in the same order.
    # A fixed group size keeps the minimum from depending on how many rounds
    # fit in the run; folding round by round keeps peak memory fixed.
    rounds = []
    group_rates = []
    best = None
    start = time.perf_counter()
    while len(rounds) < GROUP_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(Round(cells, paths, keep=False, clock=HostClock()))
        scaled = rounds[-1].clock.scaled_stretches()
        del rounds[-1].clock.stretches[:]
        best = scaled if best is None else list(map(min, best, scaled))
        if len(rounds) % GROUP_ROUNDS == 0:
            group_rates.append(first.ticks / sum(best))
            best = None
    clocks = [r.clock for r in (first, *rounds)]
    while len(clocks) < SETUP_SAMPLES or sum(c.host_setup_s() for c in clocks) < SETUP_SECONDS:
        clocks.append(setup_only(paths))
    deterministic = all(r.digest == first.digest for r in rounds)
    if not deterministic:
        outcome.errors.append("a repeated round's event log or metrics differ from the first")
    print(f"rounds: 1 checked + {len(rounds)} timed; round digest {first.digest}")
    print("round run seconds: " + " ".join(f"{r.run_s:.3f}" for r in rounds))
    print("ticks/s per group of rounds: " + " ".join(f"{g:.6g}" for g in group_rates))
    setups = [c.scaled_setup_s() for c in clocks]
    print("set-up reference seconds: " + " ".join(f"{s:.4f}" for s in setups))
    host_rates = [r.ticks / r.run_s for r in rounds]
    print(
        f"host ticks/s: median round {statistics.median(host_rates):.6g}; "
        f"host set-up: median {statistics.median(c.host_setup_s() for c in clocks):.6g} s; "
        f"kernel: median {statistics.median(s for c in clocks for _, s in c.samples) * 1e6:.4g} us"
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ticks_per_s": (statistics.median(group_rates), "ticks/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **simulated_metrics(outcome),
    }
    eco_p = tail_percentile(len(outcome.eco_ticks))
    ins_p = tail_percentile(len(outcome.ins_ticks))
    print(
        f"tails: eco p{eco_p} of {len(outcome.eco_ticks)} samples, "
        f"ins p{ins_p} of {len(outcome.ins_ticks)} samples per round"
    )
    return metrics, outcome, 1 + len(rounds)


def traced(workload: str, seed: int, cells, paths, seconds: float) -> tuple[dict, object, int]:
    import micro
    from spans import Tracer

    first = Round(cells, paths, keep=True)
    outcome = checked_outcome(first)
    untraced_s = first.wall_s
    kept = first.kept
    first.kept = []

    tracer = Tracer()
    tracer.install()
    try:
        second = Round(cells, paths, keep=False)
    finally:
        tracer.uninstall()
    if second.digest != first.digest:
        outcome.errors.append("the traced round's event log differs from the untraced one")
    overhead = second.wall_s - untraced_s
    self_sum = sum(tracer.self_s.values())
    if abs(second.wall_s - self_sum) > overhead:
        outcome.errors.append("span self times do not add up to the traced wall time")
    tracer.write(OUT / f"spans-{workload}-{seed}.bin.gz")

    profiler = cProfile.Profile()
    profiler.enable()
    Round(cells, paths, keep=False)
    profiler.disable()
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(10)
    (OUT / f"profile-{workload}-{seed}.txt").write_text(text.getvalue())

    layer = layer_metrics(tracer, kept, outcome)
    layer.update(micro.timings(cells, paths, kept, budget_s=max(1.0, seconds / 2)))
    layer["trace.overhead_s"] = (overhead, "s")
    layer["trace.wall_s"] = (second.wall_s, "s")
    print(
        f"traced round {second.wall_s:.3f}s, untraced {untraced_s:.3f}s, "
        f"span self times sum to {self_sum:.3f}s"
    )
    return layer, outcome, 3


MSG_TYPES = (
    "QueryMsg", "ResponseMsg", "ForwardMsg", "ReceiptMsg",
    "CompensationMsg", "EventListRequest", "EventListMsg", "Alert",
)


def layer_metrics(tracer, kept, outcome) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}

    def calls(name: str, metric: str | None = None) -> int:
        n = tracer.stats(name)[0]
        out[(metric or name) + ".calls"] = (n, "count")
        return n

    def self_s(name: str, metric: str | None = None) -> float:
        s = tracer.stats(name)[1]
        out[(metric or name) + ".self_s"] = (s, "s")
        return s

    self_s("harness.init")
    self_s("harness.loop")
    ticks = tracer.tick_ms()
    out["harness.tick_ms.p50"] = (statistics.median(ticks), "ms")
    out["harness.tick_ms.p99"] = (percentile_rank(ticks, 99), "ms")
    out["harness.mailbox.peak"] = (tracer.mailbox_peak, "count")
    for t in MSG_TYPES:
        out[f"harness.msgs.{t}"] = (tracer.counts.get(f"harness.msgs.{t}", 0), "count")

    for fn in ("keygen", "sign", "verify", "merkle_root", "merkle_prove", "merkle_verify"):
        calls(f"crypto.{fn}")
    prove_calls = tracer.stats("crypto.merkle_prove")[0]
    out["crypto.merkle_prove.leaves"] = (ratio(tracer.prove_leaves, prove_calls), "count")
    out["crypto.digest.calls"] = (tracer.counts.get("crypto.digest.calls", 0), "count")
    out["codec.record_tag.calls"] = (tracer.counts.get("codec.record_tag.calls", 0), "count")

    calls("chain.append_block")
    for fn in ("block_at", "find_transaction", "inclusion_proof"):
        calls(f"chain.{fn}")
        self_s(f"chain.{fn}")

    for kind in ("register", "withdraw", "buy_insurance", "slash"):
        calls(f"contract.tx.{kind}")
    # Receipts as the event log names them: tx-<kind>-ok, tx-<Submission>-<reason>.
    events = Counter(line.split("\t")[2] for _, _, sim in kept for line in sim.log.lines)
    purchases = 0
    for kind, submission in (("buy_insurance", "BuyInsuranceTx"), ("slash", "SlashTx")):
        ok = events[f"tx-{kind}-ok"]
        attempts = ok + sum(n for e, n in events.items() if e.startswith(f"tx-{submission}-"))
        out[f"contract.{kind}.ok_ratio"] = (ratio(ok, attempts), "ratio")
        purchases = purchases or ok
    self_s("contract.process_block_boundary")
    calls("contract.active_set")
    self_s("contract.active_set")

    premium_calls = calls("pricing.premium")
    out["pricing.premium.calls_per_purchase"] = (ratio(premium_calls, purchases), "ratio")

    for name in (
        "actors.provider.event_list",
        "actors.provider.query",
        "actors.watcher.audit",
        "actors.find_slash_record",
    ):
        calls(name)
        self_s(name)
    self_s("actors.watcher.on_tick")

    for name in ("light_client.on_tick", "light_client.handle_message"):
        calls(name)
        self_s(name)
    calls("light_client.verify_response")
    calls("light_client.select_providers")
    out["light_client.restarts_per_accept"] = (ratio(outcome.restarts, outcome.accepts), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("maintain", "dispute", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_lcsim()
    sys.path.insert(0, str(HERE))
    import workloads

    cells = workloads.WORKLOADS[args.workload](args.seed)
    scenario_dir = OUT / "scenarios" / f"{args.workload}-{args.seed}"
    scenario_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for cell in cells:
        path = scenario_dir / f"{cell.name}.ini"
        path.write_text(cell.ini)
        paths.append(path)

    if args.trace:
        metrics, outcome, rounds = traced(args.workload, args.seed, cells, paths, args.seconds)
    else:
        metrics, outcome, rounds = end_to_end(cells, paths, args.seconds)
    attempted, failed, causes = failure_summary(outcome, rounds)
    correct = verdict(outcome)

    print(f"workload {args.workload} seed {args.seed}: {len(cells)} scenarios per round")
    print(f"operations: {attempted} attempted, {failed} failed {causes or ''}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
