"""The benchmark's hooks into lcsim.

`bench/spans.py` wraps lcsim's functions and methods by attribute name and
`bench/checks.py` subclasses `Simulation` and reads client attributes, so a
rename in lcsim that breaks either must fail here, not only in a traced
benchmark run. The bench modules import each other as top-level modules
and are only read.

The timing contract is checked here too: `bench/hostclock.py` cuts one
stretch per call of `chain.append_block`, patched on the instance before
`run`; `CountingMailbox` counts one entry per message; and a run's log is
finished when `run` returns, so no work is left outside the timed window.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from lcsim import scenario
from lcsim.harness import Simulation
from lcsim.light_client import Protocol
from test_golden import table3_row

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def maintenance():
    return scenario.load_scenario(scenario.builtin_scenario_path("maintenance"))


def test_tracer_keeps_the_log_and_uninstall_restores_every_attribute(bench_path):
    from spans import Tracer

    untraced = Simulation(maintenance()).run()[1].serialize()
    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        traced = Simulation(maintenance()).run()[1].serialize()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    for name in ("harness.loop", "light_client.on_tick", "actors.provider.event_list"):
        assert tracer.stats(name)[0] > 0, name


def test_bench_simulation_runs_and_checks_a_bundled_scenario(bench_path):
    from checks import BenchSimulation, check

    config = maintenance()
    sim = BenchSimulation(config)
    _, log = sim.run()
    assert log.serialize() == Simulation(config).run()[1].serialize()
    assert sim._mailbox.delivered > 0
    assert {name for name, _, _ in sim.held_at_check} == {"c0"}
    outcome = check(SimpleNamespace(name="maintenance", built=None), config, sim)
    assert outcome.errors == []
    assert outcome.failures == []
    performing = sum(client.perform_check for client in config.clients)
    assert outcome.attempted == performing + len(sim.held_at_check)


def test_an_instance_patched_append_block_runs_once_per_tick():
    config = maintenance()
    sim = Simulation(config)
    append_block = sim.chain.append_block
    calls = []

    def counted(txs):
        calls.append(sim.ctx.now)
        return append_block(txs)

    sim.chain.append_block = counted
    sim.run()
    assert calls == list(range(1, config.total_ticks + 1))


@pytest.mark.parametrize("protocol", [Protocol.ECO, Protocol.INS])
def test_an_instance_patched_append_block_runs_once_per_tick_of_a_long_quiet_run(protocol):
    config = table3_row(protocol)
    sim = Simulation(config)
    append_block = sim.chain.append_block
    calls = []

    def counted(txs):
        calls.append(sim.ctx.now)
        return append_block(txs)

    sim.chain.append_block = counted
    sim.run()
    assert calls == list(range(1, config.total_ticks + 1))


def test_the_counting_mailbox_counts_every_delivered_message(bench_path, monkeypatch):
    from checks import BenchSimulation

    enqueue_each = Simulation.enqueue_each
    sent = []

    def counted(sim, src, dsts, payload):
        dsts = list(dsts)
        sent.extend(payload for _ in dsts)
        return enqueue_each(sim, src, dsts, payload)

    monkeypatch.setattr(Simulation, "enqueue_each", counted)
    sim = BenchSimulation(maintenance())
    sim.run()
    in_flight = sum(len(batch) for batch in sim._mailbox.values())
    assert sim._mailbox.delivered == len(sent) - in_flight > 0


def test_the_log_is_finished_when_run_returns():
    _, log = Simulation(maintenance()).run()
    assert log.lines
    for line in log.lines:
        assert type(line) is str
        tick, actor, event, digest = line.split("\t")
        assert tick.isdigit() and actor and event
        assert len(digest) == 16 and int(digest, 16) >= 0
