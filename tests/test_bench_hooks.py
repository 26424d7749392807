"""The benchmark's hooks into lcsim.

`bench/spans.py` wraps lcsim's functions and methods by attribute name and
`bench/checks.py` subclasses `Simulation` and reads client attributes, so a
rename in lcsim that breaks either must fail here, not only in a traced
benchmark run. The bench modules import each other as top-level modules
and are only read.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from lcsim import scenario
from lcsim.harness import Simulation

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
