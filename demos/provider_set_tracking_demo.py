#!/usr/bin/env python3
"""Tracking the provider set without heavy checks.

Providers register and withdraw on their own schedules.  After one
bootstrap, the client predicts each epoch's set from the previous epoch's
register/withdraw records, two epochs behind on-chain execution.  It asks
the providers its value selects for their signed lists of those records,
forwards each list to the watchers, who slash a list whose root is not
the contract's, and once the maintenance challenge period after the last
list has passed without an alert, folds the records in.  The harness
compares the prediction against the contract at every epoch boundary.

Usage:
    python3 demos/provider_set_tracking_demo.py
"""

from lcsim.harness import Simulation
from lcsim.scenario import builtin_scenario_path, load_scenario


def describe(provider_set) -> str:
    return (
        "{" + ", ".join(f"{pk[:4].hex()}:{stake // 10**18}ETH" for pk, stake in sorted(provider_set.items())) + "}"
    )


def record_sets(client) -> dict:
    """Record each set the client takes during the run, by epoch: it keeps
    only its held and its next epoch's set."""
    sets = {}
    bootstrap, predict = client.bootstrap, client._predict

    def recorded_bootstrap(ctx, now):
        bootstrap(ctx, now)
        sets[client.current_epoch_held] = ("heavy check", client.current_set())

    def recorded_predict(epoch, provider_set, ctx):
        predict(epoch, provider_set, ctx)
        sets[epoch] = ("predicted", provider_set)

    client.bootstrap, client._predict = recorded_bootstrap, recorded_predict
    return sets


def main() -> None:
    config = load_scenario(builtin_scenario_path("maintenance"))
    sim = Simulation(config)
    client = sim.clients[0]
    sets = record_sets(client)
    metrics, _ = sim.run()
    b_u = config.update_epoch_blocks
    print("=" * 68)
    print("provider schedule")
    print("=" * 68)
    for spec, actor in zip(config.providers, sim.providers):
        line = f"  {actor.name}  {spec.stake // 10**18:>2} ETH  registers at tick {spec.register_tick}"
        if spec.withdraw_tick is not None:
            line += f", requests withdrawal at tick {spec.withdraw_tick}"
        print(line)
    print()
    print("=" * 68)
    print("client's predicted set per epoch (bootstrap epoch first)")
    print("=" * 68)
    for epoch in sorted(sets):
        source, provider_set = sets[epoch]
        realized = {
            (pk, stake) for pk, stake, _ in sim.contract.active_set(epoch)
        } == set(provider_set.items())
        print(f"  epoch {epoch} ({source:>11}): {describe(provider_set)}"
              f"  matches contract: {realized}")
    print()
    print(f"epoch boundaries compared by the harness: {metrics.prediction_checks}")
    print(f"heavy checks used in total:               {metrics.clients['c0'].heavy_checks}")
    print(f"violations:                               {metrics.violations or 'none'}")
    print()
    print(f"(epochs are {b_u} blocks; requests take effect on the tracked set")
    print(" two epochs after execution, which is exactly what the client can")
    print(" verify from finalized records while staying fully light)")


if __name__ == "__main__":
    main()
