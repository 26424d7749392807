#!/usr/bin/env python3
"""The insured light client: instant acceptance, unconditional protection.

The bundled scenario pits the client against a lying provider that backs
its own insurance policy.  The client buys coverage, confirms the purchase
on-chain via the economic path, accepts the (false) target data the moment
the signature verifies, and is then made whole from the slashed stake.

Usage:
    python3 demos/insured_client_demo.py
"""

from lcsim.harness import run_scenario
from lcsim.pricing import format_eth
from lcsim.scenario import builtin_scenario_path, load_scenario

STEPS = {
    "bootstrap": "bootstrap: heavy check reads the provider set",
    "buy_insurance": "client submits the purchase, naming candidate backers",
    "insurance_open": "contract allocates from the candidates and locks them",
    "query": "client queries (purchase-inclusion check, then the target)",
    "accepted": "client ACCEPTS immediately on signature verification",
    "verdict": "watcher audits the forwarded response",
    "tx-slash-ok": "contract slashes the lying provider and pays the claim",
    "compensated": "client receives the coverage value",
}


def main() -> None:
    config = load_scenario(builtin_scenario_path("insured"))
    metrics, log = run_scenario(config)
    print("=" * 68)
    print("scenario: insured   (coverage = target value = 10 ETH)")
    print("=" * 68)
    for line in log.lines:
        tick, actor, event, _ = line.split("\t")
        if event in STEPS:
            print(f"  tick {int(tick):>3}  {actor:>8}  {STEPS[event]}")
    client = metrics.clients["c0"]
    record = metrics.acceptances[0]
    print()
    print(f"acceptance tick == response tick: {record.accepted_tick == record.last_response_tick}")
    print(f"accepted data matched the chain:  {record.correct}")
    print(f"premium paid:      {format_eth(client.premium_spent)} ETH")
    print(f"gas paid:          {format_eth(client.gas_spent)} ETH")
    print(f"compensation:      {format_eth(client.compensation_received)} ETH")
    delta = client.final_balance - client.initial_balance
    print(f"net balance delta: {format_eth(delta)} ETH"
          f" (= coverage - premium - gas: even lied-to, the client is whole)")


if __name__ == "__main__":
    main()
