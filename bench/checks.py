"""Output checks and failure accounting for one simulated scenario.

Correctness is judged against `reference` (hashes, fees, membership) and
against properties the paper guarantees; lcsim's own violation list is
only cross-checked, never trusted. Operations are the target check of
every client that performs one plus every provider-set prediction check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import reference
from lcsim.harness import Simulation

KNOWN_FAULTS = ("F1", "F2")


class CountingMailbox(dict):
    """The simulation's mailbox; counts messages as each tick's batch is
    taken out for delivery."""

    delivered = 0

    def pop(self, key, default=None):
        batch = super().pop(key, default)
        if batch:
            self.delivered += len(batch)
        return batch


class BenchSimulation(Simulation):
    """Simulation that keeps what the checks need: the set every checked
    client holds at each prediction check, and the delivered-message count."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self._mailbox = CountingMailbox()
        self.held_at_check: list[tuple[str, int, dict | None]] = []

    def _check_predictions(self, epoch: int) -> None:
        for client in self.clients:
            # The clients lcsim checks, in its own words (harness.py).
            if not client.config.maintain or not client.bootstrapped:
                continue
            if client._offline_at(self.ctx.now):
                continue
            if not client.bootstrap_epochs or epoch <= min(client.bootstrap_epochs):
                continue
            if epoch in client.bootstrap_epochs:
                continue
            held = client.set_for_epoch(epoch)
            copy = dict(held) if held is not None else None
            self.held_at_check.append((client.name, epoch, copy))
        super()._check_predictions(epoch)


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)  # (cause, where)
    errors: list[str] = field(default_factory=list)
    eco_ticks: list[int] = field(default_factory=list)
    ins_ticks: list[int] = field(default_factory=list)
    ins_fees_wei: int = 0
    clients: int = 0
    heavy_checks: int = 0
    accepts: int = 0
    target_sig_verifies: int = 0
    msgs: int = 0
    restarts: int = 0

    def merge(self, other: "Outcome") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


def check(cell, config, sim: BenchSimulation) -> Outcome:
    out = Outcome()
    m = sim.metrics
    where = cell.name
    if cell.built is not None and cell.built != config:
        out.errors.append(f"{where}: INI text did not load back into the built config")

    payloads = [[tx.payload for tx in block.transactions] for block in sim.chain.blocks]
    ref = reference.rebuild_chain(payloads)
    for block, want in zip(sim.chain.blocks, ref):
        ids = [tx.id for tx in block.transactions]
        got = (ids, block.transactions_root, block.parent_hash, block.hash)
        if got != (want["tx_ids"], want["root"], want["parent"], want["hash"]):
            out.errors.append(f"{where}: block {block.number} differs from the reference rebuild")
            break
    tip = len(ref) - 1
    t_fin = config.slots_per_epoch * config.finality_depth_epochs
    epoch_blocks = config.update_epoch_blocks

    pk_strategy = {
        p.public_key: spec.strategy.value for p, spec in zip(sim.providers, config.providers)
    }
    slashed: dict[bytes, list[int | None]] = {}
    withdraw_records: set[bytes] = set()
    for payloads_in_block in payloads:
        for payload in payloads_in_block:
            found = reference.decode_slash_record(payload)
            if found is not None:
                slashed.setdefault(found[0], []).append(found[1])
            record = reference.decode_provider_record(payload)
            if record is not None and record[0] == "withdraw":
                withdraw_records.add(record[1])
    for pk in slashed:
        if pk_strategy.get(pk) in ("honest", "unresponsive"):
            out.errors.append(f"{where}: {pk_strategy[pk]} provider slashed")
    withdrawn = {pk for _, pk, _ in m.withdrawals}
    for p, spec in zip(sim.providers, config.providers):
        scammer = spec.strategy.value == "exit_scam" and spec.withdraw_tick is None
        lied = scammer and p.public_key in withdraw_records
        if lied and (p.public_key in withdrawn or sim.ledger.balance(p.public_key) != 0):
            out.errors.append(f"{where}: exit-scam provider {p.name} got its stake back")

    minted = sum(spec.stake for spec in config.providers)
    minted += sum(c.initial_balance for c in config.clients)
    if sim.ledger.total() != minted:
        out.errors.append(f"{where}: ledger holds {sim.ledger.total()} wei, {minted} were minted")

    params = config.pricing
    gas = reference.gas_wei(params.gas_units, params.gas_price_wei)
    accepted_by = {r.client: r for r in m.acceptances}
    if len(accepted_by) != len(m.acceptances):
        out.errors.append(f"{where}: a client accepted its target twice")
    policies_by = {}
    for policy in sim.contract.policies.values():
        policies_by.setdefault(policy.buyer_pk, []).append(policy)

    expected_violations: set[str] = set()
    for client, ccfg in zip(sim.clients, config.clients):
        name = client.name
        cm = m.clients[name]
        out.clients += 1
        out.heavy_checks += cm.heavy_checks
        out.target_sig_verifies += cm.target_signature_verifications
        start = ccfg.start_tick if ccfg.start_tick is not None else 2 * epoch_blocks + 1
        target_payload = b"target-state:" + name.encode() + config.seed.to_bytes(8, "big")
        target_id = reference.sha256(target_payload)
        if target_id not in ref[ccfg.target_block]["tx_ids"]:
            out.errors.append(f"{where}: {name}'s target is not in block {ccfg.target_block}")
        out.restarts += sum(c.restarts for c in client.checks if c.kind.value == "target")

        if ccfg.protocol.value == "ins":
            cov = ccfg.coverage_inputs
            t_cov = reference.coverage_duration(
                t_fin, cov.challenge_periods, cov.delta_comm, cov.delta_comp
            )
            prem = reference.premium_wei(
                params.apy, params.blocks_per_year, params.utilization, t_cov, ccfg.target_value
            )
            bought = policies_by.get(client.public_key, [])
            if any(p.duration != t_cov or p.coverage_value != ccfg.target_value for p in bought):
                out.errors.append(f"{where}: {name} holds a policy of the wrong duration or value")
            if (cm.premium_spent, cm.gas_spent) != (len(bought) * prem, len(bought) * gas):
                out.errors.append(f"{where}: {name} paid fees off the reference formula")
            fees = cm.premium_spent + cm.gas_spent
            if sim.ledger.balance(client.public_key) - ccfg.initial_balance < -fees:
                out.errors.append(f"{where}: {name} lost more than its fees")
            out.ins_fees_wei += fees

        if not ccfg.perform_check:
            continue
        out.attempted += 1
        record = accepted_by.get(name)
        if record is None:
            out.failures.append(("unaccepted", f"{where}:{name}"))
            continue
        out.accepts += 1
        liars = [pk for pk, n, h in record.responses if n > tip or ref[n]["hash"] != h]
        if ccfg.protocol.value == "eco":
            out.eco_ticks.append(record.accepted_tick - start)
            if record.accepted_tick - record.last_response_tick < ccfg.challenge_period:
                out.errors.append(f"{where}: {name} accepted inside its challenge period")
            if liars:
                out.failures.append(("eco-safety", f"{where}:{name}"))
                expected_violations.add(f"eco-safety:{name}")
            elif any(tip - n < t_fin for _, n, _ in record.responses):
                out.errors.append(f"{where}: {name} accepted a block that never finalized")
        else:
            out.ins_ticks.append(record.accepted_tick - start)
            if liars and cm.compensation_received < ccfg.target_value:
                # F1: the liar's slash paid a different policy, or none.
                paid_other = all(
                    pk in slashed and record.insurance_id not in slashed[pk] for pk in liars
                )
                out.failures.append(("F1" if paid_other else "ins-protection", f"{where}:{name}"))
                expected_violations.add(f"ins-protection:{name}")

    first_epoch = {c.name: min(c.bootstrap_epochs) for c in sim.clients if c.bootstrap_epochs}
    for name, epoch, held in sim.held_at_check:
        out.attempted += 1
        want = reference.membership(payloads, epoch_blocks, epoch)
        if held != want:
            # F2: a late starter holds no set yet for the epoch after it came online.
            late = held is None and epoch == first_epoch[name] + 1
            out.failures.append(("F2" if late else "prediction", f"{where}:{name}@epoch{epoch}"))
            expected_violations.add(f"prediction:{name}@epoch{epoch}")
    if len(sim.held_at_check) != m.prediction_checks:
        out.errors.append(
            f"{where}: {len(sim.held_at_check)} prediction checks seen, "
            f"lcsim counted {m.prediction_checks}"
        )

    unexplained = set(m.violations) - expected_violations
    if unexplained:
        shown = sorted(unexplained)[:3]
        out.errors.append(f"{where}: lcsim reports unexplained violations {shown}")
    if cell.built is not None and m.violations:
        out.errors.append(f"{where}: a compliant sweep cell reports {m.violations[:3]}")
    out.msgs = sim._mailbox.delivered
    return out
