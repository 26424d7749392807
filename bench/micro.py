"""Per-call costs of lcsim's primitives, timed on their own.

The traced run's per-span times include the wrappers' cost; these loops
call the primitives directly, on inputs taken from the workload's own
checked round (its keys, block contents, responses and pricing inputs), so
the sizes match what the workload feeds them.
"""

from __future__ import annotations

import time

from lcsim import codec, crypto, pricing, scenario
from lcsim.actors import ProviderStrategy, Query, provider_respond
from lcsim.chain import Chain, Transaction
from lcsim.contract import (
    BuyInsuranceTx,
    ContractConfig,
    Ledger,
    RegisterTx,
    SlashEvidence,
    SlashingContract,
    SlashTx,
    WithdrawRequestTx,
)
from lcsim.light_client import Check, CheckKind, verify_response

ETH = 10**18


def mean_us(fn, inputs: list[tuple], budget_s: float, prepare=None) -> float:
    """Mean µs per `fn(*args)` over passes through `inputs`; `prepare()`,
    when given, runs untimed before each pass and its result is passed as
    the first argument."""
    calls = 0
    spent = 0.0
    while spent < budget_s or calls == 0:
        first = prepare() if prepare is not None else None
        t0 = time.perf_counter()
        if first is None:
            for args in inputs:
                fn(*args)
        else:
            for args in inputs:
                fn(first, *args)
        spent += time.perf_counter() - t0
        calls += len(inputs)
    return spent / calls * 1e6


def _contract_world(providers: list[bytes], register: bool):
    ledger = Ledger()
    contract = SlashingContract(
        ContractConfig(min_stake=ETH, update_epoch_blocks=32, max_challenge_period=16),
        ledger,
        pricing.PricingParams(),
    )
    chain = Chain()
    for _ in range(40):
        chain.append_block([])
    for pk in providers:
        ledger.mint(pk, 64 * ETH)
        if register:
            contract.execute_transaction(RegisterTx(pk, 64 * ETH), chain, 1)
    return contract, chain


def timings(cells, paths, kept, budget_s: float) -> dict[str, tuple[float, str]]:
    each = budget_s / 15
    sims = [sim for _, _, sim in kept]
    main = max(sims, key=lambda s: len(s.actors))
    keys = [p.keypair for p in main.providers[:64]]
    blocks = [b for sim in sims for b in sim.chain.blocks if b.transactions]
    leaf_lists = [[tx.id for tx in b.transactions] for b in blocks][:2000]
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, us: float) -> None:
        out[name] = (us, "us")

    put("scenario.load_scenario.us", mean_us(scenario.load_scenario, [(p,) for p in paths], each))
    put("crypto.keygen.us", mean_us(crypto.keygen, [(i,) for i in range(200)], each))
    payloads = [
        codec.response_payload(b.number, b.hash, b.transactions[0].id, None) for b in blocks[:64]
    ]
    pairs = list(zip(keys * 64, payloads))
    signing = [(kp.secret_key, msg) for kp, msg in pairs]
    put("crypto.sign.us", mean_us(crypto.sign, signing, each))
    verifying = [(kp.public_key, msg, crypto.sign(kp.secret_key, msg)) for kp, msg in pairs]
    put("crypto.verify.us", mean_us(crypto.verify, verifying, each))
    put("crypto.merkle_root.us", mean_us(crypto.merkle_root, [(ls,) for ls in leaf_lists], each))
    proving = [(ls, i) for ls in leaf_lists for i in range(len(ls))][:4000]
    put("crypto.merkle_prove.us", mean_us(crypto.merkle_prove, proving, each))
    checking = [
        (crypto.merkle_root(ls), ls[i], crypto.merkle_prove(ls, i)) for ls, i in proving[:2000]
    ]
    put("crypto.merkle_verify.us", mean_us(crypto.merkle_verify, checking, each))

    block_txs = [
        [Transaction.create(tx.payload) for tx in b.transactions] for b in main.chain.blocks[1:]
    ]
    put(
        "chain.append_block.us",
        mean_us(Chain.append_block, [(txs,) for txs in block_txs], each, prepare=Chain),
    )
    tip = main.chain.tip.number
    heights = [((i * 7919) % (tip + 1),) for i in range(1000)]
    put("chain.block_at.us", mean_us(main.chain.block_at, heights, each))

    pks = [crypto.digest(b"bench-provider", i.to_bytes(4, "big")) for i in range(64)]
    put(
        "contract.tx.register.us",
        mean_us(
            lambda world, pk: world[0].execute_transaction(RegisterTx(pk, 32 * ETH), world[1], 41),
            [(pk,) for pk in pks],
            each,
            prepare=lambda: _contract_world(pks, register=False),
        ),
    )
    put(
        "contract.tx.withdraw.us",
        mean_us(
            lambda world, pk: world[0].execute_transaction(WithdrawRequestTx(pk), world[1], 41),
            [(pk,) for pk in pks],
            each,
            prepare=lambda: _contract_world(pks, register=True),
        ),
    )
    buyers = [crypto.digest(b"bench-buyer", i.to_bytes(4, "big")) for i in range(64)]

    def buy_world():
        world = _contract_world(pks, register=True)
        for buyer in buyers:
            world[0].ledger.mint(buyer, ETH)
        return world

    purchases = [
        BuyInsuranceTx(buyer, ((pks[i], 20 * ETH), (pks[(i + 1) % 64], 10 * ETH)), 30 * ETH, 56)
        for i, buyer in enumerate(buyers)
    ]
    put(
        "contract.tx.buy_insurance.us",
        mean_us(
            lambda world, tx: world[0].execute_transaction(tx, world[1], 41),
            [(tx,) for tx in purchases],
            each,
            prepare=buy_world,
        ),
    )
    lies = []
    for kp in keys:
        fake = crypto.digest(b"bench-fake-block", kp.public_key)
        state = crypto.digest(b"bench-target")
        sig = crypto.sign(kp.secret_key, codec.response_payload(5, fake, state, None))
        lies.append(SlashTx(SlashEvidence(kp.public_key, 5, fake, state, sig)))
    put(
        "contract.tx.slash.us",
        mean_us(
            lambda world, tx: world[0].execute_transaction(tx, world[1], 41, "bench-watcher"),
            [(tx,) for tx in lies],
            each,
            prepare=lambda: _contract_world([kp.public_key for kp in keys], register=True),
        ),
    )

    quotes = []
    for _, config, sim in kept:
        for c in config.clients:
            if c.coverage_inputs is not None:
                t_cov = pricing.min_coverage_duration(c.coverage_inputs)
                quotes.append((config.pricing, t_cov, c.target_value))
    quotes = quotes or [(pricing.PricingParams(), 56, ETH)]
    put("pricing.premium.us", mean_us(pricing.premium, quotes, each))

    answers = []
    for name, target in list(main.target_tx_ids.items())[:64]:
        number = next(
            b.number for b in main.chain.blocks if any(tx.id == target for tx in b.transactions)
        )
        check = Check(
            kind=CheckKind.TARGET,
            block_number=number,
            state_hash=target,
            challenge_period=13,
            value=ETH,
        )
        keypair = keys[len(answers) % len(keys)]
        response = provider_respond(
            ProviderStrategy.HONEST, Query(number, target), main.chain, keypair
        )
        answers.append((check, response))
    put("light_client.verify_response.us", mean_us(verify_response, answers, each))
    return out
