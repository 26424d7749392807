"""Hand-worked vectors for the benchmark's reference computations.

    python3 -m pytest bench/test_reference.py

The last tests also check that lcsim agrees with the reference on small
inputs, since every benchmark run relies on that agreement.
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref

ETH = 10**18


def h(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


def register_payload(pk: bytes, stake: int) -> bytes:
    return b"\x10" + len(pk).to_bytes(4, "big") + pk + stake.to_bytes(16, "big")


def withdraw_payload(pk: bytes) -> bytes:
    return b"\x11" + len(pk).to_bytes(4, "big") + pk


# -- Merkle -------------------------------------------------------------------


def test_single_leaf_root():
    leaf = h(b"\x00", b"a")
    assert ref.merkle_root([b"a"]) == h(b"\x02", (1).to_bytes(8, "big"), leaf)


def test_three_leaf_root_repeats_the_odd_node():
    la, lb, lc = (h(b"\x00", x) for x in (b"a", b"b", b"c"))
    top = h(b"\x01", h(b"\x01", la, lb), h(b"\x01", lc, lc))
    assert ref.merkle_root([b"a", b"b", b"c"]) == h(b"\x02", (3).to_bytes(8, "big"), top)


def test_leaf_count_is_committed():
    assert ref.merkle_root([b"x"] * 4) != ref.merkle_root([b"x"] * 2)
    # Padding makes these two trees share a top node; only the count differs.
    assert ref.merkle_top([b"a", b"b", b"c"]) == ref.merkle_top([b"a", b"b", b"c", b"c"])
    assert ref.merkle_root([b"a", b"b", b"c"]) != ref.merkle_root([b"a", b"b", b"c", b"c"])


def test_pinned_vectors():
    # Pinned once from the compositions above; they guard the hex encoding
    # of the two constants most outputs hang from.
    assert ref.merkle_root([b"a", b"b"]).hex() == (
        "4c18b87ee623a3dfbcfefc3b002d3334c0554f545f9ef9dadec271daec0b399b"
    )
    assert ref.rebuild_chain([[]])[0]["hash"].hex() == (
        "c4e8edd3458f85f02e9cb634b80e59b0516f95fb1d04b115245844d460ad06dd"
    )


# -- blocks -------------------------------------------------------------------


def test_genesis_and_parent_link():
    empty_root = h(b"lcsim-empty-txs-v1")
    genesis = h(b"lcsim-block-v1", (0).to_bytes(8, "big"), bytes(32), empty_root)
    payload = b"target-state:c0"
    root1 = h(b"\x02", (1).to_bytes(8, "big"), h(b"\x00", h(payload)))
    block1 = h(b"lcsim-block-v1", (1).to_bytes(8, "big"), genesis, root1)
    chain = ref.rebuild_chain([[], [payload]])
    assert [b["hash"] for b in chain] == [genesis, block1]
    assert chain[1]["parent"] == genesis
    assert chain[1]["tx_ids"] == [h(payload)]
    assert chain[0]["root"] == empty_root


# -- pricing ------------------------------------------------------------------


def test_premium_worked_example():
    # 0.06 * 1500 * 100 ETH / (2,628,000 * 0.75) = 10**18 / 219 wei, ceiled.
    wei = ref.premium_wei(Fraction(6, 100), 2_628_000, Fraction(3, 4), 1500, 100 * ETH)
    assert wei == 4_566_210_045_662_101
    assert f"{wei / ETH:.6f}" == "0.004566"


def test_premium_rounds_up_and_is_zero_for_zero_value():
    assert ref.premium_wei(Fraction(6, 100), 2_628_000, Fraction(3, 4), 1, 1) == 1
    assert ref.premium_wei(Fraction(6, 100), 2_628_000, Fraction(3, 4), 56, 0) == 0


def test_gas_and_coverage_duration():
    assert ref.gas_wei(200_000, 9_377_000_000) == 1_875_400_000_000_000  # 0.0018754 ETH
    assert ref.coverage_duration(8, (13, 13), 20, 2) == 56


# -- membership ---------------------------------------------------------------


def test_two_epoch_lag_fold():
    a, b = b"A" * 32, b"B" * 32
    epoch_blocks = 4
    blocks = [[] for _ in range(24)]
    blocks[1].append(register_payload(a, 32))  # epoch 0
    blocks[5].append(register_payload(b, 16))  # epoch 1
    blocks[9].append(withdraw_payload(a))  # epoch 2
    blocks[13].append(register_payload(a, 48))  # epoch 3
    blocks[13].append(b"target-state:not-a-record")
    want = {0: {}, 1: {}, 2: {a: 32}, 3: {a: 32, b: 16}, 4: {b: 16}, 5: {a: 48, b: 16}}
    for epoch, members in want.items():
        assert ref.membership(blocks, epoch_blocks, epoch) == members


def test_record_decoders():
    pk = bytes(range(32))
    assert ref.decode_provider_record(register_payload(pk, 7 * ETH)) == ("register", pk, 7 * ETH)
    assert ref.decode_provider_record(withdraw_payload(pk)) == ("withdraw", pk, 0)
    assert ref.decode_provider_record(b"") is None
    slash = (
        b"\x13" + (32).to_bytes(4, "big") + pk + (9).to_bytes(8, "big") + bytes(32)
        + (5).to_bytes(16, "big") + b"\x01" + (42).to_bytes(8, "big")
        + (2).to_bytes(4, "big") + b"sg"
    )
    assert ref.decode_slash_record(slash) == (pk, 42)
    assert ref.decode_slash_record(slash[:93] + b"\x00" + slash[94:]) == (pk, None)


# -- agreement with lcsim -----------------------------------------------------


def _lcsim():
    src = Path(__file__).resolve().parent.parent / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import lcsim

    return lcsim


def test_lcsim_agrees_on_roots_and_blocks():
    lcsim = _lcsim()
    rng = random.Random(5)
    for n in range(1, 12):
        leaves = [rng.randbytes(32) for _ in range(n)]
        assert lcsim.crypto.merkle_root(leaves) == ref.merkle_root(leaves)
    chain = lcsim.Chain()
    payloads = [[], [b"x"], [b"y", b"z", b"w"]]
    for txs in payloads[1:]:
        chain.append_block([lcsim.Transaction.create(p) for p in txs])
    assert [b.hash for b in chain.blocks] == [b["hash"] for b in ref.rebuild_chain(payloads)]


def test_lcsim_agrees_on_premium():
    lcsim = _lcsim()
    params = lcsim.PricingParams()
    for t_cov, value in ((1500, 100 * ETH), (56, 7 * ETH), (1, 1)):
        assert lcsim.premium(params, t_cov, value) == ref.premium_wei(
            params.apy, params.blocks_per_year, params.utilization, t_cov, value
        )
