"""Reference computations the benchmark checks lcsim's outputs against.

Written from the formats the lcsim docstrings and README document, with
hashlib and fractions only: nothing here imports lcsim, so a change to
lcsim's hashing, pricing or membership code cannot also change the
yardstick it is measured with.

- Merkle root: sha256 with a one-byte domain tag per level kind (leaf 0x00,
  interior 0x01), an odd level repeats its last node, and the root is
  sha256(0x02 | leaf count as u64 | top node), so the leaf count is
  committed.
- Block: hash = sha256("lcsim-block-v1" | number u64 | parent hash |
  transactions root); a block without transactions records
  sha256("lcsim-empty-txs-v1") as its root; a transaction id is the sha256
  of its payload; genesis has a zero parent.
- Premium: ceil(apy * T_cov * V / (B_year * u)) wei; gas = units * price.
- Membership: register and withdraw records of epochs <= e - 2, folded in
  chain order, give the provider set of epoch e.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

LEAF_TAG = b"\x00"
NODE_TAG = b"\x01"
ROOT_TAG = b"\x02"
BLOCK_TAG = b"lcsim-block-v1"
EMPTY_TXS_TAG = b"lcsim-empty-txs-v1"
GENESIS_PARENT = bytes(32)

TAG_REGISTER = 0x10
TAG_WITHDRAW = 0x11
TAG_SLASH = 0x13


def sha256(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


def u64(value: int) -> bytes:
    return value.to_bytes(8, "big")


def merkle_top(leaves: list[bytes]) -> bytes:
    """Top node of the tree, before the leaf count is committed."""
    nodes = [sha256(LEAF_TAG, leaf) for leaf in leaves]
    while len(nodes) > 1:
        if len(nodes) % 2:
            nodes.append(nodes[-1])
        nodes = [sha256(NODE_TAG, nodes[i], nodes[i + 1]) for i in range(0, len(nodes), 2)]
    return nodes[0]


def merkle_root(leaves: list[bytes]) -> bytes:
    if not leaves:
        raise ValueError("a Merkle tree needs at least one leaf")
    return sha256(ROOT_TAG, u64(len(leaves)), merkle_top(leaves))


def transactions_root(tx_ids: list[bytes]) -> bytes:
    return merkle_root(tx_ids) if tx_ids else sha256(EMPTY_TXS_TAG)


def block_hash(number: int, parent: bytes, tx_root: bytes) -> bytes:
    return sha256(BLOCK_TAG, u64(number), parent, tx_root)


def rebuild_chain(payloads_per_block: list[list[bytes]]) -> list[dict]:
    """Hash every block from its transaction payloads alone, genesis first."""
    out = []
    parent = GENESIS_PARENT
    for number, payloads in enumerate(payloads_per_block):
        ids = [sha256(p) for p in payloads]
        root = transactions_root(ids)
        h = block_hash(number, parent, root)
        out.append(dict(number=number, parent=parent, tx_ids=ids, root=root, hash=h))
        parent = h
    return out


def premium_wei(
    apy: Fraction, blocks_per_year: int, utilization: Fraction, t_cov: int, value_wei: int
) -> int:
    exact = Fraction(apy) * t_cov * value_wei / (blocks_per_year * Fraction(utilization))
    return -(-exact.numerator // exact.denominator)


def gas_wei(gas_units: int, gas_price_wei: int) -> int:
    return gas_units * gas_price_wei


def coverage_duration(
    t_fin: int, challenge_periods: tuple[int, ...], delta_comm: int, delta_comp: int
) -> int:
    return t_fin + sum(challenge_periods) + delta_comm + delta_comp


def _lp_bytes(payload: bytes, pos: int) -> tuple[bytes, int]:
    n = int.from_bytes(payload[pos : pos + 4], "big")
    return payload[pos + 4 : pos + 4 + n], pos + 4 + n


def decode_provider_record(payload: bytes) -> tuple[str, bytes, int] | None:
    """("register", pk, stake) / ("withdraw", pk, 0) / None for other payloads."""
    if not payload:
        return None
    if payload[0] == TAG_REGISTER:
        pk, pos = _lp_bytes(payload, 1)
        return "register", pk, int.from_bytes(payload[pos : pos + 16], "big")
    if payload[0] == TAG_WITHDRAW:
        pk, _ = _lp_bytes(payload, 1)
        return "withdraw", pk, 0
    return None


def decode_slash_record(payload: bytes) -> tuple[bytes, int | None] | None:
    """(provider pk, insurance id or None) of a slash record."""
    if not payload or payload[0] != TAG_SLASH:
        return None
    pk, pos = _lp_bytes(payload, 1)
    pos += 8 + 32 + 16
    has_ins = payload[pos]
    ins_id = int.from_bytes(payload[pos + 1 : pos + 9], "big")
    return pk, ins_id if has_ins else None


def membership(
    payloads_per_block: list[list[bytes]], epoch_blocks: int, epoch: int
) -> dict[bytes, int]:
    """Provider set of `epoch`: records of epochs <= epoch - 2, in chain order."""
    members: dict[bytes, int] = {}
    last_block = (epoch - 1) * epoch_blocks - 1
    for number, payloads in enumerate(payloads_per_block[: max(0, last_block + 1)]):
        for payload in payloads:
            record = decode_provider_record(payload)
            if record is None:
                continue
            kind, pk, stake = record
            if kind == "register":
                members[pk] = stake
            else:
                members.pop(pk, None)
    return members
