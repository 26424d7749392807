"""Simulated PoS blockchain: slots, epochs, deterministic finality.

The chain is a single finalizing sequence (no forks): adversarial "wrong
data" is modeled at the data-provider layer, not as reorgs.  Time is
measured in block ticks; one block is appended per simulation tick, and a
block at height n is finalized once the tip is at least
`finality_depth_epochs * slots_per_epoch` blocks above it.

The chain maps each transaction id to the first `(height, tx)` carrying
it as blocks are appended (and, for blocks passed to the constructor, once
at construction), so `find_transaction` answers without a scan. It keeps no
other index: the contract owns the membership and slash records it emits.
Blocks never change, so a block's Merkle levels and the first index of each
of its transaction ids are built once, on the block's first inclusion
proof, and every later proof of the block is read off them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

from . import crypto
from .crypto import MerkleProof

_BLOCK_TAG = b"lcsim-block-v1"
_EMPTY_TXS_TAG = b"lcsim-empty-txs-v1"

GENESIS_PARENT = bytes(32)

# Root recorded for a block with no transactions; merkle_root itself
# rejects empty leaf sets.
EMPTY_TRANSACTIONS_ROOT = crypto.digest(_EMPTY_TXS_TAG)


class UnknownHeightError(ValueError):
    """Queried height is above the chain tip."""


class TxNotInBlockError(ValueError):
    """The block exists but does not contain the requested transaction."""


@dataclass(frozen=True)
class Transaction:
    """A chain transaction; `id` is the hash of the payload."""

    id: bytes
    payload: bytes
    value: int = 0

    @classmethod
    def create(cls, payload: bytes, value: int = 0) -> "Transaction":
        if value < 0:
            raise ValueError("transaction value must be non-negative")
        return cls(id=crypto.digest(payload), payload=payload, value=value)


def _transactions_root(transactions: tuple[Transaction, ...]) -> bytes:
    if not transactions:
        return EMPTY_TRANSACTIONS_ROOT
    return crypto.merkle_root([tx.id for tx in transactions])


def block_hash(number: int, parent_hash: bytes, transactions_root: bytes) -> bytes:
    """The header hash of block `number`; light clients recompute it from a
    response's fields. It is `crypto.digest` of the four parts, hashed as one
    string."""
    return hashlib.sha256(
        b"".join((_BLOCK_TAG, number.to_bytes(8, "big"), parent_hash, transactions_root))
    ).digest()


class Block(NamedTuple):
    """An immutable block; one is built on every tick, so it is a tuple."""

    number: int
    parent_hash: bytes
    transactions: tuple[Transaction, ...]
    transactions_root: bytes
    hash: bytes


@dataclass
class Chain:
    """Append-only block sequence with a deterministic finality rule."""

    slots_per_epoch: int = 4
    finality_depth_epochs: int = 2
    blocks: list[Block] = field(default_factory=list)
    _first_by_id: dict[bytes, tuple[int, Transaction]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Height -> (Merkle levels, first index of each tx id) of proven blocks.
    _trees: dict[int, tuple[list[list[bytes]], dict[bytes, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.slots_per_epoch < 1 or self.finality_depth_epochs < 1:
            raise ValueError("slots_per_epoch and finality_depth_epochs must be positive")
        if not self.blocks:
            root = _transactions_root(())
            self.blocks.append(
                Block(0, GENESIS_PARENT, (), root, block_hash(0, GENESIS_PARENT, root))
            )
        for block in self.blocks:
            self._index(block)

    @property
    def finality_depth_blocks(self) -> int:
        return self.finality_depth_epochs * self.slots_per_epoch

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def block_at(self, number: int) -> Block:
        if number > self.tip.number or number < 0:
            raise UnknownHeightError(f"no block at height {number} (tip {self.tip.number})")
        return self.blocks[number]

    def append_block(self, transactions: list[Transaction]) -> Block:
        parent = self.blocks[-1]
        number = parent.number + 1
        if transactions:
            txs = tuple(transactions)
            root = _transactions_root(txs)
        else:  # most blocks: nothing to root or index
            txs, root = (), EMPTY_TRANSACTIONS_ROOT
        # One block per tick: tuple.__new__ skips the NamedTuple's Python-level __new__.
        block = tuple.__new__(
            Block, (number, parent.hash, txs, root, block_hash(number, parent.hash, root))
        )
        self.blocks.append(block)
        if txs:
            self._index(block)
        return block

    def _index(self, block: Block) -> None:
        for tx in block.transactions:
            self._first_by_id.setdefault(tx.id, (block.number, tx))

    def is_finalized(self, number: int) -> bool:
        return (
            0 <= number <= self.tip.number
            and self.tip.number - number >= self.finality_depth_blocks
        )

    def finalized_block_hash(self, number: int) -> bytes | None:
        """Hash of the finalized block at `number`, or None while the depth
        rule is unmet."""
        if number > self.tip.number:
            raise UnknownHeightError(f"no block at height {number} (tip {self.tip.number})")
        if not self.is_finalized(number):
            return None
        return self.blocks[number].hash

    def inclusion_proof(self, number: int, tx_id: bytes) -> MerkleProof:
        """Proof of the first transaction carrying `tx_id` in block `number`."""
        block = self.block_at(number)
        tree = self._trees.get(number)
        if tree is None:
            ids = [tx.id for tx in block.transactions]
            first: dict[bytes, int] = {}
            for index, leaf in enumerate(ids):
                first.setdefault(leaf, index)
            tree = self._trees[number] = (crypto.merkle_levels(ids), first)
        levels, first = tree
        index = first.get(tx_id)
        if index is None:
            raise TxNotInBlockError(f"transaction not in block {number}")
        return crypto.merkle_path(levels, len(block.transactions), index)

    def find_transaction(self, tx_id: bytes) -> tuple[int, Transaction] | None:
        """First `(height, tx)` carrying `tx_id`; used by providers and
        watchers."""
        return self._first_by_id.get(tx_id)
