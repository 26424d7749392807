"""Deterministic signatures, hashing, and Merkle trees.

Every protocol message must be verifiable and every simulation run
reproducible, so keygen derives an Ed25519 key deterministically from a
64-bit seed and all hashing is sha256 behind one domain-tagged helper.
Ed25519 signing is deterministic by construction.

Merkle trees domain-separate leaf hashes from interior hashes (one tag
byte) and commit to the leaf count, so a tree of four identical leaves
roots differently from a tree of two.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"
_ROOT_TAG = b"\x02"
_KEYGEN_TAG = b"lcsim-keygen-v1"


class EmptyLeavesError(ValueError):
    """A Merkle tree needs at least one leaf."""


class IndexOutOfRangeError(IndexError):
    """Requested proof index is not a leaf of the tree."""


def digest(*parts: bytes) -> bytes:
    """sha256 over the concatenation of `parts`."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


@dataclass(frozen=True)
class KeyPair:
    """A provider or client identity; `public_key` is the on-chain identity."""

    secret_key: bytes
    public_key: bytes


@functools.lru_cache(maxsize=1 << 12)
def _private_key(secret_key: bytes) -> Ed25519PrivateKey:
    """The key object of a secret. Deriving it is a pure function of the
    bytes and costs about as much as a signature, so it is done once."""
    return Ed25519PrivateKey.from_private_bytes(secret_key)


@functools.lru_cache(maxsize=1 << 12)
def _public_key(public_key: bytes) -> Ed25519PublicKey:
    """The key object of public-key bytes, built once per key. Malformed
    bytes raise ValueError, which the cache does not keep."""
    return Ed25519PublicKey.from_public_bytes(public_key)


def keygen(seed: int) -> KeyPair:
    """Deterministic Ed25519 key pair from a 64-bit seed."""
    seed_bytes = digest(_KEYGEN_TAG, seed.to_bytes(8, "big", signed=False))
    return KeyPair(
        secret_key=seed_bytes,
        public_key=_private_key(seed_bytes).public_key().public_bytes_raw(),
    )


def sign(secret_key: bytes, message: bytes) -> bytes:
    return _private_key(secret_key).sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        _public_key(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


class VerifyMemo:
    """`verify` results keyed by the full (public key, message, signature)
    bytes, so a signature seen again is not checked again.

    Keys are the bytes themselves, never a digest of them, so two triples
    share an entry only when they are equal. A miss calls the module's
    `verify`.
    """

    def __init__(self) -> None:
        self._results: dict[tuple[bytes, bytes, bytes], bool] = {}

    def __len__(self) -> int:
        return len(self._results)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        key = (public_key, message, signature)
        result = self._results.get(key)
        if result is None:
            result = self._results[key] = verify(public_key, message, signature)
        return result


# ---------------------------------------------------------------------------
# Merkle trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MerkleProof:
    """Sibling path for one leaf, bottom-up.

    `leaf_count` is part of the proof because the root commits to it;
    verification recomputes the same commitment.
    """

    leaf_index: int
    leaf_count: int
    siblings: tuple[bytes, ...]


def _leaf_hash(leaf: bytes) -> bytes:
    return digest(_LEAF_TAG, leaf)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return digest(_NODE_TAG, left, right)


def _root_commit(leaf_count: int, top: bytes) -> bytes:
    return digest(_ROOT_TAG, leaf_count.to_bytes(8, "big"), top)


def merkle_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """Every level of the tree over `leaves`, from the leaf hashes up to
    the single top node. A level of odd length above one is padded by
    repeating its last node before the level above is hashed from it, and
    it keeps the padding, so a proof reads its siblings straight off."""
    level = [_leaf_hash(x) for x in leaves]
    levels = [level]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def merkle_root(leaves: list[bytes]) -> bytes:
    if not leaves:
        raise EmptyLeavesError("merkle_root requires at least one leaf")
    return _root_commit(len(leaves), merkle_levels(leaves)[-1][0])


def merkle_path(levels: list[list[bytes]], leaf_count: int, index: int) -> MerkleProof:
    """The proof of leaf `index` read off the `merkle_levels` of its tree."""
    siblings = tuple(level[(index >> depth) ^ 1] for depth, level in enumerate(levels[:-1]))
    return MerkleProof(leaf_index=index, leaf_count=leaf_count, siblings=siblings)


def merkle_prove(leaves: list[bytes], index: int) -> MerkleProof:
    if not leaves:
        raise EmptyLeavesError("merkle_prove requires at least one leaf")
    if not 0 <= index < len(leaves):
        raise IndexOutOfRangeError(f"leaf index {index} out of range for {len(leaves)} leaves")
    return merkle_path(merkle_levels(leaves), len(leaves), index)


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    if not 0 <= proof.leaf_index < proof.leaf_count:
        return False
    node = _leaf_hash(leaf)
    pos = proof.leaf_index
    for sibling in proof.siblings:
        if pos % 2 == 0:
            node = _node_hash(node, sibling)
        else:
            node = _node_hash(sibling, node)
        pos //= 2
    return _root_commit(proof.leaf_count, node) == root
