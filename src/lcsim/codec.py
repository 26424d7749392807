"""Canonical byte encodings for every signed or chain-recorded payload.

All parties (providers, watchers, the contract) must agree bit-exactly on
these encodings: signatures are made over them and dispute evidence is
replayed against them.  The rules are: a 1-byte message-type tag prefix,
big-endian fixed-width integers (u64 for block numbers / ids / epochs,
u128 for wei amounts), and u32-length-prefixed byte strings.
"""

from __future__ import annotations

import struct

# Message-type tags (first byte of every canonical payload).
TAG_RESPONSE_ECO = 0x03
TAG_RESPONSE_INS = 0x04
TAG_EVENT_LIST = 0x05
TAG_REGISTER = 0x10
TAG_WITHDRAW_REQUEST = 0x11
TAG_INSURANCE = 0x12
TAG_SLASH_RECORD = 0x13

DIGEST_LEN = 32

U64_MAX = 2**64 - 1
U128_MAX = 2**128 - 1


class DecodeError(ValueError):
    """Payload bytes do not match the canonical layout."""


def encode_u8(value: int) -> bytes:
    if not 0 <= value <= 0xFF:
        raise ValueError(f"u8 out of range: {value}")
    return struct.pack(">B", value)


def encode_u32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"u32 out of range: {value}")
    return struct.pack(">I", value)


def encode_u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"u64 out of range: {value}")
    return struct.pack(">Q", value)


def encode_u128(value: int) -> bytes:
    if not 0 <= value <= U128_MAX:
        raise ValueError(f"u128 out of range: {value}")
    return value.to_bytes(16, "big")


def encode_bytes(value: bytes) -> bytes:
    return encode_u32(len(value)) + value


class _Reader:
    """Cursor over a payload; every read is bounds-checked."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError("payload truncated")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def u128(self) -> int:
        return int.from_bytes(self.take(16), "big")

    def lp_bytes(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError("trailing bytes in payload")


# ---------------------------------------------------------------------------
# Protocol messages (signed payloads)
# ---------------------------------------------------------------------------

def response_payload(
    block_number: int,
    block_hash: bytes,
    state_hash: bytes,
    insurance_id: int | None,
) -> bytes:
    """Canonical bytes a data provider signs: tag | n_B | h_B | h_s [| ID_ins]."""
    if len(block_hash) != DIGEST_LEN or len(state_hash) != DIGEST_LEN:
        raise ValueError("hashes must be 32 bytes")
    if insurance_id is None:
        return bytes([TAG_RESPONSE_ECO]) + encode_u64(block_number) + block_hash + state_hash
    return (
        bytes([TAG_RESPONSE_INS])
        + encode_u64(block_number)
        + block_hash
        + state_hash
        + encode_u64(insurance_id)
    )


def event_list_payload(epoch: int, root: bytes) -> bytes:
    """Canonical bytes a data provider signs over an epoch's membership
    list: tag | epoch | root of the list's records (`encode_records`)."""
    if len(root) != DIGEST_LEN:
        raise ValueError("root must be 32 bytes")
    return bytes([TAG_EVENT_LIST]) + encode_u64(epoch) + root


def encode_records(records: tuple[tuple[int, bytes], ...]) -> bytes:
    """(block, record payload) pairs, in order, each as u64 block |
    length-prefixed record."""
    return b"".join(encode_u64(block) + encode_bytes(payload) for block, payload in records)


# ---------------------------------------------------------------------------
# On-chain records (transactions emitted by the contract)
# ---------------------------------------------------------------------------

def register_record(public_key: bytes, stake: int) -> bytes:
    return bytes([TAG_REGISTER]) + encode_bytes(public_key) + encode_u128(stake)


def decode_register_record(payload: bytes) -> tuple[bytes, int]:
    r = _Reader(payload)
    if r.u8() != TAG_REGISTER:
        raise DecodeError("not a register record")
    pk = r.lp_bytes()
    stake = r.u128()
    r.done()
    return pk, stake


def withdraw_record(public_key: bytes) -> bytes:
    return bytes([TAG_WITHDRAW_REQUEST]) + encode_bytes(public_key)


def decode_withdraw_record(payload: bytes) -> bytes:
    r = _Reader(payload)
    if r.u8() != TAG_WITHDRAW_REQUEST:
        raise DecodeError("not a withdraw record")
    pk = r.lp_bytes()
    r.done()
    return pk


def insurance_record(
    insurance_id: int,
    buyer_pk: bytes,
    coverage_value: int,
    start_block: int,
    duration: int,
    allocations: list[tuple[bytes, int]],
) -> bytes:
    out = [
        bytes([TAG_INSURANCE]),
        encode_u64(insurance_id),
        encode_bytes(buyer_pk),
        encode_u128(coverage_value),
        encode_u64(start_block),
        encode_u64(duration),
        encode_u32(len(allocations)),
    ]
    for pk, amount in allocations:
        out.append(encode_bytes(pk))
        out.append(encode_u128(amount))
    return b"".join(out)


def slash_record(
    provider_pk: bytes,
    block_number: int,
    signed_hash: bytes,
    slashed_amount: int,
    insurance_id: int | None,
    offending_signature: bytes,
) -> bytes:
    return (
        bytes([TAG_SLASH_RECORD])
        + encode_bytes(provider_pk)
        + encode_u64(block_number)
        + signed_hash
        + encode_u128(slashed_amount)
        + encode_u8(0 if insurance_id is None else 1)
        + encode_u64(insurance_id if insurance_id is not None else 0)
        + encode_bytes(offending_signature)
    )


def decode_slash_record(
    payload: bytes,
) -> tuple[bytes, int, bytes, int, int | None, bytes]:
    r = _Reader(payload)
    if r.u8() != TAG_SLASH_RECORD:
        raise DecodeError("not a slash record")
    pk = r.lp_bytes()
    block_number = r.u64()
    signed_hash = r.take(DIGEST_LEN)
    amount = r.u128()
    has_ins = r.u8()
    ins_id = r.u64()
    sig = r.lp_bytes()
    r.done()
    return pk, block_number, signed_hash, amount, ins_id if has_ins else None, sig


def record_tag(payload: bytes) -> int | None:
    """First byte of a record payload, or None for an empty payload."""
    return payload[0] if payload else None
