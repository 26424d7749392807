"""Canonical serialization: bit-exact layouts and record round trips."""

import pytest

from lcsim import codec


def test_response_payload_layout_eco():
    h_b = bytes(range(32))
    h_s = bytes(range(32, 64))
    payload = codec.response_payload(5, h_b, h_s, None)
    assert payload[0] == codec.TAG_RESPONSE_ECO
    assert payload[1:9] == (5).to_bytes(8, "big")
    assert payload[9:41] == h_b
    assert payload[41:73] == h_s
    assert len(payload) == 73


def test_response_payload_layout_insured():
    h_b, h_s = b"\x01" * 32, b"\x02" * 32
    payload = codec.response_payload(7, h_b, h_s, 42)
    assert payload[0] == codec.TAG_RESPONSE_INS
    assert payload[-8:] == (42).to_bytes(8, "big")
    assert len(payload) == 81


def test_register_round_trip():
    payload = codec.register_record(b"\xaa" * 32, 32 * 10**18)
    assert codec.decode_register_record(payload) == (b"\xaa" * 32, 32 * 10**18)


def test_withdraw_round_trip():
    payload = codec.withdraw_record(b"\xbb" * 32)
    assert codec.decode_withdraw_record(payload) == b"\xbb" * 32


def test_insurance_round_trip():
    # Nothing decodes an insurance record, so its bytes are pinned instead:
    # the layout the contract records on chain.
    allocations = [(b"\x01" * 32, 10**18), (b"\x02" * 32, 3 * 10**18)]
    payload = codec.insurance_record(9, b"\xcc" * 32, 4 * 10**18, 100, 50, allocations)
    assert payload == bytes.fromhex(
        "12"  # tag
        "0000000000000009"  # insurance id
        "00000020cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"  # buyer
        "00000000000000003782dace9d900000"  # coverage value, 4 ETH in wei
        "0000000000000064"  # start block
        "0000000000000032"  # duration
        "00000002"  # allocation count
        "000000200101010101010101010101010101010101010101010101010101010101010101"
        "00000000000000000de0b6b3a7640000"  # 1 ETH
        "000000200202020202020202020202020202020202020202020202020202020202020202"
        "000000000000000029a2241af62c0000"  # 3 ETH
    )


def test_slash_record_round_trip():
    payload = codec.slash_record(b"\xdd" * 32, 12, b"\xee" * 32, 5 * 10**18, 3, b"sig")
    assert codec.decode_slash_record(payload) == (
        b"\xdd" * 32,
        12,
        b"\xee" * 32,
        5 * 10**18,
        3,
        b"sig",
    )


def test_slash_record_without_insurance():
    payload = codec.slash_record(b"\x0f" * 32, 1, b"\x10" * 32, 7, None, b"s")
    assert codec.decode_slash_record(payload)[4] is None


def test_truncated_payload_rejected():
    payload = codec.register_record(b"\x11" * 32, 5)
    with pytest.raises(codec.DecodeError):
        codec.decode_register_record(payload[:-1])


def test_trailing_bytes_rejected():
    payload = codec.withdraw_record(b"\x12" * 32) + b"\x00"
    with pytest.raises(codec.DecodeError):
        codec.decode_withdraw_record(payload)


def test_wei_amounts_beyond_u64_survive():
    # 320 ETH in wei exceeds 2**64; amounts ride in u128 fields.
    amount = 320 * 10**18
    payload = codec.register_record(b"\x13" * 32, amount)
    assert codec.decode_register_record(payload)[1] == amount
