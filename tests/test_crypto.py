"""Signature scheme and Merkle tree tests, including exhaustive oracles."""

import hashlib

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import crypto
from lcsim.crypto import (
    EmptyLeavesError,
    IndexOutOfRangeError,
    keygen,
    merkle_prove,
    merkle_root,
    merkle_verify,
    sign,
    verify,
)


class TestKeys:
    def test_keygen_deterministic(self):
        assert keygen(7) == keygen(7)

    def test_distinct_seeds_distinct_keys(self):
        assert keygen(1).public_key != keygen(2).public_key

    def test_sign_verify_round_trip(self):
        kp = keygen(3)
        message = b"m"
        assert verify(kp.public_key, message, sign(kp.secret_key, message))

    def test_wrong_public_key_fails(self):
        kp, other = keygen(4), keygen(5)
        sig = sign(kp.secret_key, b"payload")
        assert not verify(other.public_key, b"payload", sig)

    def test_signing_deterministic(self):
        kp = keygen(11)
        assert sign(kp.secret_key, b"x") == sign(kp.secret_key, b"x")

    def test_every_single_bit_flip_fails(self):
        # 16-byte message: flipping each of the 128 bits must break
        # verification.
        kp = keygen(6)
        message = bytes(range(16))
        sig = sign(kp.secret_key, message)
        assert verify(kp.public_key, message, sig)
        failures = 0
        for byte_index in range(16):
            for bit in range(8):
                mutated = bytearray(message)
                mutated[byte_index] ^= 1 << bit
                if not verify(kp.public_key, bytes(mutated), sig):
                    failures += 1
        assert failures == 128

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.binary(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, seed, message):
        kp = keygen(seed)
        assert verify(kp.public_key, message, sign(kp.secret_key, message))


class TestKeyCache:
    @given(st.binary(min_size=32, max_size=32), st.lists(st.binary(max_size=64), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_signatures_equal_with_and_without_the_cache(self, secret, messages):
        uncached = Ed25519PrivateKey.from_private_bytes(secret)
        for message in messages * 2:  # the second pass signs with a cached key
            assert sign(secret, message) == uncached.sign(message)
        crypto._private_key.cache_clear()
        for message in messages:
            assert sign(secret, message) == uncached.sign(message)

    def test_keygen_equal_with_and_without_the_cache(self):
        warm = [keygen(seed) for seed in range(8)]
        crypto._private_key.cache_clear()
        assert [keygen(seed) for seed in range(8)] == warm
        for kp in warm:
            public = Ed25519PrivateKey.from_private_bytes(kp.secret_key).public_key()
            assert kp.public_key == public.public_bytes_raw()

    def test_each_secret_is_derived_once(self, monkeypatch):
        crypto._private_key.cache_clear()
        derived = []
        real = Ed25519PrivateKey.from_private_bytes
        monkeypatch.setattr(
            crypto.Ed25519PrivateKey,
            "from_private_bytes",
            lambda data: derived.append(data) or real(data),
        )
        kp = keygen(31)
        for message in (b"a", b"b", b"a"):
            sign(kp.secret_key, message)
        assert derived == [kp.secret_key]
        crypto._private_key.cache_clear()


class TestPublicKeyCache:
    def setup_method(self):
        self.kp = keygen(41)
        self.message = b"evidence"
        self.sig = sign(self.kp.secret_key, self.message)

    def test_each_public_key_is_built_once(self, monkeypatch):
        crypto._public_key.cache_clear()
        built = []
        real = crypto.Ed25519PublicKey.from_public_bytes
        monkeypatch.setattr(
            crypto.Ed25519PublicKey,
            "from_public_bytes",
            lambda data: built.append(data) or real(data),
        )
        forged = bytes([self.sig[0] ^ 1]) + self.sig[1:]
        assert verify(self.kp.public_key, self.message, self.sig)
        assert not verify(self.kp.public_key, self.message, forged)
        assert verify(self.kp.public_key, self.message, self.sig)
        assert built == [self.kp.public_key]
        crypto._public_key.cache_clear()

    @pytest.mark.parametrize("key", [b"", bytes(31), bytes(33)])
    def test_malformed_key_bytes_fail_every_time_and_are_not_cached(self, key):
        crypto._public_key.cache_clear()
        for _ in range(2):
            assert not verify(key, self.message, self.sig)
        assert crypto._public_key.cache_info().currsize == 0
        assert verify(self.kp.public_key, self.message, self.sig)
        assert crypto._public_key.cache_info().currsize == 1
        crypto._public_key.cache_clear()


class TestVerifyMemo:
    def setup_method(self):
        self.kp = keygen(21)
        self.message = b"signed response"
        self.sig = sign(self.kp.secret_key, self.message)

    def test_forged_signature_over_memoised_message_rejected(self):
        memo = crypto.VerifyMemo()
        assert memo.verify(self.kp.public_key, self.message, self.sig)
        forged = bytes([self.sig[0] ^ 1]) + self.sig[1:]
        assert not memo.verify(self.kp.public_key, self.message, forged)
        other = sign(keygen(22).secret_key, self.message)
        assert not memo.verify(self.kp.public_key, self.message, other)
        assert not memo.verify(keygen(22).public_key, self.message, self.sig)
        assert not memo.verify(self.kp.public_key, self.message + b"!", self.sig)
        assert memo.verify(self.kp.public_key, self.message, self.sig)

    def test_failed_triple_does_not_affect_valid_one(self):
        memo = crypto.VerifyMemo()
        bad = bytes(64)
        assert not memo.verify(self.kp.public_key, self.message, bad)
        assert memo.verify(self.kp.public_key, self.message, self.sig)
        assert not memo.verify(self.kp.public_key, self.message, bad)
        assert len(memo) == 2

    def test_each_triple_reaches_the_primitive_once(self, monkeypatch):
        calls = []
        real = crypto.verify
        monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or real(*args))
        memo = crypto.VerifyMemo()
        bad = bytes(64)
        for _ in range(3):
            assert memo.verify(self.kp.public_key, self.message, self.sig)
            assert not memo.verify(self.kp.public_key, self.message, bad)
        assert calls == [
            (self.kp.public_key, self.message, self.sig),
            (self.kp.public_key, self.message, bad),
        ]


class TestDigest:
    def test_no_collisions_in_corpus(self):
        corpus = {crypto.digest(i.to_bytes(4, "big")) for i in range(10_000)}
        assert len(corpus) == 10_000

    def test_digest_is_sha256(self):
        assert crypto.digest(b"a", b"b") == hashlib.sha256(b"ab").digest()


class TestMerkle:
    def test_single_leaf_root_reconstruction(self):
        # Degenerate tree: the root is a pure function of the domain-tagged
        # leaf and the committed count of one.
        leaf = b"only-leaf"
        expected = hashlib.sha256(
            b"\x02" + (1).to_bytes(8, "big") + hashlib.sha256(b"\x00" + leaf).digest()
        ).digest()
        assert merkle_root([leaf]) == expected

    def test_two_leaf_orderings_differ(self):
        # Brute force over both orderings of two distinct leaves.
        a, b = b"a", b"b"
        roots = {merkle_root(list(order)) for order in ((a, b), (b, a))}
        assert len(roots) == 2

    def test_leaf_count_is_committed(self):
        assert merkle_root([b"x"] * 4) != merkle_root([b"x"] * 2)

    def test_empty_leaves_rejected(self):
        with pytest.raises(EmptyLeavesError):
            merkle_root([])
        with pytest.raises(EmptyLeavesError):
            merkle_prove([], 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            merkle_prove([b"a", b"b"], 2)

    def test_single_leaf_proof_round_trip(self):
        proof = merkle_prove([b"z"], 0)
        assert proof.siblings == ()
        assert merkle_verify(merkle_root([b"z"]), b"z", proof)

    def test_exhaustive_round_trip_up_to_16(self):
        # Spec property: every proof for every index of every size <= 16.
        for n in range(1, 17):
            leaves = [bytes([i]) * 4 for i in range(n)]
            root = merkle_root(leaves)
            for i in range(n):
                proof = merkle_prove(leaves, i)
                assert len(proof.siblings) == max(0, (n - 1).bit_length())
                assert merkle_verify(root, leaves[i], proof)
                if n > 1:
                    assert not merkle_verify(root, leaves[(i + 1) % n], proof)

    def test_proof_fails_against_mutated_leaf_set(self):
        leaves = [bytes([i]) for i in range(8)]
        proof = merkle_prove(leaves, 2)
        assert merkle_verify(merkle_root(leaves), leaves[2], proof)
        mutated = list(leaves)
        mutated[5] = b"\xff"
        assert not merkle_verify(merkle_root(mutated), leaves[2], proof)

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=24), st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, leaves, data):
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        proof = merkle_prove(leaves, index)
        assert merkle_verify(merkle_root(leaves), leaves[index], proof)
