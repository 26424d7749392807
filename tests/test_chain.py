"""Simulated chain: append, finality rule, inclusion proofs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import actors, codec, crypto
from lcsim.actors import find_slash_record
from lcsim.chain import (
    GENESIS_PARENT,
    Chain,
    Transaction,
    TxNotInBlockError,
    UnknownHeightError,
    _transactions_root,
    block_hash,
)
from lcsim.harness import Simulation
from test_golden import configs as golden_configs


def make_txs(n, tag=b"t"):
    return [Transaction.create(tag + bytes([i])) for i in range(n)]


class TestAppend:
    def test_append_to_genesis_is_block_one(self):
        chain = Chain()
        block = chain.append_block([])
        assert block.number == 1
        assert block.parent_hash == chain.blocks[0].hash

    def test_same_transactions_different_parents_differ(self):
        chain = Chain()
        txs = make_txs(2)
        b1 = chain.append_block(txs)
        b2 = chain.append_block(txs)
        assert b1.hash != b2.hash

    def test_transactions_root_matches_merkle_root(self):
        chain = Chain()
        txs = make_txs(5)
        block = chain.append_block(txs)
        assert block.transactions_root == crypto.merkle_root([t.id for t in txs])

    def test_transaction_value_non_negative(self):
        with pytest.raises(ValueError):
            Transaction.create(b"x", value=-1)


class TestFinality:
    def test_genesis_finalizes_after_64_blocks_at_paper_scale(self):
        # Count appends until the predicate flips; must be exactly
        # finality_depth_epochs * slots_per_epoch = 64.
        chain = Chain(slots_per_epoch=32, finality_depth_epochs=2)
        appended = 0
        while chain.finalized_block_hash(0) is None:
            chain.append_block([])
            appended += 1
        assert appended == 64
        assert chain.finality_depth_blocks == 64

    def test_desk_scale_example(self):
        chain = Chain(slots_per_epoch=4, finality_depth_epochs=2)
        for _ in range(9):
            chain.append_block([])
        assert chain.tip.number == 9
        assert chain.finalized_block_hash(1) == chain.blocks[1].hash

    def test_tip_is_not_final(self):
        chain = Chain()
        chain.append_block([])
        assert chain.finalized_block_hash(chain.tip.number) is None

    def test_unknown_height(self):
        chain = Chain()
        with pytest.raises(UnknownHeightError):
            chain.finalized_block_hash(chain.tip.number + 5)

    def test_finality_monotonicity(self):
        rng = random.Random(42)
        chain = Chain(slots_per_epoch=4, finality_depth_epochs=2)
        first_seen: dict[int, bytes] = {}
        for _ in range(100):
            chain.append_block(make_txs(rng.randrange(3)))
            for n in range(chain.tip.number + 1):
                digest = chain.finalized_block_hash(n) if n <= chain.tip.number else None
                if digest is not None:
                    assert first_seen.setdefault(n, digest) == digest


class TestInclusionProofs:
    def test_single_transaction_zero_siblings(self):
        chain = Chain()
        tx = Transaction.create(b"only")
        block = chain.append_block([tx])
        proof = chain.inclusion_proof(block.number, tx.id)
        assert proof.siblings == ()
        assert crypto.merkle_verify(block.transactions_root, tx.id, proof)

    def test_cross_block_verification_fails(self):
        chain = Chain()
        txs = make_txs(8)
        block = chain.append_block(txs)
        other = chain.append_block(make_txs(8, tag=b"u"))
        proof = chain.inclusion_proof(block.number, txs[3].id)
        assert crypto.merkle_verify(block.transactions_root, txs[3].id, proof)
        assert not crypto.merkle_verify(other.transactions_root, txs[3].id, proof)

    def test_absent_transaction(self):
        chain = Chain()
        block = chain.append_block(make_txs(2))
        with pytest.raises(TxNotInBlockError):
            chain.inclusion_proof(block.number, b"\x00" * 32)

    def test_every_transaction_provable(self):
        # Exhaustive for blocks of every size up to 16.
        chain = Chain()
        for n in range(1, 17):
            txs = make_txs(n, tag=bytes([n]))
            block = chain.append_block(txs)
            for tx in txs:
                proof = chain.inclusion_proof(block.number, tx.id)
                assert crypto.merkle_verify(block.transactions_root, tx.id, proof)

    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=13), min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_cached_proofs_equal_merkle_prove(self, blocks):
        """Repeated ids prove at their first index, on the first proof of a
        block and on every later one, whatever the leaf count."""
        chain = Chain()
        appended = []
        for picks in blocks:
            txs = [Transaction.create(b"tx" + bytes([p])) for p in picks]
            appended.append((chain.append_block(txs).number, [tx.id for tx in txs]))
        for _ in range(2):
            for number, ids in appended:
                for tx_id in reversed(ids):
                    expected = crypto.merkle_prove(ids, ids.index(tx_id))
                    assert chain.inclusion_proof(number, tx_id) == expected

    def test_a_block_is_hashed_into_levels_once(self, monkeypatch):
        built = []
        levels = crypto.merkle_levels
        monkeypatch.setattr(crypto, "merkle_levels", lambda ids: built.append(ids) or levels(ids))
        chain = Chain()
        txs = make_txs(5)
        block = chain.append_block(txs)
        built.clear()  # the root of the appended block
        for tx in txs + txs:
            chain.inclusion_proof(block.number, tx.id)
        assert built == [[tx.id for tx in txs]]
        with pytest.raises(TxNotInBlockError):
            chain.inclusion_proof(block.number, b"\x00" * 32)
        with pytest.raises(TxNotInBlockError):
            chain.inclusion_proof(0, b"\x00" * 32)  # genesis has no transactions

    def test_find_transaction(self):
        chain = Chain()
        txs = make_txs(3)
        block = chain.append_block(txs)
        assert chain.find_transaction(txs[1].id) == (block.number, txs[1])
        assert chain.find_transaction(b"\x01" * 32) is None


# Few payloads, so blocks repeat them; the same payload with another value
# is another transaction under the same id.
_KEYS = (b"\x01" * 32, b"\x02" * 32)
_PAYLOADS = (
    [b"", b"a", b"b"]
    + [codec.register_record(pk, 5) for pk in _KEYS]
    + [codec.slash_record(pk, n, bytes(32), 7, None, b"sig") for pk in _KEYS for n in (1, 2)]
)
_BLOCKS = st.lists(
    st.lists(st.tuples(st.sampled_from(_PAYLOADS), st.integers(0, 2)), max_size=4),
    max_size=8,
)


def build_chain(blocks):
    chain = Chain()
    for txs in blocks:
        chain.append_block([Transaction.create(p, value=v) for p, v in txs])
    return chain


def linear_scan(chain):
    return [(block.number, tx) for block in chain.blocks for tx in block.transactions]


class TestTransactionIndex:
    @given(_BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_find_transaction_returns_first_occurrence(self, blocks):
        chain = build_chain(blocks)
        every = linear_scan(chain)
        for payload in _PAYLOADS:
            tx_id = crypto.digest(payload)
            expected = next((e for e in every if e[1].id == tx_id), None)
            assert chain.find_transaction(tx_id) == expected

    @given(_BLOCKS)
    @settings(max_examples=50, deadline=None)
    def test_chain_built_from_blocks_is_indexed(self, blocks):
        original = build_chain(blocks)
        rebuilt = Chain(blocks=list(original.blocks))
        for payload in _PAYLOADS:
            tx_id = crypto.digest(payload)
            assert rebuilt.find_transaction(tx_id) == original.find_transaction(tx_id)

    @given(_BLOCKS, st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_every_block_is_rooted_hashed_and_indexed(self, blocks, passed_in):
        """Empty and non-empty blocks, passed to the constructor or appended:
        each block's root and hash are the one formula's, and the id index
        equals a scan."""
        head = build_chain(blocks[:passed_in])
        chain = Chain(blocks=list(head.blocks))
        for txs in blocks[passed_in:]:
            chain.append_block([Transaction.create(p, value=v) for p, v in txs])
        assert chain.blocks == build_chain(blocks).blocks
        parent = GENESIS_PARENT
        for number, block in enumerate(chain.blocks):
            assert (block.number, block.parent_hash) == (number, parent)
            assert type(block.transactions) is tuple
            assert block.transactions_root == _transactions_root(block.transactions)
            assert block.hash == block_hash(number, parent, block.transactions_root)
            parent = block.hash
        every = linear_scan(chain)
        for payload in _PAYLOADS:
            tx_id = crypto.digest(payload)
            expected = next((e for e in every if e[1].id == tx_id), None)
            assert chain.find_transaction(tx_id) == expected

    def test_find_slash_record_is_most_recent(self, monkeypatch):
        """Every call a watcher makes in two golden runs that slash, and a
        final call for each provider and an unknown key, gives the newest
        slash record on chain, found by a scan from the tip."""
        calls = {}
        for name in ("scaled_dispute", "delta4_eco"):
            sim = Simulation(golden_configs()[name])
            calls[name] = 0

            def checked(pk, contract):
                calls[name] += 1
                found = find_slash_record(pk, contract)
                assert found == newest_slash_record(sim.chain, pk)
                return found

            with monkeypatch.context() as patch:
                patch.setattr(actors, "find_slash_record", checked)
                sim.run()
            assert sim.contract.slash_events
            for pk in [*sim.provider_names, b"\x03" * 32]:
                assert find_slash_record(pk, sim.contract) == newest_slash_record(sim.chain, pk)
        assert calls == {"scaled_dispute": 4, "delta4_eco": 2}


def newest_slash_record(chain, pk):
    """(block, tx id) of the newest slash record of `pk` on chain, or None."""
    for block in reversed(chain.blocks):
        for tx in reversed(block.transactions):
            tag = codec.record_tag(tx.payload)
            if tag == codec.TAG_SLASH_RECORD and codec.decode_slash_record(tx.payload)[0] == pk:
                return block.number, tx.id
    return None
