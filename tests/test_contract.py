"""Registry / insurance / slashing contract state machine tests."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import codec, crypto, pricing
from lcsim.chain import Chain, Transaction
from lcsim.contract import (
    BelowMinStakeError,
    BuyInsuranceTx,
    ContractConfig,
    DuplicateProviderError,
    EpochTooFarError,
    GAS_SINK,
    Ledger,
    NotActiveError,
    PolicyState,
    ProviderStatus,
    RegisterTx,
    RejectReason,
    Reverted,
    RevertReason,
    REWARD_POOL,
    SlashEvidence,
    SlashRejected,
    SlashTx,
    STAKE_VAULT,
    SlashingContract,
    WithdrawRequestTx,
)
from lcsim.pricing import PricingParams, eth_to_wei

ETH = eth_to_wei(1)
B_U = 8  # small update epochs so boundary logic is cheap to exercise


def make_env(max_coverage_duration=10_000):
    ledger = Ledger()
    config = ContractConfig(
        min_stake=1 * ETH,
        update_epoch_blocks=B_U,
        max_challenge_period=4,
        max_coverage_duration=max_coverage_duration,
    )
    contract = SlashingContract(config, ledger, PricingParams())
    chain = Chain()  # desk scale: finality depth 8 blocks
    return ledger, contract, chain


def step(chain, contract, submissions=(), submitter=None):
    """One simulation tick: execute pool, append block, run the boundary."""
    tick = chain.tip.number + 1
    receipts = []
    records = []
    for submission in submissions:
        recs, receipt = contract.execute_transaction(submission, chain, tick, submitter)
        records.extend(Transaction.create(p) for p in recs)
        receipts.append(receipt)
    chain.append_block(records)
    contract.process_block_boundary(tick)
    return receipts


def run_until(chain, contract, block_number):
    while chain.tip.number < block_number:
        step(chain, contract)


def funded_provider(ledger, seed, stake=32 * ETH):
    kp = crypto.keygen(seed)
    ledger.mint(kp.public_key, stake)
    return kp


def false_evidence(kp, block_number, insurance_id=None):
    state_hash = crypto.digest(b"some-target")
    fake_hash = crypto.digest(b"fake-block", kp.public_key)
    payload = codec.response_payload(block_number, fake_hash, state_hash, insurance_id)
    return SlashEvidence(
        provider_pk=kp.public_key,
        block_number=block_number,
        signed_block_hash=fake_hash,
        state_hash=state_hash,
        signature=crypto.sign(kp.secret_key, payload),
        insurance_id=insurance_id,
    )


def true_evidence(kp, chain, block_number, insurance_id=None):
    state_hash = crypto.digest(b"some-target")
    true_hash = chain.block_at(block_number).hash
    payload = codec.response_payload(block_number, true_hash, state_hash, insurance_id)
    return SlashEvidence(
        provider_pk=kp.public_key,
        block_number=block_number,
        signed_block_hash=true_hash,
        state_hash=state_hash,
        signature=crypto.sign(kp.secret_key, payload),
        insurance_id=insurance_id,
    )


class TestRegistry:
    def test_register_validator_scale_stake(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 1)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        record = contract.provider(kp.public_key)
        assert record.status is ProviderStatus.ACTIVE
        assert record.stake == 32 * ETH
        assert ledger.balance(kp.public_key) == 0

    def test_below_min_stake(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 2)
        with pytest.raises(BelowMinStakeError):
            contract.register(kp.public_key, 1 * ETH - 1, 1)

    def test_duplicate_provider(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 3, stake=64 * ETH)
        contract.register(kp.public_key, 32 * ETH, 1)
        with pytest.raises(DuplicateProviderError):
            contract.register(kp.public_key, 32 * ETH, 2)

    def test_reregistration_after_exit_is_a_fresh_provider(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 4)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        step(chain, contract, [WithdrawRequestTx(kp.public_key)])
        record = contract.provider(kp.public_key)
        release_block = (record.withdraw_requested_epoch + 2) * B_U - 1
        run_until(chain, contract, release_block)
        assert contract.provider(kp.public_key).status is ProviderStatus.EXITED
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        fresh = contract.provider(kp.public_key)
        assert fresh.status is ProviderStatus.ACTIVE
        assert fresh.joined_epoch == contract.epoch_of(chain.tip.number)
        assert len(contract.retired) == 1

    def test_withdraw_requires_active(self):
        _, contract, _ = make_env()
        with pytest.raises(NotActiveError):
            contract.request_withdraw(b"\x00" * 32, 1)


class TestWithdrawScheduling:
    def test_release_at_end_of_following_epoch(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 5)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 9)  # into epoch 1
        step(chain, contract, [WithdrawRequestTx(kp.public_key)])  # block 10, epoch 1
        release_block = 3 * B_U - 1  # last block of epoch 2
        run_until(chain, contract, release_block - 1)
        assert contract.provider(kp.public_key).status is ProviderStatus.LEAVING
        step(chain, contract)
        assert contract.provider(kp.public_key).status is ProviderStatus.EXITED
        assert ledger.balance(kp.public_key) == 32 * ETH

    def test_release_deferred_past_policy_expiry(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 6)
        buyer = crypto.keygen(7)
        ledger.mint(buyer.public_key, 1 * ETH)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 11)
        # Policy open through block 32; it expires at the boundary of
        # block 33, inside epoch 4, so release lands at epoch 4's end.
        step(
            chain,
            contract,
            [BuyInsuranceTx(buyer.public_key, ((kp.public_key, 10 * ETH),), 10 * ETH, 20)],
        )  # block 12
        step(chain, contract, [WithdrawRequestTx(kp.public_key)])  # block 13, epoch 1
        naive_release = 3 * B_U - 1  # would be block 23 without the policy
        run_until(chain, contract, naive_release)
        assert contract.provider(kp.public_key).status is ProviderStatus.LEAVING
        expected_release = 5 * B_U - 1  # end of the epoch containing the expiry
        run_until(chain, contract, expected_release - 1)
        assert contract.provider(kp.public_key).status is ProviderStatus.LEAVING
        step(chain, contract)
        assert contract.provider(kp.public_key).status is ProviderStatus.EXITED

    def test_expiry_and_withdrawal_same_boundary(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 8)
        buyer = crypto.keygen(9)
        ledger.mint(buyer.public_key, 1 * ETH)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 11)
        # last_covered = 12 + 26 = 38; expiry processed at block 39, which
        # is also epoch 4's last block: expiry first, then the withdrawal
        # becomes eligible in the same boundary pass.
        step(
            chain,
            contract,
            [BuyInsuranceTx(buyer.public_key, ((kp.public_key, 10 * ETH),), 10 * ETH, 26)],
        )
        step(chain, contract, [WithdrawRequestTx(kp.public_key)])
        run_until(chain, contract, 38)
        assert contract.provider(kp.public_key).status is ProviderStatus.LEAVING
        step(chain, contract)  # block 39
        assert contract.provider(kp.public_key).status is ProviderStatus.EXITED


class TestBoundary:
    def test_no_pending_events(self):
        _, contract, chain = make_env()
        chain.append_block([])
        assert contract.process_block_boundary(1) == []

    def test_policy_expires_and_releases_lock(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 10)
        buyer = crypto.keygen(11)
        ledger.mint(buyer.public_key, 1 * ETH)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 9)
        step(
            chain,
            contract,
            [BuyInsuranceTx(buyer.public_key, ((kp.public_key, 10 * ETH),), 10 * ETH, 5)],
        )  # starts at block 10, covered through block 15
        record = contract.provider(kp.public_key)
        run_until(chain, contract, 15)
        assert record.locked == 10 * ETH
        step(chain, contract)  # block 16
        assert record.locked == 0
        policy = contract.policies[1]
        assert policy.state is PolicyState.EXPIRED


class TestBuyInsurance:
    def setup_provider(self, stake=32 * ETH, seed=12):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, seed, stake=stake)
        buyer = crypto.keygen(seed + 100)
        ledger.mint(buyer.public_key, 2 * ETH)
        step(chain, contract, [RegisterTx(kp.public_key, stake)])
        run_until(chain, contract, 9)
        return ledger, contract, chain, kp, buyer

    def test_success_locks_allocation(self):
        ledger, contract, chain, kp, buyer = self.setup_provider()
        policy, _ = contract.buy_insurance(
            buyer.public_key, [(kp.public_key, 10 * ETH)], 10 * ETH, 100, 10
        )
        assert contract.provider(kp.public_key).locked == 10 * ETH
        assert policy.state is PolicyState.OPEN
        premium = ledger.balance(REWARD_POOL)
        gas = ledger.balance(GAS_SINK)
        assert premium > 0
        assert gas == 200_000 * contract.params.gas_price_wei
        assert ledger.balance(buyer.public_key) == 2 * ETH - premium - gas
        assert contract.reward_pool[kp.public_key] == premium

    def test_overallocation_reverts(self):
        _, contract, _, kp, buyer = self.setup_provider()
        with pytest.raises(Reverted) as excinfo:
            contract.buy_insurance(
                buyer.public_key, [(kp.public_key, 33 * ETH)], 33 * ETH, 100, 10
            )
        assert excinfo.value.reason is RevertReason.INSUFFICIENT_ATTRIBUTABLE_STAKE

    def test_coverage_exceeding_allocations_reverts(self):
        _, contract, _, kp, buyer = self.setup_provider()
        with pytest.raises(Reverted) as excinfo:
            contract.buy_insurance(
                buyer.public_key, [(kp.public_key, 5 * ETH)], 6 * ETH, 100, 10
            )
        assert excinfo.value.reason is RevertReason.COVERAGE_EXCEEDS_ALLOCATIONS

    def test_leaving_provider_reverts(self):
        _, contract, chain, kp, buyer = self.setup_provider()
        contract.request_withdraw(kp.public_key, 10)
        with pytest.raises(Reverted) as excinfo:
            contract.buy_insurance(
                buyer.public_key, [(kp.public_key, 5 * ETH)], 5 * ETH, 100, 11
            )
        assert excinfo.value.reason is RevertReason.INACTIVE_PROVIDER

    def test_duration_cap(self):
        _, contract, _, kp, buyer = self.setup_provider()
        with pytest.raises(Reverted) as excinfo:
            contract.buy_insurance(
                buyer.public_key, [(kp.public_key, 5 * ETH)], 5 * ETH, 10_001, 10
            )
        assert excinfo.value.reason is RevertReason.DURATION_EXCEEDS_MAX

    def test_concurrent_purchases_one_succeeds(self):
        ledger, contract, chain, kp, buyer = self.setup_provider()
        other = crypto.keygen(301)
        ledger.mint(other.public_key, 2 * ETH)
        receipts = step(
            chain,
            contract,
            [
                BuyInsuranceTx(buyer.public_key, ((kp.public_key, 20 * ETH),), 20 * ETH, 50),
                BuyInsuranceTx(other.public_key, ((kp.public_key, 20 * ETH),), 20 * ETH, 50),
            ],
        )
        assert [r.ok for r in receipts] == [True, False]
        assert receipts[1].reason == "InsufficientAttributableStake"
        assert contract.provider(kp.public_key).locked == 20 * ETH

    def test_reverted_purchase_charges_nothing(self):
        ledger, contract, _, kp, buyer = self.setup_provider()
        before = ledger.balance(buyer.public_key)
        with pytest.raises(Reverted):
            contract.buy_insurance(
                buyer.public_key, [(kp.public_key, 33 * ETH)], 33 * ETH, 100, 10
            )
        assert ledger.balance(buyer.public_key) == before

    def test_balance_short_of_premium_plus_gas_reverts_before_any_transfer(self):
        ledger, contract, chain, kp, _ = self.setup_provider()
        premium = pricing.premium(contract.params, 100, 10 * ETH)
        poor = crypto.keygen(302)
        ledger.mint(poor.public_key, premium + contract.params.gas_cost_wei - 1)
        total = ledger.total()
        (receipt,) = step(
            chain,
            contract,
            [BuyInsuranceTx(poor.public_key, ((kp.public_key, 10 * ETH),), 10 * ETH, 100)],
        )
        assert not receipt.ok
        assert receipt.reason == RevertReason.INSUFFICIENT_BALANCE.value
        assert ledger.balance(poor.public_key) == premium + contract.params.gas_cost_wei - 1
        assert ledger.balance(REWARD_POOL) == 0
        assert contract.provider(kp.public_key).locked == 0
        assert contract.policies == {}
        assert ledger.total() == total

    def test_policies_due_at_one_boundary_expire_in_id_order(self):
        # Boundaries run once per block in a simulation; one that skips
        # blocks expires every policy due since, still in id order.
        ledger, contract, _, kp, buyer = self.setup_provider()
        for duration in (5, 3, 1, 4):
            contract.buy_insurance(buyer.public_key, [(kp.public_key, ETH)], ETH, duration, 10)
        effects = contract.process_block_boundary(20)
        assert effects == [("policy_expired", i) for i in (1, 2, 3, 4)]
        assert contract.provider(kp.public_key).locked == 0

    def test_reward_pool_split_is_exact(self):
        # Pro-rata premium split across allocations must account for every
        # wei even when the division does not come out even.
        ledger, contract, chain, kp, buyer = self.setup_provider()
        others = []
        for i in (600, 601):
            other = funded_provider(ledger, i, stake=32 * ETH)
            step(chain, contract, [RegisterTx(other.public_key, 32 * ETH)])
            others.append(other)
        allocations = [
            (kp.public_key, 7 * ETH),
            (others[0].public_key, 5 * ETH),
            (others[1].public_key, 1 * ETH),
        ]
        contract.buy_insurance(buyer.public_key, allocations, 13 * ETH, 997, 20)
        premium = ledger.balance(REWARD_POOL)
        assert sum(contract.reward_pool.values()) == premium
        shares = [contract.reward_pool[pk] for pk, _ in allocations]
        assert shares[0] > shares[1] > shares[2] > 0


class TestSlashing:
    def setup_finalized(self, seed=20):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, seed)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 12)  # block 2 is now finalized (12 - 2 >= 8)
        return ledger, contract, chain, kp

    def test_false_hash_slashes_full_stake(self):
        ledger, contract, chain, kp = self.setup_finalized()
        total_before = ledger.total()
        event, payload = contract.slash(false_evidence(kp, 2), chain, 13, submitter="w")
        assert event.slashed_amount == 32 * ETH
        assert contract.provider(kp.public_key).status is ProviderStatus.SLASHED
        assert contract.provider(kp.public_key).stake == 0
        assert event.compensation == 0
        assert event.bounty == 32 * ETH * 5 // 100
        assert event.burned == 32 * ETH - event.bounty
        assert ledger.balance("w") == event.bounty
        assert ledger.total() == total_before
        decoded = codec.decode_slash_record(payload)
        assert decoded[0] == kp.public_key and decoded[3] == 32 * ETH

    def test_true_hash_rejected(self):
        _, contract, chain, kp = self.setup_finalized()
        with pytest.raises(SlashRejected) as excinfo:
            contract.slash(true_evidence(kp, chain, 2), chain, 13)
        assert excinfo.value.reason is RejectReason.HASH_MATCHES_FINALIZED

    def test_pending_finality_rejected(self):
        _, contract, chain, kp = self.setup_finalized()
        with pytest.raises(SlashRejected) as excinfo:
            contract.slash(false_evidence(kp, chain.tip.number), chain, 13)
        assert excinfo.value.reason is RejectReason.BLOCK_NOT_YET_FINAL
        with pytest.raises(SlashRejected) as excinfo:
            contract.slash(false_evidence(kp, chain.tip.number + 3), chain, 13)
        assert excinfo.value.reason is RejectReason.BLOCK_NOT_YET_FINAL

    def test_bad_signature_rejected(self):
        _, contract, chain, kp = self.setup_finalized()
        evidence = false_evidence(kp, 2)
        forged = SlashEvidence(
            provider_pk=evidence.provider_pk,
            block_number=evidence.block_number,
            signed_block_hash=evidence.signed_block_hash,
            state_hash=crypto.digest(b"different-state"),
            signature=evidence.signature,
            insurance_id=None,
        )
        with pytest.raises(SlashRejected) as excinfo:
            contract.slash(forged, chain, 13)
        assert excinfo.value.reason is RejectReason.SIGNATURE_INVALID

    def test_double_slash_rejected(self):
        _, contract, chain, kp = self.setup_finalized()
        contract.slash(false_evidence(kp, 2), chain, 13)
        with pytest.raises(SlashRejected) as excinfo:
            contract.slash(false_evidence(kp, 3), chain, 13)
        assert excinfo.value.reason is RejectReason.ALREADY_SLASHED

    def test_exited_provider_rejected(self):
        ledger, contract, chain, kp = self.setup_finalized()
        step(chain, contract, [WithdrawRequestTx(kp.public_key)])
        run_until(chain, contract, 4 * B_U - 1)
        assert contract.provider(kp.public_key).status is ProviderStatus.EXITED
        with pytest.raises(SlashRejected) as excinfo:
            contract.slash(false_evidence(kp, 2), chain, chain.tip.number + 1)
        assert excinfo.value.reason is RejectReason.UNKNOWN_PROVIDER

    def test_claim_pays_exact_coverage(self):
        ledger, contract, chain, kp = self.setup_finalized()
        buyer = crypto.keygen(400)
        ledger.mint(buyer.public_key, 1 * ETH)
        policy, _ = contract.buy_insurance(
            buyer.public_key, [(kp.public_key, 10 * ETH)], 10 * ETH, 100, 12
        )
        before = ledger.balance(buyer.public_key)
        total_before = ledger.total()
        event, _ = contract.slash(
            false_evidence(kp, 2, insurance_id=policy.id), chain, 13, submitter="w"
        )
        assert event.compensation == 10 * ETH
        assert ledger.balance(buyer.public_key) - before == 10 * ETH
        assert contract.policies[policy.id].state is PolicyState.CLAIMED
        assert ledger.total() == total_before
        assert event.compensation + event.bounty + event.burned == 32 * ETH

    def test_claim_beyond_the_slashed_stake_stays_open(self):
        """A slash pays only out of the slashed stake: a 4 ETH provider
        backing 4 of 24 ETH pays 4, and the policy stays open for the next
        covered liar, whose slash pays the remaining 20."""
        ledger, contract, chain, kp = self.setup_finalized()
        small = funded_provider(ledger, 21, stake=4 * ETH)
        step(chain, contract, [RegisterTx(small.public_key, 4 * ETH)])
        buyer = crypto.keygen(402)
        ledger.mint(buyer.public_key, 1 * ETH)
        allocations = [(kp.public_key, 20 * ETH), (small.public_key, 4 * ETH)]
        policy, _ = contract.buy_insurance(buyer.public_key, allocations, 24 * ETH, 100, 14)
        before = ledger.balance(buyer.public_key)
        total_before = ledger.total()

        first, _ = contract.slash(
            false_evidence(small, 2, insurance_id=policy.id), chain, 15, submitter="w"
        )
        assert (first.compensation, first.bounty, first.burned) == (4 * ETH, 0, 0)
        assert first.insurance_id == policy.id
        assert contract.policies[policy.id].state is PolicyState.OPEN
        assert ledger.balance(STAKE_VAULT) == 32 * ETH

        second, _ = contract.slash(
            false_evidence(kp, 2, insurance_id=policy.id), chain, 15, submitter="w"
        )
        assert second.compensation == 20 * ETH
        assert second.compensation + second.bounty + second.burned == 32 * ETH
        assert contract.policies[policy.id].state is PolicyState.CLAIMED
        assert ledger.balance(buyer.public_key) - before == 24 * ETH
        assert ledger.balance(STAKE_VAULT) == 0
        assert ledger.total() == total_before

    def test_claim_after_expiry_pays_nothing(self):
        ledger, contract, chain, kp = self.setup_finalized()
        buyer = crypto.keygen(401)
        ledger.mint(buyer.public_key, 1 * ETH)
        policy, _ = contract.buy_insurance(
            buyer.public_key, [(kp.public_key, 10 * ETH)], 10 * ETH, 2, 12
        )
        run_until(chain, contract, 16)  # past last_covered = 14
        assert contract.policies[policy.id].state is PolicyState.EXPIRED
        before = ledger.balance(buyer.public_key)
        event, _ = contract.slash(
            false_evidence(kp, 2, insurance_id=policy.id), chain, 17
        )
        assert event.compensation == 0
        assert ledger.balance(buyer.public_key) == before
        assert contract.policies[policy.id].state is PolicyState.EXPIRED


class TestActiveSet:
    def test_fresh_contract_empty(self):
        _, contract, _ = make_env()
        assert contract.active_set(0) == []

    def test_two_epoch_register_lag(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 30)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])  # epoch 0
        assert contract.active_set(1) == []
        run_until(chain, contract, B_U)  # into epoch 1
        members = contract.active_set(2)
        assert [(m[0], m[1]) for m in members] == [(kp.public_key, 32 * ETH)]

    def test_epoch_too_far(self):
        _, contract, chain = make_env()
        with pytest.raises(EpochTooFarError):
            contract.active_set(2)

    def test_withdraw_lag(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 31)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, B_U + 1)
        step(chain, contract, [WithdrawRequestTx(kp.public_key)])  # epoch 1
        run_until(chain, contract, 2 * B_U)
        assert [m[0] for m in contract.active_set(2)] == [kp.public_key]
        assert contract.active_set(3) == []

    def test_slashed_provider_excluded(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 32)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 2 * B_U)
        assert contract.active_set(2) != []
        contract.slash(false_evidence(kp, 2), chain, chain.tip.number + 1)
        assert contract.active_set(2) == []

    def test_attributable_reflects_live_locks(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 33)
        buyer = crypto.keygen(500)
        ledger.mint(buyer.public_key, 1 * ETH)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 2 * B_U)
        contract.buy_insurance(
            buyer.public_key, [(kp.public_key, 12 * ETH)], 12 * ETH, 50, chain.tip.number
        )
        (pk, stake, attributable), = contract.active_set(2)
        assert (stake, attributable) == (32 * ETH, 20 * ETH)

    def test_recurrence_matches_incremental_fold(self):
        # Independent oracle: fold successful register/withdraw receipts
        # epoch by epoch with the lag-2 recurrence and compare every epoch.
        rng = random.Random(99)
        ledger, contract, chain = make_env()
        keypairs = [funded_provider(ledger, 600 + i, stake=64 * ETH) for i in range(6)]
        events_by_epoch = defaultdict(list)
        for tick in range(1, 8 * B_U):
            submissions = []
            if rng.random() < 0.25:
                kp = rng.choice(keypairs)
                if rng.random() < 0.6:
                    submissions.append(RegisterTx(kp.public_key, 32 * ETH))
                else:
                    submissions.append(WithdrawRequestTx(kp.public_key))
            receipts = step(chain, contract, submissions)
            epoch = tick // B_U
            for submission, receipt in zip(submissions, receipts):
                if receipt.ok:
                    if isinstance(submission, RegisterTx):
                        events_by_epoch[epoch].append(("reg", submission.public_key, 32 * ETH))
                    else:
                        events_by_epoch[epoch].append(("wd", submission.public_key))
            if tick % B_U == 0:
                current = contract.epoch_of(chain.tip.number)
                expected: dict[bytes, int] = {}
                for e in range(current):  # epochs <= (current+1) - 2
                    for event in events_by_epoch[e]:
                        if event[0] == "reg":
                            expected[event[1]] = event[2]
                        else:
                            expected.pop(event[1], None)
                got = {(pk, stake) for pk, stake, _ in contract.active_set(current + 1)}
                assert got == set(expected.items())


def replayed_active_set(contract, chain, epoch):
    """The provider set of `epoch` replayed from the records on chain, with
    the contract's live slashed filter, stakes and locks."""
    members = {}
    scan = [(block.number, tx) for block in chain.blocks for tx in block.transactions]
    for number, tx in scan:
        if number // B_U > epoch - 2:
            break
        tag = codec.record_tag(tx.payload)
        if tag == codec.TAG_REGISTER:
            pk, stake = codec.decode_register_record(tx.payload)
            members[pk] = stake
        elif tag == codec.TAG_WITHDRAW_REQUEST:
            members.pop(codec.decode_withdraw_record(tx.payload), None)
    out = []
    for pk in sorted(members):
        record = contract.providers[pk]
        if record.status is ProviderStatus.SLASHED:
            continue
        locked = record.locked if record.status is not ProviderStatus.EXITED else 0
        out.append((pk, members[pk], members[pk] - locked))
    return out


class TestActiveSetFold:
    """`active_set` keeps one running fold of the final epochs' requests;
    every answer equals a replay of the chain, whatever order epochs are
    asked in."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_fold_matches_replay(self, data):
        ledger, contract, chain = make_env()
        keypairs = [funded_provider(ledger, 700 + i, stake=10**4 * ETH) for i in range(5)]
        for _ in range(data.draw(st.integers(1, 10 * B_U))):
            submissions = []
            for _ in range(data.draw(st.integers(0, 2))):
                kp = data.draw(st.sampled_from(keypairs))
                kind = data.draw(st.sampled_from(["register", "withdraw", "slash"]))
                if kind == "register":
                    submissions.append(RegisterTx(kp.public_key, data.draw(st.integers(1, 64)) * ETH))
                elif kind == "withdraw":
                    submissions.append(WithdrawRequestTx(kp.public_key))
                elif chain.tip.number >= 10:
                    submissions.append(SlashTx(false_evidence(kp, 2)))
            step(chain, contract, submissions)
            current = contract.current_epoch
            for epoch in data.draw(st.lists(st.integers(0, current + 1), max_size=4)):
                assert contract.active_set(epoch) == replayed_active_set(contract, chain, epoch)

    def test_request_in_a_folded_epoch_restarts_the_fold(self):
        ledger, contract, chain = make_env()
        kp, late = funded_provider(ledger, 720), funded_provider(ledger, 721)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 4 * B_U)
        assert [m[0] for m in contract.active_set(5)] == [kp.public_key]
        # Executed out of block order, into epoch 1, which the fold has passed.
        contract.register(late.public_key, 16 * ETH, B_U + 1)
        assert {m[0] for m in contract.active_set(5)} == {kp.public_key, late.public_key}
        assert [m[0] for m in contract.active_set(2)] == [kp.public_key]


def recomputed_utilization(contract):
    """`utilization_sample` summed afresh over the provider records."""
    locked = stake = 0
    for record in contract.providers.values():
        if record.status is ProviderStatus.ACTIVE:
            locked += record.locked
            stake += record.stake
    return locked, stake


class TestVersionedViews:
    """After every transaction and every boundary, `active_set` and
    `utilization_sample` equal a recomputation from the chain's records
    and the provider records, and each `active_set` call returns a list
    of the caller's own."""

    @staticmethod
    def assert_views_fresh(contract, chain):
        current = contract.current_epoch
        for epoch in range(max(0, current - 1), current + 2):
            expected = replayed_active_set(contract, chain, epoch)
            got = contract.active_set(epoch)
            assert got == expected
            got.clear()  # a caller may keep or change its copy
            assert contract.active_set(epoch) == expected
        assert contract.utilization_sample() == recomputed_utilization(contract)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_views_match_recomputation(self, data):
        ledger, contract, chain = make_env()
        keypairs = [funded_provider(ledger, 740 + i, stake=10**4 * ETH) for i in range(4)]
        buyers = [crypto.keygen(760 + i) for i in range(2)]
        for buyer in buyers:
            ledger.mint(buyer.public_key, 10 * ETH)
        for _ in range(data.draw(st.integers(1, 8 * B_U))):
            tick = chain.tip.number + 1
            records = []
            for _ in range(data.draw(st.integers(0, 3))):
                kp = data.draw(st.sampled_from(keypairs))
                kind = data.draw(st.sampled_from(["register", "withdraw", "buy", "slash"]))
                if kind == "register":
                    submission = RegisterTx(kp.public_key, data.draw(st.integers(1, 64)) * ETH)
                elif kind == "withdraw":
                    submission = WithdrawRequestTx(kp.public_key)
                elif kind == "buy":
                    others = data.draw(st.lists(st.sampled_from(keypairs), max_size=2))
                    allocations = tuple(
                        (k.public_key, data.draw(st.integers(1, 40)) * ETH) for k in [kp, *others]
                    )
                    submission = BuyInsuranceTx(
                        data.draw(st.sampled_from(buyers)).public_key,
                        allocations,
                        sum(a for _, a in allocations),
                        data.draw(st.integers(1, 3 * B_U)),
                    )
                elif chain.tip.number >= 10:
                    insurance_id = data.draw(st.one_of(st.none(), st.integers(1, 6)))
                    submission = SlashTx(false_evidence(kp, 2, insurance_id=insurance_id))
                else:
                    continue
                payloads, _ = contract.execute_transaction(submission, chain, tick)
                records.extend(Transaction.create(p) for p in payloads)
                # The replay sees these records only once the block is
                # appended, but no epoch asked for folds the block's epoch.
                self.assert_views_fresh(contract, chain)
            chain.append_block(records)
            contract.process_block_boundary(tick)
            self.assert_views_fresh(contract, chain)


    def test_exit_with_a_lock_left_by_a_claimed_policy_refreshes_the_view(self):
        # A policy claimed in full through one provider's slash leaves its
        # allocation on the other locked until that provider exits.
        ledger, contract, chain = make_env()
        liar, other = funded_provider(ledger, 770), funded_provider(ledger, 771)
        buyer = crypto.keygen(772)
        ledger.mint(buyer.public_key, ETH)
        step(chain, contract, [RegisterTx(liar.public_key, 32 * ETH)])
        step(chain, contract, [RegisterTx(other.public_key, 32 * ETH)])
        run_until(chain, contract, 2 * B_U)
        allocations = ((liar.public_key, 10 * ETH), (other.public_key, 10 * ETH))
        step(chain, contract, [BuyInsuranceTx(buyer.public_key, allocations, 10 * ETH, 100)])
        step(chain, contract, [SlashTx(false_evidence(liar, 2, insurance_id=1))])
        assert contract.policies[1].state is PolicyState.CLAIMED
        step(chain, contract, [WithdrawRequestTx(other.public_key)])
        epoch = contract.current_epoch
        assert contract.active_set(epoch + 1) == [(other.public_key, 32 * ETH, 22 * ETH)]
        while contract.provider(other.public_key).status is not ProviderStatus.EXITED:
            step(chain, contract)
            assert contract.active_set(epoch + 1) == replayed_active_set(contract, chain, epoch + 1)
        assert contract.active_set(epoch + 1) == [(other.public_key, 32 * ETH, 32 * ETH)]


class TestDeterminism:
    def run_schedule(self):
        ledger, contract, chain = make_env()
        kp = funded_provider(ledger, 40)
        buyer = crypto.keygen(41)
        ledger.mint(buyer.public_key, 1 * ETH)
        step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
        run_until(chain, contract, 9)
        step(
            chain,
            contract,
            [BuyInsuranceTx(buyer.public_key, ((kp.public_key, 10 * ETH),), 10 * ETH, 20)],
        )
        run_until(chain, contract, 14)
        step(chain, contract, [SlashTx(false_evidence(kp, 2, insurance_id=1))])
        run_until(chain, contract, 40)
        assert contract.slash_events and contract.policies
        return (
            contract.current_block,
            contract.providers,
            contract.retired,
            contract.policies,
            contract.slash_events,
            contract.reward_pool,
            contract.ledger.balances,
        )

    def test_identical_schedules_identical_state(self):
        assert self.run_schedule() == self.run_schedule()


class TestNoOverload:
    def test_randomized_schedules_never_overload(self):
        # Compact version of the acceptance criterion: random buy, expire,
        # withdraw, and claim interleavings keep locked <= stake at every
        # block and conserve total wei.
        for schedule_seed in range(25):
            rng = random.Random(schedule_seed)
            ledger, contract, chain = make_env()
            keypairs = [
                funded_provider(ledger, 700 + schedule_seed * 10 + i, stake=40 * ETH)
                for i in range(3)
            ]
            buyer = crypto.keygen(800 + schedule_seed)
            ledger.mint(buyer.public_key, 10 * ETH)
            total = ledger.total()
            next_policy = 1
            open_policies: list[int] = []
            for kp in keypairs:
                step(chain, contract, [RegisterTx(kp.public_key, 32 * ETH)])
            for tick in range(chain.tip.number + 1, 6 * B_U):
                submissions = []
                roll = rng.random()
                kp = rng.choice(keypairs)
                if roll < 0.35:
                    amount = rng.randrange(1, 40) * ETH
                    submissions.append(
                        BuyInsuranceTx(
                            buyer.public_key,
                            ((kp.public_key, amount),),
                            amount,
                            rng.randrange(1, 3 * B_U),
                        )
                    )
                elif roll < 0.45:
                    submissions.append(WithdrawRequestTx(kp.public_key))
                elif roll < 0.55 and chain.is_finalized(2):
                    ins = rng.choice(open_policies) if open_policies and rng.random() < 0.7 else None
                    submissions.append(SlashTx(false_evidence(kp, 2, insurance_id=ins)))
                receipts = step(chain, contract, submissions)
                for submission, receipt in zip(submissions, receipts):
                    if receipt.ok and isinstance(submission, BuyInsuranceTx):
                        open_policies.append(next_policy)
                        next_policy += 1
                for record in contract.providers.values():
                    assert 0 <= record.locked <= record.stake
                assert ledger.total() == total


class TestLedgerTotal:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["mint", "transfer"]),
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(0, 100),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_total_is_the_sum_after_every_mint_and_transfer(self, ops):
        ledger = Ledger()
        accounts = [f"a{i}" for i in range(4)]
        for op, src, dst, amount in ops:
            if op == "mint":
                ledger.mint(accounts[dst], amount)
            elif ledger.balance(accounts[src]) >= amount:
                ledger.transfer(accounts[src], accounts[dst], amount)
            else:
                with pytest.raises(ValueError):
                    ledger.transfer(accounts[src], accounts[dst], amount)
            assert ledger.total() == sum(ledger.balances.values())
