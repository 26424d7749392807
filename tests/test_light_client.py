"""Provider selection, coverage sizing, and event-set folding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import codec
from lcsim.light_client import (
    NoEligibleProvidersError,
    apply_epoch_events,
    required_coverage,
    select_providers,
)
from lcsim.pricing import eth_to_wei

ETH = eth_to_wei(1)


def pks(n):
    return [bytes([i]) * 32 for i in range(n)]


class TestSelectProviders:
    def test_single_provider_trimmed_allocation(self):
        (pk,) = pks(1)
        assert select_providers([(pk, 32 * ETH)], 10 * ETH) == [(pk, 10 * ETH)]

    def test_five_providers_for_160_eth(self):
        pool = [(pk, 32 * ETH) for pk in pks(8)]
        chosen = select_providers(pool, 160 * ETH)
        assert len(chosen) == 5
        assert sum(a for _, a in chosen) == 160 * ETH
        assert all(a == 32 * ETH for _, a in chosen)

    def test_ten_providers_for_320_eth(self):
        pool = [(pk, 32 * ETH) for pk in pks(12)]
        assert len(select_providers(pool, 320 * ETH)) == 10

    def test_insufficient_backing(self):
        pool = [(pk, 32 * ETH) for pk in pks(9)]
        pool.append((bytes([99]) * 32, 31 * ETH))  # total 319
        with pytest.raises(NoEligibleProvidersError):
            select_providers(pool, 320 * ETH)

    def test_greedy_prefers_largest(self):
        a, b = bytes([1]) * 32, bytes([2]) * 32
        chosen = select_providers([(a, 8 * ETH), (b, 64 * ETH)], 10 * ETH)
        assert chosen == [(b, 10 * ETH)]

    def test_lexicographic_tie_break(self):
        a, b = bytes([1]) * 32, bytes([2]) * 32
        chosen = select_providers([(b, 32 * ETH), (a, 32 * ETH)], 10 * ETH)
        assert chosen == [(a, 10 * ETH)]

    def test_last_allocation_is_exact_remainder(self):
        pool = [(pk, 32 * ETH) for pk in pks(3)]
        chosen = select_providers(pool, 50 * ETH)
        assert [a for _, a in chosen] == [32 * ETH, 18 * ETH]

    def test_zero_backing_rejected(self):
        with pytest.raises(ValueError):
            select_providers([(bytes(32), ETH)], 0)

    def test_empty_pool(self):
        with pytest.raises(NoEligibleProvidersError):
            select_providers([], ETH)

    def test_count_minimal_against_brute_force(self):
        # Greedy-by-largest must use as few providers as any subset that
        # covers the value; brute force over all subsets of small pools.
        import itertools
        import random

        rng = random.Random(13)
        for _ in range(40):
            pool = [
                (bytes([i]) * 32, rng.randrange(1, 64) * ETH) for i in range(rng.randrange(1, 7))
            ]
            total = sum(c for _, c in pool)
            value = rng.randrange(1, total + 1)
            chosen = select_providers(pool, value)
            assert sum(a for _, a in chosen) == value
            best = min(
                (
                    len(subset)
                    for r in range(1, len(pool) + 1)
                    for subset in itertools.combinations(pool, r)
                    if sum(c for _, c in subset) >= value
                ),
            )
            assert len(chosen) == best


def reference_select(providers, required_backing):
    """`select_providers` as it was written first: one sort on a Python
    (-capacity, pk) key."""
    if required_backing <= 0:
        raise ValueError("required_backing must be positive")
    ordered = sorted(providers, key=lambda item: (-item[1], item[0]))
    chosen = []
    remaining = required_backing
    for pk, capacity in ordered:
        if capacity <= 0:
            continue
        take = min(capacity, remaining)
        chosen.append((pk, take))
        remaining -= take
        if remaining == 0:
            return chosen
    raise NoEligibleProvidersError("short")


def outcome(select, *args):
    try:
        return select(*args)
    except NoEligibleProvidersError:
        return "short"


class TestSelectionOrder:
    @given(
        st.lists(
            st.tuples(st.sampled_from(pks(6)), st.integers(0, 6).map(lambda n: n * 8 * ETH)),
            max_size=8,
        ),
        st.integers(1, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sorting_on_a_key(self, pool, value):
        """Equal capacities and repeated keys included."""
        assert outcome(select_providers, pool, value * ETH) == outcome(
            reference_select, pool, value * ETH
        )


class TestRequiredCoverage:
    def test_overlapping_checks_sum(self):
        checks = [(0, 100, 10 * ETH), (50, 150, 7 * ETH)]
        assert required_coverage(checks) == 17 * ETH

    def test_disjoint_checks_take_max(self):
        checks = [(0, 100, 10 * ETH), (200, 300, 7 * ETH)]
        assert required_coverage(checks) == 10 * ETH

    def test_nested_windows(self):
        checks = [(0, 300, 5 * ETH), (100, 150, 2 * ETH), (120, 130, 1 * ETH)]
        assert required_coverage(checks) == 8 * ETH

    def test_empty(self):
        assert required_coverage([]) == 0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            required_coverage([(10, 5, ETH)])


class TestApplyEpochEvents:
    def test_register_and_withdraw_fold(self):
        a, b = bytes([1]) * 32, bytes([2]) * 32
        base = {a: 32 * ETH}
        events = [
            (5, codec.register_record(b, 16 * ETH)),
            (7, codec.withdraw_record(a)),
        ]
        assert apply_epoch_events(base, events) == {b: 16 * ETH}

    def test_order_is_by_block_number(self):
        a = bytes([1]) * 32
        events = [
            (9, codec.withdraw_record(a)),
            (3, codec.register_record(a, 10 * ETH)),
        ]
        assert apply_epoch_events({}, events) == {}

    def test_base_set_not_mutated(self):
        a = bytes([1]) * 32
        base = {a: 2 * ETH}
        apply_epoch_events(base, [(1, codec.withdraw_record(a))])
        assert base == {a: 2 * ETH}
