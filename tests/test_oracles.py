"""Brute-force oracles: enumeration and product expansion."""

import pytest

from degenpoly.oracles import (
    ORACLE_LIMIT,
    _block_counts,
    bell_number_classical,
    partition_oracle,
    signed_cycle_oracle,
)

# n = 0..10, counted by enumerating every partition
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def visited_block_counts(n):
    """counts[k] for an n-set, by visiting every partition, the last
    element's placements included."""
    counts = [0] * (n + 1)
    if n == 0:
        counts[0] = 1
        return tuple(counts)

    def place(element, used):
        if element == n:
            counts[used] += 1
            return
        for _ in range(used):
            place(element + 1, used)
        place(element + 1, used + 1)

    place(1, 1)
    return tuple(counts)


class TestPartitionOracle:
    def test_three_into_two(self):
        # {12|3}, {13|2}, {23|1}
        assert partition_oracle(3, 2) == 3

    def test_four_into_two(self):
        assert partition_oracle(4, 2) == 7

    @pytest.mark.parametrize("n", range(9))
    def test_diagonal(self, n):
        assert partition_oracle(n, n) == 1

    def test_single_block(self):
        for n in range(1, 9):
            assert partition_oracle(n, 1) == 1

    def test_too_many_blocks(self):
        assert partition_oracle(3, 5) == 0

    @pytest.mark.parametrize("n", range(11))
    def test_counting_the_last_placements_matches_visiting_them(self, n):
        assert _block_counts(n) == visited_block_counts(n)

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            partition_oracle(ORACLE_LIMIT + 1, 1)


class TestBellNumbers:
    @pytest.mark.parametrize("n", range(11))
    def test_known_values(self, n):
        assert bell_number_classical(n) == BELL[n]

    def test_matches_block_count_sum(self):
        for n in range(9):
            assert bell_number_classical(n) == sum(
                partition_oracle(n, k) for k in range(n + 1)
            )


class TestSignedCycleOracle:
    def test_three_two(self):
        assert signed_cycle_oracle(3, 2) == -3

    def test_four_one(self):
        # x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
        assert signed_cycle_oracle(4, 1) == -6
        assert signed_cycle_oracle(4, 2) == 11
        assert signed_cycle_oracle(4, 3) == -6

    @pytest.mark.parametrize("n", range(9))
    def test_diagonal(self, n):
        assert signed_cycle_oracle(n, n) == 1

    def test_above_degree(self):
        assert signed_cycle_oracle(3, 5) == 0

    def test_row_sums_vanish(self):
        # substituting x=1 into x(x-1)...(x-n+1) gives 0 for n >= 2
        for n in range(2, 9):
            assert sum(signed_cycle_oracle(n, k) for k in range(n + 1)) == 0
