"""Independent brute-force oracles.

These deliberately avoid the polynomial and series machinery: the point is to
check the engine against code that shares nothing with it.

* Set partitions are enumerated one by one (restricted-growth assignment of
  elements to blocks) and counted by block count.  No Bell/Stirling formula
  is used anywhere here.
* Signed first-kind numbers come from literally expanding the product
  x(x-1)(x-2)...(x-n+1) over plain Python ints.

Partition enumeration is capped at n = 12; partition counts grow fast beyond
that.  The product expansion is O(n²) int operations and has no cap.
"""

from __future__ import annotations

from functools import lru_cache

ORACLE_LIMIT = 12


@lru_cache(maxsize=None)
def _block_counts(n: int) -> tuple:
    """counts[k] = number of partitions of an n-set into exactly k blocks."""
    if n > ORACLE_LIMIT:
        raise ValueError(f"enumeration oracle capped at n <= {ORACLE_LIMIT}")
    counts = [0] * (n + 1)
    if n == 0:
        counts[0] = 1
        return tuple(counts)

    def place(element: int, used: int) -> None:
        if element == n:
            counts[used] += 1
            return
        for _ in range(used):
            place(element + 1, used)
        place(element + 1, used + 1)

    # element 0 always opens the first block
    place(1, 1)
    return tuple(counts)


def partition_oracle(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k nonempty blocks, by enumeration."""
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    counts = _block_counts(n)
    return counts[k] if k <= n else 0


def bell_number_classical(n: int) -> int:
    """Total number of set partitions of an n-set, by enumeration."""
    return sum(_block_counts(n))


@lru_cache(maxsize=None)
def _falling_product_coeffs(n: int) -> tuple:
    """Integer coefficients of x(x-1)...(x-n+1), ascending in x."""
    coeffs = [1]
    for j in range(n):
        shifted = [0] + coeffs                      # x * old
        for i, c in enumerate(coeffs):
            shifted[i] -= j * c                     # -j * old
        coeffs = shifted
    return tuple(coeffs)


def signed_cycle_oracle(n: int, k: int) -> int:
    """Signed first-kind value: coefficient of x^k in x(x-1)...(x-n+1)."""
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    coeffs = _falling_product_coeffs(n)
    return coeffs[k] if k < len(coeffs) else 0
