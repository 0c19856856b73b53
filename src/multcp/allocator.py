"""Proportional sharing of a receiver's buffer memory across connections.

A host serving many connections through the same bottleneck needs
total buffering of roughly one bandwidth-delay product; throughput is
window-limited at buffer/RTT until that point and flat beyond it.
`allocate_buffers` splits a byte budget B across connections in
proportion to what each is paying: b_i = B * k_i / sum_j k_j.

Allocations are rounded down to whole segments and the leftover bytes
go to the highest-paying connection, so the budget is always handed out
exactly.
"""

from __future__ import annotations

import math
import sys


def allocate_buffers(prices: dict[int, float], budget_bytes: int,
                     segment_bytes: int) -> dict[int, int]:
    """Price-proportional split of the budget, in whole segments.

    Each connection gets floor(B * k_i / sum k / segment) segments; the
    remaining bytes all go to the highest-paying connection (lowest id
    on a tie), so the returned values sum to the budget exactly.
    """
    if not prices:
        raise ValueError("no connections to allocate for")
    if budget_bytes < 0:
        raise ValueError("budget must be non-negative")
    if segment_bytes <= 0:
        raise ValueError("segment size must be positive")
    for conn_id, price in prices.items():
        if price <= 0:
            raise ValueError(f"connection {conn_id} must have a positive price")
    total_price = sum(prices.values())
    if not math.isfinite(total_price):
        raise ValueError(f"prices must sum to a finite float, got {total_price!r}")
    top = min(prices, key=lambda c: (-prices[c], c))
    # each share is budget * price / total in floats, so that product must fit
    if not budget_bytes <= sys.float_info.max / max(1.0, prices[top]):
        raise ValueError(f"budget times the highest price {prices[top]!r} "
                         "is not a finite float")
    out = {}
    for conn_id, price in prices.items():
        exact = budget_bytes * price / total_price
        out[conn_id] = int(exact // segment_bytes) * segment_bytes
    residual = budget_bytes - sum(out.values())
    out[top] += residual
    return out
