"""Random Early Detection queue discipline.

Classic RED: an exponentially weighted moving average of the queue length
is updated on every arrival, packets are dropped with a probability that
ramps linearly between two thresholds, and the inter-drop spacing is
stretched by the count-since-last-drop correction.  The averaging makes
the gateway tolerate short bursts while reacting to persistent congestion.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class RedParams:
    """RED configuration.

    thresh / maxthresh are in packets, as is the hard queue limit.
    ewma_weight is the averaging gain per arrival; max_drop_prob is the
    drop probability reached as the average touches maxthresh.
    """

    thresh: float = 5.0
    maxthresh: float = 15.0
    limit: int = 20
    ewma_weight: float = 0.002
    max_drop_prob: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.thresh < self.maxthresh:
            raise ValueError("need 0 < thresh < maxthresh")
        if self.maxthresh > self.limit:
            raise ValueError("maxthresh must not exceed the hard limit")
        if not 0.0 < self.ewma_weight <= 1.0:
            raise ValueError("ewma_weight must be in (0, 1]")
        if not 0.0 < self.max_drop_prob <= 1.0:
            raise ValueError("max_drop_prob must be in (0, 1]")


class RedQueue:
    """FIFO queue guarded by RED drop decisions.

    The queue owns its average-length state.  `idle_pkt_time_ns` is the
    typical transmission time of one packet; while the queue sits empty
    the average decays as if that many small packets had passed.
    """

    def __init__(self, params: RedParams, rng: random.Random,
                 idle_pkt_time_ns: int) -> None:
        if idle_pkt_time_ns <= 0:
            raise ValueError("idle_pkt_time_ns must be positive")
        self.params = params
        self.rng = rng
        self.idle_pkt_time_ns = idle_pkt_time_ns
        self.items: deque[Any] = deque()
        self.avg = 0.0
        self.count = -1          # packets since the last drop; -1 disarms the spread
        self.idle_since_ns: int | None = 0   # set while the queue is empty
        self.drops = 0
        self.admitted = 0

    def __len__(self) -> int:
        return len(self.items)

    def enqueue(self, item: Any, now_ns: int) -> bool:
        """Offer one packet; returns True if admitted, False if dropped."""
        p = self.params
        items = self.items
        qlen = len(items)
        if self.idle_since_ns is not None:
            # queue was empty: decay the average over the idle gap
            m = (now_ns - self.idle_since_ns) / self.idle_pkt_time_ns
            avg = self.avg * (1.0 - p.ewma_weight) ** m
            self.idle_since_ns = None
        else:
            avg = self.avg + p.ewma_weight * (qlen - self.avg)
        self.avg = avg

        if qlen >= p.limit:
            return self._drop(now_ns)
        if avg < p.thresh:
            self.count = -1
        elif avg >= p.maxthresh:
            return self._drop(now_ns)
        else:
            count = self.count + 1
            self.count = count
            pb = p.max_drop_prob * (avg - p.thresh) / (p.maxthresh - p.thresh)
            # spread drops out: effective probability pb / (1 - count * pb)
            if count * pb >= 1.0 or self.rng.random() < pb / (1.0 - count * pb):
                return self._drop(now_ns)

        items.append(item)
        self.admitted += 1
        return True

    def _drop(self, now_ns: int) -> bool:
        self.count = 0
        self.drops += 1
        if not self.items:
            # dropped while empty: the idle period continues
            self.idle_since_ns = now_ns
        return False

    def dequeue(self, now_ns: int) -> Any | None:
        """Take the head packet; records the idle start when the queue empties."""
        if not self.items:
            return None
        item = self.items.popleft()
        if not self.items:
            self.idle_since_ns = now_ns
        return item
