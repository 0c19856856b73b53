"""Estimating a connection's weight from its trace, and billing for it.

A connection that declares weight N pays N price units per unit time
while active.  Whether it actually behaves like weight N can be read
off a packet trace in two independent ways:

* steady state: every window reduction scales cwnd by (N - 1/2) / N,
  so each observed reduction ratio r inverts to N = 0.5 / (1 - r).
  The median over all reductions is robust against the occasional
  halving taken during slow start.
* slow start: the window opens by two segments per ack up to a
  crossover of 3 ** (log N / (log 3 - log 2)) and by one segment after,
  so the window value where the growth changes inverts to
  N = w ** ((log 3 - log 2) / log 3).

Both read the sender's cwnd columns, which every trace row carries.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields
from operator import attrgetter

from .engine import NS_PER_SEC
from .harness import _output, read_csv, write_csv
from .tcp import (ACK_RECEIVED, LOSS_DETECTED, TIMEOUT, TRACE_EVENTS,
                  TraceRecord)

TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))

# inverse of the slow-start crossover 3 ** (log N / (log 3 - log 2))
_SS_EXPONENT = (math.log(3.0) - math.log(2.0)) / math.log(3.0)
# fewer loss events than this and the slow-start signature is preferred
_MIN_DECREASE_SAMPLES = 5


@dataclass(frozen=True)
class Declaration:
    """A flow's declared weight over a time interval."""

    flow_id: int
    declared_n: float
    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        if not (self.declared_n >= 1.0 and math.isfinite(self.declared_n)):
            raise ValueError("declared_n must be a finite number >= 1, "
                             f"got {self.declared_n!r}")
        if self.start_ns >= self.end_ns:
            raise ValueError("declaration interval must have start < end")


DECLARATION_COLUMNS = tuple(f.name for f in fields(Declaration))


def estimate_n_from_decrease(ratio: float) -> float:
    """Invert a window-reduction ratio: cwnd scaling by (N - 1/2) / N.

    0.5 -> 1, 0.75 -> 2, 0.95 -> 10.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("decrease ratio must be in (0, 1)")
    return 0.5 / (1.0 - ratio)


def estimate_n_from_slow_start(window: float) -> float:
    """Invert the slow-start crossover window back to a weight."""
    if window < 1.0:
        raise ValueError("crossover window must be >= 1")
    return window ** _SS_EXPONENT


@dataclass(frozen=True)
class TraceAnalysis:
    headline_n: float | None
    method: str                 # "decrease" | "slow-start" | "indeterminate"
    decrease_n: float | None
    decrease_samples: int
    slow_start_n: float | None
    slow_start_samples: int

    @property
    def indeterminate(self) -> bool:
        return self.headline_n is None


def split_trace(records) -> dict[int, list[TraceRecord]]:
    """Group a mixed trace by flow, preserving per-flow time order."""
    out: dict[int, list[TraceRecord]] = {}
    for r in records:
        out.setdefault(r.flow_id, []).append(r)
    return out


def analyze_trace(records) -> TraceAnalysis:
    """Estimate the weight behind one flow's trace, reading it once.

    The reduction-ratio median is the headline whenever at least
    _MIN_DECREASE_SAMPLES loss events are available; otherwise the
    slow-start signature is used; with neither the verdict is
    indeterminate.  Timeouts never contribute ratios (they collapse the
    window to one segment, which says nothing about N).
    """
    ratios: list[float] = []    # cwnd_after / cwnd_before at each reduction
    windows: list[float] = []   # windows where ack growth fell from +2 to +1
    flows = set()
    last_plus2: float | None = None
    for r in records:
        flows.add(r.flow_id)
        event = r.event
        if event == ACK_RECEIVED:
            delta = r.cwnd_after - r.cwnd_before
            if abs(delta - 2.0) < 1e-9:
                last_plus2 = r.cwnd_before
                continue
            if abs(delta - 1.0) < 1e-9 and last_plus2 is not None:
                windows.append(last_plus2)
        elif event == LOSS_DETECTED:
            if r.cwnd_before > 0:
                ratio = r.cwnd_after / r.cwnd_before
                if 0.0 < ratio < 1.0:
                    ratios.append(ratio)
        elif event != TIMEOUT:
            raise _unknown_event(event)
        # anything but +2 growth ends a slow-start episode
        last_plus2 = None
    if len(flows) > 1:
        raise ValueError("trace mixes multiple flows; split it first")

    decrease_n = None
    if ratios:
        decrease_n = statistics.median(estimate_n_from_decrease(r)
                                       for r in ratios)
    slow_start_n = None
    if windows:
        slow_start_n = statistics.median(estimate_n_from_slow_start(w)
                                         for w in windows)

    if decrease_n is not None and len(ratios) >= _MIN_DECREASE_SAMPLES:
        headline, method = decrease_n, "decrease"
    elif slow_start_n is not None:
        headline, method = slow_start_n, "slow-start"
    elif decrease_n is not None:
        headline, method = decrease_n, "decrease"
    else:
        headline, method = None, "indeterminate"
    return TraceAnalysis(headline_n=headline, method=method,
                         decrease_n=decrease_n, decrease_samples=len(ratios),
                         slow_start_n=slow_start_n,
                         slow_start_samples=len(windows))


@dataclass(frozen=True)
class ComplianceReport:
    status: str                 # "compliant" | "violation" | "unverifiable"
    declared_n: float
    observed_n: float | None
    method: str


def verify_declaration(records, decl: Declaration,
                       tolerance: float = 0.1) -> ComplianceReport:
    """Check one declaration against the flow's trace.

    Only excess aggressiveness is a violation: observed N above
    declared * (1 + tolerance).  Using less than declared is the
    payer's loss, and a trace too thin to estimate from is
    "unverifiable", never a violation.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError("tolerance must be non-negative and finite")
    analysis = analyze_trace(r for r in records
                             if r.flow_id == decl.flow_id
                             and decl.start_ns <= r.time_ns < decl.end_ns)
    observed = analysis.headline_n
    if observed is None:
        status = "unverifiable"
    elif observed > decl.declared_n * (1.0 + tolerance):
        status = "violation"
    else:
        status = "compliant"
    return ComplianceReport(status, decl.declared_n, observed,
                            analysis.method)


def bill(declarations, period: tuple[int, int]) -> float:
    """Charge in weight-seconds: the time integral of the active sum of N.

    Computed piecewise-exactly, so it is additive over disjoint periods
    and invariant under any subdivision of the sampling intervals.
    Overlapping declarations for the same flow are rejected.
    """
    start_ns, end_ns = period
    if start_ns > end_ns:
        raise ValueError("billing period must have start <= end")
    by_flow: dict[int, list[Declaration]] = {}
    for d in declarations:
        by_flow.setdefault(d.flow_id, []).append(d)
    charge_ns = 0.0
    for flow_id, decls in by_flow.items():
        decls.sort(key=lambda d: d.start_ns)
        for prev, cur in zip(decls, decls[1:]):
            if cur.start_ns < prev.end_ns:
                raise ValueError(
                    f"overlapping declarations for flow {flow_id}")
        for d in decls:
            overlap = min(d.end_ns, end_ns) - max(d.start_ns, start_ns)
            if overlap > 0:
                charge_ns += d.declared_n * overlap
    return charge_ns / NS_PER_SEC


# -- file formats ----------------------------------------------------------

# the events a trace CSV may hold; parsed names map onto the sender's own
# strings, one object per kind
_EVENT_NAMES = {name: name for name in TRACE_EVENTS}


def _unknown_event(event) -> ValueError:
    return ValueError(f"unknown event {event!r}, expected one of "
                      f"{', '.join(TRACE_EVENTS)}")


def write_trace_csv(records, target) -> None:
    """Write trace records to a path or an open text stream.

    The bytes are those csv.writer writes: CRLF line ends, a None ack as
    an empty field and a float as its repr.  A record read_trace_csv would
    refuse raises ValueError: an event outside TRACE_EVENTS, a time, flow
    or ack not of type int (a None ack aside), or a cwnd not a finite int
    or float.
    """
    with _output(target) as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(_trace_lines(records))


_TRACE_FIELDS = attrgetter(*TRACE_COLUMNS)


def _trace_lines(records):
    """Each record's CSV line."""
    for time_ns, flow_id, event, before, after, ack in map(_TRACE_FIELDS,
                                                            records):
        if event not in _EVENT_NAMES:
            raise _unknown_event(event)
        if not (type(time_ns) is int and type(flow_id) is int
                and (ack is None or type(ack) is int)):
            raise ValueError("time and flow must be ints and ack an int or "
                             f"None, got {(time_ns, flow_id, ack)!r}")
        if not (type(before) in (int, float) and type(after) in (int, float)
                and math.isfinite(before) and math.isfinite(after)):
            raise ValueError("cwnd must be a finite int or float, got "
                             f"{(before, after)!r}")
        yield (f"{time_ns},{flow_id},{event},{before!r},{after!r},"
               f"{'' if ack is None else ack}\r\n")


def read_trace_csv(path) -> list[TraceRecord]:
    """Read a trace CSV; a bad row raises ValueError naming file and line.

    Rows must have six fields: integer time and flow, one of the
    TRACE_EVENTS names, two finite cwnd values and an integer or empty
    ack.  An empty ack reads as None.
    """
    return read_csv(path, TRACE_COLUMNS, "trace", _trace_parser)


def _trace_parser(row: list[str]) -> TraceRecord:
    """One trace CSV row as a record, for read_trace_csv.

    Faults are reported in the order event, cwnd_before, cwnd_after
    (an empty cwnd is a bad float), finiteness, time, flow, ack.
    """
    time_ns, flow_id, event, before_text, after_text, ack = row
    kind = _EVENT_NAMES.get(event)
    if kind is None:
        raise _unknown_event(event)
    before, after = float(before_text), float(after_text)
    if not (math.isfinite(before) and math.isfinite(after)):
        raise ValueError(f"non-finite cwnd {row[3:5]!r}")
    return TraceRecord(int(time_ns), int(flow_id), kind, before, after,
                       int(ack) if ack else None)


def write_declarations_csv(declarations, target) -> None:
    """Write declarations to a path or an open text stream."""
    write_csv(target, DECLARATION_COLUMNS,
              [(d.flow_id, float(d.declared_n), d.start_ns, d.end_ns)
               for d in declarations])


def read_declarations_csv(path) -> list[Declaration]:
    """Read a declarations CSV; a bad row raises ValueError naming file and line."""
    return read_csv(path, DECLARATION_COLUMNS, "declaration",
                    lambda row: Declaration(int(row[0]), float(row[1]),
                                            int(row[2]), int(row[3])))
