"""Weight estimation from traces, declaration checking, billing."""

import csv
import io
from operator import attrgetter

import pytest

from multcp.harness import (DumbbellParams, build_dumbbell, run_scenario,
                            write_csv)
from multcp.policing import (DECLARATION_COLUMNS, TRACE_COLUMNS, Declaration,
                             analyze_trace, bill,
                             estimate_n_from_decrease,
                             estimate_n_from_slow_start,
                             read_declarations_csv, read_trace_csv,
                             split_trace, verify_declaration,
                             write_declarations_csv, write_trace_csv)
from multcp.tcp import TRACE_EVENTS, TraceRecord, slow_start_crossover


def rec(t, event, flow=0, before=1.0, after=1.0, ack=None):
    return TraceRecord(time_ns=t, flow_id=flow, event=event,
                       cwnd_before=before, cwnd_after=after, ack=ack)


def loss_trace(n, events=8, flow=0):
    """Synthetic cwnd trace: repeated weighted reductions from w=40."""
    out = []
    t = 0
    for _ in range(events):
        t += 1_000_000
        out.append(rec(t, "ack-received", flow, before=39.0, after=40.0))
        t += 1_000_000
        out.append(rec(t, "loss-detected", flow,
                       before=40.0, after=40.0 * (n - 0.5) / n))
    return out


@pytest.mark.parametrize("n", [1.0, 2.0, 4.0, 8.0])
def test_decrease_estimate_inverts_the_rule(n):
    ratio = (n - 0.5) / n
    assert estimate_n_from_decrease(ratio) == pytest.approx(n, rel=1e-12)


def test_decrease_estimate_domain():
    with pytest.raises(ValueError):
        estimate_n_from_decrease(1.0)
    with pytest.raises(ValueError):
        estimate_n_from_decrease(0.0)


@pytest.mark.parametrize("n", [1.0, 2.0, 4.0, 8.0])
def test_slow_start_estimate_inverts_crossover(n):
    w = slow_start_crossover(n)
    assert estimate_n_from_slow_start(w) == pytest.approx(n, rel=1e-9)


def test_analyze_trace_headline_from_decreases():
    analysis = analyze_trace(loss_trace(4.0))
    assert analysis.method == "decrease"
    assert analysis.decrease_samples == 8
    assert analysis.headline_n == pytest.approx(4.0, rel=1e-6)


def test_analyze_trace_median_shrugs_off_slow_start_halvings():
    records = loss_trace(4.0)
    records.append(rec(99_000_000, "loss-detected", before=10.0, after=5.0))
    analysis = analyze_trace(records)
    assert analysis.headline_n == pytest.approx(4.0, rel=1e-6)


def test_analyze_trace_slow_start_fallback():
    # too few reductions for the headline; the +2/+1 growth break is used
    records = [
        rec(1, "ack-received", before=4.0, after=6.0),
        rec(2, "ack-received", before=6.0, after=8.0),
        rec(3, "ack-received", before=8.0, after=9.0),
    ]
    analysis = analyze_trace(records)
    assert analysis.method == "slow-start"
    assert analysis.slow_start_samples == 1
    # the last window still growing by +2 (here 6) stands in for the
    # crossover, so the estimate rounds N=2 down a touch
    assert analysis.headline_n == pytest.approx(2.0, rel=0.1)
    # the input is read once, so a one-shot iterator gives the same verdict
    assert analyze_trace(iter(records)) == analysis
    # a loss, a timeout or congestion-avoidance growth between the +2 and
    # the +1 row ends the episode, so no crossover is seen
    for ender in [rec(3, "loss-detected", before=8.0, after=7.0),
                  rec(3, "timeout", before=8.0, after=1.0),
                  rec(3, "ack-received", before=8.0, after=8.125)]:
        broken = records[:2] + [ender] + records[2:]
        assert analyze_trace(broken).slow_start_samples == 0
        assert analyze_trace(iter(broken)) == analyze_trace(broken)


def test_analyze_trace_indeterminate_and_mixed_flow_error():
    assert analyze_trace([]).indeterminate
    mixed = [rec(1, "ack-received", flow=0), rec(2, "ack-received", flow=1)]
    with pytest.raises(ValueError):
        analyze_trace(mixed)


@pytest.mark.parametrize("event", ["ack", "data-sent", ""])
def test_analyze_trace_rejects_an_unknown_event(event):
    # the same vocabulary as the trace reader and writer
    records = loss_trace(4.0) + [rec(99_000_000, event)]
    with pytest.raises(ValueError, match=f"unknown event {event!r}"):
        analyze_trace(records)


def test_split_trace_groups_by_flow():
    records = [rec(1, "ack-received", flow=1, ack=1),
               rec(2, "ack-received", flow=0, ack=1),
               rec(3, "ack-received", flow=1, ack=2)]
    groups = split_trace(records)
    assert sorted(groups) == [0, 1]
    assert [r.time_ns for r in groups[1]] == [1, 3]


def test_verify_declaration_verdicts():
    decl = Declaration(flow_id=0, declared_n=4.0, start_ns=0, end_ns=10**9)
    assert verify_declaration(loss_trace(4.0), decl).status == "compliant"
    # understating: behaves like 8 while declaring 4
    assert verify_declaration(loss_trace(8.0), decl).status == "violation"
    # overpaying is not an offence
    assert verify_declaration(loss_trace(2.0), decl).status == "compliant"
    assert verify_declaration([], decl).status == "unverifiable"


def test_verify_declaration_respects_window():
    decl = Declaration(flow_id=0, declared_n=1.0,
                       start_ns=10**12, end_ns=2 * 10**12)
    report = verify_declaration(loss_trace(8.0), decl)
    assert report.status == "unverifiable"      # all evidence outside window


@pytest.mark.parametrize("tolerance", [-0.1, float("nan"), float("inf")])
def test_verify_declaration_rejects_bad_tolerance(tolerance):
    # a NaN tolerance used to pass every declaration, violations included
    decl = Declaration(flow_id=0, declared_n=1.0, start_ns=0, end_ns=10**9)
    with pytest.raises(ValueError, match="tolerance"):
        verify_declaration(loss_trace(8.0), decl, tolerance=tolerance)


def test_declaration_validation():
    with pytest.raises(ValueError):
        Declaration(flow_id=0, declared_n=0.5, start_ns=0, end_ns=1)
    with pytest.raises(ValueError):
        Declaration(flow_id=0, declared_n=1.0, start_ns=5, end_ns=5)


def test_bill_piecewise_exact():
    decls = [
        Declaration(flow_id=0, declared_n=2.0, start_ns=0, end_ns=10 * 10**9),
        Declaration(flow_id=1, declared_n=4.0,
                    start_ns=5 * 10**9, end_ns=15 * 10**9),
    ]
    # flow0: 2 * 10 s, flow1: 4 * 10 s
    assert bill(decls, (0, 20 * 10**9)) == pytest.approx(60.0)
    # clipping to a sub-period
    assert bill(decls, (0, 6 * 10**9)) == pytest.approx(2 * 6 + 4 * 1)


def test_bill_additive_over_subdivision():
    decls = [Declaration(flow_id=0, declared_n=3.0,
                         start_ns=10**9, end_ns=9 * 10**9)]
    whole = bill(decls, (0, 10 * 10**9))
    split_at = 4 * 10**9 + 123
    parts = bill(decls, (0, split_at)) + bill(decls, (split_at, 10 * 10**9))
    assert whole == pytest.approx(parts, rel=1e-12)


def test_bill_rejects_overlaps_and_bad_period():
    overlapping = [
        Declaration(flow_id=0, declared_n=1.0, start_ns=0, end_ns=10),
        Declaration(flow_id=0, declared_n=2.0, start_ns=5, end_ns=15),
    ]
    with pytest.raises(ValueError):
        bill(overlapping, (0, 100))
    with pytest.raises(ValueError):
        bill([], (10, 0))
    # distinct flows may overlap freely
    ok = [Declaration(flow_id=0, declared_n=1.0, start_ns=0, end_ns=10),
          Declaration(flow_id=1, declared_n=2.0, start_ns=5, end_ns=15)]
    assert bill(ok, (0, 20)) == pytest.approx((1 * 10 + 2 * 10) / 1e9)


def test_trace_csv_round_trip(tmp_path):
    records = loss_trace(2.0) + [rec(99, "ack-received", before=3.0,
                                     after=5.0, ack=7)]
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    assert read_trace_csv(path) == records


def test_declarations_csv_round_trip(tmp_path):
    decls = [Declaration(flow_id=3, declared_n=2.5, start_ns=10, end_ns=20)]
    path = tmp_path / "decl.csv"
    write_declarations_csv(decls, path)
    assert read_declarations_csv(path) == decls


def test_read_back_records_share_one_event_string_per_kind(tmp_path):
    records = loss_trace(2.0) + [rec(99, "ack-received", ack=7),
                                 rec(100, "ack-received", ack=8),
                                 rec(200, "timeout", before=3.0, after=1.0),
                                 rec(300, "timeout", before=2.0, after=1.0)]
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    ids: dict[str, set[int]] = {}
    for r in read_trace_csv(path):
        ids.setdefault(r.event, set()).add(id(r.event))
    assert sorted(ids) == ["ack-received", "loss-detected", "timeout"]
    assert all(len(v) == 1 for v in ids.values())


@pytest.fixture(scope="module")
def dumbbell_run(tmp_path_factory):
    """A traced 4-flow, 12 s dumbbell, flow 0 at N=4: records and trace CSV."""
    scenario = build_dumbbell(4, DumbbellParams(duration_s=12.0, warmup_s=2.0),
                              weights=[4.0, 1.0, 1.0, 1.0], seed=1, trace=True)
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    records = run_scenario(scenario).trace
    write_trace_csv(records, path)
    return records, path


def unshared_read(path):
    """Parse a trace CSV row by row, sharing only one event string per kind."""
    events = {name: name for name in TRACE_EVENTS}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [TraceRecord(int(t), int(f), events[e], float(b), float(a),
                        int(k) if k else None)
            for t, f, e, b, a, k in rows]


def test_read_back_records_equal_a_reference_parse_and_the_run(dumbbell_run):
    records, path = dumbbell_run
    assert read_trace_csv(path) == unshared_read(path) == list(records)


def test_csv_readers_reject_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2\n")
    with pytest.raises(ValueError):
        read_trace_csv(bad)
    with pytest.raises(ValueError):
        read_declarations_csv(bad)
    # a bad data row is reported with its file and line (line 1 is the header)
    for row, problem in [
            ("1x,0,ack-received,1.0,2.0,5", "invalid literal for int()"),
            ("2,0,ack-received,1.0,2.0,zz", "invalid literal for int()"),
            ("2,0,ack-received,one,2.0,5", "could not convert string to float"),
            ("2,0,ack,1.0,2.0,5", "unknown event 'ack'"),
            ("2,0,loss-detected,nan,2.0,", "non-finite cwnd"),
            ("2,0,loss-detected,4.0,inf,", "non-finite cwnd"),
            ("2,0,timeout,-inf,1.0,", "non-finite cwnd"),
            # every row carries the sender's cwnd; an empty one is a bad float
            ("2,0,loss-detected,,2.0,", "could not convert string to float: ''"),
            ("2,0,ack-received,4.0,,5", "could not convert string to float: ''"),
            ("2,0,ack-received,1.0,2.0", "expected 6 fields, got 5"),
            ("", "expected 6 fields, got 0"),
            # a bad field after fields whose texts repeat line 2's
            ("2,0,loss-detected,1.0,nan,", "non-finite cwnd ['1.0', 'nan']"),
            ("1,0,ack-received,1.0,2.0,zz",
             "invalid literal for int() with base 10: 'zz'")]:
        bad.write_text(",".join(TRACE_COLUMNS)
                       + "\n1,0,ack-received,1.0,2.0,4\n" + row + "\n")
        with pytest.raises(ValueError) as info:
            read_trace_csv(bad)
        message = str(info.value)
        assert message.startswith(f"{bad}, line 3: ") and problem in message


@pytest.mark.parametrize("row, problem", [
    # a bad cwnd_after text is reported before a non-finite cwnd_before
    ("2,0,loss-detected,nan,abc,", "could not convert string to float: 'abc'"),
    # then the time, the flow and the ack, in column order
    ("2y,x,ack-received,1.0,2.0,5", "invalid literal for int() with base 10: '2y'"),
    ("2,x,ack-received,1.0,2.0,yy",
     "invalid literal for int() with base 10: 'x'"),
    # the event and the cwnds come before the integer columns
    ("2y,0,bogus,1.0,2.0,5", "unknown event 'bogus', expected one of "
     "ack-received, loss-detected, timeout"),
    ("2,0,bogus,abc,nan,", "unknown event 'bogus', expected one of "
     "ack-received, loss-detected, timeout"),
    ("2y,0,ack-received,one,2.0,5", "could not convert string to float: 'one'"),
    ("2y,0,loss-detected,,2.0,", "could not convert string to float: ''"),
    ("2y,0,loss-detected,inf,2.0,", "non-finite cwnd ['inf', '2.0']"),
    ("2,x,loss-detected,4.0,nan,", "non-finite cwnd ['4.0', 'nan']"),
    ("2,0,loss-detected,1.0,nan,zz", "non-finite cwnd ['1.0', 'nan']"),
    ("2,x,bogus,1.0,2.0", "expected 6 fields, got 5"),
    # a row of the old seven-column layout, with its empty seq column
    ("2,x,ack-received,1.0,2.0,,yy", "expected 6 fields, got 7")])
def test_trace_reader_reports_the_first_of_two_faults(tmp_path, row, problem):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(TRACE_COLUMNS)
                   + "\n1,0,ack-received,1.0,2.0,4\n" + row + "\n")
    with pytest.raises(ValueError) as info:
        read_trace_csv(bad)
    assert str(info.value) == f"{bad}, line 3: {problem}"


def reference_trace_csv(records) -> str:
    """The trace CSV as csv.writer writes it: None empty, floats as repr."""
    out = io.StringIO(newline="")
    write_csv(out, TRACE_COLUMNS, map(attrgetter(*TRACE_COLUMNS), records))
    return out.getvalue()


def written_trace_csv(records) -> str:
    out = io.StringIO(newline="")
    write_trace_csv(records, out)
    return out.getvalue()


def test_trace_writer_matches_csv_writer_on_edge_values():
    a, b = float("1.5"), float("1.5")
    assert a is not b
    records = [
        rec(1, "ack-received", 0, 1.0, 1.0, ack=0),
        rec(2, "ack-received", 1, ack=1),
        rec(3, "ack-received", 0, 1.0, 3.0, ack=1),
        rec(3, "ack-received", 0, 1e-05, 1e-05, ack=1),
        rec(4, "loss-detected", 1, 1.5e+16, 1.0e16),
        rec(5, "ack-received", 0, 1e-05, a, ack=2),     # interleaved flows
        rec(5, "ack-received", 0, b, b, ack=2),         # equal, not the same
        rec(6, "timeout", 1, 1.0e16, 1.0e16),
        rec(7, "timeout", 0, a, 1.0),
        rec(10, "loss-detected", 2, 4, 4),              # int cwnds
        rec(0, "timeout", 0, 0.1 + 0.2, 1.0, ack=0)]
    text = written_trace_csv(records)
    assert text == reference_trace_csv(records)
    assert written_trace_csv([]) == reference_trace_csv([])


def test_trace_writer_matches_csv_writer_on_a_traced_run(dumbbell_run):
    # the sender's own records, and the read-back ones
    records, path = dumbbell_run
    text = reference_trace_csv(records)
    assert written_trace_csv(records) == text
    assert written_trace_csv(read_trace_csv(path)) == text
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("event", ["ack", "data-sent", "data-sent,1", 'a"b',
                                   ""])
def test_trace_writer_rejects_an_unknown_event(tmp_path, event):
    records = [rec(1, "ack-received", ack=0), rec(2, event)]
    with pytest.raises(ValueError, match="unknown event"):
        write_trace_csv(records, tmp_path / "trace.csv")


@pytest.mark.parametrize("cwnd", [None, float("nan"), float("inf"),
                                  float("-inf"), "1.0", True])
def test_trace_writer_rejects_a_cwnd_it_could_not_read_back(tmp_path, cwnd):
    # a row that read_trace_csv would refuse is never written
    for before, after in [(cwnd, 2.0), (1.0, cwnd)]:
        records = [rec(1, "ack-received", ack=0),
                   rec(2, "loss-detected", before=before, after=after)]
        with pytest.raises(ValueError, match="^cwnd must be a finite int or "
                                             "float, got "):
            write_trace_csv(records, tmp_path / "trace.csv")


@pytest.mark.parametrize("time_ns, flow, ack", [
    (None, 0, 0), (1.5, 0, 0), (True, 0, 0), (2, 0.0, 0), (2, False, 0),
    (2, 0, 1.5), (2, 0, True), (2, 0, "3")])
def test_trace_writer_rejects_a_time_flow_or_ack_it_could_not_read_back(
        tmp_path, time_ns, flow, ack):
    records = [rec(1, "ack-received", ack=0),
               rec(time_ns, "ack-received", flow=flow, ack=ack)]
    with pytest.raises(ValueError, match="^time and flow must be ints and ack "
                                         "an int or None, got "):
        write_trace_csv(records, tmp_path / "trace.csv")
    # the int-valued record is written, and read back as it was
    records[1] = rec(2, "ack-received", ack=3)
    write_trace_csv(records, tmp_path / "trace.csv")
    assert read_trace_csv(tmp_path / "trace.csv") == records


def test_declarations_reject_non_finite_weight_naming_file_and_line(tmp_path):
    for n in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="declared_n must be a finite"):
            Declaration(flow_id=0, declared_n=n, start_ns=0, end_ns=1)
    bad = tmp_path / "decls.csv"
    for row, problem in [
            ("0,nan,0,1000000000", "declared_n must be a finite number"),
            ("0,inf,0,1000000000", "declared_n must be a finite number"),
            ("0,0.5,0,1000000000", "declared_n must be a finite number"),
            ("0,2.0,1x,1000000000", "invalid literal for int()"),
            ("0,two,0,1000000000", "could not convert string to float"),
            ("0,2.0,5,5", "start < end"),
            ("0,2.0,0", "expected 4 fields, got 3"),
            ("", "expected 4 fields, got 0")]:
        bad.write_text(",".join(DECLARATION_COLUMNS)
                       + "\n1,2.0,0,1000000000\n" + row + "\n")
        with pytest.raises(ValueError) as info:
            read_declarations_csv(bad)
        message = str(info.value)
        assert message.startswith(f"{bad}, line 3: ") and problem in message
