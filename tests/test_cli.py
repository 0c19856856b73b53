"""End-to-end checks of the command-line front end."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from multcp import model
from multcp.cli import main
from multcp.policing import (Declaration, TraceRecord, write_declarations_csv,
                             write_trace_csv)

SCENARIO = {
    "links": [
        {"name": "bn", "bandwidth": 5e6, "delay": 0.01, "queue": "red",
         "red": {"thresh": 4, "maxthresh": 12, "limit": 16}},
        {"name": "acc", "bandwidth": 50e6, "delay": 0.002},
    ],
    "flows": [
        {"variant": "sack", "route": ["acc", "bn"], "n": 2.0},
        {"variant": "sack", "route": ["acc", "bn"]},
    ],
    "duration": 5.0,
    "warmup": 1.0,
    "seed": 3,
}


def write_scenario(tmp_path, data=SCENARIO):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_to_file_and_trace(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "flows.csv"
    trace = tmp_path / "trace.csv"
    rc = main(["simulate", str(scenario), "-o", str(out),
               "--trace-out", str(trace)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0][:5] == ["seed", "flow_id", "variant", "n_weight",
                           "throughput_Bps"]
    assert len(rows) == 3 and rows[1][2] == "sack"
    trace_rows = read_rows(trace)
    assert trace_rows[0] == ["time_ns", "flow_id", "event", "cwnd_before",
                             "cwnd_after", "ack"]
    assert len(trace_rows) > 10


def test_simulate_defaults_to_stdout(tmp_path, capsys):
    rc = main(["simulate", str(write_scenario(tmp_path))])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("seed,flow_id,variant")
    assert len(out) == 3


def test_simulate_stdout_matches_output_file(tmp_path, capsysbinary):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "flows.csv"
    assert main(["simulate", str(scenario), "-o", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(["simulate", str(scenario)]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize("where, key, value, message", [
    ("links", "bandwidth", 0, "bandwidth"),
    ("links", "bandwidth", -1e6, "bandwidth"),
    ("links", "delay", -0.01, "delay"),
    ("links", "limit", 0, "limit"),
    ("flows", "ssthresh", 1, "ssthresh"),
    ("flows", "stop", 0.0, "stop"),
    ("top", "duration", float("inf"), "duration"),
    ("top", "payload", 0, "payload"),
    ("top", "warmup", -1.0, "warmup"),
    ("flows", "n", float("inf"), "n must be"),
    ("flows", "n", float("nan"), "n must be"),
    ("flows", "n", 1.0e200, "error: flows[0]: n is too large: its slow-start "
     "crossover overflows a float, got 1e+200"),
    ("flows", "start", -1.0, "start must be"),
    ("flows", "jitter", -0.5, "jitter must be"),
    ("flows", "bulk_bytes", 0, "bulk_bytes must be"),
    ("flows", "bulk_bytes", -5000, "bulk_bytes must be"),
    ("flows", "advertised_bytes", 0, "advertised_bytes must be"),
    ("flows", "advertised_bytes", 500, "advertised_bytes must be"),
    ("flows", "stop", float("inf"), "stop"),
    # finite, but past what a nanosecond count in a float can hold
    ("flows", "start", 1.0e300, "start does not fit the nanosecond clock"),
    ("links", "delay", 1.0e300,
     "link 'bn': delay does not fit the nanosecond clock"),
    ("flows", "jitter", 1.0e300,
     "start + jitter does not fit the nanosecond clock"),
    ("flows", "stop", 1.0e300, "stop does not fit the nanosecond clock"),
    ("top", "duration", 1.0e300, "duration does not fit the nanosecond clock"),
    # a positive bandwidth or payload whose serialisation time overflows a float
    ("links", "bandwidth", 1.0e-300,
     "link 'bn': one payload's time on the wire does not fit the nanosecond clock"),
    pytest.param("top", "payload", 10**400,
                 "link 'bn': one payload's time on the wire does not fit the "
                 "nanosecond clock", id="top-payload-10**400-nanosecond clock"),
    # a bandwidth so high that one payload's time on the wire rounds to 0 ns,
    # on the RED link and on the FIFO one
    ("links", "bandwidth", 1.0e300,
     "link 'bn': one payload's time on the wire rounds to 0 ns"),
    ("acc", "bandwidth", 1.0e300,
     "link 'acc': one payload's time on the wire rounds to 0 ns"),
    # checked by the loader, so the error names the entry at fault
    ("links", "queue", "blue",
     "error: links[0]: link 'bn': queue must be fifo or red, got 'blue'"),
    pytest.param("flows", "route", ["acc", "nowhere"],
                 "error: flow 0: route names unknown link 'nowhere'",
                 id="flows-route-nowhere-unknown link"),
    # a file cannot ask for a trace; only --trace-out records one
    ("top", "trace", True, "error: scenario: unknown keys ['trace']"),
    ("flows", "variant", "bbr", "error: flows[0]: variant must be one of "
     "tahoe, reno, newreno, sack, got 'bbr'"),
])
def test_simulate_rejects_invalid_values(tmp_path, capsys, where, key, value,
                                         message):
    data = yaml.safe_load(yaml.safe_dump(SCENARIO))     # deep copy
    if where == "top":
        target = data
    elif where == "acc":        # the FIFO access link; "links" is the RED "bn"
        target = data["links"][1]
    else:
        target = data[where][0]
    target[key] = value
    rc = main(["simulate", str(write_scenario(tmp_path, data))])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


@pytest.mark.parametrize("rename", [False, True])
def test_simulate_rejects_duplicate_link_names(tmp_path, capsys, rename):
    # a second "bn" used to replace the first silently, and renaming "acc"
    # to "bn" was reported as a route over the unknown link "acc"
    data = yaml.safe_load(yaml.safe_dump(SCENARIO))     # deep copy
    if rename:
        data["links"][1]["name"] = "bn"
    else:
        data["links"].append(dict(data["links"][0]))
    rc = main(["simulate", str(write_scenario(tmp_path, data))])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == ["error: duplicate link name 'bn'"]


# each value used to be coerced and run: 1.9 as seed 1, true as weight 1.0,
# 5 as the link name '5'
@pytest.mark.parametrize("path, value, message", [
    (("seed",), 1.9, "seed: expected an integer, got 1.9"),
    (("seed",), True, "seed: expected an integer, got True"),
    (("links", 1, "limit"), 16.7, "links[1].limit: expected an integer, got 16.7"),
    (("links", 0, "red", "limit"), 16.5,
     "links[0].red.limit: expected an integer, got 16.5"),
    (("flows", 0, "ssthresh"), 64.9,
     "flows[0].ssthresh: expected an integer, got 64.9"),
    (("payload",), 1000.5, "payload: expected an integer, got 1000.5"),
    (("flows", 0, "n"), True, "flows[0].n: expected a number, got True"),
    (("links", 0, "bandwidth"), True,
     "links[0].bandwidth: expected a number, got True"),
    (("links", 0, "name"), 5, "links[0].name: expected a string, got 5"),
    (("flows", 0, "route", 1), 5, "flows[0].route[1]: expected a string, got 5"),
    (("flows", 0, "variant"), ["sack"],
     "flows[0].variant: expected a string, got ['sack']"),
    (("links",), 5, "links must be a non-empty list"),
    (("links", 0), 5, "links[0] must be a mapping"),
    pytest.param(("links", 0, "bandwidth"), 10 ** 400,
                 f"links[0].bandwidth: expected a number, got {10 ** 400}",
                 id="bandwidth-too-large-for-a-float"),
])
def test_simulate_rejects_wrong_types(tmp_path, capsys, path, value, message):
    data = yaml.safe_load(yaml.safe_dump(SCENARIO))     # deep copy
    entry = data
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    rc = main(["simulate", str(write_scenario(tmp_path, data))])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_simulate_bad_trace_path_fails_before_any_output(tmp_path, capsys):
    trace = tmp_path / "missing" / "trace.csv"
    rc = main(["simulate", str(write_scenario(tmp_path)), "--trace-out",
               str(trace)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write trace to {trace}:")


@pytest.mark.parametrize("command", [["simulate"],
                                     ["fairness-check", "--allocate", "maxmin"]])
def test_invalid_yaml_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "bad.yaml"
    path.write_text("links:\n  - name: a: b\n")
    rc = main(command[:1] + [str(path)] + command[1:])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path} is not valid YAML: mapping values are not allowed "
        "here (line 2, column 12)"]


def test_simulate_missing_scenario_fails(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_model_table_matches_library(tmp_path):
    out = tmp_path / "model.csv"
    rc = main(["model", "--n-grid", "1,4", "--p-grid", "1e-3",
               "--packet", "1000", "--rtt", "0.1", "-o", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["n", "p", "throughput_Bps", "gain_ratio"]
    assert len(rows) == 3
    got = float(rows[2][2])
    assert got == pytest.approx(model.multcp_throughput(4, 1e-3, 1000, 0.1))
    assert float(rows[2][3]) == pytest.approx(model.gain_ratio(4))


def test_model_oracle_columns(tmp_path):
    out = tmp_path / "model.csv"
    rc = main(["model", "--n-grid", "2", "--p-grid", "1e-3", "--oracle",
               "--cycles", "2000", "-o", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0][-2:] == ["oracle_Bps", "rel_err"]
    assert float(rows[1][-1]) < 0.1


def test_model_rejects_bad_grid(capsys):
    assert main(["model", "--n-grid", "1,zap"]) == 1
    assert "--n-grid" in capsys.readouterr().err


def write_network(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text(yaml.safe_dump(
        {"capacities": {"l1": 10.0}, "routes": [["l1"], ["l1"]]}))
    return path


def test_fairness_check_allocate_maxmin(tmp_path, capsys):
    rc = main(["fairness-check", str(write_network(tmp_path)),
               "--allocate", "maxmin"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "connection,rate"
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert rates == pytest.approx([5.0, 5.0])


def test_fairness_check_allocate_wpf_weighted(tmp_path, capsys):
    rc = main(["fairness-check", str(write_network(tmp_path)),
               "--allocate", "wpf", "--weights", "3,1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert rates == pytest.approx([7.5, 2.5])


def test_fairness_check_verdicts(tmp_path, capsys):
    net = write_network(tmp_path)
    assert main(["fairness-check", str(net), "--rates", "5,5"]) == 0
    out = capsys.readouterr().out
    assert "maxmin: PASS" in out and "weighted-pf: PASS" in out
    assert "gain bound" in out and "from link prices" in out
    assert main(["fairness-check", str(net), "--rates", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "maxmin: FAIL" in out and "weighted-pf: FAIL" in out
    assert main(["fairness-check", str(net), "--rates", "0,10"]) == 0
    out = capsys.readouterr().out
    assert "weighted-pf: FAIL (gain bound inf" in out
    assert "  a weighted connection has zero rate" in out


def test_fairness_check_rate_count_mismatch(tmp_path, capsys):
    rc = main(["fairness-check", str(write_network(tmp_path)),
               "--rates", "1,2,3"])
    assert rc == 1
    assert "expected 2 entries" in capsys.readouterr().err


@pytest.mark.parametrize("text, args, message", [
    ("capacities: [1, 2]\nroutes: [[a]]\n", ["--allocate", "maxmin"],
     "need 'capacities' mapping"),
    ("capacities: {a: 1}\nroutes: 5\n", ["--allocate", "maxmin"],
     "'routes' list of lists"),
    ("capacities: {a: 1}\nroutes: [a]\n", ["--allocate", "maxmin"],
     "'routes' list of lists"),
    ("capacities: {a: [1]}\nroutes: [[a]]\n", ["--allocate", "maxmin"],
     "capacities:"),
    ("capacities: {a: .nan}\nroutes: [[a]]\n", ["--allocate", "wpf"],
     "positive finite capacity"),
    ("capacities: {a: .inf}\nroutes: [[a]]\n", ["--allocate", "wpf"],
     "positive finite capacity"),
    ("capacities: {a: .nan}\nroutes: [[a]]\n", ["--allocate", "maxmin"],
     "positive finite capacity"),
    ("capacities: {a: .inf}\nroutes: [[a]]\n", ["--rates", "1"],
     "positive finite capacity"),
    ("capacities: {a: 1}\nroutes: []\n", ["--allocate", "maxmin"],
     "at least one connection"),
    ("capacities: {a: 1}\nroutes: []\n", ["--allocate", "wpf"],
     "at least one connection"),
    ("capacities: {a: 1}\nroutes: [[x]]\n", ["--allocate", "maxmin"],
     "unknown link 'x'"),
    # no silent coercions: true is no capacity, 5 no link name
    ("capacities: {a: true, b: 2.0}\nroutes: [[a], [b]]\n",
     ["--allocate", "maxmin"], "capacities: a: expected a number, got True"),
    ("capacities: {a: 1.0, 5: 2.0}\nroutes: [[a], [a]]\n",
     ["--allocate", "maxmin"],
     "capacities: link name: expected a string, got 5"),
    ("capacities: {a: 1.0, b: 2.0}\nroutes: [[a], [b, 5]]\n",
     ["--allocate", "wpf"], "routes[1][1]: expected a string, got 5"),
    ("capacities: {a: 1.0}\nroutes: [[a], [null]]\n", ["--rates", "1,1"],
     "routes[1][0]: expected a string, got None"),
])
def test_fairness_check_rejects_bad_network(tmp_path, capsys, text, args,
                                            message):
    net = tmp_path / "net.yaml"
    net.write_text(text)
    rc = main(["fairness-check", str(net)] + args)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {net}")
    assert message in err[0]


@pytest.mark.parametrize("args, option", [
    (["fairness-check", "NET", "--rates", "0.5,0.5", "--weights", "1,nan"],
     "--weights"),
    (["fairness-check", "NET", "--rates", "nan,0.5"], "--rates"),
    (["model", "--n-grid", "nan"], "--n-grid"),
    (["model", "--rtt", "nan"], "rtt_s"),
    (["alloc", "--prices", "1,nan", "--budget", "1000"], "--prices"),
    (["model", "--rtt", "inf"], "rtt_s"),
    (["model", "--packet", "inf"], "packet_bytes"),
    (["model", "--rtt", "nan", "--oracle"], "rtt_s"),
    # finite inputs whose results are not: an n whose slow-start crossover
    # overflows, a closed form that overflows (or divides by an underflow),
    # and buffer shares past the float range
    (["sweep", "gain", "--variant", "sack", "--seeds", "1", "--flows", "2",
      "--n-grid", "1e308"], "n is too large"),
    (["model", "--n-grid", "1e200", "--p-grid", "0.001"],
     "throughput is not a finite float at n_weight=1e+200"),
    (["model", "--rtt", "1e-320"], "rtt_s=1e-320"),
    (["model", "--rtt", "1e-320", "--p-grid", "1e-10"], "rtt_s=1e-320"),
    (["model", "--n-grid", "1e200", "--p-grid", "0.001", "--oracle"],
     "n_weight=1e+200"),
    (["alloc", "--prices", "1,2", "--budget", str(10**309)],
     "budget times the highest price 2.0"),
    (["alloc", "--prices", "1e308,1e308", "--budget", "1000"],
     "prices must sum to a finite float, got inf"),
])
def test_non_finite_numbers_are_one_error_line(tmp_path, capsys, args, option):
    net = str(write_network(tmp_path))
    rc = main([net if arg == "NET" else arg for arg in args])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and option in err[0]


@pytest.mark.parametrize("args, message", [
    (["sweep", "gain", "--variant", "sack", "--n-grid", ","],
     "--n-grid: empty list"),
    (["fairness-check", "NET", "--rates", "1,1", "--weights", "1,1,1"],
     "--weights: expected 2 entries"),
    (["fairness-check", "NET"], "give --rates to check, or --allocate"),
    (["police", "--trace", "TRACE", "--declarations", "DECLS"],
     "no declarations to verify"),
    (["simulate", "LIST"], "LIST: top level must be a mapping"),
    # the oracle's burn-in must outlast the cold start; this one read 0.59
    # of the formula and printed rel_err 0.413 with exit 0
    (["model", "--oracle", "--n-grid", "10000", "--p-grid", "0.001"],
     "a burn-in of 1000 cycles (cycles // 10) is under 10 N = 100000 at "
     "n_weight=10000.0"),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, args, message):
    files = {"NET": write_network(tmp_path), "TRACE": tmp_path / "trace.csv",
             "DECLS": tmp_path / "decls.csv", "LIST": tmp_path / "list.yaml"}
    write_trace_csv(compliant_trace(2.0), files["TRACE"])
    files["DECLS"].write_text("flow_id,declared_n,start_ns,end_ns\n")
    files["LIST"].write_text("- links\n- flows\n")
    rc = main([str(files.get(arg, arg)) for arg in args])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: " + message.replace("LIST", str(files["LIST"]))]


def test_alloc_exact_proportions(tmp_path):
    out = tmp_path / "alloc.csv"
    rc = main(["alloc", "--prices", "3,1", "--budget", "8000",
               "--segment", "1000", "-o", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["connection", "price", "buffer_bytes"]
    assert [int(r[2]) for r in rows[1:]] == [6000, 2000]


def compliant_trace(n: float, losses: int = 6) -> list[TraceRecord]:
    ratio = (n - 0.5) / n
    records = []
    w = 40.0
    for k in range(losses):
        records.append(TraceRecord(time_ns=k * 10**8, flow_id=0,
                                   event="loss-detected", cwnd_before=w,
                                   cwnd_after=w * ratio, ack=None))
        w = w * ratio + 5.0
    return records


def test_police_compliant_and_bill(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    write_trace_csv(compliant_trace(2.0), trace)
    write_declarations_csv([Declaration(0, 2.0, 0, 10**9)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flow 0 declared_n=2" in out and "compliant" in out
    assert "bill over [0,1000000000) ns: 2.000000 weight-seconds" in out


def test_police_flags_violation(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    write_trace_csv(compliant_trace(4.0), trace)
    write_declarations_csv([Declaration(0, 2.0, 0, 10**9)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls),
               "--period", "0:2000000000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "violation" in out and "observed_n=4.0" in out
    assert "bill over [0,2000000000)" in out


def test_police_rejects_a_trace_without_cwnd(tmp_path, capsys):
    # acks with empty cwnd fields: every row must carry the sender's cwnd
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    trace.write_text("time_ns,flow_id,event,cwnd_before,cwnd_after,ack\n"
                     "1,0,ack-received,1.0,3.0,1\n4,0,ack-received,,,1\n")
    write_declarations_csv([Declaration(0, 2.0, 0, 10**9)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {trace}, line 3: could not convert string to float: ''"]


def test_police_rejects_a_trace_with_a_seq_column(tmp_path, capsys):
    # the seven-column format, with its always-empty seq, is no longer read
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    trace.write_text("time_ns,flow_id,event,cwnd_before,cwnd_after,seq,ack\n"
                     "1,0,loss-detected,40.0,30.0,,\n")
    write_declarations_csv([Declaration(0, 2.0, 0, 10**9)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {trace}: expected trace header ('time_ns', 'flow_id', "
        "'event', 'cwnd_before', 'cwnd_after', 'ack')"]


def test_police_overlapping_declarations_print_no_verdicts(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    write_trace_csv(compliant_trace(2.0), trace)
    write_declarations_csv([Declaration(0, 2.0, 0, 10**9),
                            Declaration(0, 2.0, 5 * 10**8, 2 * 10**9)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["error: overlapping declarations for flow 0"]


@pytest.mark.parametrize("window, printed", [
    ((5, 9), "8e-09"),                  # N=2 over 4 ns
    ((0, 249), "4.98e-07"),
    ((0, 250), "5e-07"),                # the float 5e-7 lies just below 5e-7
    ((0, 251), "0.000001"),
    ((0, 10**9), "2.000000"),
])
def test_police_bill_keeps_a_tiny_charge(tmp_path, capsys, window, printed):
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    write_trace_csv(compliant_trace(2.0), trace)
    write_declarations_csv([Declaration(0, 2.0, *window)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (f"bill over [{window[0]},{window[1]}) ns: "
                         f"{printed} weight-seconds")

def test_police_bad_period(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    write_trace_csv(compliant_trace(2.0), trace)
    write_declarations_csv([Declaration(0, 2.0, 0, 10**9)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls),
               "--period", "oops"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--period" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_police_rejects_bad_tolerance(tmp_path, capsys, tolerance):
    # with a NaN tolerance every declaration used to be compliant
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    write_trace_csv(compliant_trace(4.0), trace)
    write_declarations_csv([Declaration(0, 1.0, 0, 10**9)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls),
               f"--tolerance={tolerance}"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "tolerance" in err[0]


@pytest.mark.parametrize("row, problem", [
    ("1x,0,ack-received,1.0,2.0,5", "invalid literal for int()"),
    ("1,0,ack,1.0,2.0,5", "unknown event 'ack', expected one of "
     "ack-received, loss-detected, timeout"),
    ("1,0,data-sent,1.0,1.0,5", "unknown event 'data-sent', expected one of "
     "ack-received, loss-detected, timeout"),
    ("1,0,loss-detected,nan,2.0,", "non-finite cwnd"),
])
def test_police_rejects_bad_trace_row(tmp_path, capsys, row, problem):
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    trace.write_text("time_ns,flow_id,event,cwnd_before,cwnd_after,ack\n"
                     + row + "\n")
    write_declarations_csv([Declaration(0, 2.0, 0, 10**9)], decls)
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {trace}, line 2: ")
    assert problem in err[0]


@pytest.mark.parametrize("row", ["0,nan,0,1000000000", "0,2.0,1x,1000000000"])
def test_police_rejects_bad_declaration_row(tmp_path, capsys, row):
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    write_trace_csv(compliant_trace(2.0), trace)
    decls.write_text("flow_id,declared_n,start_ns,end_ns\n" + row + "\n")
    rc = main(["police", "--trace", str(trace), "--declarations", str(decls)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {decls}, line 2: ")


def test_sweep_gain_writes_both_csvs(tmp_path):
    out = tmp_path / "gain"
    rc = main(["sweep", "gain", "--variant", "sack", "--n-grid", "2",
               "--seeds", "1", "--flows", "2", "-o", str(out)])
    assert rc == 0
    samples = read_rows(out / "gain.csv")
    summary = read_rows(out / "gain_summary.csv")
    assert samples[0] == ["variant", "n", "seed", "gain"]
    assert summary[0] == ["variant", "n", "mean_gain", "std_gain", "seeds"]
    assert len(samples) == 2 and len(summary) == 2
    assert float(samples[1][3]) > 1.0     # weight 2 beats weight 1


def test_sweep_gain_stdout_is_the_summary_file(tmp_path, capsysbinary):
    argv = ["sweep", "gain", "--variant", "reno", "--n-grid", "2",
            "--seeds", "1", "--flows", "2"]
    assert main(argv + ["-o", str(tmp_path)]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == \
        (tmp_path / "gain_summary.csv").read_bytes()


def test_sweep_fairness_summary_to_stdout(capsys):
    rc = main(["sweep", "fairness", "--n-grid", "1", "--seeds", "1",
               "--flows", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mean_std_over_mean,std,seeds"
    assert len(lines) == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    # well over a pipe's buffer, so that the writer meets the closed end
    ["model", "--n-grid", ",".join(map(str, range(1, 300))),
     "--p-grid", ",".join(f"{i}e-5" for i in range(1, 100))],
    ["simulate", str(ROOT / "demos" / "two_flow.yaml"), "--trace-out",
     "/dev/stdout"],
])
def test_closed_stdout_exits_one_without_a_message(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "multcp.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.readline()
    proc.stdout.close()     # as `| head -1` does
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and err == b""
