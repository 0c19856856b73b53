"""Byte-level pins of seeded output.

Each digest is the SHA-256 of bytes written by a seeded run: the
`simulate` stdout for the demo scenario, the run and trace CSVs of a
short dumbbell, the run CSV of the paper's 22-flow SACK run, and both
sweeps on a tiny grid, to files and to stdout, the trace CSV of the
paper's run, which is the input `multcp police` checks, a declarations
CSV, its other input, the `police` verdicts on that trace, and the
`simulate` output of a scenario file that sets every key it can hold.
The short dumbbell is pinned for every variant: sack, tahoe, reno and
newreno.  The library commands are pinned too: the `model --oracle`
table, `alloc` on two price vectors, and `fairness-check` verdicts and
both `--allocate` tables on one three-link network.
A change to the simulator, the experiment loop or the CSV writers that
moves any byte fails here.  Where two outputs must be the same bytes
(stdout against -o, sweep stdout against the summary file) they share
one digest.
"""

import hashlib
import io
from pathlib import Path

import pytest
import yaml

from multcp import harness
from multcp.cli import main
from multcp.harness import (DumbbellParams, build_dumbbell, run_scenario,
                            write_run_csv)
from multcp.policing import (Declaration, read_trace_csv,
                             write_declarations_csv, write_trace_csv)

DEMO = Path(__file__).resolve().parent.parent / "demos" / "two_flow.yaml"
ALL_KEYS = Path(__file__).resolve().parent / "all_keys.yaml"

SIMULATE_DEMO = "77b4926f3870acf01f2824cd63ab884a9c54d14c77e62cf899f0be454738c71d"
RUN_CSV = "20627cadc727058d486bb518281c85cf86e1056cdd7a048772b59744e739612e"
TRACE_CSV = "a610957e338a4902fe489b7ed403d93aef85e39faea32eb59f77a8a84e9e46c8"
HEADLINE_RUN_CSV = "196de46f0cc388972f4e202abc59a4f4db33c2593f2c9df1b4a085ddf298c033"
HEADLINE_TRACE_CSV = "5d44b470684ebd556c20986e93c4c71aa27cdd6f1b5b301bd02f1d8e9e9ea622"
GAIN_CSV = "d8042202d06858b1c8f0db3c0180de3fabd7d65a56d41071854921e8c614c08a"
GAIN_SUMMARY = "d88606447a6a1e39be9999128630091445a41dba5925799437c4b07be8507d37"
FAIRNESS_CSV = "512e1fa1d61bec0c81b57a188ae83990435d7bea4e40056b02d523feb5a67ac5"
FAIRNESS_SUMMARY = "e4c6c314d6fa22c1a4276324d6e740e77c25da970103cfd16e4d7821105930ed"
DECLARATIONS_CSV = "58cad71f22debb3f0ad749dca0362e4ab41e448d8005f9f41c986d7ae2f27e2e"
ALL_KEYS_RUN_CSV = "4540e93e34cadefdbd1433003d1e25a60405b3584479ed1d998554d43d236aca"
ALL_KEYS_TRACE_CSV = "8ed1194659a571c150c0bcded624c73d75275548e4a743630b8dfe6c2a244c37"
POLICE_HEADLINE = "73707ac3d48035caf2f2a7f7385c981a8fe5a9c98edcbc6ceea044f46a770062"
# the short dumbbell's run and trace CSVs for the other variants
VARIANT_CSVS = {
    "tahoe": ("9cffb38246326cde57e40e86723ec0802f0e322c538bcf959f90a6e2dc8ce744",
              "fb74efe1fa3883b68c68757d192d207924df5dccaef628e64e5118c9ac86ddf0"),
    "reno": ("c7eaffa36219b75b014eb4b50d3bf11a70791a551c2513984dce6af7b90c502b",
             "b399873c410d4bc2aab654da5e0f0666d9027af910264e07b187e4e356e77f89"),
    "newreno": ("64f98b798169e39247da0bbaa6cf688565c7b206ef1f2b998b767f3ac897b124",
                "d86b70fffc636230f3e963a4890ef764730206acc6fd8230c402a06cb9b9e917"),
}
MODEL_ORACLE = "f91614764c857c70a8b35572a5aeab3d54f28670973ffc6413249e5606512216"
ALLOC = "3f0ce75dea877a1e7e19fe48113a26bd68a499e090e44469156679c6afb55488"
FAIRNESS_RATES = "3762f85fbf08ca22d01a92de4c41644933d8229c4f38642bfac159f7e548c4eb"
FAIRNESS_ALLOCATE = {
    "maxmin": "3259a0d38eea8009b41ef0772642d1236832ac04e914642dd775d25fcc3964e4",
    "wpf": "a3095585927ff03b96c06d2750579e613c872161734641456b4cb04823fae689",
}

GAIN_ARGS = ["sweep", "gain", "--variant", "newreno", "--n-grid", "2",
             "--seeds", "2", "--flows", "2"]
FAIRNESS_ARGS = ["sweep", "fairness", "--variant", "reno", "--n-grid", "2",
                 "--seeds", "2", "--flows", "3"]

# three links, four connections, two of them over two links each
NETWORK = {"capacities": {"a": 10.0, "b": 6.0, "c": 4.0},
           "routes": [["a", "b"], ["a"], ["b", "c"], ["c"]]}
WEIGHTS = "3,1,2,1"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_of(argv, capsysbinary) -> bytes:
    capsysbinary.readouterr()
    assert main(argv) == 0
    return capsysbinary.readouterr().out


def test_simulate_demo_stdout_and_file(tmp_path, capsysbinary):
    assert sha256(stdout_of(["simulate", str(DEMO)], capsysbinary)) \
        == SIMULATE_DEMO
    out = tmp_path / "flows.csv"
    assert main(["simulate", str(DEMO), "-o", str(out)]) == 0
    assert sha256(out.read_bytes()) == SIMULATE_DEMO


def test_short_dumbbell_run_and_trace_csv(tmp_path):
    params = DumbbellParams(duration_s=12.0, warmup_s=2.0)
    result = run_scenario(build_dumbbell(4, params, weights=[3.0, 1.0, 1.0, 1.0],
                                         seed=7, trace=True))
    write_run_csv(result, tmp_path / "run.csv")
    write_trace_csv(result.trace, tmp_path / "trace.csv")
    assert sha256((tmp_path / "run.csv").read_bytes()) == RUN_CSV
    assert sha256((tmp_path / "trace.csv").read_bytes()) == TRACE_CSV


@pytest.mark.parametrize("variant", sorted(VARIANT_CSVS))
def test_short_dumbbell_run_and_trace_csv_per_variant(variant, tmp_path):
    params = DumbbellParams(duration_s=12.0, warmup_s=2.0)
    result = run_scenario(build_dumbbell(4, params, variant=variant,
                                         weights=[3.0, 1.0, 1.0, 1.0],
                                         seed=7, trace=True))
    write_run_csv(result, tmp_path / "run.csv")
    write_trace_csv(result.trace, tmp_path / "trace.csv")
    run_digest, trace_digest = VARIANT_CSVS[variant]
    assert sha256((tmp_path / "run.csv").read_bytes()) == run_digest
    assert sha256((tmp_path / "trace.csv").read_bytes()) == trace_digest


def test_headline_sack_run_csv(tmp_path):
    # 22 flows over 70 s, flow 0 at N=4: long enough for every flow's
    # retransmission timer to be re-armed thousands of times
    result = run_scenario(build_dumbbell(22, variant="sack",
                                         weights=[4.0] + [1.0] * 21, seed=1))
    write_run_csv(result, tmp_path / "run.csv")
    assert sha256((tmp_path / "run.csv").read_bytes()) == HEADLINE_RUN_CSV


@pytest.fixture(scope="module")
def headline_trace(tmp_path_factory):
    """The paper's run with tracing on, and its trace CSV: one 70 s run
    shared by every test that reads the headline trace."""
    result = run_scenario(build_dumbbell(22, variant="sack",
                                         weights=[4.0] + [1.0] * 21, seed=1,
                                         trace=True))
    path = tmp_path_factory.mktemp("headline") / "trace.csv"
    write_trace_csv(result.trace, path)
    return result, path


def test_headline_sack_trace_csv_and_read_back(headline_trace):
    # 52,286 records; the reader must give back exactly what was traced
    result, path = headline_trace
    assert sha256(path.read_bytes()) == HEADLINE_TRACE_CSV
    assert read_trace_csv(path) == list(result.trace)


def test_police_headline_trace_stdout(headline_trace, tmp_path, capsysbinary):
    # every flow declared at its true weight over the whole run, then
    # flow 0 declared at half its weight, which must read as a violation;
    # two calls, since one flow's declarations may not overlap in a bill
    _, trace = headline_trace
    span = (0, 70_000_000_000)
    honest = [Declaration(i, 4 if i == 0 else 1, *span) for i in range(22)]
    out = b""
    for name, decls in (("honest", honest),
                        ("cheat", [Declaration(0, 2, *span)])):
        path = tmp_path / f"{name}.csv"
        write_declarations_csv(decls, path)
        out += stdout_of(["police", "--trace", str(trace),
                          "--declarations", str(path)], capsysbinary)
    assert out.splitlines()[-2].endswith(b": violation observed_n=4.000 "
                                         b"(method=decrease)")
    assert sha256(out) == POLICE_HEADLINE


def test_sweep_gain_files_and_stdout(tmp_path, capsysbinary):
    assert main(GAIN_ARGS + ["-o", str(tmp_path)]) == 0
    assert sha256((tmp_path / "gain.csv").read_bytes()) == GAIN_CSV
    assert sha256((tmp_path / "gain_summary.csv").read_bytes()) == GAIN_SUMMARY
    assert sha256(stdout_of(GAIN_ARGS, capsysbinary)) == GAIN_SUMMARY


def test_sweep_fairness_files_and_stdout(tmp_path, capsysbinary):
    assert main(FAIRNESS_ARGS + ["-o", str(tmp_path)]) == 0
    assert sha256((tmp_path / "fairness.csv").read_bytes()) == FAIRNESS_CSV
    assert sha256((tmp_path / "fairness_summary.csv").read_bytes()) \
        == FAIRNESS_SUMMARY
    assert sha256(stdout_of(FAIRNESS_ARGS, capsysbinary)) == FAIRNESS_SUMMARY


def test_declarations_csv_file_and_stream(tmp_path):
    # an integer and a fractional weight: both are written as float reprs
    decls = [Declaration(0, 4, 0, 30_000_000_000),
             Declaration(1, 1.5, 5_000_000_000, 70_000_000_000)]
    path = tmp_path / "decls.csv"
    write_declarations_csv(decls, path)
    assert sha256(path.read_bytes()) == DECLARATIONS_CSV
    stream = io.StringIO(newline="")
    write_declarations_csv(decls, stream)
    assert sha256(stream.getvalue().encode()) == DECLARATIONS_CSV


def test_simulate_all_keys_stdout_and_trace(tmp_path, capsysbinary):
    # every key of every level set, tahoe to sack, numbers in both the
    # float and the integer spelling and bandwidths as the string 5.0e6
    trace = tmp_path / "trace.csv"
    out = stdout_of(["simulate", str(ALL_KEYS), "--trace-out", str(trace)],
                    capsysbinary)
    assert sha256(out) == ALL_KEYS_RUN_CSV
    assert sha256(trace.read_bytes()) == ALL_KEYS_TRACE_CSV


def test_simulate_records_a_trace_only_for_trace_out(tmp_path, capsysbinary,
                                                      monkeypatch):
    # without --trace-out, no trace is recorded
    traced = []
    run = harness.run_scenario

    def spy(scenario):
        traced.append(scenario.trace)
        return run(scenario)

    monkeypatch.setattr(harness, "run_scenario", spy)
    assert sha256(stdout_of(["simulate", str(ALL_KEYS)], capsysbinary)) \
        == ALL_KEYS_RUN_CSV
    assert traced == [False]
    stdout_of(["simulate", str(ALL_KEYS), "--trace-out",
               str(tmp_path / "trace.csv")], capsysbinary)
    assert traced == [False, True]


def test_model_oracle_stdout(capsysbinary):
    argv = ["model", "--n-grid", "1,4", "--p-grid", "1e-4,1e-3", "--oracle"]
    assert sha256(stdout_of(argv, capsysbinary)) == MODEL_ORACLE


def test_alloc_stdout(capsysbinary):
    # a budget the prices split exactly, then one that leaves segments over
    out = stdout_of(["alloc", "--prices", "3,1", "--budget", "8000"],
                    capsysbinary)
    out += stdout_of(["alloc", "--prices", "5,2.5,1,0.3", "--budget",
                      "123457", "--segment", "1460"], capsysbinary)
    assert sha256(out) == ALLOC


@pytest.fixture
def network(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text(yaml.safe_dump(NETWORK))
    return str(path)


def test_fairness_check_rates_stdout(network, capsysbinary):
    # unequal weights: the weighted-PF optimum rounded to three decimals
    # (not PF: y = (2, 8, 4, 0) gains 8.79e-4 over it), the max-min point,
    # and the optimum as `--allocate wpf` prints it, which passes
    out = b""
    for rates in ("4.086,5.914,1.914,2.086", "4,6,2,2",
                  "4.085571536882382,5.914428463117619,"
                  "1.9144284631176194,2.0855715368823806"):
        out += stdout_of(["fairness-check", network, "--rates", rates,
                          "--weights", WEIGHTS], capsysbinary)
    assert sha256(out) == FAIRNESS_RATES


@pytest.mark.parametrize("allocate", sorted(FAIRNESS_ALLOCATE))
def test_fairness_check_allocate_stdout(network, capsysbinary, allocate):
    argv = ["fairness-check", network, "--allocate", allocate,
            "--weights", WEIGHTS]
    assert sha256(stdout_of(argv, capsysbinary)) == FAIRNESS_ALLOCATE[allocate]
