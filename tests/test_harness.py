"""Scenario construction, experiment plumbing, YAML and CSV formats."""

import dataclasses
import io

import pytest
import yaml

from multcp.aqm import RedParams
from multcp.engine import Scenario
from multcp.harness import (BOTTLENECK, DumbbellParams, FairnessSample,
                            GainSample, ScenarioError, build_dumbbell,
                            dispersion, load_scenario, run_gain_experiment,
                            run_scenario, scenario_from_dict,
                            summarize_fairness, summarize_gain,
                            write_fairness_csv, write_fairness_summary_csv,
                            write_gain_csv, write_gain_summary_csv,
                            write_run_csv)

QUICK = DumbbellParams(duration_s=12.0, warmup_s=2.0)


# -- topology --------------------------------------------------------------

def test_dumbbell_shape():
    scn = build_dumbbell(22)
    assert len(scn.links) == 23
    assert scn.links[0].name == BOTTLENECK
    assert scn.links[0].queue == "red"
    assert len(scn.flows) == 22
    assert all(f.route == (f"access{i}", BOTTLENECK)
               for i, f in enumerate(scn.flows))


def test_dumbbell_measured_pair_shares_mid_delay():
    scn = build_dumbbell(22)
    delays = [scn.links[i + 1].delay_s for i in range(22)]
    assert delays[0] == delays[1] == pytest.approx(0.021)
    # background flows sweep the full range, each with its own value
    assert delays[2] == pytest.approx(0.002)
    assert delays[-1] == pytest.approx(0.040)
    assert len(set(delays[2:])) == 20


def test_dumbbell_scalar_and_list_parameters():
    scn = build_dumbbell(3, variant="reno", weights=[2.0, 1.0, 1.0],
                         variants=["sack", "reno", "tahoe"])
    assert [f.n_weight for f in scn.flows] == [2.0, 1.0, 1.0]
    assert [f.variant for f in scn.flows] == ["sack", "reno", "tahoe"]
    with pytest.raises(ScenarioError):
        build_dumbbell(3, weights=[1.0, 2.0])
    with pytest.raises(ScenarioError):
        build_dumbbell(1)


def test_dumbbell_same_params_identical():
    assert build_dumbbell(5, seed=3) == build_dumbbell(5, seed=3)


# -- running ---------------------------------------------------------------

def test_run_scenario_measures_after_warmup():
    result = run_scenario(build_dumbbell(4, QUICK, seed=1))
    assert result.duration_s == 12.0 and result.warmup_s == 2.0
    assert all(f.throughput_Bps > 0 for f in result.flows)
    assert all(f.delivered_bytes == round(f.throughput_Bps * 10.0)
               for f in result.flows)
    assert result.trace is None


def test_run_scenario_rejects_warmup_past_duration():
    scn = dataclasses.replace(build_dumbbell(4, QUICK), warmup_s=20.0)
    with pytest.raises(ScenarioError):
        run_scenario(scn)


def test_saturating_run_uses_the_bottleneck_well():
    result = run_scenario(build_dumbbell(22, seed=2))
    util = result.link_utilization[BOTTLENECK]
    assert 0.8 <= util <= 1.0


def test_gain_experiment_shapes_and_summary():
    samples = run_gain_experiment("sack", [1.5], [0, 1], n_flows=4,
                                  params=QUICK)
    assert [s.seed for s in samples] == [0, 1]
    assert all(s.variant == "sack" and s.n_weight == 1.5 for s in samples)
    assert all(s.gain == s.heavy_Bps / s.reference_Bps for s in samples)
    summary, = summarize_gain(samples)
    assert summary.seeds == 2
    with pytest.raises(ScenarioError):
        run_gain_experiment("cubic", [1], [0])
    with pytest.raises(ScenarioError):
        run_gain_experiment("sack", [], [0])


def test_dispersion_of_uniform_product_is_zero():
    rows = [dataclasses.replace(f, throughput_Bps=100.0 / f.base_rtt_s)
            for f in run_scenario(build_dumbbell(4, QUICK, seed=0)).flows]
    assert dispersion(rows) == pytest.approx(0.0, abs=1e-12)
    assert dispersion(rows[:1]) == 0.0


# -- YAML scenarios --------------------------------------------------------

GOOD_YAML = {
    "links": [
        {"name": "bn", "bandwidth": 5e6, "delay": 0.01, "queue": "red",
         "red": {"thresh": 4, "maxthresh": 12, "limit": 16}},
        {"name": "acc", "bandwidth": 50e6, "delay": 0.002},
    ],
    "flows": [
        {"variant": "sack", "route": ["acc", "bn"], "n": 2.0, "jitter": 0.1},
        {"variant": "reno", "route": ["acc", "bn"]},
    ],
    "duration": 5.0,
    "warmup": 1.0,
    "seed": 9,
}


def test_scenario_from_dict_full_round():
    scn = scenario_from_dict(GOOD_YAML)
    assert isinstance(scn, Scenario)
    assert scn.links[0].red == RedParams(thresh=4, maxthresh=12, limit=16)
    assert scn.flows[0].n_weight == 2.0
    assert scn.seed == 9
    result = run_scenario(scn)
    assert sum(f.delivered_bytes for f in result.flows) > 0


def test_load_scenario_reads_yaml_file(tmp_path):
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(GOOD_YAML))
    assert load_scenario(path) == scenario_from_dict(GOOD_YAML)
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("links: [")
    with pytest.raises(ScenarioError):
        load_scenario(bad)


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("duration"),
    lambda d: d.update(duration=0.5, warmup=2.0),
    lambda d: d.update(unknown_key=1),
    lambda d: d["links"][0].update(typo=3),
    lambda d: d["flows"][0].update(variant="bbr"),
    lambda d: d["flows"][0].pop("route"),
    lambda d: d["links"][0]["red"].update(thresh=99),
])
def test_scenario_from_dict_validation(mangle):
    data = yaml.safe_load(yaml.safe_dump(GOOD_YAML))    # deep copy
    mangle(data)
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_null_keys_take_the_spec_defaults():
    # null reads as absent at every level; a flow's variant defaults to sack
    data = yaml.safe_load(yaml.safe_dump(GOOD_YAML))    # deep copy
    del data["flows"][0]["variant"]
    bare = scenario_from_dict(data)
    assert bare.flows[0].variant == "sack"
    data.update(warmup=None, seed=None, payload=None, red=None, trace=None)
    data["links"][1].update(queue=None, limit=None, red=None)
    data["links"][0]["red"].update(ewma_weight=None)
    data["flows"][0].update(variant=None, stop=None, ssthresh=None)
    assert scenario_from_dict(dict(data, warmup=1.0, seed=9)) == bare
    assert scenario_from_dict(data) == dataclasses.replace(bare, warmup_s=0.0,
                                                           seed=0)


# -- CSV -------------------------------------------------------------------

def test_run_csv_is_deterministic(tmp_path):
    result = run_scenario(build_dumbbell(4, QUICK, seed=5))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_run_csv(result, a)
    write_run_csv(result, b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("seed,flow_id,variant,n_weight,throughput_Bps")


def test_writers_accept_a_path_or_a_stream(tmp_path):
    gain = [GainSample("sack", 2.0, 1, 1.9, 210.0, 110.0),
            GainSample("sack", 2.0, 0, 2.1, 230.0, 110.0)]
    fair = [FairnessSample(2.0, 0, 0.07), FairnessSample(1.0, 0, 0.05)]
    assert [s.n_weight for s in summarize_fairness(fair)] == [1.0, 2.0]
    for write, rows in ((write_gain_csv, gain),
                        (write_gain_summary_csv, summarize_gain(gain)),
                        (write_fairness_csv, fair),
                        (write_fairness_summary_csv, summarize_fairness(fair))):
        stream = io.StringIO(newline="")
        write(rows, stream)
        write(rows, tmp_path / "out.csv")
        assert stream.getvalue().encode() == (tmp_path / "out.csv").read_bytes()
        assert stream.getvalue().endswith("\r\n")


def test_csv_write_failure_names_the_path(tmp_path):
    result = run_scenario(build_dumbbell(4, QUICK, seed=5))
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        write_run_csv(result, target)
