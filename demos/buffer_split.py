"""Receive-buffer sharing: pay more, get a bigger window, go faster.

Splits one receive-buffer pool between two flows 3:1 by price, caps
each flow's advertised window accordingly, and shows the measured
throughput ratio landing on the price ratio.  Then sweeps a single
flow's buffer to show throughput climbing linearly until the path
ceiling and flat afterwards.

Run:  python demos/buffer_split.py
"""

from multcp.allocator import allocate_buffers
from multcp.engine import FlowSpec, LinkSpec, Scenario
from multcp.harness import DumbbellParams, build_dumbbell, run_scenario

POOL = 60_000       # bytes shared by the two receivers


def capped_run(advertised_bytes: int) -> float:
    links = (LinkSpec(name="bn", bandwidth_bps=10e6, delay_s=0.020),
             LinkSpec(name="acc", bandwidth_bps=100e6, delay_s=0.001))
    flows = (FlowSpec(variant="sack", n_weight=1.0, route=("acc", "bn"),
                      advertised_bytes=advertised_bytes),)
    scenario = Scenario(links=links, flows=flows, duration_s=20.0,
                        warmup_s=5.0, seed=0, payload_bytes=1000)
    return run_scenario(scenario).flows[0].throughput_Bps


def main():
    buffers = allocate_buffers({0: 3.0, 1: 1.0}, POOL, 1000)
    print(f"pool of {POOL} bytes at prices 3:1 -> buffers {buffers}")

    params = DumbbellParams(duration_s=30.0, warmup_s=5.0)
    scenario = build_dumbbell(2, params,
                              advertised_bytes=[buffers[0], buffers[1]])
    result = run_scenario(scenario)
    t0, t1 = (f.throughput_Bps for f in result.flows)
    print(f"throughputs {t0:,.0f} / {t1:,.0f} B/s -> ratio {t0 / t1:.2f} "
          f"(price ratio 3.0)")
    print()

    print("single flow, growing buffer (path ceiling 1,250,000 B/s):")
    for adv in (10_000, 20_000, 40_000, 80_000, 300_000):
        bps = capped_run(adv)
        print(f"  buffer {adv:7,} B  ->  {bps:11,.0f} B/s  "
              f"{'#' * round(bps / 6e4)}")


if __name__ == "__main__":
    main()
