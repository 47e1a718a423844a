#!/usr/bin/env python3
"""memcached on far memory: skew sweep and page-size sensitivity.

Reproduces the Fig. 16 story interactively: a USR-sized key/value store
with 12x more data than local memory, GET traffic skewed by a zipf
parameter.  TrackFM's sub-page objects avoid the I/O amplification that
throttles Fastswap at low skew; at high skew Fastswap's faults amortize
over the hot set and the two converge.

Run:  python examples/memcached_skew.py
"""

from repro.bench.harness import CPU_HZ, model_fastswap, model_trackfm
from repro.machine.scale import ScaleModel
from repro.sim.local import LocalRuntime
from repro.units import GB, fmt_bytes
from repro.workloads.memcached import MemcachedWorkload

SCALE = ScaleModel(factor=512)
WORKING_SET = SCALE.bytes(12 * GB)
LOCAL = SCALE.bytes(1 * GB)
N_OPS = SCALE.count(100_000_000, floor=100_000)


def main() -> None:
    print(
        f"memcached: {fmt_bytes(WORKING_SET)} of USR-sized items, "
        f"{fmt_bytes(LOCAL)} local memory, {N_OPS:,} GETs\n"
    )
    header = (
        f"{'skew':>5} | {'TrackFM':>9} {'Fastswap':>9} {'local':>9} | "
        f"{'TFM data':>9} {'FS data':>9}"
    )
    print(header)
    print("-" * len(header))
    for skew in (1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3):
        wl = MemcachedWorkload(
            working_set=WORKING_SET, n_keys=N_OPS, n_ops=N_OPS, skew=skew
        )
        tfm = wl.run_trackfm(model_trackfm(64, LOCAL))
        fsw = wl.run_fastswap(model_fastswap(LOCAL))
        loc = wl.run_local(LocalRuntime())
        print(
            f"{skew:>5.2f} | "
            f"{tfm.throughput_kops(CPU_HZ):>7.1f}K {fsw.throughput_kops(CPU_HZ):>7.1f}K "
            f"{loc.throughput_kops(CPU_HZ):>7.1f}K | "
            f"{fmt_bytes(tfm.metrics.total_bytes_transferred):>9} "
            f"{fmt_bytes(fsw.metrics.total_bytes_transferred):>9}"
        )
    print(
        "\nTrackFM wins where amplification dominates (low skew) and "
        "Fastswap converges as temporal locality amortizes its faults."
    )

    print("\nobject-size sensitivity at skew 1.05:")
    wl = MemcachedWorkload(working_set=WORKING_SET, n_keys=N_OPS, n_ops=N_OPS, skew=1.05)
    for size in (64, 256, 1024, 4096):
        res = wl.run_trackfm(model_trackfm(size, LOCAL))
        print(
            f"  {size:>5}B objects: {res.throughput_kops(CPU_HZ):6.1f} KOps/s, "
            f"{fmt_bytes(res.metrics.total_bytes_transferred)} moved"
        )


if __name__ == "__main__":
    main()
