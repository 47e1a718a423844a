"""The report gate: every experiment recorded exactly, the paper's claims
as its acceptance predicate, and ``REPORT.md`` rendered from the files.

Each experiment in :data:`~repro.bench.__main__.EXPERIMENTS` (Tables 1,
2 and 4, Figs. 6-17b, the §4.6 compile costs and nine ablations) is one
bench of :data:`GATE`, recorded in
``benchmarks/baselines/REPORT_<experiment>.json``::

    python -m repro.bench report --check              # gate (CI runs this)
    python -m repro.bench report --record             # re-record, rewrite REPORT.md
    python -m repro.bench report --check --bench fig11

A document's ``result`` is compared exactly; its ``wall_clock`` series
(``compile_costs``' compile-time ratios) are host timings and are not.
When the result matches, the experiment's check in :data:`CHECKS` runs
on it: it yields the experiment's claims (the artifact's C1-C11 and the
ablation findings, see EXPERIMENTS.md), and the gate names each one
that fails.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.bench import baseline
from repro.bench.__main__ import EXPERIMENTS
from repro.bench.harness import ExperimentResult

#: Series that are wall-clock timings, kept out of the exact part.
WALL_CLOCK: Dict[str, Tuple[str, ...]] = {"compile_costs": ("compile time (x)",)}

#: Rendered from the files in ``baseline.BASELINE_DIR``.
REPORT_PATH = Path("REPORT.md")


def measure(name: str) -> baseline.Document:
    """Run one experiment; its document, floats rounded."""
    result = EXPERIMENTS[name]()
    series = {s.name: s.values for s in result.series}
    wall_clock = {key: series.pop(key) for key in WALL_CLOCK.get(name, ())}
    return baseline.rounded(
        {
            "result": {
                "title": result.title,
                "x_label": result.x_label,
                "x_values": result.x_values,
                "y_label": result.y_label,
                "columns": [s.name for s in result.series],
                "series": series,
                "notes": result.notes,
            },
            "wall_clock": wall_clock,
        }
    )


def result_of(name: str, document: baseline.Document) -> ExperimentResult:
    """The experiment's result as ``document`` records it."""
    doc = document["result"]
    series = {**doc["series"], **document["wall_clock"]}
    result = ExperimentResult(
        name, doc["title"], doc["x_label"], doc["x_values"], doc["y_label"], notes=doc["notes"]
    )
    for column in doc["columns"]:
        result.add_series(column, series[column])
    return result


# -- the paper's claims -------------------------------------------------------

#: A check yields ``(holds, claim)`` for each claim it makes.
Claims = Iterator[Tuple[bool, str]]


def _near(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def table1(r: ExperimentResult) -> Claims:
    yield r.get("Cached").values == [21, 21, 144, 159], "Cached == [21, 21, 144, 159]"
    yield r.get("Uncached").values == [297, 309, 453, 432], "Uncached == [297, 309, 453, 432]"


def table2(r: ExperimentResult) -> Claims:
    local, remote = r.get("Local Cost").values, r.get("Remote Cost").values
    yield local == [1300, 1300, 453, 432], "Local Cost == [1300, 1300, 453, 432]"
    yield remote[0] == 34_000, "Remote Cost[0] == 34000"
    yield remote[1] == 35_000, "Remote Cost[1] == 35000"
    # TrackFM remote slow guards ~35K.
    for i in (2, 3):
        yield _near(remote[i], 35_000, 0.02), f"Remote Cost[{i}] within 2% of 35000"
    # "Handling a page fault in the kernel incurs 2.9x the cost of
    # handling a slow-path guard in TrackFM when the data is local."
    yield _near(local[0] / local[2], 2.9, 0.02), "Local Cost[0] / Local Cost[2] within 2% of 2.9"


def table4(r: ExperimentResult) -> Claims:
    trackfm = r.x_values.index("TrackFM (this work)")
    yield all(s.values[trackfm] == 1 for s in r.series), "TrackFM has every feature"
    for i, system in enumerate(r.x_values):
        if i != trackfm:
            yield any(s.values[i] == 0 for s in r.series), f"{system} lacks a feature"


def fig06(r: ExperimentResult) -> Claims:
    emp, model, xs = r.get("empirical").values, r.get("model").values, r.x_values
    # Below the crossover chunking loses, above it wins (C1 setup).
    yield emp[xs.index(512)] < 1.0, "empirical at 512 < 1.0"
    yield emp[xs.index(896)] > 1.0, "empirical at 896 > 1.0"
    # Model and empirical agree closely everywhere (Fig. 6's point).
    for x, e, m in zip(xs, emp, model):
        yield _near(e, m, 0.08), f"empirical at {x} within 8% of model"


def fig07(r: ExperimentResult) -> Claims:
    # C1: chunking speeds up STREAM, more at high local memory.
    for name in ("Sum", "Copy"):
        vals = r.get(name).values
        for i, v in enumerate(vals):
            yield v > 1.2, f"{name}[{i}] > 1.2"
        yield vals[-1] > vals[0], f"{name}[-1] > {name}[0]"


def fig08(r: ExperimentResult) -> Claims:
    # C2: all-loops slows down ~4x; filtered speeds up ~2.5x.
    for i, v in enumerate(r.get("all loops").values):
        yield v < 0.4, f"all loops[{i}] < 0.4"
    for i, v in enumerate(r.get("high-density loops only").values):
        yield 1.8 < v < 3.0, f"1.8 < high-density loops only[{i}] < 3.0"


def fig09(r: ExperimentResult) -> Claims:
    # C3: fine-grained random access favours small objects.
    small, large = r.get("256B").values, r.get("4KB").values
    for i in range(len(r.x_values) - 1):  # skip the all-local point
        yield small[i] > large[i], f"256B[{i}] > 4KB[{i}]"


def fig10(r: ExperimentResult) -> Claims:
    # C4: high spatial locality favours 4KB objects.
    large, small = r.get("4KB").values, r.get("256B").values
    for i in range(len(r.x_values)):
        yield large[i] > small[i], f"4KB[{i}] > 256B[{i}]"


def fig11(r: ExperimentResult) -> Claims:
    # C5: prefetching matters most when remote costs dominate.
    for name in ("Sum", "Copy"):
        vals = r.get(name).values
        yield vals[0] > 2.0, f"{name}[0] > 2.0"
        yield vals[0] > vals[-1], f"{name}[0] > {name}[-1]"


def fig12(r: ExperimentResult) -> Claims:
    # C6: ~2-3x over Fastswap on STREAM.
    for name in ("Sum", "Copy"):
        yield r.get(name).values[0] > 2.0, f"{name}[0] > 2.0"


def fig13(r: ExperimentResult) -> Claims:
    # C7: Fastswap moves orders of magnitude more data.
    tfm, fsw = r.get("TrackFM 64B data (GB)").values, r.get("Fastswap data (GB)").values
    for i in range(len(tfm) - 1):
        yield fsw[i] > 20 * tfm[i], f"Fastswap data[{i}] > 20 * TrackFM 64B data[{i}]"
    # And it is slower for it.
    slower = r.get("Fastswap time (s)").values[0] > r.get("TrackFM 64B time (s)").values[0]
    yield slower, "Fastswap time[0] > TrackFM 64B time[0]"


def fig14(r: ExperimentResult) -> Claims:
    # C8: TrackFM near AIFM, well ahead of Fastswap at low memory.
    tfm, fsw, aifm = r.get("TrackFM").values, r.get("Fastswap").values, r.get("AIFM").values
    yield fsw[0] > 1.8 * tfm[0], "Fastswap[0] > 1.8 * TrackFM[0]"
    yield tfm[0] / aifm[0] < 1.3, "TrackFM[0] / AIFM[0] < 1.3"
    # Fastswap converges as memory grows.
    yield fsw[-1] < fsw[0] / 3, "Fastswap[-1] < Fastswap[0] / 3"
    # Fig. 14b: faults dominate guards under pressure.
    faults = r.get("Fastswap faults (x10M)").values[0] > r.get("TrackFM guards (x10M)").values[0]
    yield faults, "Fastswap faults[0] > TrackFM guards[0]"


def fig15(r: ExperimentResult) -> Claims:
    # C9: chunking low-density loops hurts.
    filt, base = r.get("high-density loops only").values, r.get("baseline").values
    for i, (f, b) in enumerate(zip(filt, base)):
        yield f < b, f"high-density loops only[{i}] < baseline[{i}]"
    yield r.get("all loops").values[-1] > base[-1], "all loops[-1] > baseline[-1]"


def fig16(r: ExperimentResult) -> Claims:
    # C10: TrackFM above Fastswap, converging with skew; data gap.
    tfm, fsw = r.get("TrackFM KOps/s").values, r.get("Fastswap KOps/s").values
    for i, (t, f) in enumerate(zip(tfm, fsw)):
        yield t > f, f"TrackFM KOps/s[{i}] > Fastswap KOps/s[{i}]"
    yield tfm[0] / fsw[0] > tfm[-1] / fsw[-1], "TrackFM/Fastswap KOps/s at [0] > at [-1]"
    gap = r.get("Fastswap data (GB)").values[0] > 20 * r.get("TrackFM data (GB)").values[0]
    yield gap, "Fastswap data[0] > 20 * TrackFM data[0]"


def fig17a(r: ExperimentResult) -> Claims:
    # C11: TrackFM wins at 25% local memory except FT.
    fsw, tfm = r.get("Fastswap").values, r.get("TrackFM").values
    for i, name in enumerate(r.x_values):
        if name == "FT":
            yield tfm[i] > fsw[i], "TrackFM > Fastswap on FT"
        elif name != "GeoM.":
            yield tfm[i] < fsw[i], f"TrackFM < Fastswap on {name}"
    gm = r.x_values.index("GeoM.")
    yield tfm[gm] < fsw[gm], "TrackFM < Fastswap on GeoM."


def fig17b(r: ExperimentResult) -> Claims:
    for i, (a, b) in enumerate(zip(r.get("TFM").values, r.get("TFM/O1").values)):
        yield a > 3 * b, f"TFM[{i}] > 3 * TFM/O1[{i}]"
    note = " ".join(r.notes)
    yield "FT 6.0x" in note, "a note reads FT 6.0x"
    yield "SP 4.0x" in note, "a note reads SP 4.0x"


def compile_costs(r: ExperimentResult) -> Claims:
    sizes, times = r.get("code size (x)").values, r.get("compile time (x)").values
    for i, s in enumerate(sizes):
        yield s >= 1.0, f"code size[{i}] >= 1.0"
    yield sizes[-1] < 3.0, "code size[-1] < 3.0"  # mean in the paper's ballpark (2.4x)
    yield times[-1] < 10.0, "compile time[-1] < 10.0"


def ablation_state_table(r: ExperimentResult) -> Claims:
    with_table, without = r.get("total cycles").values
    yield without > 1.3 * with_table, "without > 1.3 * with the state table"


def ablation_prefetch_depth(r: ExperimentResult) -> Claims:
    costs = r.get("fetch cycles").values
    yield costs == sorted(costs, reverse=True), "fetch cycles fall with depth"
    yield costs[0] / costs[-1] > 5, "fetch cycles[0] / [-1] > 5"  # deep pipelining pays


def ablation_evacuator_policy(r: ExperimentResult) -> Claims:
    # Hotness tracking never loses to plain LRU on zipf traffic.
    for i, (c, lru) in enumerate(zip(r.get("CLOCK (hot bits)").values, r.get("LRU").values)):
        yield c <= lru + 1e-9, f"CLOCK[{i}] <= LRU[{i}]"


def ablation_chunk_setup(r: ExperimentResult) -> Claims:
    crossovers = r.get("d*").values
    yield crossovers == sorted(crossovers), "d* rises with the setup cost"
    yield 650 < crossovers[r.x_values.index(12700)] < 800, "650 < d* at 12700 < 800"


def ablation_heap_pruning(r: ExperimentResult) -> Claims:
    base, pruned = r.get("cycles").values
    base_g, pruned_g = r.get("guards").values
    yield pruned < base, "pruned cycles < base cycles"
    yield pruned_g < base_g, "pruned guards < base guards"


def ablation_chase_prefetch(r: ExperimentResult) -> Claims:
    plain, chased = r.get("cycles").values
    plain_slow, chased_slow = r.get("slow guards").values
    yield chased < plain, "chased cycles < plain cycles"
    yield chased_slow < plain_slow, "chased slow guards < plain slow guards"


def ablation_offload(r: ExperimentResult) -> Claims:
    fetch, offload = r.get("cycles").values
    fetch_bytes, offload_bytes = r.get("bytes fetched").values
    yield offload < fetch / 3, "offload cycles < fetch cycles / 3"
    yield offload_bytes < fetch_bytes / 100, "offload bytes < fetch bytes / 100"


def ablation_multisize(r: ExperimentResult) -> Claims:
    small, big, multi = r.get("cycles").values
    small_bytes, big_bytes, multi_bytes = r.get("bytes fetched").values
    yield multi < small, "multi cycles < small cycles"
    yield multi < big, "multi cycles < big cycles"
    yield multi_bytes <= small_bytes < big_bytes, "multi bytes <= small bytes < big bytes"


def ablation_hybrid_memcached(r: ExperimentResult) -> Claims:
    hyb, fsw, tfm = r.get("Hybrid").values, r.get("Fastswap").values, r.get("TrackFM").values
    for i, h in enumerate(hyb):
        yield h > fsw[i], f"Hybrid[{i}] > Fastswap[{i}]"
        yield h > 0.9 * tfm[i], f"Hybrid[{i}] > 0.9 * TrackFM[{i}]"


#: One check per experiment, each function above named after its own.
CHECKS: Dict[str, Callable[[ExperimentResult], Claims]] = {
    name: globals()[name] for name in EXPERIMENTS
}


def failed_claims(name: str, document: baseline.Document) -> List[str]:
    """The claims of ``name``'s check that ``document`` breaks."""
    return [claim for holds, claim in CHECKS[name](result_of(name, document)) if not holds]


def _claims_hold(
    name: str, measured: baseline.Document, recorded: baseline.Document
) -> Tuple[str, str]:
    failed = failed_claims(name, measured)
    if failed:
        return "claim-failed", f"{name}: " + "; ".join(failed)
    return "ok", ""


GATE = baseline.Gate(
    prog="python -m repro.bench report",
    template="REPORT_{name}.json",
    names=tuple(EXPERIMENTS),
    measure=measure,
    exact="result",
    accept=_claims_hold,
)


# -- REPORT.md ----------------------------------------------------------------


def recorded(baseline_dir: Optional[Path] = None) -> Dict[str, baseline.Document]:
    """Every experiment's recorded document, in ``EXPERIMENTS`` order."""
    return {name: json.loads(GATE.path(name, baseline_dir).read_text()) for name in GATE.names}


def render_markdown(documents: Mapping[str, baseline.Document]) -> str:
    """One markdown table per experiment document."""
    lines: List[str] = ["# Reproduced experiments", ""]
    for name, document in documents.items():
        result = result_of(name, document)
        lines.append(f"## {result.experiment}: {result.title}")
        lines.append("")
        header = [result.x_label] + [s.name for s in result.series]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for i, x in enumerate(result.x_values):
            row = [ExperimentResult._fmt(x)] + [
                ExperimentResult._fmt(s.values[i]) for s in result.series
            ]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        lines.append(f"*y: {result.y_label}*")
        for note in result.notes:
            lines.append(f"- {note}")
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    description = (
        "Record or check every experiment's baseline; the paper's claims are "
        f"the acceptance predicate. --record into {baseline.BASELINE_DIR} also "
        f"rewrites {REPORT_PATH}."
    )
    args = baseline.parser(GATE, description).parse_args(argv)
    status = baseline.run(GATE, args)
    if args.record and args.baseline_dir == baseline.BASELINE_DIR:
        REPORT_PATH.write_text(render_markdown(recorded()))
        print(f"rendered {REPORT_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
