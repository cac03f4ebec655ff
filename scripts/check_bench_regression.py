#!/usr/bin/env python3
"""Gate a micro_kernels telemetry run against the committed baseline.

Usage:
    check_bench_regression.py BENCH_kernels.json run1.jsonl [run2.jsonl ...]
        [--max-ratio 2.0]

The baseline is the checked-in BENCH_kernels.json (sweep of wall_time_ns per
benchmark per thread count). Each run file is the JSONL emitted by
`micro_kernels --metrics_out=...` ("bench" records named e.g.
"BM_MatMul/1024/2" where the last argument is the thread count, plus one
"bench_context" record).

The gate fails (exit 1) when any benchmark present in both the baseline and
a run is slower than max-ratio x its baseline wall time. It is skipped
(exit 0 with a notice) when the run hardware does not match the baseline's
hardware_note fingerprint (num_cpus): wall-time comparisons across different
machines are meaningless, per the note in BENCH_kernels.json itself.

Baselines may also carry a "loadgen" section (BENCH_serving.json): per-QoS
p99_us latencies from `autoac_loadgen --metrics_out=...` ("loadgen_class"
records). Those are gated with the same max-ratio and the same hardware
self-skip; the hardware-independent alloc gate is unaffected.

A further hardware-independent gate (applied even on hardware mismatch,
like the alloc gate):

  "relative_gate": {"pairs": [{"name", "must_beat", "max_fraction"}]} —
  within one run, wall_time_ns of `name` must be below max_fraction x
  wall_time_ns of `must_beat`. Both sides come from the same machine, so
  the comparison survives hardware changes.

Every alloc_gate family and every relative_gate name must be reported by
at least one of the given run files; a gated name that none reports is a
failure, so deleting or renaming a gated benchmark cannot retire its gate
unseen.
"""

import argparse
import json
import sys


def load_run(path):
    """Returns (context or None, {bench_name: record}, {qos: record})."""
    context = None
    benches = {}
    loadgen_classes = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "bench_context":
                context = record
            elif record.get("type") == "bench":
                benches[record["name"]] = record
            elif record.get("type") == "loadgen_class":
                loadgen_classes[record["qos"]] = record
    return context, benches, loadgen_classes


def check_alloc_gate(alloc_gate, benches, run_path, failures):
    """Applies the baseline's alloc_gate: {benchmark family: max allocs}.

    The gate reads the tensor_allocs_per_iter counter the benchmarks attach
    (heap tensor buffers per timed iteration). Unlike wall time it is
    hardware-independent, so it runs even when the hardware fingerprint
    does not match the baseline. Returns the number of comparisons made.
    """
    compared = 0
    for name, record in sorted(benches.items()):
        allocs = record.get("tensor_allocs_per_iter")
        if allocs is None:
            continue
        family = name.split("/")[0]
        max_allocs = alloc_gate.get(family)
        if max_allocs is None:
            continue
        compared += 1
        status = "FAIL" if allocs > max_allocs else "ok"
        print(f"{status:4} {name}: {allocs:.1f} tensor allocs/iter "
              f"(gate: <= {max_allocs})")
        if allocs > max_allocs:
            failures.append(
                (run_path, f"{name} allocs", f"{allocs:.1f} > {max_allocs}"))
    return compared


def check_relative_gate(relative_gate, benches, run_path, failures):
    """Applies within-run wall-time pairs: name < max_fraction x must_beat.

    Both sides come from the same run, so the gate is hardware-independent
    and runs even on a fingerprint mismatch. Pairs whose benchmarks are not
    both present in this run are skipped here; check_gates_reported fails
    a name that no run reports. Returns the number of comparisons made.
    """
    compared = 0
    for pair in relative_gate.get("pairs", []):
        fast = benches.get(pair.get("name"))
        slow = benches.get(pair.get("must_beat"))
        if fast is None or slow is None:
            continue
        max_fraction = pair.get("max_fraction", 1.0)
        fast_ns = fast["wall_time_ns"]
        slow_ns = slow["wall_time_ns"]
        compared += 1
        fraction = fast_ns / slow_ns
        status = "FAIL" if fraction > max_fraction else "ok"
        print(f"{status:4} {pair['name']}: {fast_ns:12.1f} ns vs "
              f"{pair['must_beat']} {slow_ns:12.1f} ns "
              f"({fraction:.4f}x, gate: <= {max_fraction}x)")
        if fraction > max_fraction:
            failures.append(
                (run_path, f"{pair['name']} vs {pair['must_beat']}",
                 f"{fraction:.4f}x > {max_fraction}x"))
    return compared


def check_gates_reported(alloc_gate, relative_gate, reported, failures):
    """Fails every gated benchmark name that no run file reports.

    The alloc and relative gates compare only what a run contains, so
    without this a gated benchmark that was deleted or renamed would drop
    out of the gate silently. `reported` is the set of benchmark names
    across all run files.
    """
    families = {name.split("/")[0] for name in reported}
    missing = [f"alloc_gate {family}" for family in sorted(alloc_gate)
               if not family.startswith("_") and family not in families]
    for pair in relative_gate.get("pairs", []):
        for key in ("name", "must_beat"):
            if pair.get(key) not in reported:
                missing.append(f"relative_gate {pair.get(key)}")
    for name in dict.fromkeys(missing):  # a name can close several pairs
        print(f"FAIL {name}: gated, but no run reports it")
        failures.append(("every run file", name, "not reported"))


def check_loadgen_gate(loadgen_baseline, loadgen_classes, max_ratio,
                       run_path, failures):
    """Gates per-QoS loadgen p99_us against the baseline's loadgen section.

    Called only after the hardware fingerprint matched: tail latency is as
    machine-dependent as wall time. Returns the number of comparisons.
    """
    compared = 0
    classes = loadgen_baseline.get("classes", {})
    for qos, record in sorted(loadgen_classes.items()):
        base = classes.get(qos, {}).get("p99_us")
        p99 = record.get("p99_us")
        if base is None or p99 is None:
            continue
        compared += 1
        ratio = p99 / base
        status = "FAIL" if ratio > max_ratio else "ok"
        print(f"{status:4} loadgen {qos} p99: {p99:12.1f} us vs baseline "
              f"{base:12.1f} us ({ratio:.2f}x)")
        if ratio > max_ratio:
            failures.append(
                (run_path, f"loadgen {qos} p99", f"{ratio:.2f}x"))
    return compared


def baseline_lookup(baseline):
    """Flattens the sweep to {"BM_MatMul/1024/2": wall_time_ns, ...}."""
    flat = {}
    for name, data in baseline.get("sweep", {}).items():
        for threads, wall_ns in data.get("wall_time_ns", {}).items():
            flat[f"{name}/{threads}"] = wall_ns
    return flat


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when run wall time exceeds this multiple "
                             "of the baseline (default: 2.0)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    flat_baseline = baseline_lookup(baseline)
    baseline_cpus = baseline.get("context", {}).get("num_cpus")
    alloc_gate = baseline.get("alloc_gate", {})
    relative_gate = baseline.get("relative_gate", {})

    failures = []
    compared = 0
    reported = set()
    for run_path in args.runs:
        context, benches, loadgen_classes = load_run(run_path)
        reported.update(benches)
        compared += check_alloc_gate(alloc_gate, benches, run_path, failures)
        compared += check_relative_gate(relative_gate, benches, run_path,
                                        failures)
        run_cpus = context.get("num_cpus") if context else None
        if baseline_cpus is not None and run_cpus != baseline_cpus:
            print(f"SKIP {run_path}: hardware mismatch with baseline "
                  f"(baseline num_cpus={baseline_cpus}, run "
                  f"num_cpus={run_cpus}); see hardware_note in "
                  f"{args.baseline} — wall-time gate not applicable "
                  f"(the allocation gate above still is).")
            continue
        if loadgen_classes:
            compared += check_loadgen_gate(baseline.get("loadgen", {}),
                                           loadgen_classes, args.max_ratio,
                                           run_path, failures)
        for name, record in sorted(benches.items()):
            wall_ns = record["wall_time_ns"]
            base_ns = flat_baseline.get(name)
            if base_ns is None:
                continue
            compared += 1
            ratio = wall_ns / base_ns
            status = "FAIL" if ratio > args.max_ratio else "ok"
            print(f"{status:4} {name}: {wall_ns:12.1f} ns vs baseline "
                  f"{base_ns:12.1f} ns ({ratio:.2f}x)")
            if ratio > args.max_ratio:
                failures.append((run_path, name, f"{ratio:.2f}x"))

    check_gates_reported(alloc_gate, relative_gate, reported, failures)
    if failures:
        print(f"\n{len(failures)} gate failure(s):")
        for run_path, name, detail in failures:
            print(f"  {name} ({detail}) in {run_path}")
        return 1
    if compared:
        print(f"\nbench gate passed: {compared} comparison(s) within "
              f"{args.max_ratio}x of baseline.")
    else:
        print("\nbench gate skipped: no comparable benchmarks "
              "(hardware mismatch or disjoint benchmark sets).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
