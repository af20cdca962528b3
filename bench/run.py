"""dcpolab benchmark: seeded closed-loop workloads with checked outputs.

Run one workload (the last line of standard output is the JSON result):

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones, from a separate run with a span around every
call into dcpolab.  ``--workload all`` runs every workload both ways, each in
its own process, prints a summary with the tracing overhead and, with
``--out FILE``, writes the whole result there.

One process runs one workload as a single closed-loop client: items run one
after another, each starting when the previous one ends.  A warm-up pass runs
first; then whole passes over the item list repeat until their item time
reaches ``--seconds``.  Each item's output is checked after its timer stops.

Times are speed-adjusted.  The machine this was built on changes speed by up
to 1.8x from second to second, for reasons outside the process (the same
pure-Python loop takes 14 ms or 20 ms).  So a fixed reference kernel is timed
between consecutive items, and each item's raw time is scaled by
``REF_NOMINAL_S`` over the mean of the kernel times just before and just after
it.  A metric in ms therefore means ms on a machine running the kernel in
2 ms.  Raw times are printed beside the adjusted ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs as bench_inputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("corpus", "tower", "completion")
SETUP_SAMPLES = 5
REF_NOMINAL_S = 0.002

NOT_MEASURED = [
    "no hardware counters: the benchmark reads only wall-clock time and ru_maxrss",
    "no cgroup, kernel or CPU-frequency tuning: runs share the machine as it is, and times are "
    "speed-adjusted by a reference kernel timed between items instead",
    "no queueing or waiting time per layer: every workload is one thread and one client",
    "CLI verbs as fresh processes are not an end-to-end metric: 0.32-0.47 s median each, "
    "mostly interpreter start, and the median moved by up to 25% between two sets of 10 runs; "
    "verb logic is timed in process as cli.main spans and start-up is in setup_s",
    "spans cover the benchmark's calls into each module only; calls inside src/ are not spanned",
]

_REF_MASKS = np.arange(4096, dtype=np.int64)


def reference_kernel_s() -> float:
    """Seconds for a fixed mix of small-array and interpreter work like the
    workloads' own: the gauge of how fast the machine is running just now."""
    start = time.perf_counter()
    hits = 0
    for i in range(120):
        hits += int(((_REF_MASKS & i) != 0).sum())
    table = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i * i
    return time.perf_counter() - start


def load_dcpolab():
    """The dcpolab of this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dcpolab
    from dcpolab import bilimit, canonex, cli, dyadics, expo, finposet, idealcomp, indcomp, waybelow

    if Path(dcpolab.__file__).resolve().parent != src / "dcpolab":
        raise ImportError(f"dcpolab was imported from {dcpolab.__file__}, not from {src}")
    return SimpleNamespace(
        finposet=finposet, waybelow=waybelow, indcomp=indcomp, canonex=canonex, idealcomp=idealcomp,
        dyadics=dyadics, expo=expo, bilimit=bilimit, cli=cli,
    )


def metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def run_record(seed):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git not available)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "reference_kernel_nominal_s": REF_NOMINAL_S,
        "not_measured": NOT_MEASURED,
    }


# ---------------------------------------------------------------- one workload

def measure_setup(args) -> tuple:
    """Seconds from starting a fresh interpreter to its first timed item being
    ready (import dcpolab, generate inputs, write input files): raw samples and
    their speed factors, from the reference kernel run by each child just
    after it is ready."""
    raw, factors = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = proc.stdout.readline().strip()
            raw.append(time.perf_counter() - start)
            kernel = proc.stdout.readline().strip()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if ready != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        factors.append(REF_NOMINAL_S / float(kernel))
    return raw, factors


def run_pass(items, api, dyadics, tracer=None, pass_no=0):
    """Run every item once: raw seconds, speed factors and checked outcomes."""
    cache = getattr(dyadics.dy_prec, "cache_info", None)
    seconds, refs, outcomes = [], [reference_kernel_s()], []
    for k, item in enumerate(items):
        if item.fresh_dyadics and cache:
            dyadics.dy_prec.cache_clear()
        error = out = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = item.run(api)
            else:
                with tracer.item(f"{pass_no}:{k}"):
                    out = item.run(api)
        except Exception as exc:  # a raising item is a failed item, reported by type
            error = type(exc).__name__
        seconds.append(time.perf_counter() - start)
        refs.append(reference_kernel_s())
        if item.fresh_dyadics and cache and tracer is not None:
            info = cache()
            tracer.counts["dyadics.cache_hits"] += info.hits
            tracer.counts["dyadics.cache_lookups"] += info.hits + info.misses
            tracer.counts["dyadics.cache_entries"] = max(tracer.counts["dyadics.cache_entries"], info.currsize)
        if error is None:
            try:
                item.check(out)
            except workloads.Mismatch:
                error = "Mismatch"
            except Exception as exc:  # the oracle could not even read the output
                error = f"Mismatch:{type(exc).__name__}"
        outcomes.append(error)
        del out
    factors = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    if tracer is not None:
        tracer.speed.update((f"{pass_no}:{k}", f) for k, f in enumerate(factors))
    return seconds, factors, outcomes


def run_workload(args, dc):
    e2e_specs, layer_specs = metric_specs()
    setup_raw, setup_factors = measure_setup(args) if not args.setup_only else ([], [])
    data = bench_inputs.make_inputs(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        items = workloads.build_items(args.workload, data, workdir)
        if args.setup_only:
            print("ready", flush=True)
            print(statistics.median(reference_kernel_s() for _ in range(3)), flush=True)
            return 0
        run_pass(items, spans.make_api(dc), dc.dyadics)  # warm-up, not counted
        tracer = spans.Tracer() if args.trace else None
        api = spans.make_api(dc, tracer)
        raw, adjusted, all_factors, failures = [], [], [], Counter()
        while not raw or sum(map(sum, raw)) < args.seconds:
            seconds, factors, outcomes = run_pass(items, api, dc.dyadics, tracer, len(raw))
            raw.append(seconds)
            adjusted.append([s * f for s, f in zip(seconds, factors)])
            all_factors += factors
            failures.update(f"{items[k].name}: {e}" for k, e in enumerate(outcomes) if e)
    probe = workloads.deep_dyadic_probe(dc.dyadics, args.seed) if args.workload == "completion" else None

    attempted, failed = len(items) * len(raw), sum(failures.values())
    timing = summarise(adjusted)
    e2e = {
        "setup_s": statistics.median(s * f for s, f in zip(setup_raw, setup_factors)),
        "items_per_s": timing["items_per_s"],
        "item_p50_ms": timing["item_p50_ms"],
        "item_tail_ms": timing["item_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "workload": args.workload,
        "inputs_fingerprint": bench_inputs.fingerprint(data),
        "items_per_pass": len(items),
        "passes": len(raw),
        "item_tail_percentile": timing["tail_percentile"],
        "raw": dict(summarise(raw), setup_s=statistics.median(setup_raw)),
        "speed_factor_median": statistics.median(all_factors),
        "setup_samples_s": setup_raw,
        "failed_frac": failed / attempted,
        "failures_by_kind": dict(failures),
        "deep_dyadic_probe": probe,
        "record": run_record(args.seed),
    }
    print(f"workload: {args.workload}  seed: {args.seed}  inputs_fingerprint: {detail['inputs_fingerprint']}")
    if args.trace:
        metrics = layer_metrics(tracer, spans.span_names(dc), len(raw), timing["items_per_s"], probe)
        detail["layer_self_s"] = {layer: metrics[f"{layer}.self_s"] for layer in spans.LAYERS}
        detail["time_waiting"] = "not applicable: one thread, nothing queues"
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(path)
        detail["spans_file"] = str(path.relative_to(ROOT))
        specs = layer_specs
    else:
        metrics = e2e
        specs = e2e_specs
    print_metrics(metrics, specs, detail)
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and not (probe and probe["wrong"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0


def summarise(passes) -> dict:
    """Each item is taken at its median over passes.  Throughput is items per
    second of their summed medians; the tail is the item with ten items
    beyond it."""
    n = len(passes[0])
    per_item = sorted(statistics.median(p[k] for p in passes) for k in range(n))
    tail_rank = max(n - 11, 0)
    return {
        "items_per_s": n / sum(per_item),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": 1000 * per_item[tail_rank],
        "tail_percentile": round(100 * (tail_rank + 1) / n, 1),
    }


def layer_metrics(tracer, names, passes, items_per_s, probe) -> dict:
    """Per-layer metrics of a traced run, each per pass over the item list,
    with span times speed-adjusted by their item's factor."""
    seconds, calls = tracer.busy()
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in names:
        out[f"{name}.busy_s"] = seconds.get(name, 0.0) / passes
        out[f"{name}.calls"] = calls.get(name, 0) / passes
    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for name, s in self_s.items():
        if name != "item":
            layer_self[name.split(".", 1)[0]] += s
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / passes
        out[f"{layer}.failed"] = counts.get(f"{layer}.failed", 0) / passes
    item_s = seconds["item"]
    out["finposet.directed_subsets"] = counts["finposet.directed_subsets"] / passes
    out["finposet.directed_yield"] = _ratio(counts["finposet.directed_subsets"], counts["finposet.subsets_scanned"])
    out["expo.maps"] = counts["expo.maps"] / passes
    out["expo.exponential.carrier"] = counts["expo.exponential.carrier"] / passes
    out["bilimit.tuples_scanned"] = counts["bilimit.tuples_scanned"] / passes
    out["idealcomp.ideals"] = counts["idealcomp.ideals"] / passes
    out["idealcomp.ideal_yield"] = _ratio(counts["idealcomp.ideals"], counts["idealcomp.masks_scanned"])
    out["dyadics.cache_hit_frac"] = _ratio(counts["dyadics.cache_hits"], counts["dyadics.cache_lookups"])
    out["dyadics.cache_entries"] = counts["dyadics.cache_entries"]
    out["dyadics.deep_probe_failed"] = len(probe["recursion_failed"]) if probe else 0
    out["trace.items_per_s"] = items_per_s
    out["trace.span_coverage"] = sum(layer_self.values()) / item_s
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def print_metrics(metrics, specs, detail):
    raw = detail["raw"]
    notes = {
        "setup_s": f"median of {len(detail['setup_samples_s'])} set-ups; raw {raw['setup_s']:.4g} s",
        "items_per_s": f"{detail['items_per_pass']} items, each at its median of {detail['passes']} passes; "
                       f"raw {raw['items_per_s']:.4g} 1/s",
        "item_p50_ms": f"median over items of each item's median over passes; raw {raw['item_p50_ms']:.4g} ms",
        "item_tail_ms": f"p{detail['item_tail_percentile']} of {detail['items_per_pass']} items, "
                        f"10 items beyond it; raw {raw['item_tail_ms']:.4g} ms",
    }
    for s in specs:
        note = notes.get(s["name"])
        print(f"{s['name']}: {metrics[s['name']]:.6g} {s['unit']}" + (f"  ({note})" if note else ""))
    print(f"failed_frac: {detail['failed_frac']:.6g} ratio  ({sum(detail['failures_by_kind'].values())} failed)")
    for kind, count in sorted(detail["failures_by_kind"].items()):
        print(f"  failure {kind}: {count}")
    print(f"speed factor: {detail['speed_factor_median']:.4g} (median; adjusted = raw x factor)")
    probe = detail["deep_dyadic_probe"]
    if probe:
        print(f"known defect, deep dyadic probe: RecursionError at depths {probe['recursion_failed']} "
              f"of {probe['depths'][0]}..{probe['depths'][-1]}; wrong answers at {probe['wrong']}")


# ---------------------------------------------------------------- all workloads

def run_all(args):
    """Each workload untraced and traced, in separate processes."""
    results = {"record": run_record(args.seed), "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            detail = json.loads(lines[-2][len("detail: "):])
            detail.pop("record")
            entry["traced" if trace else "untraced"] = {"result": json.loads(lines[-1]), "detail": detail}
        plain = entry["untraced"]["result"]["metrics"]["items_per_s"]["value"]
        traced = entry["traced"]["result"]["metrics"]["trace.items_per_s"]["value"]
        entry["tracing_overhead_items_per_s"] = plain - traced
        print(f"{workload}: tracing overhead {plain - traced:.4g} items/s ({100 * (1 - traced / plain):.1f}%)\n")
        results["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the results as JSON here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        dc = load_dcpolab()
    except ImportError as exc:
        print(f"cannot import dcpolab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, dc)


if __name__ == "__main__":
    sys.exit(main())
