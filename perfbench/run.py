"""The latfree benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]   # all workloads

Run from the root of a checkout; the package is imported from ./src.  One
workload runs in this single-threaded process.  Without --workload, each
workload runs in a fresh process of its own and a table sums them up.

--trace 0 repeats the workload's job list for S seconds and prints the
end-to-end metrics.  --trace 1 runs the job list once untraced and once
with spans around latfree's public functions, and prints per-layer
metrics.  Either way the last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics".  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def measure_setup(workload: str, inputs: list) -> dict:
    """One set-up in a fresh interpreter: import latfree and read the inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, workload, *inputs],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_latfree():
    sys.path.insert(0, SRC)
    import latfree
    import latfree.cli  # noqa: F401 - the CLI workloads call latfree.cli.run

    if not os.path.abspath(latfree.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"latfree imported from {latfree.__file__}, not from {SRC}")
    return latfree


def end_to_end(passes: list, setups: list, peak_rss_kb: int) -> dict:
    latencies = sorted(x for p in passes for x in p.latencies)
    return {
        "wall_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
        "item_p50_ms": {"value": percentile(latencies, 50) * 1e3, "unit": "ms"},
        "item_p99_ms": {"value": percentile(latencies, 99) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
    }


def per_layer(tracer, untraced, traced, setups) -> dict:
    metrics = {}
    summary = tracer.summary()
    for name in spans.boundary_names():
        row = summary[name]
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.s"] = {"value": row["s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
    nodes = sum(x or 0 for x in traced.counters.get("dfs_nodes_per_job", []))
    verify_s = summary["verify.verify_vertex_threshold"]["s"]
    classify_calls = summary["reduction.classify_type"]["calls"]
    under = tracer.count_under("polygon.lattice_points_in", "reduction.classify_type")
    types = traced.counters.get("types", {})
    derived = {
        "verify.dfs_nodes": (nodes, "count"),
        "verify.dfs_nodes_per_s": (nodes / verify_s if verify_s else 0, "1/s"),
        "verify.polygons_per_node": (
            traced.counters.get("polygons", 0) / nodes if nodes else 0, "ratio"),
        "cli.bytes_out": (traced.counters.get("bytes_out", 0), "bytes"),
        "reduction.lattice_points_per_classify": (
            under / classify_calls if classify_calls else 0, "ratio"),
        **{f"reduction.type_{t}": (types.get(t, 0), "count") for t in workloads.TYPES},
        "trace.overhead_s": (traced.wall - untraced.wall, "s"),
        "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "setup.read_s": (statistics.median(s["read_s"] for s in setups), "s"),
    }
    for name, (value, unit) in derived.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def load_seed_digests() -> dict:
    with open(os.path.join(HERE, "seed_digests.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root)
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        inputs = wl.make_inputs()
        latfree = import_latfree()
        wl.load(latfree)

        passes = []
        if traced:
            setups = [measure_setup(name, inputs) for _ in range(SETUP_SAMPLES)]
            passes.append(wl.run_pass(latfree))
            tracer = spans.Tracer()
            tracer.install(latfree)
            wl.load(latfree)  # the readers, traced as item 0
            passes.append(wl.run_pass(latfree, tracer))
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{name}.tsv.gz"),
                         f"workload={name} seed={seed}")
            metrics = per_layer(tracer, passes[0], passes[1], setups)
        else:
            # one set-up sample per pass spreads them over the run
            setups, start = [], time.perf_counter()
            while True:
                setups.append(measure_setup(name, inputs))
                passes.append(wl.run_pass(latfree))
                if len(passes) == 1:
                    # set-up plus one job list; later passes only add heap fragmentation
                    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(p.wall for p in passes) > seconds:
                    break
            setups += [measure_setup(name, inputs) for _ in range(SETUP_SAMPLES - len(setups))]
            metrics = end_to_end(passes, setups, peak_rss_kb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [(i, k, msg) for i, p in enumerate(passes) for k, msg in p.failures]
    digests = sorted({p.digest for p in passes})
    ref = load_seed_digests().get(name, {})
    ref = ref.get(str(seed), ref.get("any"))
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "item_samples": sum(len(p.latencies) for p in passes),
        "error_rate": len(failures) / attempted,
        "first_failures": failures[:5],
        "digest": digests[0] if len(digests) == 1 else digests,
        "seed_digest": ref,
        "digest_vs_seed_code": "none" if ref is None else ("match" if digests == [ref] else "MISMATCH"),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "counters": passes[-1].counters,
        "absent": tracer.absent if traced else [],
    }
    return {"detail": detail, "correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def print_result(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':48s} {result['detail']['error_rate']:>16.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    print(json.dumps(result["detail"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh interpreter, then one summary table."""
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows.append((name, json.loads(lines[-2]), json.loads(lines[-1])))
    print("== summary")
    for name, detail, result in rows:
        cells = [] if trace else [f"{k}={m['value']:.6g}{m['unit']}"
                                  for k, m in result["metrics"].items()]
        print(f"{name:18s} error_rate={detail['error_rate']:.3g} "
              f"correct={result['correct']} digest={detail['digest_vs_seed_code']} {' '.join(cells)}")
    return 0 if all(r[2]["correct"] for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latfree", "__init__.py")):
        print(f"error: no latfree package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
