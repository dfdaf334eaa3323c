#!/usr/bin/env python3
"""End-to-end DASC benchmark: builds bench_e2e, runs workloads, checks them.

  python3 bench/e2e/run.py --seed 1            # every workload, end to end
  python3 bench/e2e/run.py --seed 1 --traced   # every workload, by layer
  python3 bench/e2e/run.py --workload wiki-coarse --seed 3 --seconds 15
  python3 bench/e2e/run.py --seed 1 --runs 5 --trace 2 --json-out base.json
  python3 bench/e2e/run.py --seed 1 --runs 5 --trace 2 --baseline base.json

Each workload runs in its own bench_e2e process (see bench_e2e.cpp), killed
with its whole process group if it outlives JOB_LIMIT_S. This script turns
the raw samples into the metrics BENCHMARK.json declares, applies the
correctness gates, prints every metric with its unit, and prints as its last
stdout line one JSON object with the keys correct, attempted, failed and
metrics. It exits 1 when a gate fails or a baseline bound is exceeded, and 2
when the benchmark cannot be built. Stdlib only.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = "build-e2e"
WORKLOADS = ["wiki-balanced", "wiki-balanced-mp", "wiki-coarse", "wiki-spill"]
MAPREDUCE = {"wiki-balanced", "wiki-balanced-mp", "wiki-spill"}
# Purity on seeds 1-10 spans 0.79-0.85 on the MapReduce workloads (identical
# labels) and 0.87-0.92 on wiki-coarse; a floor breach means broken labels.
PURITY_FLOOR = {"wiki-balanced": 0.7, "wiki-balanced-mp": 0.7,
                "wiki-coarse": 0.8, "wiki-spill": 0.7}
# A run must end well inside the 180 s any single benchmark run is allowed.
JOB_LIMIT_S = 150
# (bound, better) kept in absolute units; BENCHMARK.json bounds are shares of
# the baseline median. job_failure_ratio is 0 when healthy, so it cannot have
# a relative bound and is not an end_to_end metric there.
ABSOLUTE_BOUNDS = {"purity": (0.005, "higher"),
                   "job_failure_ratio": (0.0, "lower")}
EXTRA_UNITS = {"job_failure_ratio": "ratio"}
# A timed job is disturbed when the hypervisor stole more than this share of
# the machine's vCPU time while it ran (README.md, "Noise").
STEAL_LIMIT = 0.02


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def build(root=ROOT):
    """Configure once, then bring bench_e2e up to date; output to stderr."""
    build_dir = os.path.join(root, BUILD_DIR)
    steps = [["cmake", "--build", build_dir, "-j", "4",
              "--target", "bench_e2e"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(root, "bench", "e2e"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            return None
    return os.path.join(build_dir, "bench_e2e")


def parse_output(stdout):
    """The JSON object on the last non-empty line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and "jobs" in doc else None


def run_bench(command, limit=JOB_LIMIT_S, cwd=ROOT, env=None):
    """Run one bench process in its own process group; (doc, error)."""
    proc = subprocess.Popen(command, cwd=cwd, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %g s; process group killed" % limit
    if proc.returncode != 0:
        return None, "bench exited with code %d" % proc.returncode
    doc = parse_output(stdout)
    if doc is None:
        return None, "bench printed no result"
    return doc, None


def percentile(values, q):
    """Nearest-rank q-quantile, or None unless >= 10 samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def gate(doc, workload):
    """Correctness gates over one bench result: (failures, failed jobs).

    A failure that points at particular jobs fails those jobs; one that
    concerns the whole workload (purity) fails all of them.
    """
    jobs = doc["jobs"]
    failures = []
    bad = set()
    for i, job in enumerate(jobs):
        if not job["ok"]:
            bad.add(i)
            failures.append("%s job %d failed: %s"
                            % (job["phase"], i, job["error"]))
    ok = [i for i in range(len(jobs)) if i not in bad]
    runs = [i for i in ok if jobs[i]["phase"] != "verify"]
    verify = [i for i in ok if jobs[i]["phase"] == "verify"]
    if not runs:
        return failures + ["no job succeeded"], len(jobs)
    # The verify job is the in-process, RAM-only reference on the same
    # inputs; without one the first job is the reference.
    ref = jobs[verify[0]] if verify else jobs[runs[0]]
    expected_records = 2 * doc["n"] if workload in MAPREDUCE else 0
    for i in runs + verify:
        job = jobs[i]
        for key, want in (("labels", ref["labels"]),
                          ("shuffle_bytes", ref["shuffle_bytes"]),
                          ("map_input_records", expected_records),
                          ("merged_buckets", doc["probe_merged_buckets"])):
            if job[key] != want:
                bad.add(i)
                failures.append("%s job %d: %s %s != %s"
                                % (job["phase"], i, key, job[key], want))
    if doc["purity"] < PURITY_FLOOR[workload]:
        bad.update(range(len(jobs)))
        failures.append("purity %.4f below floor %.2f"
                        % (doc["purity"], PURITY_FLOOR[workload]))
    return failures, len(bad)


def timed_jobs(doc):
    """The timed jobs behind job_s and cpu_s: the undisturbed ones if at
    least two are, else all of them."""
    timed = [job for job in doc["jobs"]
             if job["ok"] and job["phase"] == "timed"]
    clean = [job for job in timed if job["steal_share"] <= STEAL_LIMIT]
    return clean if len(clean) >= 2 else timed


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(doc):
    timed = timed_jobs(doc)
    # Set-up i is corpus_s[i] plus the i-th warm-up job.
    warmups = [job for job in doc["jobs"] if job["phase"] == "warmup"]
    return {
        "job_s": median_or_none(job["wall_s"] for job in timed),
        "cpu_s": median_or_none(job["cpu_s"] for job in timed),
        "setup_s": median_or_none(
            corpus + job["wall_s"]
            for corpus, job in zip(doc["corpus_s"], warmups) if job["ok"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "purity": doc["purity"],
    }


def layers(doc):
    """Per-layer metrics of a traced run; absent ones are left out."""
    jobs = [job for job in doc["jobs"] if job["ok"]]
    traced = [job for job in jobs if job["phase"] == "traced"]
    out = {"data.corpus_s": statistics.median(doc["corpus_s"]),
           "lsh.merged_buckets": doc["probe_merged_buckets"]}
    out.update(doc["probes"])
    for name in sorted({name for job in traced for name in job["layers"]}):
        out[name] = statistics.median(job["layers"][name] for job in traced
                                      if name in job["layers"])
    for key, quantiles in (("map_task_ms", (0.5, 0.99)),
                           ("cluster_reduce_task_ms", (0.5, 0.9))):
        pooled = [ms for job in traced for ms in job[key]]
        for q in quantiles:
            value = percentile(pooled, q)
            if value is not None:
                name = key.replace("cluster_", "clustering_")
                out["mapreduce.%s_p%d" % (name, round(q * 100))] = value
    base = end_to_end(doc)["job_s"]
    if traced and base:
        out["bench.trace_overhead_ratio"] = (
            statistics.median(job["wall_s"] for job in traced) / base)
    return out


def evaluate(workload, doc, error, traced=False):
    """One workload's verdict, job accounting, and its end-to-end metrics
    (untraced run) or layer metrics (traced run)."""
    result = {"workload": workload, "traced": traced}
    if doc is None:
        result.update(failures=[error], attempted=1, failed=1,
                      end_to_end={"job_failure_ratio": 1.0}, layers={},
                      samples=0, disturbed=0)
        return result
    failures, failed = gate(doc, workload)
    e2e = {} if traced else end_to_end(doc)
    e2e["job_failure_ratio"] = failed / len(doc["jobs"])
    timed = [job for job in doc["jobs"]
             if job["ok"] and job["phase"] == "timed"]
    result.update(
        failures=failures, attempted=len(doc["jobs"]), failed=failed,
        end_to_end=e2e, layers=layers(doc) if traced else {},
        samples=len(timed_jobs(doc)),
        disturbed=sum(job["steal_share"] > STEAL_LIMIT for job in timed))
    return result


def regressed(base, new, bound, better, absolute=False):
    """True if `new` is worse than `base` by more than `bound`."""
    worse = new - base if better == "lower" else base - new
    return worse > (bound if absolute else bound * abs(base))


def summarize(values):
    values = sorted(v for v in values if v is not None)
    if not values:
        return None
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def compare(baseline, summary, spec):
    """Messages for every end-to-end median worse than its bound allows."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    messages = []
    for workload, metrics in summary["workloads"].items():
        base_metrics = baseline["workloads"].get(workload, {})
        for name, stats in metrics["end_to_end"].items():
            base = base_metrics.get("end_to_end", {}).get(name)
            if base is None or stats is None:
                continue
            absolute = name in ABSOLUTE_BOUNDS
            bound, better = (ABSOLUTE_BOUNDS if absolute else bounds)[name]
            if regressed(base["median"], stats["median"], bound, better,
                         absolute):
                messages.append(
                    "%s %s: median %.6g vs baseline %.6g (bound %s%g)"
                    % (workload, name, stats["median"], base["median"],
                       "" if absolute else "x", bound))
    return messages


def units(spec):
    table = dict(EXTRA_UNITS)
    for section in ("end_to_end", "per_layer"):
        table.update({m["name"]: m["unit"] for m in spec[section]})
    return table


def print_table(result, unit_of, per_layer):
    print("== %s%s: %d/%d jobs failed; medians over %d timed jobs "
          "(%d disturbed by steal)"
          % (result["workload"], " (traced)" if result["traced"] else "",
             result["failed"], result["attempted"], result["samples"],
             result["disturbed"]))
    for failure in result["failures"]:
        print("   FAIL %s" % failure)
    rows = list(result["end_to_end"].items())
    if result["traced"]:
        rows += [(name, result["layers"].get(name)) for name in per_layer]
    for name, value in rows:
        shown = "absent" if value is None else "%.6g" % value
        print("   %-42s %14s %s" % (name, shown, unit_of.get(name, "")))


def host_info(root=ROOT):
    info = {"nproc": os.cpu_count(), "cpu_model": "", "compiler": ""}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")), "")
        with open(os.path.join(root, BUILD_DIR, "CMakeCache.txt")) as f:
            compiler = next(line.split("=", 1)[1].strip() for line in f
                            if line.startswith("CMAKE_CXX_COMPILER:"))
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True)
        info["compiler"] = version.stdout.splitlines()[0]
    except (OSError, StopIteration, IndexError):
        pass
    return info


def summarize_results(results, workloads):
    """Per workload: median, quartiles and count of every metric."""
    out = {}
    for workload in workloads:
        mine = [r for r in results if r["workload"] == workload]
        out[workload] = {}
        for section in ("end_to_end", "layers"):
            names = sorted({name for r in mine for name in r[section]})
            out[workload][section] = {
                name: summarize([r[section].get(name) for r in mine])
                for name in names}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                        help="0: end-to-end metrics; 1: layer metrics from "
                             "a traced run; 2: both, an untraced and a "
                             "traced run per repetition")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each workload; report median and "
                             "quartiles")
    parser.add_argument("--json-out",
                        help="write the summary (medians, quartiles, host)")
    parser.add_argument("--baseline",
                        help="exit 1 if a median is worse than this "
                             "summary by more than its bound")
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or WORKLOADS
    binary = build()
    if binary is None:
        print("bench_e2e: build failed", file=sys.stderr)
        return 2
    tmp_dir = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(os.path.join(ROOT, tmp_dir), exist_ok=True)
    # Relative paths keep the workers' socket names short; TMPDIR keeps every
    # scratch file inside the checkout. A fixed mmap threshold (glibc's
    # default value, minus its dynamic raise) returns freed Gram blocks to
    # the kernel, so peak RSS tracks live memory rather than arena retention.
    env = dict(os.environ, TMPDIR=tmp_dir, MALLOC_MMAP_THRESHOLD_="131072")

    unit_of = units(spec)
    per_layer = [m["name"] for m in spec["per_layer"]]
    modes = [0, 1] if args.trace == 2 else [args.trace]
    results = []
    for _ in range(args.runs):
        for workload in workloads:
            for traced in modes:
                command = [binary, "--workload", workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(seconds),
                           "--trace", str(traced), "--tmp-dir", tmp_dir]
                if traced:
                    command += ["--trace-out", os.path.join(
                        BUILD_DIR,
                        "trace-%s-seed%d.json" % (workload, args.seed))]
                doc, error = run_bench(command, env=env)
                result = evaluate(workload, doc, error, traced=bool(traced))
                print_table(result, unit_of, per_layer)
                results.append(result)

    summary = {"seed": args.seed, "runs": args.runs, "seconds": seconds,
               "trace": args.trace, "host": host_info(),
               "workloads": summarize_results(results, workloads)}
    if args.runs > 1:
        print("== median [q1, q3] over %d runs" % args.runs)
        for workload, sections in summary["workloads"].items():
            for section in sections.values():
                for name, stats in section.items():
                    if stats is not None:
                        print("   %-17s %-42s %12.6g [%.6g, %.6g] %s"
                              % (workload, name, stats["median"],
                                 stats["q1"], stats["q3"],
                                 unit_of.get(name, "")))

    messages = []
    if args.baseline:
        with open(args.baseline) as f:
            messages = compare(json.load(f), summary, spec)
        for message in messages:
            print("   REGRESSION %s" % message)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")

    correct = all(not r["failures"] for r in results)
    names = [m["name"] for mode in modes
             for m in spec["per_layer" if mode else "end_to_end"]]
    metrics = {}
    for workload, sections in summary["workloads"].items():
        merged = {**sections["end_to_end"], **sections["layers"]}
        prefix = "" if len(workloads) == 1 else workload + "/"
        for name in names:
            # A layer absent on this workload reads 0 here; the table above
            # and README.md say which ones are absent where.
            stats = merged.get(name)
            metrics[prefix + name] = {
                "value": stats["median"] if stats else 0.0,
                "unit": unit_of[name]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct and not messages else 1


if __name__ == "__main__":
    sys.exit(main())
