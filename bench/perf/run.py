#!/usr/bin/env python3
"""Host-performance benchmark of the ELSA simulator (README.md).

Builds bench/perf (a standalone CMake project that compiles src/) into
build/perf/, runs the elsa_perf binary (one pool thread), checks the
simulated outputs, and prints every metric with its unit.

    python3 bench/perf/run.py                  # every workload: an
                                               # untraced set, then
                                               # one traced run each
    python3 bench/perf/run.py --workload attn_long --seed 1 \\
        --seconds 20 --trace 0                 # one run; the last
                                               # stdout line is JSON
    python3 bench/perf/run.py --smoke          # one item per workload
    python3 bench/perf/run.py --compare A.json B.json
    python3 bench/perf/run.py --update-pins    # after a change that
                                               # alters simulated output

Metric names, units and regression bounds come from BENCHMARK.json at
the repository root; pinned fingerprints from bench/perf/pins.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "perf")
EXE = os.path.join(BUILD, "elsa_perf")
PINS = os.path.join(HERE, "pins.json")
DEFAULT_SEED = 1
WORKLOADS = ("attn_long", "attn_short_observed", "fig11_sweep",
             "serve_overload")
# Untraced runs per workload in a suite (--compare reads their spread).
REPEATS = 3

# Top-level layer calls elsa_perf times in a traced job (their shares
# sum to trace.coverage), then layers that lie inside them: the
# library's profiling scopes, and calls a workload times on a replay of
# its own (its extras).
LAYERS = (
    "elsa.engine", "elsa.system", "elsa.evaluate_mode",
    "workload.generate", "workload.evaluate",
    "attention.learn_threshold", "sim.accelerator", "sim.run",
    "obs.publish", "serve.catalog", "serve.run",
)
NESTED = ("lsh.hash_rows", "attention.threshold_observe",
          "attention.key_norms", "workload.sim_invocations",
          "sim.array", "sim.array_run", "serve.arrivals")


class BenchError(Exception):
    pass


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then (incrementally) build elsa_perf."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources at %s/src; run from a "
                         "checkout of the repository" % ROOT)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "elsa_perf",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if proc.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))


def run_elsa_perf(workload, seed, seconds, trace, smoke=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    if smoke:
        cmd += ["--smoke", "1"]
    # A traced run takes about `seconds` plus set-up; anything far
    # beyond that is a hang.
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=2 * seconds + 60)
    if proc.returncode != 0:
        raise BenchError("elsa_perf failed (%d): %s"
                         % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def pin_key(raw):
    return ("smoke/" if raw["smoke"] else "") + raw["workload"]


def check_pin(raw, pins):
    """None when no pin applies, "" when the pin matches, else the
    first difference."""
    pin = pins.get("workloads", {}).get(pin_key(raw))
    if raw["seed"] != pins.get("seed") or pin is None:
        return None
    if raw["fingerprint"] == pin["fingerprint"]:
        return ""
    for want, got in zip(pin["fields"], pin_fields(raw)):
        if want != got:
            return "pinned item/field/value '%s', got '%s'" % (want, got)
    return ("fingerprint %s != pinned %s (field count %d vs %d)"
            % (raw["fingerprint"], pin["fingerprint"],
               len(raw["fields"]), len(pin["fields"])))


def pin_fields(raw):
    return ["%d %s %d" % tuple(field) for field in raw["fields"]]


def ratio(num, den):
    return num / den if den else 0.0


def best_pass_s(raw):
    """One pass at its best: the sum of each item's best time; 0 when
    set-up or some item never completed (the run is then failed)."""
    best = raw["item_best_s"]
    if not best or None in best:
        return 0.0
    return sum(best)


def end_to_end(raw):
    return {
        "setup_s": raw["setup_s"],
        "sim_cycles_per_host_sec":
            ratio(sum(raw["item_cycles"]), best_pass_s(raw)),
        "peak_rss_mb": raw["peak_rss_mib"],
    }


def views(raw):
    """Workload-specific readings of an untraced run. Not gated: they
    move with the seed's inputs (sequence lengths, chosen p), which
    the gated metrics normalize away."""
    if not best_pass_s(raw):
        return {}
    best = raw["item_best_s"]
    counts = raw["counts"]
    out = {"item_host_ms_p50": (1e3 * statistics.median(best), "ms"),
           "item_host_ms_max": (1e3 * max(best), "ms")}
    if "sim.run.queries" in counts:
        out["sim_queries_per_host_sec"] = (
            counts["sim.run.queries"] / sum(best), "queries/s")
        out["sim.run.host_ns_per_candidate"] = (
            1e9 * sum(best) / counts["sim.run.candidates"], "ns")
    if "sim.array_run.cycles" in counts:
        out["sweep_host_s"] = (raw["setup_s"] + sum(best), "s")
    if "serve.offered" in counts:
        out["serve_requests_per_host_sec"] = (
            counts["serve.offered"] / sum(best), "requests/s")
    return out


def per_layer(raw):
    layers = raw["layers"]
    extras = raw["extras"]
    counts = raw["counts"]
    job = raw["traced_job_s"]
    out = {}
    for name in LAYERS + NESTED:
        t = layers.get(name, {"s": extras.get(name + ".s", 0.0),
                              "calls": extras.get(name + ".calls", 0)})
        out[name + ".share"] = ratio(t["s"], job)
        out[name + ".calls"] = int(t["calls"])
    out["obs.recorders.overhead_frac"] = extras.get(
        "obs.recorders.overhead_frac", 0.0)
    for name in ("sim.run.queries", "sim.run.candidates",
                 "sim.run.cycles", "sim.run.stall_cycles",
                 "sim.run.fallbacks", "sim.array_run.cycles",
                 "sim.array_run.invocations", "serve.offered",
                 "serve.admitted", "serve.completed", "serve.shed",
                 "serve.failed", "serve.retry_attempts",
                 "serve.faulty_attempts"):
        out[name] = counts.get(name, 0)
    out["sim.run.candidate_fraction"] = ratio(
        counts.get("sim.run.candidates", 0), counts.get("sim.run.pairs"))
    out["serve.goodput_fraction"] = ratio(
        counts.get("serve.completed", 0)
        - counts.get("serve.slo_violations", 0),
        counts.get("serve.offered"))
    out["serve.retry_fraction"] = ratio(
        counts.get("serve.retry_attempts", 0),
        counts.get("serve.dispatched"))
    covered = sum(t["s"] for t in layers.values() if not t["nested"])
    out["trace.coverage"] = ratio(covered, job)
    out["trace.overhead_frac"] = (
        ratio(raw["traced_pass_s"] or 0.0, best_pass_s(raw)) - 1.0)
    return out


def measure(bench, workload, seed, seconds, trace, smoke, pins):
    """One checked run: (result line dict, raw elsa_perf output)."""
    raw = run_elsa_perf(workload, seed, seconds, trace, smoke)
    attempted = raw["attempted"]
    failed = raw["failed"]
    errors = list(raw["errors"])
    pin_error = check_pin(raw, pins)
    if pin_error is not None:
        attempted += 1
    if pin_error:
        failed += 1
        errors.append("pin: " + pin_error)
    for e in errors:
        print("%s: FAILED %s" % (workload, e), file=sys.stderr)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    values = per_layer(raw) if trace else end_to_end(raw)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, raw


def print_table(workload, raw, result):
    print("== %s (seed %d, %s, %d passes, %d set-ups) fingerprint %s"
          % (workload, raw["seed"],
             "traced" if raw["traced"] else "untraced", raw["passes"],
             raw["setups"], raw["fingerprint"]))
    for name, m in result["metrics"].items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    if not raw["traced"]:
        print("  -- not gated (%d items, best of %d passes each):"
              % (len(raw["item_best_s"]), raw["passes"]))
        for name, (value, unit) in views(raw).items():
            print("  %-36s %16.6g %s" % (name, value, unit))
    print("  %-36s %16.6g ratio (%d of %d operations)"
          % ("failed_fraction", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]))


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(bench, path_a, path_b):
    """Per workload and end-to-end metric: ok, worse, or unresolved."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    failures = 0

    def untraced(doc, workload):
        return [r for r in doc["runs"]
                if r["workload"] == workload and not r["trace"]]

    for workload in WORKLOADS:
        runs_a, runs_b = untraced(a, workload), untraced(b, workload)
        if not runs_a or not runs_b:
            continue
        bad = [r for r in runs_a + runs_b if not r["correct"]]
        fps = {(r["seed"], r["fingerprint"]) for r in runs_a + runs_b}
        if bad or len(fps) != len({s for s, _ in fps}):
            print("%s: FAIL outputs differ or a run failed" % workload)
            failures += 1
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            lower = m["better"] == "lower"
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            wide = max(spread(va), spread(vb)) > bound
            all_better = (max(vb) < min(va)) if lower \
                else (min(vb) > max(va))
            if worse > bound and not wide:
                verdict = "WORSE"
                failures += 1
            elif wide and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-20s %-26s A %12.6g  B %12.6g  worse by %+6.2f%% "
                  "(bound %.0f%%, spread %.1f%%/%.1f%%) %s"
                  % (workload, name, ma, mb, 100 * worse, 100 * bound,
                     100 * spread(va), 100 * spread(vb), verdict))
    return 1 if failures else 0


def suite(bench, args, pins):
    """Untraced set, then one traced run, of every workload."""
    runs = []
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            for _ in range(1 if trace or args.smoke else REPEATS):
                result, raw = measure(bench, workload, args.seed,
                                      args.seconds, trace, args.smoke,
                                      pins)
                print_table(workload, raw, result)
                ok = ok and result["correct"]
                runs.append(dict(result, workload=workload, trace=trace,
                                 seed=args.seed,
                                 fingerprint=raw["fingerprint"],
                                 raw=raw))
    out = args.out or os.path.join(BUILD, "perf_results.json")
    with open(out, "w") as f:
        json.dump({"seconds": args.seconds, "seed": args.seed,
                   "runs": runs}, f, indent=1)
    print("results written to %s" % out)
    return 0 if ok else 1


def update_pins():
    pins = {"seed": DEFAULT_SEED, "workloads": {}}
    for smoke in (False, True):
        for workload in WORKLOADS:
            raw = run_elsa_perf(workload, DEFAULT_SEED, 0, 0, smoke)
            if raw["failed"]:
                raise BenchError("%s failed: %s"
                                 % (workload, raw["errors"]))
            pins["workloads"][pin_key(raw)] = {
                "fingerprint": raw["fingerprint"],
                "fields": pin_fields(raw)}
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1)
        f.write("\n")
    print("pinned %d fingerprints at seed %d in %s"
          % (len(pins["workloads"]), DEFAULT_SEED, PINS))
    return 0


def main(argv):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one minimal item per workload")
    parser.add_argument("--out", help="suite results file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(bench, *args.compare)
    build()
    pins = load_pins()
    if args.update_pins:
        return update_pins()
    if args.smoke:
        args.seconds = 0.0
    if args.workload is None:
        return suite(bench, args, pins)
    result, raw = measure(bench, args.workload, args.seed, args.seconds,
                          args.trace, args.smoke, pins)
    print_table(args.workload, raw, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(2)
