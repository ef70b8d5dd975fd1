"""End-to-end benchmark: solver, sweep harness and serve daemon.

Run from the root of a checkout:

    python benchmarks/e2e/run.py --workload fig6-pure --seed 0 --seconds 15
    python benchmarks/e2e/run.py --workload table1-sweep --trace 1
    python benchmarks/e2e/run.py --repeat 3 -o a.json      # all workloads

One run sets the workload up several times, runs passes over its fixed
input set, starting another only while it is expected to end within
``--seconds`` (at least one) and checking every verdict as it goes, and
then times the workload's imports in fresh interpreters; ``setup_s`` is the
median import time plus the median set-up. Every time is reported at the
reference host speed (hostspeed.py): divided by the host's slowdown over
it, which a fixed probe samples throughout the run. The last line of
standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics, which come from a
traced pass after an untraced one. The exit code is 0 only when every
output was correct.

Without ``--workload`` every workload runs, each in its own process, and
``--repeat N`` repeats the set, reversing the workload order on every other
repeat. See README.md for the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: fresh interpreters that time the workload's imports; ``setup_s`` takes
#: their median.
IMPORT_REPEATS = 3
WORK_DIR = ".e2e_work"
#: the tail percentile reported, where the sample leaves ten answers beyond it.
TAIL = 95

#: spans whose self time is reported, as a share of the traced wall.
SPAN_SHARES = (
    "core.engine.setup", "core.engine.propagate", "core.engine.assign",
    "core.engine.backtrack", "core.engine.pure", "core.engine.loop",
    "core.learning.analyze", "core.learning.model_cube", "core.learning.install",
    "core.heuristics.pick", "core.heuristics.frontier", "certify.check",
    "prenexing.prenex", "prenexing.miniscope", "incremental.solve",
)
#: spans whose call count is reported too.
SPAN_CALLS = (
    "core.engine.assign", "core.engine.pure", "core.learning.analyze",
    "core.learning.model_cube", "core.heuristics.pick", "certify.check",
    "prenexing.prenex",
)
ENGINE_COUNTS = (
    "decisions", "propagations", "conflicts", "solutions", "pure_literals",
    "clause_visits", "cube_visits",
)
#: serve client latency percentiles by request kind.
SERVE_LATENCIES = (("cold", 50), ("cold", 95), ("hit", 50), ("hit", 95), ("smv", 50))


def load_sibling(name: str):
    """Import benchmarks/e2e/<name>.py under a private module name (the
    tracer's file name would otherwise shadow the standard ``trace``)."""
    key = "e2e_" + name
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, os.path.join(HERE, name + ".py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(n: int) -> int:
    """TAIL, or the highest percentile below it that leaves at least ten of
    ``n`` samples beyond it (never below the median)."""
    return max(50, min(TAIL, math.floor(100 - 1000 / n)))


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped descendant's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_timings(modules) -> list:
    """(start, end, seconds) of importing ``modules`` in IMPORT_REPEATS fresh
    interpreters: the perf_counter readings around each interpreter and the
    import time it printed (a single import is too short to time)."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); %s; "
            "print(time.perf_counter() - t)" % (SRC, "; ".join("import " + m for m in modules)))
    samples = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                             text=True, check=True)
        samples.append((t0, time.perf_counter(), float(out.stdout)))
    return samples


# -- one workload in this process ---------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 work_dir: str) -> dict:
    workloads = load_sibling("workloads")
    wl = workloads.WORKLOADS[name](seed, tiny=tiny)
    for module in wl.modules:
        importlib.import_module(module)

    speed = load_sibling("hostspeed").HostSpeed().start()
    try:
        setups = []
        inputs = None
        try:
            for _ in range(1 if trace else wl.setup_repeats):
                if inputs is not None:
                    # one input set alive at a time, so peak_rss_mb sees one
                    wl.teardown(inputs)
                    inputs = None
                t0 = time.perf_counter()
                inputs = wl.setup(work_dir)
                setups.append((t0, time.perf_counter() - t0, inputs.phases))
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(wl.run_pass(inputs))
                if trace or time.perf_counter() - start + passes[-1].wall > seconds:
                    break
            traced = spans = None
            if trace:
                tracer_mod = load_sibling("trace")
                spool = os.path.join(work_dir, "spool")
                os.makedirs(spool, exist_ok=True)
                tracer = tracer_mod.Tracer(spool).install()
                try:
                    traced = wl.run_pass(inputs, tracer=tracer)
                finally:
                    tracer.flush()
                    tracer.restore()
                leftovers = tracer_mod.leftover_wrappers()
                if leftovers:
                    raise RuntimeError("tracer left wrappers behind: %s" % leftovers)
                spans = tracer_mod.merge(spool)
        finally:
            if inputs is not None:
                wl.teardown(inputs)
        rss = peak_rss_mb()
        # after the peak is read: the timing interpreters are children too
        imports = import_timings(wl.modules)
    finally:
        speed.stop()

    for p in passes + ([traced] if traced is not None else []):
        p.seconds = speed.scaled(p.wall, p.start)
        for op in p.ops:
            around = speed.slowdown(*(op.window or (p.start, p.start + p.wall)))
            op.seconds = statistics.median(s / around if t0 is None else speed.scaled(s, t0)
                                           for t0, s in op.timings)
    import_s = statistics.median(s / speed.slowdown(t0, t1) for t0, t1, s in imports)
    setup_s = statistics.median(speed.scaled(s, t0) for t0, s, _ in setups)
    return {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "import_s": import_s,
        "raw_import_s": statistics.median(s for _, _, s in imports),
        "setups": [(s, phases) for _, s, phases in setups],
        "setup_s": import_s + setup_s,
        "passes": passes,
        "slowdowns": [speed.slowdown(p.start, p.start + p.wall) for p in passes],
        "traced": traced,
        "spans": spans,
        "peak_rss_mb": rss,
        "pool_slots": wl.pool_slots,
    }


def latencies_ms(ops) -> list:
    return sorted(1000.0 * op.seconds for op in ops)


def op_latencies_ms(passes) -> list:
    """Each operation's median time over the passes, which run the same
    operations in the same order: the sample size, and so the tail
    percentile taken, does not depend on how many passes fit in a run."""
    return sorted(1000.0 * statistics.median(op.seconds for op in same)
                  for same in zip(*(p.ops for p in passes)))


def end_to_end(run: dict) -> dict:
    ops = [op for p in run["passes"] for op in p.ops]
    latencies = op_latencies_ms(run["passes"])
    certified = [op for op in ops if op.certificate is not None]
    return {
        "wall_s": statistics.median(p.seconds for p in run["passes"]),
        "setup_s": run["setup_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, tail_percentile(len(latencies))),
        "decided_frac": sum(op.decided for op in ops) / len(ops),
        # No certified run, no unverified certificate.
        "verified_frac": (sum(op.certificate == "verified" for op in certified) / len(certified)
                          if certified else 1.0),
        "correct_frac": 1.0 - sum(op.wrong for op in ops) / len(ops),
        "answered_frac": 1.0 - sum(op.failed for op in ops) / len(ops),
    }


def per_layer(run: dict) -> dict:
    untraced = run["passes"][0]
    traced = run["traced"]
    merged = run["spans"]
    spans = merged["spans"]
    counts = untraced.counts
    wall = traced.wall
    out = {}

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    for name in ENGINE_COUNTS:
        out["core.engine." + name] = counts.get(name, 0)
    for name in SPAN_SHARES:
        out[name + ".self_frac"] = span(name, "self_s") / wall
    for name in SPAN_CALLS:
        out[name + ".calls"] = span(name, "calls")
    out["core.learning.clause_lits_mean"] = (
        counts.get("learned_clause_lits", 0) / max(1, counts.get("learned_clauses", 0)))
    out["core.learning.cube_lits_mean"] = (
        counts.get("learned_cube_lits", 0) / max(1, counts.get("learned_cubes", 0)))

    steps = merged["counters"].get("certify.steps", 0)
    check_s = span("certify.check", "self_s")
    out["certify.steps"] = steps
    out["certify.steps_per_s"] = steps / check_s if check_s else 0.0

    # The pool: tasks handed to run_tasks and worker attempts (the traced
    # execute spans); idle = capacity the run_tasks calls held but did not
    # spend executing a task.
    out["evalx.parallel.tasks"] = counts.get("tasks", 0) or sum(
        op.kind == "cold" for op in untraced.ops)
    out["evalx.parallel.attempts"] = span("evalx.parallel.execute", "calls")
    out["evalx.parallel.failed"] = counts.get("failed_tasks", 0) or sum(
        op.failed for op in untraced.ops if op.kind == "cold")
    capacity = run["pool_slots"] * span("evalx.parallel.run_tasks", "total_s")
    busy = span("evalx.parallel.execute", "total_s")
    out["evalx.parallel.idle_frac"] = 1.0 - busy / capacity if capacity else 0.0

    for kind, q in SERVE_LATENCIES:
        values = latencies_ms(op for op in untraced.ops if op.kind == kind)
        out["serve.%s.p%d_ms" % (kind, q)] = percentile(values, q) if values else 0.0
    requests = sum(op.kind in ("cold", "hit") for op in untraced.ops)
    out["serve.cache_hit_frac"] = counts.get("cache_hits", 0) / requests if requests else 0.0
    out["serve.daemon.solves"] = counts.get("daemon_solves", 0)
    out["serve.daemon.incremental_solves"] = counts.get("incremental_solves", 0)
    out["serve.supervisor.sheds"] = counts.get("sheds", 0)
    out["serve.client_retries"] = counts.get("client_retries", 0)
    dispatch = {}
    for kind in ("solve", "smv-diameter"):
        out["serve.dispatch.%s.self_frac" % kind] = 0.0
    for run_id, name, _, _, dur, _ in merged["events"]:
        key = name + ".self_frac"
        if name.startswith("serve.dispatch.") and key in out:
            dispatch[run_id] = dur
            out[key] += dur / wall
    traced_latency = sum(op.latency for op in traced.ops if op.rid in dispatch)
    in_dispatch = sum(dispatch[op.rid] for op in traced.ops if op.rid in dispatch)
    out["serve.wait_frac"] = 1.0 - in_dispatch / traced_latency if traced_latency else 0.0
    smv = counts.get("smv_requests", 0)
    out["incremental.retained_mean"] = counts.get("retained", 0) / smv if smv else 0.0

    phases = run["setups"][-1][1]
    setup_total = sum(phases.values())
    out["smv.encode_frac"] = phases.get("encode", 0.0) / setup_total
    out["generators.generate_frac"] = phases.get("generate", 0.0) / setup_total
    baseline = statistics.mean(p.seconds for p in run["passes"])
    out["trace.overhead_frac"] = traced.seconds / baseline - 1.0
    return out


def result_line(run: dict, metrics: dict, units: dict) -> dict:
    ops = [op for p in run["passes"] for op in p.ops]
    if run["traced"] is not None:
        ops += run["traced"].ops
    problems = [msg for p in run["passes"] for msg in p.problems]
    if run["traced"] is not None:
        problems += run["traced"].problems
    failed = sum(op.failed or op.wrong for op in ops)
    return {
        "correct": not problems and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def metric_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(run: dict, line: dict) -> None:
    passes = run["passes"]
    engines = sorted({e for p in passes for e in p.engines})
    print("workload %s  seed %d%s" % (run["workload"], run["seed"], "  (tiny)" if run["tiny"] else ""))
    print("engine %s" % ", ".join(engines or ["-"]))
    print("passes %d  walls %s s  host slowdowns %s  set-ups %s s (+ imports %.3f s)" % (
        len(passes), " ".join("%.3f" % p.wall for p in passes),
        " ".join("%.2f" % s for s in run["slowdowns"]),
        " ".join("%.3f" % s for s, _ in run["setups"]), run["raw_import_s"]))
    print("at the reference host speed: walls %s s  set-up %.3f s" % (
        " ".join("%.3f" % p.seconds for p in passes), run["setup_s"]))
    n = len(passes[0].ops)
    q = tail_percentile(n)
    print("latency samples %d (one per operation, its median timing): latency_p50_ms is p50, "
          "latency_p95_ms is p%d (%d beyond)" % (n, q, n - 1 - math.floor(q / 100 * (n - 1))))
    traced = [run["traced"]] if run["traced"] is not None else []
    for msg in [m for p in passes + traced for m in p.problems][:20]:
        print("PROBLEM %s" % msg)
    if run["traced"] is not None:
        print("traced pass %.3f s; spans (self share of the traced wall):" % run["traced"].wall)
        spans = run["spans"]["spans"]
        for name, rec in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print("  %-28s %9d calls %9.3f s total %9.3f s self %6.1f%%" % (
                name, rec["calls"], rec["total_s"], rec["self_s"],
                100.0 * rec["self_s"] / run["traced"].wall))
        by_kind = {}
        for op in passes[0].ops:
            by_kind.setdefault(op.kind, []).append(1000.0 * op.seconds)
        for kind, values in sorted(by_kind.items()):
            print("  latency %-6s p50 %8.2f ms  p95 %8.2f ms  (n=%d)" % (
                kind, percentile(values, 50), percentile(values, 95), len(values)))
    for name, entry in line["metrics"].items():
        print("%-40s %14.6g %s" % (name, entry["value"], entry["unit"]))


def detail(run: dict, metrics: dict) -> dict:
    """The JSON document ``-o`` writes for one run."""
    out = {
        "workload": run["workload"],
        "seed": run["seed"],
        "metrics": metrics,
        "passes": [{"wall_s": p.wall, "reference_wall_s": p.seconds, "slowdown": slowdown,
                    "ops": len(p.ops), "counts": p.counts, "problems": p.problems,
                    "engines": p.engines} for p, slowdown in zip(run["passes"], run["slowdowns"])],
        "setups": [{"seconds": s, "phases": ph} for s, ph in run["setups"]],
        "import_s": run["raw_import_s"],
        "reference_setup_s": run["setup_s"],
    }
    if run["spans"] is not None:
        out["trace"] = {k: run["spans"][k] for k in ("spans", "edges", "counters", "files")}
        out["trace"]["events"] = len(run["spans"]["events"])
    return out


def remove_work_dir(work_dir: str) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass  # another run is still using it


def single(args) -> int:
    work_dir = os.path.join(WORK_DIR, "%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.tiny, work_dir)
    finally:
        remove_work_dir(work_dir)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    line = result_line(run, metrics, metric_units())
    report(run, line)
    if args.output:
        document = {"runs": [{"repeat": 0, "trace": bool(args.trace), "result": line,
                              "detail": detail(run, metrics)}]}
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


# -- several workloads, one process each -----------------------------------


def orchestrate(args) -> int:
    names = [args.workload] if args.workload else list(load_sibling("workloads").WORKLOADS)
    runs = []
    work_dir = os.path.join(WORK_DIR, "%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    try:
        for repeat in range(args.repeat):
            order = names if repeat % 2 == 0 else names[::-1]
            for name in order:
                out_path = os.path.join(work_dir, "%s-%d.json" % (name, repeat))
                argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "-o", out_path]
                if args.tiny:
                    argv.append("--tiny")
                proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
                try:
                    stdout, _ = proc.communicate()
                except BaseException:
                    # pass SIGTERM on, so the run stops its own daemon
                    proc.terminate()
                    proc.wait()
                    raise
                sys.stdout.write(stdout)
                if not os.path.exists(out_path):
                    print("%s: run failed with exit code %d" % (name, proc.returncode))
                    return proc.returncode or 1
                with open(out_path) as handle:
                    entry = json.load(handle)["runs"][0]
                entry["repeat"] = repeat
                runs.append(entry)
    finally:
        remove_work_dir(work_dir)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump({"runs": runs}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    metrics = {}
    for name in names:
        results = [r["result"] for r in runs if r["detail"]["workload"] == name]
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            metrics["%s/%s" % (name, key)] = {
                "value": statistics.median(values), "unit": results[0]["metrics"][key]["unit"]}
    line = {
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fig6-pure", "fig6-certified",
                                               "table1-sweep", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="start another pass only while it is expected to end "
                             "within this many seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced pass after an untraced one")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repeat the workload set, alternating its order")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes (no decision pins)")
    parser.add_argument("-o", "--output", help="write the full results here (JSON)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.output:
        args.output = os.path.abspath(args.output)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("run.py: no repro sources under %s; run from a full checkout\n" % SRC)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like Ctrl-C, so set-up teardown still stops a daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload and args.repeat == 1:
        return single(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
