"""Benchmark of the weylorders library and command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout.  The seed draws one plan of the
chosen workload (see ``workloads.py``); one runner process repeats that pass
as a closed loop with one client, each operation starting after the previous
one has finished and at most one child interpreter alive at a time, while
another pass fits in ``--seconds``.  Every output of every pass is checked
against ``mathref.py``; a wrong answer makes the command exit 1.  Each step
of a pass is timed, and the time of a pass is built from each step's fastest
repeat.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the untraced passes are followed by one traced pass and the
metrics are the per-layer ones.  The line before it stamps the run with its
seed, its number of passes and the machine.  ``--quick`` shrinks the pass to
a minimal size (for the smoke test).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150


class Pass:
    """Measurements of one pass: wall time, per-process setup and memory, the
    time of every step, outcomes."""

    def __init__(self):
        self.wall = 0.0
        self.busy = 0.0  # summed time of the children's operations
        self.setups = []
        self.import_s = []
        self.rss_kb = []
        # "op<j>" is the time of operation j of the plan (for a command, from
        # its interpreter being ready to its exit); "<step>.setup" is the time
        # from spawning an interpreter until the package is imported.
        self.steps = {}
        self.attempted = self.failed = self.items = 0
        self.problems = []
        self.traces = []
        self.versions = {}


def _spawn(cmd, root, out):
    """Run one child interpreter.

    Returns (exit code, stdout, stats or None, setup seconds, seconds from
    ready to exit)."""
    spawned = time.monotonic()
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", None, 0.0, 0.0
    ended = time.monotonic()
    if proc.returncode != 0 and proc.stderr:
        sys.stderr.write(proc.stderr[-2000:])
    if not os.path.exists(out):
        return proc.returncode, proc.stdout, None, 0.0, 0.0
    with open(out, encoding="utf-8") as fh:
        stats = json.load(fh)
    return proc.returncode, proc.stdout, stats, stats["ready"] - spawned, ended - stats["ready"]


def _record(p, stats, setup, step):
    if stats is None:
        return
    p.setups.append(setup)
    p.busy += stats["done"] - stats["started"]
    p.steps[step + ".setup"] = setup
    p.import_s.append(stats["import_s"])
    p.rss_kb.append(stats["maxrss_kb"])
    p.versions = {"python": stats["python"], "numpy": stats["numpy"]}
    if stats["trace"]:
        p.traces.append(stats["trace"])


def _settle(p, op, output):
    """Count one operation; check its output when it succeeded."""
    p.attempted += 1
    if output is None or "error" in output:
        p.failed += 1
        return
    problems = workloads.check(op, output)
    p.problems += problems
    if not problems:
        p.items += op["items"]


def _cli_output(p, argv, code, stdout):
    """The JSON document a command printed, or None for a failed command.

    Exit code 1 with a document is a verdict to check (``verify`` exits 1 when
    its report is not ok); exit code 1 without one is an error or a typed
    rejection.  Exit code 0 must come with a document."""
    if code not in (0, 1):
        return None
    try:
        return json.loads(stdout)
    except ValueError:
        if code == 0:
            p.problems.append(f"{argv}: output is not JSON")
        return None


def run_pass(ops, root, work, trace) -> Pass:
    p = Pass()
    os.makedirs(work)
    flag = ["--trace"] if trace else []
    start = time.monotonic()
    lib = [(j, op) for j, op in enumerate(ops) if op["kind"] != "cli"]
    if lib:
        ops_path, out = os.path.join(work, "lib_ops.json"), os.path.join(work, "lib_stats.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump([op for _, op in lib], fh)
        code, _, stats, setup, _ = _spawn(
            [sys.executable, CHILD, "lib", ops_path, out] + flag, root, out)
        _record(p, stats, setup, "lib")
        done = stats and code == 0
        results = stats["results"] if done else [None] * len(lib)
        for (j, op), res in zip(lib, results):
            _settle(p, op, res)
        if done:
            p.steps.update((f"op{j}", s) for (j, _), s in zip(lib, stats["op_s"]))
    for j, op in enumerate(ops):
        if op["kind"] != "cli":
            continue
        out = os.path.join(work, f"cli_{j}.json")
        argv = [a.replace("{cache}", os.path.join(work, "cache")) for a in op["argv"]]
        code, stdout, stats, setup, ran = _spawn(
            [sys.executable, CHILD, "cli", out] + flag + ["--"] + argv, root, out)
        _record(p, stats, setup, f"op{j}")
        if stats:
            p.steps[f"op{j}"] = ran
        _settle(p, op, _cli_output(p, argv, code, stdout))
    p.wall = time.monotonic() - start
    return p


# --- metrics -----------------------------------------------------------------------


def fastest_steps(passes):
    """Each step's fastest time over the passes.

    Every pass runs the same inputs in a fresh interpreter, so a step does the
    same work in every pass; the host only ever adds time to it, so the
    fastest repeat is the estimate of its cost least exposed to the host."""
    best = {}
    for p in passes:
        for step, s in p.steps.items():
            best[step] = min(s, best.get(step, s))
    return best


def end_to_end(passes):
    best = fastest_steps(passes)
    setup = sum(s for step, s in best.items() if step.endswith(".setup"))
    work = sum(best.values()) - setup
    attempted = sum(p.attempted for p in passes)
    return {
        "pass_s": (setup + work, "s"),
        "setup_s": (statistics.median(s for p in passes for s in p.setups), "s"),
        "items_per_s": (sum(p.items for p in passes) / len(passes) / work, "1/s"),
        "peak_rss_mb": (max(r for p in passes for r in p.rss_kb) / 1024, "MB"),
        "ok_ratio": ((attempted - sum(p.failed for p in passes)) / attempted, "ratio"),
    }


# Inclusive span time, span count, summed time of timed calls, and counters
# behind the per-layer metrics.
SPAN_TOTALS = ("weylchar.enumerate", "weylchar.validate", "cli.cache_store", "cli.cache_load",
               "reconstruct.reconstruct", "reconstruct.peel_max_coxeter",
               "reconstruct.verify_determination", "weylchar.invariant_profile",
               "orders.recognize_order", "cyclotomic.factorize", "coincidence.decompose",
               "coincidence.enumerate_two_factor_pairs", "compalg.albert_mul", "compalg.albert_q")
SPAN_CALLS = ("weylchar.validate", "cli.cache_store", "cli.cache_load", "weylchar.charpolys",
              "reconstruct.reconstruct", "reconstruct.peel_max_coxeter",
              "weylchar.invariant_profile", "orders.recognize_order", "cyclotomic.factorize",
              "coincidence.decompose", "compalg.albert_mul", "compalg.albert_q")
SUMMED_TIMES = ("compalg.oct_mul", "rootsystem.all_semisimple_types")
COUNTERS = {
    "weylchar.elements": "weylchar.elements",
    "weylchar.charpolys.entries": "weylchar.charpolys.entries",
    "cyclotomic.cyclo_mul.calls": "cyclotomic.cyclo_mul",
    "rootsystem.all_semisimple_types.types": "rootsystem.all_semisimple_types.types",
    "rootsystem.degrees.calls": "rootsystem.degrees",
    "orders.order_value.calls": "orders.order_value",
    "coincidence.evaluate_word.calls": "coincidence.evaluate_word",
    "coincidence.word_letters": "coincidence.word_letters",
    "compalg.oct_mul.calls": "compalg.oct_mul",
}


def per_layer(traced: Pass, untraced):
    """Per-layer metrics of the traced pass; the ``untraced`` passes ran the same inputs."""
    spans, counts, times, layer_time, outside = [], {}, {}, {}, 0.0
    for dump in traced.traces:
        base = len(spans)
        spans += [[i + base, None if par is None else par + base, name, start, end, lent]
                  for i, par, _, name, start, end, lent in dump["spans"]]
        for src, dst in ((dump["counts"], counts), (dump["times"], times),
                         (dump["layer_time"], layer_time)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        outside += dump["outside"]
    child_time = [0.0] * len(spans)
    for _, par, _, start, end, _ in spans:
        if par is not None:
            child_time[par] += end - start
    total, self_time, calls = {}, {}, {}
    for i, _, name, start, end, lent in spans:
        total[name] = total.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child_time[i] - lent
        calls[name] = calls.get(name, 0) + 1
    attributed = outside + sum(end - start for _, par, _, start, end, _ in spans if par is None)
    busy = traced.busy

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SPAN_TOTALS:
        m[f"{name}.s"] = (total.get(name, 0.0), "s")
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    m["weylchar.charpolys.s"] = (self_time.get("weylchar.charpolys", 0.0), "s")
    for name in SUMMED_TIMES:
        m[f"{name}.s"] = (times.get(name, 0.0), "s")
    for metric, counter in COUNTERS.items():
        m[metric] = (counts.get(counter, 0), "count")
    m["cli.cache_hit_ratio"] = (ratio(counts.get("cli.cache_load.hits", 0),
                                      calls.get("cli.cache_load", 0)), "ratio")
    m["orders.recognize_hit_ratio"] = (ratio(counts.get("orders.recognize.hits", 0),
                                             counts.get("orders.recognize.order_value_calls", 0)),
                                       "ratio")
    m["coincidence.peel_yield"] = (ratio(counts.get("coincidence.word_letters", 0),
                                         counts.get("coincidence.evaluate_word", 0)), "ratio")
    m["cli.import.s"] = (statistics.median(traced.import_s), "s")
    for layer in tracer.LAYERS:
        own = sum(v for k, v in self_time.items() if k.split(".")[0] == layer)
        m[f"layer.{layer}.self_s"] = (own + layer_time.get(layer, 0.0), "s")
    m["trace.attributed_share"] = (ratio(attributed, busy), "ratio")
    m["trace.overhead_s"] = (traced.wall - statistics.median(p.wall for p in untraced), "s")
    m["trace.spans"] = (len(spans), "count")
    return m


# --- the run -------------------------------------------------------------------------


def _commit(root):
    """The checked-out commit, read from ``.git``; None when it cannot be resolved."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _stamp(args, root, passes, versions):
    def first_line(path, prefix):
        try:
            with open(path, encoding="utf-8") as fh:
                return next((l.split(":", 1)[1].strip() for l in fh if l.startswith(prefix)), None)
        except OSError:
            return None

    mem = first_line("/proc/meminfo", "MemTotal")
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "passes": passes, "commit": _commit(root),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": first_line("/proc/cpuinfo", "model name"),
            "ram_mb": int(mem.split()[0]) // 1024 if mem else None, **versions}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weylorders", "cli.py")):
        print("error: run from the root of a weylorders checkout (src/weylorders not found)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".bench_work"))
    plan = workloads.PLANS[args.workload](random.Random(args.seed), args.quick)
    try:
        passes, start = [], time.monotonic()
        # Repeat the pass while another one fits in the time left.
        while not passes or (time.monotonic() - start + max(p.wall for p in passes)
                             <= args.seconds):
            pass_dir = os.path.join(work, f"pass{len(passes)}")
            passes.append(run_pass(plan, root, pass_dir, False))
            shutil.rmtree(pass_dir, ignore_errors=True)
        if args.trace:
            traced = run_pass(plan, root, os.path.join(work, "traced"), True)
            metrics = per_layer(traced, passes)
            passes.append(traced)
        else:
            metrics = end_to_end(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
    problems = [x for p in passes for x in p.problems]
    for line in problems[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    print(json.dumps({"stamp": _stamp(args, root, len(passes), passes[0].versions)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
