"""Benchmark of supercohom, run from the repository root.

    python3 bench/run.py --workload cli-fixtures --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36

One user waits for one exact answer at a time, so the load is a closed loop
of one operation at a time from one process.  Each pass over a workload's
operations runs in a child forked from a parent that has only imported
supercohom and built the inputs (cli-fixtures forks one child per command, as
a user pays parse and validation on every invocation), so no state left by
one pass speeds up the next.  Every answer is checked.

--trace 0 measures with tracing off and reports the end-to-end metrics:
wall_s (median over passes of the summed operation times), slowest_op_s (the
operation with the largest median time over the passes), setup_s (median of
several set-ups: import of supercohom plus building the inputs), peak_rss_mb
(median over passes of the largest child resident set).  Times are
calibrated against host-speed drift (see calibrate.py).

--trace 1 runs one untraced pass, one pass with spans and one pass with
counts, and reports the per-layer metrics; its spans are written to
.bench_out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status 2 means the program under test was not found.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-fixtures", "cohomology-ladder", "random-equivariant")
SETUP_REPEATS = 7
OUT_DIR = ".bench_out"


class ChildFailed(RuntimeError):
    pass


def in_child(fn):
    """Run fn() in a forked child; return (its JSON result, its rusage)."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            data = json.dumps(fn()).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise ChildFailed(f"benchmark child exited with status {status}")
    return json.loads(data), usage


# -- set-up ------------------------------------------------------------------------


def build(name, seed):
    """Import supercohom and build the inputs and operations of a workload."""
    import workloads

    wl = workloads.WORKLOADS[name]
    return wl.ops(wl.inputs(seed)), wl.fork_per_op


def timed_setup(name, seed):
    before = calibrate.take_slice()
    start = time.perf_counter()
    build(name, seed)
    elapsed = time.perf_counter() - start
    return calibrate.normalize(start, elapsed, [before, calibrate.take_slice()])


# -- passes ------------------------------------------------------------------------


def run_ops(ops, ids, mode, setup=None):
    """Child body: run the operations ids, check each answer, maybe trace.

    A traced child first repeats the set-up (building the inputs) under the
    tracer as operation "setup", so layers that work only in set-up show too.
    """
    import tracer

    tr = None
    if mode == "spans":
        tr = tracer.SpanTracer().install()
    elif mode == "counts":
        tr = tracer.CountTracer().install()
    if mode == "spans" and setup is not None:
        tr.run_op("setup", "setup", setup)
    elif setup is not None:
        setup()
    slices = calibrate.Slices()
    slices.take()
    results = []
    for i in ids:
        op = ops[i]
        start = time.perf_counter()
        try:
            answer = tr.run_op(i, op.label, op.run) if mode == "spans" else op.run()
            error = None
        except Exception as exc:
            answer, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = op.check(answer)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        results.append([i, start, elapsed, error])
        slices.take(after=elapsed)
    out = {"results": results, "slices": slices.items}
    if tr is not None:
        tr.restore()
        out["missing"] = tr.missing
        if mode == "spans":
            out["spans"] = tr.spans
        else:
            out["calls"], out["sums"] = tr.calls, tr.sums
    return out


class Pass:
    """One pass: per-operation results and calibrated times, spans, counts.

    times[i] is the calibrated time of operation i, wall their sum, and
    raw_wall the uncalibrated wall time of the whole pass, forks included.
    """

    def __init__(self):
        self.raw_wall = 0.0
        self.wall = 0.0
        self.times: dict[int, float] = {}
        self.rss_kib = 0
        self.results = []
        self.slices = []
        self.spans = []
        self.calls: dict[str, int] = {}
        self.sums: dict[str, int] = {}
        self.missing: set[str] = set()

    def failures(self, ops):
        return [f"{ops[i].label}: {err}" for i, _, _, err in self.results if err is not None]

    def absorb(self, payload):
        self.results.extend(payload["results"])
        self.slices.extend(payload["slices"])
        self.missing.update(payload.get("missing", ()))
        offset = len(self.spans)
        for name, start, end, parent, op in payload.get("spans", ()):
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op))
        for mine, theirs in ((self.calls, payload.get("calls", {})), (self.sums, payload.get("sums", {}))):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value


def run_pass(ops, fork_per_op, mode=None, setup=None):
    groups = [[i] for i in range(len(ops))] if fork_per_op else [list(range(len(ops)))]
    p = Pass()
    start = time.perf_counter()
    for k, ids in enumerate(groups):
        payload, usage = in_child(functools.partial(run_ops, ops, ids, mode, setup if k == 0 else None))
        p.rss_kib = max(p.rss_kib, usage.ru_maxrss)
        p.absorb(payload)
    p.raw_wall = time.perf_counter() - start
    p.slices.sort()
    p.times = {i: calibrate.normalize(t0, dt, p.slices) for i, t0, dt, _ in p.results}
    p.wall = sum(p.times.values())
    return p


# -- reporting ---------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def slowest_op(passes):
    """The largest per-operation median time over the passes."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for i, t in p.times.items():
            times.setdefault(i, []).append(t)
    return max(statistics.median(ts) for ts in times.values())


def measure(name, seed, seconds):
    setups = [in_child(functools.partial(timed_setup, name, seed))[0] for _ in range(SETUP_REPEATS)]
    ops, fork_per_op = build(name, seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, fork_per_op))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.raw_wall for p in passes) > seconds:
            break
    metrics = {
        "wall_s": metric(statistics.median(p.wall for p in passes), "s"),
        "slowest_op_s": metric(slowest_op(passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(p.rss_kib for p in passes) / 1024, "MiB"),
    }
    return ops, passes, metrics


def trace_run(name, seed):
    import tracer

    ops, fork_per_op = build(name, seed)
    setup = functools.partial(build, name, seed)
    plain = run_pass(ops, fork_per_op, None, setup)
    spans = run_pass(ops, fork_per_op, "spans", setup)
    counts = run_pass(ops, fork_per_op, "counts", setup)
    metrics = {k: metric(v, "s") for k, v in tracer.self_time_metrics(spans.spans).items()}
    for key, value in tracer.count_metrics(counts.calls, counts.sums).items():
        metrics[key] = metric(value, "1" if key.endswith(("_ratio", "_density")) else "count")
    metrics["trace.overhead_s"] = metric(spans.wall - plain.wall, "s")
    metrics["trace.spans"] = metric(len(spans.spans), "count")
    missing = sorted(spans.missing | counts.missing)
    metrics["trace.missing"] = metric(len(missing), "count")
    for item in missing:
        print(f"missing: {item} is no longer in supercohom", file=sys.stderr)

    problems = tracer.check_op_self_times(spans.spans)
    for msg in problems:
        print(f"trace: {msg}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"spans: {len(spans.spans)} written to {path}", file=sys.stderr)
    return ops, [plain, spans, counts], metrics, problems


def report(ops, passes, metrics, extra_problems=()):
    failures = [f for p in passes for f in p.failures(ops)]
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    attempted = sum(len(p.results) for p in passes)
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted} attempted)")
    print("pass wall_s = " + ", ".join(f"{p.wall:.3f}" for p in passes))
    print("uncalibrated pass wall_s = " + ", ".join(f"{p.raw_wall:.3f}" for p in passes))
    result = {
        "correct": not failures and not extra_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))


def run_all(args):
    """Run every workload in a process of its own and print one table."""
    table = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in table.items():
        ratio = res["failed"] / res["attempted"]
        cells = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: {cells}  failed_ratio={ratio:.4g} 1 (attempted {res['attempted']})")
    print(json.dumps(table, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "supercohom", "__init__.py")):
        print("error: src/supercohom not found; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, src)

    if args.trace:
        ops, passes, metrics, problems = trace_run(args.workload, args.seed)
        report(ops, passes, metrics, problems)
    else:
        ops, passes, metrics = measure(args.workload, args.seed, args.seconds)
        report(ops, passes, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
