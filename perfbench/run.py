#!/usr/bin/env python3
"""Benchmark of the ultrafree CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn and names each metric
``<workload>/<metric>`` in the final line.

``--trace 0`` runs passes of the workload's commands, each command its own
``python -m ultrafree.cli`` process, one at a time (closed loop, one
client), until ``--seconds`` have passed, and reports the end-to-end
metrics, with every time scaled to a reference machine speed (see
REFERENCE_NS); the unscaled figures are printed before them.  ``--trace 1`` runs one untraced pass and then two in-process
traced passes (``tracer.py``), and reports the per-layer split.  Every
output is checked (``checks.py``).  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

``--record-digests`` runs one pass and stores the sha256 of every
command's stdout in ``digests.json``, to be checked by later runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CLI = [sys.executable, "-m", "ultrafree.cli"]
# Other load on the machine changes its speed by up to 60% for minutes at a
# time.  Every child's wall time is therefore also scaled to a reference
# speed: multiplied by REFERENCE_NS over the median speed (reference_ns)
# timed just before, every REFERENCE_EVERY_S during, and just after the
# child, on the same CPU.  REFERENCE_NS is the speed of a quiet 2-vCPU VM
# with Python 3.11.7.
REFERENCE_LOOP = 5_000
REFERENCE_NS = 35.0
REFERENCE_EVERY_S = 0.2
# set-up samples: a few first, then SETUP_RATE more spread over the run
SETUP_FIRST = 3
SETUP_RATE = 20
COMMAND_TIMEOUT_S = 120
TRACED_TIMEOUT_S = 150
BUDGET_NODES = 10**18
NPROC = len(os.sched_getaffinity(0))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# search meters, by the layer that opens them
NODE_OPS = [
    "setsystems.transversal_number",
    "setsystems.matching_number",
    "setsystems.helly_number",
    "setsystems.vc_dimension",
    "setsystems.mis_family",
    "graphs.chromatic_number",
    "graphs.clique_number",
    "graphs.max_clique",
    "graphs.enumerate_mis",
    "graphs.count_cliques",
    "graphs.list_cliques",
    "graphs.clique_codensity",
    "graphs.is_maximal_kr_free",
    "convexity.convex_sets",
    "ultra.nu_bi",
    "ultra.find_half_graph",
]
PER_LAYER_UNITS = {}
for _layer in list(tracer.LAYERS) + ["cli"]:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.errors"] = "count"
for _op in NODE_OPS:
    PER_LAYER_UNITS[f"{_op}.nodes"] = "count"
PER_LAYER_UNITS["catalog.canonical_forms"] = "count"
PER_LAYER_UNITS["lp.tableau_cells"] = "count"
PER_LAYER_UNITS["trace_overhead"] = "ratio"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # a user's default time budget would turn runs into exit-3 failures
    env.pop("ULTRAFREE_BUDGET_MS", None)
    # use bytecode caches as an installed package would, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_ns(repeats: int) -> float:
    """The machine's current speed: ns per addition in the fastest of a
    few runs of a short pure-Python loop.  The loop is shorter than a
    scheduler time slice, so it measures the CPU, not its share of it."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        x = 0
        for i in range(REFERENCE_LOOP):
            x += i
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_LOOP * 1e9


class Child:
    """One finished child process: exit code, wall time, max RSS, output.
    ``Session.spawn`` adds ``scaled_s``, the wall time at reference speed."""

    def __init__(self, argv: list[str], env: dict[str, str], timeout: float):
        # stdout goes to a file, so a large output cannot block the child
        out_path = WORK / f"stdout-{os.getpid()}"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, env=env, cwd=ROOT)
            timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
            timer.cancel()
        proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = "timeout" if proc.returncode == -signal.SIGKILL else proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = out_path.read_bytes()
        out_path.unlink()
        self.stderr = stderr.decode(errors="replace")


class Session:
    """State of one benchmark run: children spawned and failures seen."""

    def __init__(self, cmds, digests):
        self.cmds = cmds
        self.digests = digests
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.peak_rss_mb = 0.0
        self.metrics: dict[str, dict] = {}
        self.last_reference = reference_ns(5)

    def spawn(self, argv, timeout=COMMAND_TIMEOUT_S) -> Child:
        """Run one child; its wall time is also kept scaled to REFERENCE_NS."""
        refs = [self.last_reference]
        stop = threading.Event()

        def sample() -> None:
            # a long child is sampled while it runs; the loop takes the CPU
            # from it for 0.1% of the time
            while not stop.wait(REFERENCE_EVERY_S):
                refs.append(reference_ns(1))

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            child = Child(argv, self.env, timeout)
        finally:
            stop.set()
            sampler.join()
        self.last_reference = reference_ns(5)
        refs.append(self.last_reference)
        child.scaled_s = child.wall_s * REFERENCE_NS / statistics.median(refs)
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        return child

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail}".rstrip(), file=sys.stderr)

    def run_pass(self, before_each=lambda: None) -> list[Child]:
        children, outputs = [], []
        for cmd in self.cmds:
            before_each()
            child = self.spawn(CLI + cmd.argv)
            self.attempted += 1
            self.digest_checked += cmd.key in self.digests
            problem, obj = checks.check_command(cmd, child.code, child.stdout, self.digests)
            if problem:
                self.fail(cmd.key, f"{problem} {child.stderr[-500:]}")
                obj = None
            children.append(child)
            outputs.append(obj)
        for i in checks.check_dictionary(self.cmds, outputs):
            self.fail(self.cmds[i].key, "tau/nu of the star system differ from chi/omega")
        return children


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def measure_untraced(sess: Session, seconds: float) -> dict[str, float]:
    setup: list[Child] = []
    start = time.perf_counter()

    def sample_setup() -> None:
        # spread over the run, so that a burst of load elsewhere on the
        # machine moves few of the samples
        due = SETUP_FIRST + int(SETUP_RATE * min(1.0, (time.perf_counter() - start) / seconds))
        while len(setup) < due:
            child = sess.spawn(CLI[:1] + ["-c", "import ultrafree.cli"])
            if child.code != 0:
                sess.fail("import ultrafree.cli", child.stderr[-500:])
            setup.append(child)

    passes: list[list[Child]] = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(sess.run_pass(before_each=sample_setup))
    start -= seconds  # the last samples are due now
    sample_setup()
    # Each command's fastest scaled time over the passes.  Other load only
    # ever adds time, so the minimum of a few repeats is the steadiest
    # estimate of the program's own cost (the rule timeit follows).
    typical = [min(c.scaled_s for c in cs) for cs in zip(*passes)]
    raw = [min(c.wall_s for c in cs) for cs in zip(*passes)]
    tail_s, tail_pct = tail(typical)
    slowdown = statistics.median(c.wall_s / c.scaled_s for p in passes for c in p)
    print(f"passes = {len(passes)}  commands = {sum(map(len, passes))}  setup samples = {len(setup)}  "
          f"cmd_tail_ms is p{tail_pct:.1f} of {len(typical)} per-command minima")
    print("pass wall times = " + " ".join(f"{sum(c.wall_s for c in p):.3f}" for p in passes) + " s unscaled")
    print(f"unscaled: wall_s = {sum(raw):.4f} s  setup_s = {statistics.median(c.wall_s for c in setup):.4f} s  "
          f"cmd_p50_ms = {1000 * statistics.median(raw):.3f} ms  "
          f"cmd_tail_ms = {1000 * tail(raw)[0]:.3f} ms  median slowdown = {slowdown:.3f}")
    return {
        "wall_s": sum(typical),
        "setup_s": statistics.median(c.scaled_s for c in setup),
        "cmd_p50_ms": 1000 * statistics.median(typical),
        "cmd_tail_ms": 1000 * tail_s,
        "peak_rss_mb": sess.peak_rss_mb,
    }


def measure_traced(sess: Session) -> dict[str, float]:
    untraced = sess.run_pass()
    wall_s = sum(c.wall_s for c in untraced)
    out = WORK / f"trace-{os.getpid()}"
    out.mkdir(exist_ok=True)
    job = out / "job.json"
    job.write_text(json.dumps({"commands": [c.argv for c in sess.cmds], "budget_nodes": BUDGET_NODES}))
    runs = []
    for k in range(2):
        result, spans = out / f"result-{k}.json", out / f"spans-{k}.json"
        child = sess.spawn([sys.executable, str(Path(tracer.__file__)), str(job), str(result), str(spans)],
                           TRACED_TIMEOUT_S)
        if child.code != 0:
            sess.fail("traced run", f"exit {child.code} {child.stderr[-2000:]}")
            return {}
        run = json.loads(result.read_text(encoding="utf-8"))
        runs.append(run)
        for problem in run["problems"]:
            sess.fail("tracer self-test", problem)
        for cmd, base, traced in zip(sess.cmds, untraced, run["commands"]):
            sess.attempted += 1
            if traced["code"] != base.code or traced["stdout"].encode() != base.stdout:
                sess.fail(cmd.key, "traced output differs from the untraced output")
    first, second = (r["metrics"] for r in runs)
    for key in sorted(set(first) | set(second)):
        if not key.endswith("self_s") and first.get(key) != second.get(key):
            sess.fail("deterministic counts", f"{key}: {first.get(key)} != {second.get(key)}")
    unknown = sorted(k for k in first if k not in PER_LAYER_UNITS)
    if unknown:
        print(f"counters outside the metric list: {unknown}")
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            metrics[key] = statistics.mean(r["metrics"][key] for r in runs)
        elif unit == "count":
            metrics[key] = first.get(key, 0)
    metrics["trace_overhead"] = statistics.mean(r["total_s"] for r in runs) / wall_s
    print(f"traced total = {statistics.mean(r['total_s'] for r in runs):.4f} s  "
          f"untraced wall_s = {wall_s:.4f} s  spans per traced run = {runs[0]['spans']}")
    return metrics


def run_workload(name: str, args, digests: dict[str, str]) -> Session | None:
    """Run one workload and print its metrics; None if ultrafree cannot start."""
    cmds = workloads.build(name, args.seed, WORK / "inputs", ROOT)
    sess = Session(cmds, {} if args.record_digests else digests)
    probe = sess.spawn(CLI[:1] + ["-c", "import ultrafree; print(ultrafree.BACKEND)"])
    if probe.code != 0:
        print(f"cannot import ultrafree: {probe.stderr}", file=sys.stderr)
        return None
    print(f"workload = {name}  seed = {args.seed}  backend = {probe.stdout.decode().strip()}  "
          f"python = {platform.python_version()}  nproc = {NPROC}")
    if args.record_digests:
        for cmd, child in zip(cmds, sess.run_pass()):
            digests[cmd.key] = checks.digest(child.stdout)
        return sess
    if args.trace:
        values, units = measure_traced(sess), PER_LAYER_UNITS
    else:
        values, units = measure_untraced(sess, args.seconds), END_TO_END
    sess.metrics = {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()}
    for k, m in sess.metrics.items():
        print(f"{k} = {m['value']} {m['unit']}")
    print(f"failed_frac = {sess.failed / sess.attempted}  "
          f"({sess.failed} of {sess.attempted} commands; {sess.digest_checked} checked against a digest)")
    return sess


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.CLI_DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ultrafree" / "cli.py").is_file():
        print(f"no ultrafree sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    # children inherit this: they and the reference loop share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    digests = checks.load_digests()
    sessions = {}
    for name in names:
        sess = run_workload(name, args, digests)
        if sess is None:
            return 2
        sessions[name] = sess
    failed = sum(s.failed for s in sessions.values())
    if args.record_digests:
        if failed:
            return 1
        checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{len(digests)} digests recorded")
        return 0
    if len(names) == 1:
        metrics = sessions[names[0]].metrics
    else:
        metrics = {f"{n}/{k}": m for n, s in sessions.items() for k, m in s.metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": sum(s.attempted for s in sessions.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
