"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Generates the workload's inputs from the seed, times them in
fresh processes, checks every output against the oracles, prints a
human-readable report and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("solve_scale", "graph_scale", "query_staged", "cli_cold")
SETUP_SAMPLES = 3          # fresh processes whose set-up time is taken
CHILD_TIMEOUT_S = 150


def spawn(argv, env, stdin_text):
    """Run a child to completion; return (exit code, stdout, stderr).
    The child is killed if it outlives the timeout."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate(stdin_text)
    finally:
        timer.cancel()
    return proc.returncode, out, err


def spawn_measured(argv, env, out_path, err_path):
    """A cold process timed from spawn to exit, with its own peak RSS."""
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


class Run:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.problems = []     # wrong outputs of operations that completed
        self.failures = []     # operations that raised or exited unexpectedly
        self.report = []
        self.memo = {}
        self.seen = {}
        self.ref_last = None
        self.raw_setup = []    # raw wall seconds, reported beside the metrics
        self.raw_cold = []

    def note(self, line):
        self.report.append(line)

    # -- in-process workers -----------------------------------------------------

    def worker(self, plan, mode, passes, trace):
        payload = json.dumps(plan.payload(mode, passes, trace))
        code, out, err = spawn([sys.executable, os.path.join(HERE, "worker.py")],
                               self.env, payload)
        if code != 0:
            raise RuntimeError(f"workload process failed ({code}): {err.strip()[-2000:]}")
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        return lines[:-1], lines[-1]["summary"]

    def check_ops(self, plan, records):
        """Check every output; return the normalised and raw seconds of one
        pass, each operation taken at its median over the passes."""
        norms, walls = {}, {}
        for rec in records:
            self.attempted += 1
            norms.setdefault(rec["op"], []).append(rec["norm"])
            walls.setdefault(rec["op"], []).append(rec["wall"])
            if rec["error"]:
                self.failed += 1
                self.failures.append(f"op {rec['op']} failed: {rec['error'][:300]}")
                continue
            key = (rec["op"], json.dumps(rec["out"], sort_keys=True))
            if key not in self.memo:
                try:
                    self.memo[key] = plan.checks[rec["op"]](rec["out"], self.seen)
                except Exception as exc:  # a malformed output is a wrong output
                    self.memo[key] = [f"check raised {type(exc).__name__}: {exc}"]
            for p in self.memo[key]:
                self.problems.append(f"op {rec['op']} ({plan.ops[rec['op']]['kind']}): {p}")
        return ({i: statistics.median(v) for i, v in norms.items()},
                {i: statistics.median(v) for i, v in walls.items()})

    # -- whole processes ----------------------------------------------------------

    def bracketed(self, fn):
        """Run ``fn`` between reference processes; return its result and how
        much slower than nominal the reference ran around it."""
        before = self.ref_last if self.ref_last is not None else common.time_ref_process(self.env)
        result = fn()
        self.ref_last = common.time_ref_process(self.env)
        return result, common.ref_factor(before, self.ref_last)

    def setup_samples(self, plan, n):
        """Set-up time of ``n`` fresh workload processes, normalised."""
        out = []
        for _ in range(n):
            (_, summary), factor = self.bracketed(lambda: self.worker(plan, "setup", 0, False))
            out.append(summary["setup_wall"] / factor)
            self.raw_setup.append(summary["setup_wall"])
        return out

    def cold(self, plan, run_dir, traced=False):
        """Run each CLI command once as a fresh process; return normalised
        seconds and peak RSS per process, and the traced children's stats."""
        times, rss, stats_runs = [], [], []
        for i, (argv, check) in enumerate(plan.cli):
            out_path = os.path.join(run_dir, f"cli_{i}.out")
            err_path = os.path.join(run_dir, f"cli_{i}.err")
            stats = os.path.join(run_dir, f"cli_{i}.stats")
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), stats]
            else:
                cmd = [sys.executable, "-m", "causalgames.cli"]
            (code, stdout, stderr, wall, peak), factor = self.bracketed(
                lambda: spawn_measured(cmd + ["--json"] + argv, self.env, out_path, err_path))
            times.append(wall / factor)
            self.raw_cold.append(wall)
            rss.append(peak)
            self.attempted += 1
            problems = check(code, stdout, stderr)
            if problems and problems[0].startswith(workloads.FAIL):
                self.failed += 1
                self.failures.append(f"cli {' '.join(argv)}: {problems[0]}")
                continue
            for p in problems:
                self.problems.append(f"cli {' '.join(argv)}: {p}")
            if traced:
                with open(stats) as fh:
                    stats_runs.append(json.load(fh))
        return times, rss, stats_runs


def in_process_passes(seconds, name):
    """Fixed work per run length: at least three passes, so that each
    operation's time can be its median over the passes."""
    return max(3, round(seconds / workloads.PASS_S[name]))


def cli_passes(seconds):
    return max(1, round(seconds / workloads.PASS_S["cli_cold"]))


def end_to_end(run, plan, run_dir):
    name = run.args.workload
    metrics = {}
    setups = run.setup_samples(plan, SETUP_SAMPLES)
    if name != "cli_cold":
        passes = in_process_passes(run.args.seconds, name)
        records, summary = run.worker(plan, "run", passes, False)
        per_op, per_op_wall = run.check_ops(plan, records)
        norm, wall = sum(per_op.values()), sum(per_op_wall.values())
        metrics["ops_per_s"] = (len(per_op) / norm, "1/s")
        metrics["peak_rss_mb"] = (summary["rss_mb"], "MB")
        shares = {}
        for i, t in per_op.items():
            op = plan.ops[i]
            family = f"{op['kind']}:{(op.get('game') or op.get('scenario')).split('_')[0]}"
            shares[family] = shares.get(family, 0.0) + t
        run.note("share of a pass: " + ", ".join(
            f"{k} {v / norm * 100:.1f}%" for k, v in sorted(shares.items())))
        run.note(f"timed operations: {len(records)} in {passes} passes; one pass of "
                 f"per-operation medians takes {norm:.3f} s normalised, {wall:.3f} s raw "
                 f"wall ({len(per_op) / wall:.3f} raw ops/s)")
        cold, _, _ = run.cold(plan, run_dir)
    else:
        cold, rss = [], []
        for _ in range(cli_passes(run.args.seconds)):
            t, r, _ = run.cold(plan, run_dir)
            cold += t
            rss += r
        metrics["ops_per_s"] = (len(cold) / sum(cold), "1/s")
        metrics["peak_rss_mb"] = (max(rss), "MB")
    metrics["cold_p50_ms"] = (statistics.median(cold) * 1e3, "ms")
    metrics["setup_s"] = (statistics.median(setups), "s")
    run.note(f"set-up samples (normalised s): {', '.join(f'{s:.4f}' for s in setups)}; "
             f"raw wall median {statistics.median(run.raw_setup):.4f} s")
    run.note(f"cold CLI processes: {len(cold)}, normalised ms: "
             f"{', '.join(f'{t * 1e3:.1f}' for t in cold)}; raw wall median "
             f"{statistics.median(run.raw_cold) * 1e3:.1f} ms")
    return metrics


def per_layer(run, plan, run_dir):
    """Untraced and traced runs of equal work; per-layer spans of the latter."""
    name = run.args.workload
    layers = dict.fromkeys(spans.TIME_NAMES, 0.0)
    counts = dict.fromkeys(spans.COUNT_NAMES, 0)
    self_ms = dict.fromkeys(spans.LAYERS, 0.0)
    if name != "cli_cold":
        passes = in_process_passes(run.args.seconds / 2, name)
        records, _ = run.worker(plan, "run", passes, False)
        plain = sum(run.check_ops(plan, records)[0].values())
        records, summary = run.worker(plan, "run", passes, True)
        traced = sum(run.check_ops(plan, records)[0].values())
        layers.update(summary["layers"])
        layers["cli.import_ms"] = summary["import_ms"]
        counts.update(summary["counts"])
        self_ms.update(summary["self_ms"])
    else:
        plain = traced = 0.0
        imports = []
        for _ in range(cli_passes(run.args.seconds / 2)):
            plain += sum(run.cold(plan, run_dir)[0])
            t, _, stats = run.cold(plan, run_dir, traced=True)
            traced += sum(t)
            for st in stats:
                imports.append(st["import_ms"])
                for k, v in st["layers"].items():
                    layers[k] += v
                for k, v in st["counts"].items():
                    counts[k] += v
                for k, v in st["self_ms"].items():
                    self_ms[k] += v
        layers["cli.import_ms"] = statistics.median(imports)
    metrics = {k: (v, "ms") for k, v in layers.items()}
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics.update({f"{k}.self_ms": (v, "ms") for k, v in self_ms.items()})
    metrics["trace.overhead_pct"] = ((traced / plain - 1.0) * 100.0, "%")
    total = sum(self_ms.values())
    run.note(f"tracing overhead: untraced {plain:.3f} s, traced {traced:.3f} s (normalised)")
    run.note(f"self-time share by layer ({name}, {total:.1f} normalised ms traced):")
    for layer in spans.LAYERS:
        run.note(f"  {layer:<14} {self_ms[layer]:10.1f} ms  {self_ms[layer] / total * 100:5.1f}%")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "causalgames", "__init__.py")):
        print("error: run from a source checkout: src/causalgames is missing",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    run_dir = os.path.join(root, ".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        plan = workloads.build(args.workload, args.seed, root, run_dir)
        if args.trace:
            metrics = per_layer(run, plan, run_dir)
        else:
            metrics = end_to_end(run, plan, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    for kind, items in (("FAILED", run.failures), ("WRONG", run.problems)):
        for p in items[:20]:
            run.note(f"{kind}: {p}")
        if len(items) > 20:
            run.note(f"... and {len(items) - 20} more")
    for line in run.report:
        print(line)
    for k, (v, unit) in sorted(metrics.items()):
        print(f"{k} = {v:.6g} {unit}")
    print(f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
