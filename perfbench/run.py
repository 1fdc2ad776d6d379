"""dynkit benchmark: run a workload's configs through ``dynkit run``, one fresh
process at a time as a user runs them, check every output and time it.

    python3 perfbench/run.py --workload wavepacket --seed 1 --seconds 20 --trace 0

Run from the root of a dynkit checkout (it needs ``src/`` and ``configs/``).
Each iteration validates every config (``setup_s``) and runs every config
(``wall_s``, ``cpu_s``, ``peak_rss_mb``), until the next iteration would end
after ``--seconds``.  Timings are per-config medians over the iterations,
summed over the configs, each sample scaled to the reference host speed
(see ``calibrate``); the unscaled sums are on the detail line.  With ``--trace 1`` each iteration also runs the
configs under the span tracer (tracing.py), and the kernel sweep (sweep.py)
runs once; the per-layer metrics are medians over the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries provenance and per-config details.  Every ``dynkit`` invocation (run
or validate) is an attempt; it fails on a nonzero exit, on a failed reference
check (checks.py), or when its data files differ from the first run of the
same config.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
WORK = os.path.join(ROOT, ".perfbench_work")

#: BLAS/OpenMP thread pin for the benchmark and every child; dynkit's
#: ``--threads`` flag does not control these pools.
THREAD_PIN = {key: "1" for key in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Time of one calibration loop at the reference host speed: about its time
#: on the 2-vCPU shared Xeon host (Python 3.11) the bounds were set on.
CALIBRATION_REF_S = 0.0045
CALIBRATION_ITERATIONS = 50_000


def _calibration_loop():
    start = time.perf_counter()
    total = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * 0.5
    return time.perf_counter() - start


def calibrate():
    """Median time of three runs of a fixed pure-Python loop.

    On a shared host the speed of a CPU drifts by up to 1.6x over seconds to
    minutes as other tenants load it, which moves a whole 30 s run.  The loop
    runs just before and just after each timed process, and the process's
    times are multiplied by CALIBRATION_REF_S over the mean of the two, so
    they read as at the reference speed.  The loop uses no dynkit code.
    """
    return statistics.median(_calibration_loop() for _ in range(3))


def _child_env():
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Client of launcher.py, which starts every timed dynkit process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            env=_child_env(), cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def spawn(self, argv, err_path):
        """Run argv to completion; returns (exit code, wall s, cpu s, max RSS MB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": err_path}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["wall_s"], reply["cpu_s"], reply["rss_mb"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def _stderr_tail(path):
    with open(path, "rb") as fh:
        lines = fh.read().decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Bench:
    def __init__(self, launcher, configs, work, accuracy):
        self.launcher = launcher
        self.configs = configs
        self.work = work
        self.accuracy = accuracy
        self.first_digests = {}
        self.attempted = 0
        self.failures = []
        self.samples = {}  # (kind, config) -> list of (wall, cpu, rss, scale)

    def spawn(self, argv, err_path):
        """launcher.spawn, plus the speed scale measured around the process."""
        before = calibrate()
        result = self.launcher.spawn(argv, err_path)
        scale = CALIBRATION_REF_S / ((before + calibrate()) / 2)
        return result + (scale,)

    def _record(self, kind, name, code, wall, cpu, rss, scale, problems,
                err_path):
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {_stderr_tail(err_path)}"] + problems
        if problems:
            self.failures.append({"config": name, "kind": kind,
                                  "problems": problems})
        self.samples.setdefault((kind, name), []).append((wall, cpu, rss, scale))

    def setup_pass(self):
        err = os.path.join(self.work, "stderr")
        for name, path, _ in self.configs:
            result = self.spawn(
                [sys.executable, "-m", "dynkit.cli", "validate", path], err)
            self._record("validate", name, *result, [], err)

    def run_pass(self, traced=False):
        """One run of every config; returns the span lists when traced."""
        import checks
        import tracing

        err = os.path.join(self.work, "stderr")
        spans_path = os.path.join(self.work, "spans.json")
        span_lists = []
        kind = "traced" if traced else "run"
        for name, path, cfg in self.configs:
            out = os.path.join(self.work, name + ".out")
            shutil.rmtree(out, ignore_errors=True)
            command = ([sys.executable, tracing.__file__, spans_path] if traced
                       else [sys.executable, "-m", "dynkit.cli"])
            code, *measured = self.spawn(command + ["run", path, "--out", out],
                                         err)
            problems = []
            if code == 0:
                first = self.first_digests.get(name)
                problems = checks.check_run(cfg, out, first, self.accuracy)
                if first is None:
                    self.first_digests[name] = checks.file_digests(out)
            if traced and os.path.exists(spans_path):
                span_lists.append(tracing.load_spans(spans_path))
                os.remove(spans_path)
            self._record(kind, name, code, *measured, problems, err)
            shutil.rmtree(out, ignore_errors=True)
        return span_lists

    def median_sum(self, kind, column, scaled=True):
        return sum(statistics.median(s[column] * (s[3] if scaled else 1.0)
                                     for s in self.samples[(kind, name)])
                   for name, _, _ in self.configs)

    def peak_rss(self, kind):
        return max(s[2] for name, _, _ in self.configs
                   for s in self.samples[(kind, name)])


def _git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _provenance(workload, seed, load_before):
    import numpy

    return {"git_sha": _git_sha(), "numpy": numpy.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_pin": THREAD_PIN, "workload": workload, "seed": seed,
            "loadavg_before": load_before, "loadavg_after": os.getloadavg()}


def measure(bench, seconds, trace):
    """Iterate until the next iteration would overrun; returns traced span lists."""
    start = time.perf_counter()
    traced_passes = []
    while True:
        begun = time.perf_counter()
        bench.setup_pass()
        bench.run_pass()
        if trace:
            traced_passes.append(bench.run_pass(traced=True))
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return traced_passes


def per_layer(bench, workload, traced_passes):
    import sweep
    import tracing

    passes = [tracing.layer_metrics(p) for p in traced_passes]
    values = {k: statistics.median(p[k] for p in passes) for k in tracing.UNITS}
    units = dict(tracing.UNITS)
    swept = {}
    if workload in sweep.GROUPS:
        out = subprocess.run([sys.executable, sweep.__file__, workload],
                             env=_child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"kernel sweep failed: {out.stderr.strip()}")
        swept = json.loads(out.stdout.strip().splitlines()[-1])
        if swept.keys() != sweep.METRICS[workload].keys():
            raise RuntimeError(f"kernel sweep reported {sorted(swept)}")
    for group in sweep.METRICS.values():
        for name, unit in group.items():
            values[name] = swept.get(name, 0.0)
            units[name] = unit
    values["trace.overhead_frac"] = (bench.median_sum("traced", 0)
                                     / bench.median_sum("run", 0) - 1.0)
    units["trace.overhead_frac"] = "ratio"
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join(SRC, "dynkit", "cli.py"), CONFIGS)
               if not os.path.exists(p)]
    if missing:
        print(f"error: not a dynkit checkout, missing {missing}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PIN)  # before numpy loads in this process
    sys.path.insert(0, SRC)

    load_before = os.getloadavg()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    launcher = Launcher()  # while this process is still small
    try:
        configs = workloads.build(args.workload, args.seed, CONFIGS, work)
        bench = Bench(launcher, configs, work,
                      accuracy=args.workload != "shipped")
        # untimed: compiles dynkit's bytecode and warms the page cache
        launcher.spawn([sys.executable, "-m", "dynkit.cli", "validate",
                        configs[0][1]], os.path.join(work, "stderr"))
        traced_passes = measure(bench, args.seconds, args.trace)
        if args.trace:
            metrics = per_layer(bench, args.workload, traced_passes)
        else:
            values = {"wall_s": bench.median_sum("run", 0),
                      "cpu_s": bench.median_sum("run", 1),
                      "setup_s": bench.median_sum("validate", 0),
                      "peak_rss_mb": bench.peak_rss("run")}
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
        failed = len(bench.failures)
        detail = {
            "provenance": _provenance(args.workload, args.seed, load_before),
            "iterations": len(bench.samples[("run", configs[0][0])]),
            "failed_frac": failed / bench.attempted,
            "unscaled": {"wall_s": bench.median_sum("run", 0, scaled=False),
                         "cpu_s": bench.median_sum("run", 1, scaled=False),
                         "setup_s": bench.median_sum("validate", 0,
                                                     scaled=False)},
            "speed_scale_median": statistics.median(
                s[3] for samples in bench.samples.values() for s in samples),
            "wall_samples_s": {name: {kind: [s[0] for s in bench.samples[(kind, name)]]
                                      for kind in ("validate", "run", "traced")
                                      if (kind, name) in bench.samples}
                               for name, _, _ in configs},
            "failures": bench.failures[:20],
        }
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
