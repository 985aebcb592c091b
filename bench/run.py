"""Benchmark of obfgame: one workload, its correctness checks, its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md): ``sweep`` runs ``obfgame sweep`` over a
3,200-point grid (once at ``--jobs 2``, then at ``--jobs 1``); ``solve``
calls ``pbne_solve`` on a batch of 1,000 distinct parameter sets; ``cascade``
runs ``obfgame cascade`` at N = 10,000; ``validate`` runs ``obfgame
validate`` at the default experiment.

Every operation runs in a fresh worker process (``worker.py``) against the
program under ``src/``.  The run first starts SETUP_REPEATS workers that only
set up, then runs operations until ``--seconds`` would be exceeded.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and reports per-layer metrics from
the traced ones.  The last line of stdout is the result object; the line
before it records the machine, the seed and the metrics under their
workload-specific names.  Spans and outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl
from spans import COUNTS, LAYERS, REPEATS, TARGETS, span_name

SETUP_REPEATS = 5
# Workers take turns on the CPUs the benchmark may use.  Left alone, the
# scheduler starts every worker on the same CPU, and on a shared host one
# CPU can run slow for a whole run while the other runs at full speed.
CPUS = (sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else [])
# Every worker is stopped this many seconds after the run starts.
RUN_LIMIT_S = 165.0

CLI_ARGS = {
    "sweep": ["sweep", "--jobs", "1"],
    "cascade": ["cascade"],
    "validate": ["validate"],
}
# the sweep's first operation, the only one that runs the process pool
SWEEP_POOL_ARGS = ["sweep", "--jobs", "2"]

REPEAT_RATIO = "stackelberg.threshold_crossings.repeat_ratio"

E2E_UNITS = {"setup_s": "s", "best_items_per_s": "1/s", "best_op_ms": "ms",
             "peak_rss_mb": "MB"}

# best_items_per_s and best_op_ms under the names each workload's users know
# them by
NAMED = {
    "sweep": [("sweep_points_per_s", "best_items_per_s", 1.0, "points/s")],
    "solve": [("solve_per_s", "best_items_per_s", 1.0, "solves/s"),
              ("solve_p50_us", "best_op_ms", 1e3, "us")],
    "cascade": [("cascade_updates_per_s", "best_items_per_s", 1.0,
                 "updates/s")],
    "validate": [("validate_s", "best_op_ms", 1e-3, "s")],
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, module, attr in TARGETS:
        units[f"{span_name(module, attr)}.calls"] = "count"
        units[f"{span_name(module, attr)}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    del units[REPEATS]
    units[REPEAT_RATIO] = "ratio"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = (
            workload, seed, seconds, trace)
        # outputs are compared with ref/ at the default seed, and always for
        # validate, whose experiment does not depend on the seed
        self.with_reference = (workload == "validate"
                               or seed == wl.DEFAULT_SEEDS[workload])
        self.out = wl.ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.config = self.out / "run.cfg"
        if workload != "solve":
            self.config.write_text(wl.cli_config(workload, seed))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(wl.SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sweep_bytes: str | None = None

    # -- workers ------------------------------------------------------------

    def spawn(self, mode: str, k: int, traced: bool = False,
              argv: list[str] | None = None, cpu: int | None = None) -> dict:
        op_dir = self.out / f"op{k}"
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode,
                "trace": traced, "config": str(self.config), "cpu": cpu,
                # the rows are compared with the reference only here
                "rows_path": (str(self.out / "solve0.csv")
                              if self.with_reference and k == 0 else None),
                "spans_path": str(self.out / f"spans{k}.npz")}
        if self.workload != "solve":
            spec["argv"] = (argv or CLI_ARGS[self.workload]) + [
                "--config", str(self.config), "--out", str(op_dir),
                "--seed", str(wl.cli_seed(self.workload, self.seed))]
        start = time.monotonic()
        spec["t_spawn"] = start
        # a process group of its own, so a timeout also stops the pool's workers
        proc = subprocess.Popen(
            [sys.executable, str(wl.BENCH / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self.env, cwd=wl.ROOT, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"{mode} worker {k} timed out"}
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"{mode} worker {k} exited {proc.returncode}: "
                             f"{stderr.strip()[-400:]}"}
        result = json.loads(lines[-1])
        result["wall"] = time.monotonic() - start
        result["dir"] = op_dir
        return result

    @staticmethod
    def cpu(turn: int) -> int | None:
        return CPUS[turn % len(CPUS)] if CPUS else None

    def fail(self, problems: list[str], count: int = 1) -> None:
        self.failed += count
        self.problems.extend(problems[: 5 - len(self.problems)])

    # -- checks -------------------------------------------------------------

    def check_cli(self, result: dict) -> float | None:
        """Check one CLI run.  Return its work items, or None if it left no
        output to time; a run whose output fails a check is still timed."""
        self.attempted += 1
        if "error" in result or result["rc"] != 0:
            self.fail([result.get("error") or
                       f"exit {result['rc']}: {result['stdout'][-300:]}"])
            return None
        try:
            return self._check_outputs(result["dir"])
        except OSError as exc:
            self.fail([f"missing output: {exc}"])
            return None
        finally:
            shutil.rmtree(result["dir"], ignore_errors=True)

    def _check_outputs(self, op_dir) -> float:
        if self.workload == "sweep":
            text = (op_dir / "sweep.csv").read_text()
            ref = (wl.reference("sweep.csv.xz") if self.with_reference
                   else None)
            problems = wl.check_sweep(text, ref)
            if self.sweep_bytes is None:
                self.sweep_bytes = text
            elif text != self.sweep_bytes:
                problems.append("sweep.csv differs from the run's first "
                                "output, made at --jobs 2")
            items = float(wl.SWEEP_POINTS)
        elif self.workload == "cascade":
            text = (op_dir / "cascade.csv").read_text()
            ref = wl.reference("cascade.csv") if self.with_reference else None
            problems, passes = wl.check_cascade(text, ref)
            items = float(passes * wl.CASCADE_N)
        else:
            problems, fits = wl.check_validate(
                (op_dir / "validate_summary.txt").read_text(),
                (op_dir / "erm_scaling.csv").read_text(),
                (op_dir / "dp_scaling.csv").read_text(),
                (wl.reference("erm_scaling.csv") if self.with_reference
                 else None),
                wl.reference("dp_scaling.csv"))
            items = float(fits)
        if problems:
            self.fail(problems)
        return items

    def check_solve(self, result: dict, k: int) -> float | None:
        if "error" in result:
            self.attempted += wl.SOLVE_BATCH
            self.fail([result["error"]], wl.SOLVE_BATCH)
            return None
        self.attempted += len(result["times"])
        failed = result["n_failed"]
        problems = list(result["failed"])
        if self.with_reference and k == 0:
            mismatches = wl.compare_table(
                (self.out / "solve0.csv").read_text(),
                wl.reference("solve.csv.xz"), "tnnnn", limit=wl.SOLVE_BATCH)
            failed += len(mismatches)
            problems += mismatches
        if failed:
            self.fail(problems, min(failed, len(result["times"])))
        return float(len(result["times"]))

    # -- the run ------------------------------------------------------------

    def execute(self) -> dict:
        setups = [self.spawn("setup", -1, cpu=self.cpu(i))
                  for i in range(SETUP_REPEATS)]
        for result in setups:
            if "error" in result:
                self.attempted += 1
                self.fail([result["error"]])
        setup_s = [r["setup_s"] for r in setups if "error" not in r]
        pool_rate = None
        if self.workload == "sweep":
            # the --jobs 2 bytes that every --jobs 1 output must equal
            pool = self.spawn("op", -2, argv=SWEEP_POOL_ARGS)
            items = self.check_cli(pool)
            if items is not None:
                pool_rate = items / pool["op_s"]

        ops: list[tuple[bool, dict, float]] = []
        start = time.monotonic()
        k = 0
        while True:
            traced = self.trace and k % 2 == 1
            # a traced operation runs on the CPU of the untraced one before it
            result = self.spawn("op", k, traced,
                                cpu=self.cpu(k // 2 if self.trace else k))
            items = (self.check_solve(result, k) if self.workload == "solve"
                     else self.check_cli(result))
            if items is not None:
                ops.append((traced, result, items))
            k += 1
            elapsed = time.monotonic() - start
            if k >= (2 if self.trace else 1) and (
                    elapsed + result.get("wall", 0.0) > self.seconds
                    or time.monotonic() + result.get("wall", 0.0)
                    > self.deadline):
                break
        untraced = [(r, items) for traced, r, items in ops if not traced]
        traced_ops = [r for traced, r, _ in ops if traced]
        # every untraced worker set up the same way before its operation
        setup_s += [r["setup_s"] for r, _ in untraced]
        if not setup_s or not untraced or (self.trace and not traced_ops):
            raise RuntimeError("no successful operation to measure: "
                               + "; ".join(self.problems))

        e2e = self.end_to_end(setup_s, untraced)
        named = {"setup_s": {"value": e2e["setup_s"], "unit": "s"},
                 "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
                 "ops_failed_frac": {"value": self.failed / self.attempted,
                                     "unit": "failed/attempted"}}
        for name, source, scale, unit in NAMED[self.workload]:
            named[name] = {"value": e2e[source] * scale, "unit": unit}
        if pool_rate is not None:
            # one --jobs 2 run per run, so not a bounded metric
            named["sweep_points_per_s_jobs2"] = {"value": pool_rate,
                                                 "unit": "points/s"}
        info = {"workload": self.workload, "seed": self.seed,
                "reference_checked": self.with_reference,
                "trace": int(self.trace),
                "seconds": self.seconds, "machine": machine(),
                "samples": {"setup_s": setup_s,
                            "op_s": [r["op_s"] for r, _ in untraced],
                            "peak_rss_kb": [r["peak_rss_kb"] for r, _ in untraced],
                            "traced_ops": len(traced_ops)},
                "named": named, "problems": self.problems}
        if self.workload == "solve":
            times = [t for r, _ in untraced for t in r["times"]]
            info["samples"]["solve_calls"] = len(times)
            named["solve_p99_us"] = {
                "value": statistics.quantiles(times, n=100)[98] * 1e6,
                "unit": "us"}
        if self.trace:
            metrics = self.per_layer(untraced, traced_ops)
            info["layer_share"] = self.layer_share(metrics)
            units = per_layer_units()
        else:
            metrics, units = e2e, E2E_UNITS
        return {
            "info": info,
            "result": {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items()},
            },
        }

    def end_to_end(self, setup_s: list[float], untraced) -> dict:
        """Set-up time is the median over the run's workers.  An operation's
        time is one CLI command, or for ``solve`` the median ``pbne_solve``
        call of its batch, and the run reports its fastest operation.

        Operations repeat identical work in fresh processes, so the spread
        of their times is the host's, not the program's: a shared host runs
        for seconds at a time at one of two speeds about 1.8x apart, and a
        run's median falls in either mode, while its fastest operation
        repeats from run to run.
        """
        op_s = [statistics.median(r["times"]) if self.workload == "solve"
                else r["op_s"] for r, _ in untraced]
        return {
            "setup_s": statistics.median(setup_s),
            "best_items_per_s": max(items / r["op_s"] for r, items in untraced),
            "best_op_ms": min(op_s) * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0
                                             for r, _ in untraced),
        }

    def per_layer(self, untraced, traced_ops) -> dict:
        """Per-layer metrics, each averaged over the traced workers (one CLI
        run, or one batch of solves, each)."""
        n = len(traced_ops)
        metrics = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for layer, module, attr in TARGETS:
            name = span_name(module, attr)
            calls = sum(r["trace"]["calls"][name] for r in traced_ops)
            self_s = sum(r["trace"]["self_s"][name] for r in traced_ops)
            metrics[f"{name}.calls"] = calls / n
            metrics[f"{name}.self_s"] = self_s / n
            layer_self[layer] += self_s / n
        for name in COUNTS:
            metrics[name] = sum(r["trace"]["counts"][name]
                                for r in traced_ops) / n
        repeats = metrics.pop(REPEATS)
        calls = metrics["stackelberg.threshold_crossings.calls"]
        metrics[REPEAT_RATIO] = repeats / calls if calls else 0.0
        for layer in LAYERS:
            metrics[f"layer.{layer}.self_s"] = layer_self[layer]
        metrics["trace.unattributed_s"] = sum(
            r["op_s"] - r["trace"]["root_s"] for r in traced_ops) / n
        metrics["trace.overhead_frac"] = (
            min(r["op_s"] for r in traced_ops)
            / min(r["op_s"] for r, _ in untraced) - 1.0)
        return metrics

    @staticmethod
    def layer_share(metrics: dict) -> dict:
        total = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS)
        return {layer: metrics[f"layer.{layer}.self_s"] / total if total else 0.0
                for layer in LAYERS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "obfgame" / "__init__.py").is_file():
        print(f"error: no program at {wl.SRC / 'obfgame'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    seed = wl.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    run = Run(args.workload, seed, args.seconds, bool(args.trace))
    try:
        report = run.execute()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (run.out / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["info"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
