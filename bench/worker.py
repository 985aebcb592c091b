"""One benchmark worker: a fresh interpreter that sets up, runs one operation
batch and prints one JSON line.

Run by ``run.py`` as ``python3 bench/worker.py '<json spec>'`` with ``src`` on
PYTHONPATH.  The spec holds ``t_spawn``, the parent's ``time.monotonic()``
just before the spawn (CLOCK_MONOTONIC is shared by all processes), so
``setup_s`` covers interpreter start, ``import obfgame`` and the config parse
or input generation, up to the first timed call.  In ``setup`` mode the
worker stops there.  Otherwise it runs one CLI command in-process
(``obfgame.cli.main``) or one batch of ``pbne_solve`` calls.  A ``cpu`` in
the spec pins the worker to that CPU.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _peak_rss_kb() -> int:
    """Largest resident set of this process or any child it waited for.

    The process's own peak is VmHWM: its ru_maxrss would also count the
    parent's resident set at the fork that preceded exec.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return max(int(line.split()[1]), children)
    except OSError:
        pass
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children)


def _run_cli(spec: dict, tracer) -> dict:
    import obfgame.cli
    from obfgame.config import parse_config

    parse_config(spec["config"])
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}
    if tracer is not None:
        tracer.install()
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output):
            start = time.perf_counter()
            try:
                rc = obfgame.cli.main(spec["argv"])
            except SystemExit as exc:
                rc = exc.code
            op_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"ready": ready, "op_s": op_s, "rc": rc, "stdout": output.getvalue()}


def _run_solve(spec: dict, tracer) -> dict:
    from obfgame import stackelberg

    import workloads

    params = workloads.solve_params(spec["seed"])
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}
    if tracer is not None:
        tracer.install()
    times, reports, errors = [], [], []
    clock = time.perf_counter
    try:
        for i, p in enumerate(params):
            if tracer is not None:
                tracer.set_op(i)
            start = clock()
            try:
                report = stackelberg.pbne_solve(p)
            except Exception:  # an op that raises counts as failed
                report = None
                errors.append(traceback.format_exc(limit=2))
            times.append(clock() - start)
            reports.append(report)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = []
    for i, (p, report) in enumerate(zip(params, reports)):
        problems = (["raised"] if report is None
                    else workloads.check_solve_report(p, report))
        if problems:
            failed.append(f"call {i}: {problems[0]}")
    if spec["rows_path"]:
        rows = [workloads.SOLVE_HEADER] + [
            "raised" if r is None else workloads.solve_row(r) for r in reports]
        with open(spec["rows_path"], "w") as handle:
            handle.write("\n".join(rows) + "\n")
    return {"ready": ready, "op_s": sum(times), "times": times,
            "failed": failed[:5] + errors[:1], "n_failed": len(failed)}


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec.get("cpu") is not None:
        # before numpy loads, so that its BLAS also sees one CPU
        os.sched_setaffinity(0, {spec["cpu"]})
    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer()
    run = _run_solve if spec["workload"] == "solve" else _run_cli
    result = run(spec, tracer)
    result["setup_s"] = result.pop("ready") - spec["t_spawn"]
    result["peak_rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        tracer.write(spec["spans_path"])
        result["trace"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
