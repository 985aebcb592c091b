"""Regenerate the reference outputs in ``ref/`` from the program in ``src/``.

    python3 bench/make_refs.py

Runs each workload once at its default seed: ``obfgame sweep`` (--jobs 1),
the batch of ``pbne_solve`` calls, ``obfgame cascade`` and ``obfgame
validate``.  Large tables are stored xz-compressed.
"""

from __future__ import annotations

import contextlib
import io
import lzma
import shutil
import sys

import workloads as wl


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    import obfgame.cli
    from obfgame import stackelberg

    out = wl.ROOT / ".bench_out" / "refs"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl.REF_DIR.mkdir(exist_ok=True)

    def cli(workload: str, *args: str) -> None:
        config = out / f"{workload}.cfg"
        config.write_text(wl.cli_config(workload, wl.DEFAULT_SEEDS[workload]))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = obfgame.cli.main([*args, "--config", str(config), "--out",
                                   str(out / workload), "--seed",
                                   str(wl.DEFAULT_SEEDS[workload])])
        if rc != 0:
            raise SystemExit(f"{workload} exited {rc}")

    def compressed(name: str, text: str) -> None:
        (wl.REF_DIR / name).write_bytes(
            lzma.compress(text.encode(), preset=9 | lzma.PRESET_EXTREME))

    cli("sweep", "sweep", "--jobs", "1")
    compressed("sweep.csv.xz", (out / "sweep" / "sweep.csv").read_text())

    params = wl.solve_params(wl.DEFAULT_SEEDS["solve"])
    rows = [wl.SOLVE_HEADER] + [wl.solve_row(stackelberg.pbne_solve(p))
                                for p in params]
    compressed("solve.csv.xz", "\n".join(rows) + "\n")

    cli("cascade", "cascade")
    shutil.copy(out / "cascade" / "cascade.csv", wl.REF_DIR / "cascade.csv")

    cli("validate", "validate")
    for name in ("erm_scaling.csv", "dp_scaling.csv"):
        shutil.copy(out / "validate" / name, wl.REF_DIR / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
