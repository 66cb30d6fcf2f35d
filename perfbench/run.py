#!/usr/bin/env python3
"""Run one garnetspin benchmark workload; print the result as one JSON line.

    python3 perfbench/run.py --workload clock-scan --seed 1 --seconds 10 --trace 0

Run it from the repository root: the program is imported from ``./src``.
The process is the workload's own fresh process.  It calls
``garnetspin.cli.main(argv)`` in a closed loop with one client, one
operation at a time, stdout captured in memory, and checks each
operation's output after its timed interval.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
fixed number of traced operations and the tracing overhead.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread: set before numpy is first imported, here and in the probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time

SETUP_PROBES = 5
# traced operations per --trace 1 run, a whole number of rounds; fixed, so
# that its counts repeat exactly for a seed
TRACE_OPS = {"clock-scan": 1, "fit-assign": 2, "shb-peaks": 4, "maps": 2}

SETUP_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import garnetspin.cli
from garnetspin.config import load_config
load_config()
print(time.perf_counter() - t)
"""

def measure_setup(src: str) -> float:
    """Median time to import garnetspin and load the bundled config, fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, src],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


class Runner:
    def __init__(self, cli, workload: str, seed: int, work: str):
        import workloads

        self.cli = cli
        self.make_op, self.check, self.round = workloads.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.index = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.failed = 0
        self.wrong = 0

    def one(self, tracer=None) -> float:
        """Make, time and check the next operation; return its wall time."""
        op = self.make_op(self.seed, self.index, self.work)
        self.index += 1
        outs, error = [], None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            for argv in op.argvs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    if tracer is None:
                        code = self.cli.main(argv)
                    else:
                        code = tracer.span("cli.main", self.cli.main, (argv,), {})
                outs.append(buf.getvalue())
                if code != 0:
                    error = f"exit code {code} from {argv}"
                    break
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc} from {argv}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems = [error] if error else self.check(op, outs)
        if problems:
            self.failed += 1
            self.wrong += error is None
            for p in problems[:5] if self.failed <= 5 else ():
                print(f"operation {self.index - 1}: {p}", file=sys.stderr)
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "garnetspin", "cli.py")):
        print(f"error: no garnetspin sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(src)
    sys.path.insert(0, src)
    from garnetspin import cli, config, fitting, geometry, search, spectra

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}

    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(cli, args.workload, args.seed, work)
        if args.trace:
            import tracing

            ops = TRACE_OPS[args.workload]
            for _ in range(ops):
                runner.one()
            untraced = statistics.median(runner.walls)
            tracer = tracing.Tracer()
            tracer.install({m.__name__.rsplit(".", 1)[1]: m for m in (cli, config, fitting, geometry, search, spectra)})
            try:
                for i in range(ops):
                    tracer.op = i
                    runner.one(tracer)
            finally:
                tracer.uninstall()
            values = tracing.layer_metrics(tracer.spans, ops)
            values["trace.overhead_s"] = statistics.median(runner.walls[ops:]) - untraced
            tracer.dump(
                os.path.join(root, ".bench_work", f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "metrics": values},
            )
        else:
            timed = 0.0
            while timed < args.seconds:
                for _ in range(runner.round):
                    timed += runner.one()
            ok = len(runner.walls) - runner.failed
            values = {
                "setup_s": setup_s,
                "latency_p50_s": statistics.median(runner.walls),
                "throughput_ops_s": ok / timed,
                "cpu_per_op_s": statistics.median(runner.cpus),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": len(runner.walls),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
