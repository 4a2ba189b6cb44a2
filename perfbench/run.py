"""Layered benchmark of canopy: one workload per run, checked against an
independent oracle.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|ingest|cli --seed N \\
        --seconds S --trace 0|1

The program is taken from ``src/`` of the checkout that holds this file.
Operations run in a closed loop, one in flight, in whole rounds until their
summed time reaches S seconds and, in untraced runs, at least 100 have run.  Every output is checked as soon as it is
produced, outside the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb, setup_s).  With
``--trace 1`` the first half of the time runs untraced, then a fixed number
of rounds (set by S alone, so one seed always traces the same operations)
runs with every public canopy function wrapped; the last line holds the
per-layer metrics, and ``.perfbench_out/trace-<workload>-<seed>.json``
holds them with the spans and the tracing overhead.

``failed`` counts operations that raised, exited non-zero or disagreed with
the oracle.  ``correct`` is false when any of them is other than the one
known fault the sweep keeps on purpose (see workloads.KNOWN_FAULT).
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 5
MIN_OPS = 100  # so that ten operations lie beyond the 90th percentile
WARMUP_OPS = {"sweep": 10, "ingest": 2, "cli": 1}
SETUP_CODE = (
    "import canopy\n"
    "canopy.default_diameter_models()\n"
    "canopy.default_carbon_constant()\n"
    "canopy.all_species()\n"
    "[canopy.default_removal_model(size) for size in canopy.SizeClass]\n"
)


def _median_ms(values):
    return statistics.median(values) * 1e3


class Loop:
    """Outcome of running rounds of one workload."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.unexpected = 0
        self.output_bytes = 0
        self.problems = []


def run_rounds(workload, rng, *, seconds=None, min_ops=0, rounds=None, tracer=None,
               trace_dir=None):
    loop = Loop()
    index = 0
    busy = 0.0
    while True:
        for op in workload.make_round(rng, index):
            n = len(loop.latencies)
            kwargs = {}
            if tracer is not None:
                tracer.op = n
                if trace_dir is not None:
                    kwargs["trace_path"] = trace_dir / f"op{n}.json"
            start = time.perf_counter()
            try:
                result = workload.run(op, **kwargs)
                error = None
            except Exception as exc:  # an operation that raises is a failed one
                result, error = None, exc
            elapsed = time.perf_counter() - start
            loop.latencies.append(elapsed)
            busy += elapsed
            if "trace_path" in kwargs:
                path = kwargs["trace_path"]
                if path.exists():
                    tracer.merge(json.loads(path.read_text(encoding="utf-8")), n)
                    path.unlink()
            problems = [f"raised {error!r}"] if error else workload.check(op, result)
            if problems:
                loop.failed += 1
                if not op.known_fault:
                    loop.unexpected += 1
                if len(loop.problems) < 5:
                    loop.problems.append(f"{op.kind} {op.args.get('argv', '')}: {problems[:3]}")
            elif hasattr(workload, "output_bytes"):
                loop.output_bytes += workload.output_bytes(result)
        index += 1
        if rounds is not None:
            if index >= rounds:
                return loop
        elif busy >= seconds and len(loop.latencies) >= min_ops:
            return loop


def timed_children(cmd, env, n=PROBES):
    """Wall times of n fresh interpreters running cmd."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - start)
    return out


def import_probes(python, env, n=PROBES):
    """Median import costs: numpy (cumulative), canopy's own modules (self
    time, from -X importtime) and a bare interpreter's wall time."""
    numpy, own = [], []
    for _ in range(n):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import canopy, canopy.cli"],
                              env=env, check=True, capture_output=True, text=True)
        numpy_us, canopy_us = 0, 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "numpy":
                numpy_us = int(parts[1])
            elif name == "canopy" or name.startswith("canopy."):
                canopy_us += int(parts[0].rpartition(":")[2])
        numpy.append(numpy_us / 1e3)
        own.append(canopy_us / 1e3)
    bare = timed_children([python, "-c", "pass"], env, n)
    return {
        ("import.numpy_ms", "ms"): statistics.median(numpy),
        ("import.canopy_ms", "ms"): statistics.median(own),
        ("import.python_ms", "ms"): _median_ms(bare),
    }


def end_to_end(loop):
    lat = loop.latencies
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (_median_ms(lat), "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
    }


def build(name, canopy, workdir, seed, python, env):
    import workloads

    cls = workloads.WORKLOADS[name]
    if name == "cli":
        return cls(workdir, seed, python, env, str(HERE / "child.py"))
    return cls(canopy, workdir, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "ingest", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "canopy" / "__init__.py").is_file():
        print(f"perfbench: no canopy sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    os.environ.pop("CANOPY_CONFIG", None)
    import canopy

    if not Path(canopy.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: canopy imported from {canopy.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer, layer_metrics

    python = sys.executable
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = build(args.workload, canopy, workdir, args.seed, python, env)

        def stream(phase):
            return random.Random(f"{args.workload}:{args.seed}:{phase}")

        for op in workload.make_round(stream("warmup"), 0)[: WARMUP_OPS[args.workload]]:
            workload.run(op)

        if args.trace == 0:
            loop = run_rounds(workload, stream("measure"), seconds=args.seconds, min_ops=MIN_OPS)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
            setup = timed_children([python, "-c", SETUP_CODE], env)
            metrics = end_to_end(loop)
            metrics["peak_rss_mb"] = (peak_mb, "MB")
            metrics["setup_s"] = (statistics.median(setup), "s")
            loops = [loop]
        else:
            untraced = run_rounds(workload, stream("measure"), seconds=args.seconds / 2)
            tracer = Tracer()
            rounds = max(1, round(args.seconds / 2 / workload.nominal_round_s))
            if args.workload == "cli":
                traced = run_rounds(workload, stream("traced"), rounds=rounds, tracer=tracer,
                                    trace_dir=workdir)
            else:
                tracer.install()
                try:
                    traced = run_rounds(workload, stream("traced"), rounds=rounds, tracer=tracer)
                finally:
                    tracer.remove()
            ops = len(traced.latencies)
            layers = layer_metrics(tracer, ops)
            layers.update(import_probes(python, env))
            layers[("cli.output_bytes", "count")] = traced.output_bytes / ops
            metrics = {name: (value, unit) for (name, unit), value in layers.items()}
            loops = [untraced, traced]
            plain, timed = end_to_end(untraced), end_to_end(traced)
            overhead = {
                name: (timed[name][0] / plain[name][0] - 1.0) * 100.0
                for name in ("op_p50_ms", "op_p90_ms")
            }
            overhead["ops_per_s"] = (plain["ops_per_s"][0] / timed["ops_per_s"][0] - 1.0) * 100.0
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            document = {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "python": sys.version.split()[0], "cpus": os.cpu_count(),
                "traced_rounds": rounds, "traced_ops": ops,
                "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
                "untraced": {name: v for name, (v, _) in plain.items()},
                "traced": {name: v for name, (v, _) in timed.items()},
                "tracing_overhead_pct": overhead,
                "stats": {name: {"calls": c, "ms": s * 1e3, "self_ms": o * 1e3}
                          for name, (c, s, o) in sorted(tracer.stats.items())},
                "counts": dict(sorted(tracer.counts.items())),
                "spans": {"fields": ["op", "name", "parent", "start_s", "duration_s"],
                          "rows": tracer.spans},
            }
            path = out_dir / f"trace-{args.workload}-{args.seed}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            print(f"perfbench: trace written to {path.relative_to(ROOT)}; overhead "
                  + ", ".join(f"{k} {v:+.1f}%" for k, v in overhead.items()), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    unexpected = sum(loop.unexpected for loop in loops)
    for loop in loops:
        for line in loop.problems:
            print(f"perfbench: failed: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} operations, "
          f"{failed} failed ({failed - unexpected} known fault)", file=sys.stderr)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
