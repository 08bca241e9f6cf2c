#!/usr/bin/env python3
"""Layered benchmark of fastslow: one command runs a workload, checks its
outputs and prints every metric with its unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {study,refine,transient,all} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload runs once, then again for as long as another
repetition is expected to end within ``S`` seconds of the first one's start,
and the end-to-end metrics are printed.  With ``--trace 1``
one untraced and one traced repetition run, and the per-layer metrics of
the traced one are printed together with the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
operation passed its check, 1 when one failed, and 2 when the benchmark
cannot run here (for instance, no ``src/fastslow`` under the current
directory).  README.md documents the workloads and metrics.
"""

import os

# One BLAS / OpenMP thread, set before numpy is first imported: default
# threading on a shared 2-core machine roughly doubled the run-to-run spread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import numbers  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("study", "refine", "transient")
SETUP_SAMPLES = 9
OUT_DIR = ".perfbench_out"      # scratch space under the checkout root


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(root: Path, src: Path) -> list:
    """Seconds of import plus model construction, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src)],
                              cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        seconds, package = proc.stdout.split("\n")[:2]
        if not Path(package).resolve().is_relative_to(src):
            raise RuntimeError(f"setup probe imported fastslow from {package}")
        times.append(float(seconds))
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(root),
    }


def compare_hashes(reps) -> None:
    """Every repetition's artifacts must hash like the first repetition's."""
    reference = reps[0].values.get("hashes", {})
    for rep in reps[1:]:
        for artifact, digest in rep.values.get("hashes", {}).items():
            if reference.get(artifact) != digest:
                rep.fail([artifact], "artifact hash differs from the first repetition")


def run_timed(workload, seed, seconds, workdir):
    from fastslow import models
    from workloads import Context, Rep

    model = models.michaelis_menten_model()
    ctx = Context(model=model, check_model=model, workdir=workdir)
    inputs = workload.prepare(seed, model)
    reps = []
    start = time.perf_counter()
    while True:
        rep = Rep()
        workload.run(rep, ctx, inputs)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:   # the next one would overrun
            break
    compare_hashes(reps)
    return reps


def run_traced(workload, seed, workdir):
    """One untraced then one traced repetition; returns both and the tracer."""
    from fastslow import models
    from tracer import Tracer
    from workloads import Context, Rep

    plain = models.michaelis_menten_model()
    inputs = workload.prepare(seed, plain)
    untraced = Rep()
    workload.run(untraced, Context(plain, plain, workdir), inputs)
    tracer = Tracer()
    with tracer:
        counted = models.michaelis_menten_model()
        tracer.clear()
        traced = Rep(tracer)
        workload.run(traced, Context(counted, plain, workdir), inputs)
    compare_hashes([untraced, traced])
    return [untraced, traced], tracer


def number(value):
    """JSON-ready number: ints stay ints, numpy scalars become Python ones."""
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(value)


def run_all(args) -> int:
    """Every workload in its own process, then one combined result whose
    metric names are prefixed with the workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "fastslow" / "__init__.py").is_file():
        print(f"error: no fastslow sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    setup = [] if args.trace else measure_setup(root, src)

    import fastslow
    if not Path(fastslow.__file__).resolve().is_relative_to(src):
        print(f"error: fastslow imported from {fastslow.__file__}, not {src}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_root = root / OUT_DIR
    out_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root)
    try:
        if args.trace:
            reps, tracer = run_traced(workload, args.seed, workdir)
            values = layers.derive(tracer, reps[1].values, reps[1].wall_s - reps[0].wall_s)
            catalogue = layers.PER_LAYER
            trace_path = out_root / f"trace-{workload.name}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"spans": tracer.spans,
                                              "unmeasured": sorted(tracer.unmeasured)}))
            print(f"spans written to {trace_path}")
            if tracer.unmeasured:
                print("unmeasured hooks: " + ", ".join(sorted(tracer.unmeasured)))
        else:
            reps = run_timed(workload, args.seed, args.seconds, workdir)
            walls = [rep.wall_s for rep in reps]
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            catalogue = layers.END_TO_END
            print(f"wall_s samples: {walls}")
            print(f"setup_s samples: {setup}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(rep.attempted for rep in reps)
    failures = [f"{op}: {why}" for rep in reps for op, why in rep.failures.items()]
    checked = {k: v for k, v in reps[-1].values.items() if k != "hashes"}
    print(f"workload {workload.name}, seed {args.seed}: {len(reps)} repetition(s), "
          f"{attempted} operations, {len(failures)} failed")
    for failure in failures:
        print(f"FAILED {failure}")
    print("checked: " + json.dumps({k: number(v) for k, v in sorted(checked.items())}))
    print("environment: " + json.dumps(environment(root, args.seed)))
    metrics = {m.name: {"value": number(values[m.name]), "unit": m.unit} for m in catalogue}
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
