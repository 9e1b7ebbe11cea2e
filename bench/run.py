"""Benchmark of rvb-ladder, measured from outside by timing calls into its modules.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  sweep-default  cli.main(["sweep", "--out", DIR]): m = 3..6, periodic, twisted wrap
  sweep-n14      the same CLI route with --sizes 3..7 (N up to 14), order from the seed
  bonds-n16      the bond pipeline without GGM for m in {7, 8} x {periodic, open}

Each workload is a closed loop with one caller, in this one process, with the
BLAS thread count pinned to 1. One untimed warm-up pass runs first; passes
then repeat until --seconds have elapsed. Every pass's outputs are checked
against bench/reference.json, and a case that differs counts as failed.

The speed of a shared machine switches by a quarter and more, for seconds
to minutes at a time, as other tenants load it. So after each pass a fixed
kernel that does not use the package (the speed probe) is timed repeatedly,
for a tenth of the pass's time, and times are scaled to the reference speed:
    scale = PROBE_REF_S / mean probe seconds over the run
PROBE_REF_S is the probe's median time on the machine where the benchmark
was defined (2-core x86_64, numpy 2.4.6, OpenBLAS 0.3.31), so there scaled
seconds read as wall seconds. Each pass gets the same number of probe
samples whatever the speed, so the mean pass time over the mean probe time
does not depend on how the run's time split between fast and slow spells;
a median would jump between the spells. The raw wall times go to the output
and the result file too.

--trace 0 prints the end-to-end metrics:
  pass_s       mean wall seconds of one pass, times the scale
  setup_s      median seconds from launching a fresh interpreter to a completed
               `import rvb_ladder`, over several launches, times the scale
  peak_rss_mb  peak resident memory of this process
  ok_frac      cases passing the check / cases attempted (1 - fail_frac)
--trace 1 alternates traced and untraced passes and prints the per-layer
metrics of the traced ones (medians over passes; times are span self times in
raw wall seconds, see tracer.py), plus trace_overhead_frac, the traced median
pass time over the untraced one, minus 1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A result file with the environment, and for
--trace 1 the spans, go to bench/out/.
"""

import os

PINNED_BLAS_THREADS = 1
# Pinned before numpy loads: a Gram matrix is at most 128 x 128, so more BLAS
# threads only add scheduler noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_LAUNCHES = 7  # timed interpreter launches per run; the median is reported
MIN_PASSES = 3  # timed passes per kind, even past --seconds
PROBE_REF_S = 0.016  # median speed-probe time on the reference machine
PROBE_SHARE = 0.1  # probe time after each pass, as a share of the pass's time

# Units of the per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "measures.ggm_s": "s", "numerics.eigvalsh_s": "s", "numerics.power_iter_s": "s",
    "measures.ggm.bipartitions": "count", "measures.ggm.gram_gflop_computed": "GFLOP",
    "measures.ggm_share": "frac",
    "sweep.emit_s": "s", "sweep.emit_bytes": "bytes", "measures.surface_s": "s",
    "measures.cloning_s": "s", "measures.monogamy_s": "s",
    "state.rvb_state_s": "s", "state.spin_sq_s": "s", "state.amplitudes": "count",
    "density.werner_s": "s", "density.partial_traces": "count",
    "density.werner_not_ok": "count",
    "lattice.enumerate_s": "s", "lattice.count_s": "s", "lattice.coverings": "count",
    "state.dump_s": "s", "state.dump_bytes": "bytes",
    "sweep.failures": "count", "trace_overhead_frac": "frac",
}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup():
    """Median seconds from launching an interpreter to a completed import.

    The child prints CLOCK_MONOTONIC when its import finishes; on Linux that
    clock is shared by all processes, so it compares with the launch time.
    One untimed launch first writes the bytecode cache, as an installed
    package would have it.
    """
    code = "import rvb_ladder, time; print(time.monotonic()); print(rvb_ladder.__file__)"
    cmd = [sys.executable, "-c", code]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.monotonic()
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        if done.returncode != 0:
            fail(f"import rvb_ladder failed in a fresh interpreter:\n{done.stderr}")
        stamp, path = done.stdout.split("\n")[:2]
        if not Path(path).resolve().is_relative_to(SRC):
            fail(f"imported rvb_ladder from {path}, not from {SRC}")
        if i:
            times.append(float(stamp) - start)
    return statistics.median(times)


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
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
    return None


def environment(np):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": PINNED_BLAS_THREADS,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def import_package():
    if not (SRC / "rvb_ladder" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'rvb_ladder'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import rvb_ladder
    from rvb_ladder import cli, density, lattice, measures, numerics, state, sweep
    if not Path(rvb_ladder.__file__).resolve().is_relative_to(SRC):
        fail(f"imported rvb_ladder from {rvb_ladder.__file__}, not from {SRC}")
    modules = {"rvb_ladder": rvb_ladder, "cli": cli, "sweep": sweep, "lattice": lattice,
               "state": state, "density": density, "measures": measures,
               "numerics": numerics}
    return np, modules


def quantile_line(values):
    """Median, quartiles, and the highest percentile with 10 samples above it."""
    n = len(values)
    line = f"median {statistics.median(values):.6g} over {n}"
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"; q1 {q1:.6g}, q3 {q3:.6g}"
    if n >= 20:
        line += f"; p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g}"
    return line


class SpeedProbe:
    """Times a fixed kernel, independent of the package, to track machine speed.

    The kernel mixes the two kinds of work the workloads do: small dense
    linear algebra and interpreted Python. It allocates next to nothing, so
    it leaves peak_rss_mb as the workload sets it.
    """

    def __init__(self, np):
        self.matrix = np.cos(np.arange(128 * 128.0)).reshape(128, 128) / 128
        self.times = []

    def sample(self, budget):
        """Time the kernel at least once, and until `budget` seconds are spent."""
        spent = 0.0
        while spent < budget or not spent:
            start = time.perf_counter()
            for _ in range(60):
                self.matrix @ self.matrix
            acc = 0
            for i in range(100_000):
                acc += i * i
            self.times.append(time.perf_counter() - start)
            spent += self.times[-1]

    def scale(self):
        """Seconds at the reference speed per measured second."""
        return PROBE_REF_S / statistics.fmean(self.times)


class Runner:
    """Runs and checks passes of one workload, counting cases and failures."""

    def __init__(self, workload, work_dir, probe):
        self.workload = workload
        self.work_dir = work_dir
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.passes = 0

    def one_pass(self, context=contextlib.nullcontext()):
        """Run one pass (timed), check it and probe the speed (untimed).

        Returns the pass's wall seconds.
        """
        out = self.work_dir / f"pass-{self.passes}"
        out.mkdir()
        with context:
            start = time.perf_counter()
            output = self.workload.run(out)
            elapsed = time.perf_counter() - start
        verdict = self.workload.check(output, out)
        shutil.rmtree(out)
        self.probe.sample(PROBE_SHARE * elapsed)
        self.passes += 1
        self.attempted += len(verdict)
        for case, bad in verdict.items():
            if bad:
                self.failed += 1
                self.messages += [f"pass {self.passes - 1} case {case}: {b}" for b in bad]
        return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")

    np, modules = import_package()
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    env = environment(np)

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    recorder = tracer.Tracer(modules)
    probe = SpeedProbe(np)
    untraced, traced = [], []
    try:
        workload = workloads.make_workload(args.workload, modules, args.seed, reference)
        runner = Runner(workload, work_dir, probe)
        runner.one_pass()  # warm-up: checked and counted, not timed
        deadline = time.perf_counter() + args.seconds
        while (time.perf_counter() < deadline or len(untraced) < MIN_PASSES
               or (args.trace and len(traced) < MIN_PASSES)):
            if args.trace and len(traced) < len(untraced):
                traced.append(runner.one_pass(recorder.traced_pass(runner.passes)))
            else:
                untraced.append(runner.one_pass())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    pass_s = statistics.median(untraced)
    scale = probe.scale()
    if args.trace:
        per_pass = recorder.pass_metrics().values()
        metrics = {name: {"value": statistics.median(p[name] for p in per_pass),
                          "unit": unit} for name, unit in PER_LAYER_UNITS.items()
                   if name != "trace_overhead_frac"}
        metrics["trace_overhead_frac"] = {
            "value": statistics.median(traced) / pass_s - 1.0, "unit": "frac"}
        recorder.write(OUT_DIR / f"spans-{tag}.csv.gz")
    else:
        metrics = {
            "pass_s": {"value": statistics.fmean(untraced) * scale, "unit": "s"},
            "setup_s": {"value": measure_setup() * scale, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "ok_frac": {"value": (runner.attempted - runner.failed) / runner.attempted,
                        "unit": "frac"},
        }
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "pass_s_untraced": untraced,
         "pass_s_traced": traced, "probe_s": probe.times, "scale": scale,
         "failures": runner.messages[:50], **result},
        indent=1) + "\n")

    for message in runner.messages[:20]:
        print(f"mismatch: {message}", file=sys.stderr)
    if recorder.missing:
        print(f"note: not traced, absent from the package: {sorted(recorder.missing)}",
              file=sys.stderr)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {runner.passes} passes "
          f"(1 warm-up, {len(untraced)} untraced, {len(traced)} traced)")
    print(f"  pass wall s, untraced: {quantile_line(untraced)}")
    if traced:
        print(f"  pass wall s, traced:   {quantile_line(traced)}")
    print(f"  speed probe s:         {quantile_line(probe.times)}; reference {PROBE_REF_S}, "
          f"scale {scale:.6g}")
    print(f"  fail_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} failed / {runner.attempted} cases attempted)")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
