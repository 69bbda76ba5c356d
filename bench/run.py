"""msdiff benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; msdiff is imported from ``src/``.  The
workload's operation is repeated until ``--seconds`` have passed (at
least once) and every repetition's output is checked outside the timed
region; a failed check or a library error is a failed operation.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's samples: ``setup_s`` (import msdiff, generate the inputs from the
seed, parse or build them; measured in this process and in
SETUP_PROBES fresh ones), ``run_s`` (wall time of one repetition) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of :mod:`layers` (medians
over the traced repetitions) and the tracing overhead, traced over
untraced run_s, estimated as 1 + spans per repetition x the cost of one
span / untraced run_s.  The last line of standard output is one JSON
object.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 8


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    return ap.parse_args(argv)


def _import_msdiff():
    """Import msdiff from this checkout's src/ and nowhere else."""
    if not (SRC / "msdiff" / "__init__.py").is_file():
        raise SystemExit(f"msdiff sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import msdiff
    if SRC.resolve() not in Path(msdiff.__file__).resolve().parents:
        raise SystemExit(f"imported msdiff from {msdiff.__file__}, not {SRC}")
    import layers
    import spans
    import workloads
    return msdiff, workloads, layers, spans


def _machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Times and failures of the repetitions of one kind."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0

    def repetition(self, case, errors, around=None) -> None:
        """Untimed reset, the timed run (inside the context manager
        ``around``, if given), untimed check."""
        case.reset()
        with around or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out, problems = case.run(), []
            except errors.MsDiffError as exc:
                out, problems = None, [f"{type(exc).__name__}: {exc}"]
            self.times.append(time.perf_counter() - t0)
        problems = problems or case.check(out)
        self.failed += bool(problems)
        for p in problems:
            print(f"check failed (repetition {len(self.times)}): {p}")


def _bytes_written(case) -> int:
    if case.out_dir is None or not case.out_dir.exists():
        return 0
    return sum(p.stat().st_size for p in case.out_dir.iterdir())


def main(argv=None) -> int:
    args = _parse_args(argv)
    t0 = time.perf_counter()
    msdiff, workloads, layers, spans = _import_msdiff()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        case = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("machine:", json.dumps(_machine()))
        print(f"workload: {args.workload} seed {args.seed} params",
              json.dumps(case.params))
        if args.trace:
            result = _traced_run(args, case, msdiff.errors, layers, spans)
        else:
            result = _plain_run(args, case, msdiff.errors, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def _repeat(args, once) -> None:
    """Call ``once()`` until --seconds have passed, at least once."""
    start = time.perf_counter()
    while True:
        once()
        if time.perf_counter() - start >= args.seconds:
            return


def _report(attempted, failed, metrics, counts):
    for name, m in metrics.items():
        n = f" over {counts[name]} samples" if name in counts else ""
        print(f"{name}: {m['value']:.6g} {m['unit']}{n}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _plain_run(args, case, errors, setup_s):
    setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    reps = Tally()
    _repeat(args, lambda: reps.repetition(case, errors))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(reps.times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return _report(len(reps.times), reps.failed, metrics,
                   {"setup_s": len(setups), "run_s": len(reps.times)})


def _traced_run(args, case, errors, layers, spans):
    """Pairs of one untraced and one traced repetition."""
    tracer = spans.Tracer()
    plain, traced, per_rep, nspans = Tally(), Tally(), [], []

    def pair():
        plain.repetition(case, errors)
        tracer.reset()
        traced.repetition(case, errors, tracer.installed(layers.LAYERS))
        per_rep.append(layers.per_layer_metrics(
            tracer.summary(), case.ncells, _bytes_written(case)))
        nspans.append(len(tracer.spans))

    _repeat(args, pair)
    if tracer.absent:
        print("absent layers (reported as 0):", ", ".join(tracer.absent))
    # The measured ratio of traced to untraced run_s moves with the host's
    # drift far more than with the wrappers, so it is printed, and the
    # metric comes from the calibrated cost of one span.
    base, slow = statistics.median(plain.times), statistics.median(traced.times)
    cost, count = spans.span_cost(), statistics.median(nspans)
    overhead = 1.0 + count * cost / base
    print(f"untraced run_s {base:.6g} s, traced run_s {slow:.6g} s "
          f"over {len(traced.times)} pairs; {count:.0f} spans x {1e6 * cost:.3g} us "
          f"per span")
    metrics = {}
    for name, unit in layers.PER_LAYER:
        if name == "trace.overhead":
            value = overhead
        else:
            value = statistics.median(rep[name] for rep in per_rep)
        metrics[name] = {"value": value, "unit": unit}
    return _report(2 * len(per_rep), plain.failed + traced.failed, metrics, {})


if __name__ == "__main__":
    sys.exit(main())
