"""Run one dasim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload simulate-mid --seed 1 --seconds 45 --trace 0

Run from the root of a dasim checkout; the program is imported from its
``src/`` directory.  Set-up is repeated and timed, then ops run back to
back (one client, closed loop) until ``--seconds`` have passed, and each
op's output is checked after its timer stops.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps every traced op in spans and
reports per-layer metrics instead (README.md lists both).  The last line
of standard output is the result as one JSON object; the line before it
is an ungated record of world size, environment, op times and output
hashes, which is also kept under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
# stop starting ops once another as long as the longest so far could end
# past this many seconds of the run, so a run always ends inside 180 s
HARD_STOP_S = 150.0


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def blas_record() -> dict:
    """BLAS build and the thread count it actually uses, left at its default."""
    import ctypes
    import glob
    import numpy as np

    out = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS") if k in os.environ}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        out["library"] = "unknown"
    libs = sorted(glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if fn is not None and config is not None:
                fn.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                out["threads"] = fn()
                out["config"] = config().decode()
                return out
    out["threads"] = "unknown"
    return out


def env_record() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def tail_percentile(times: list[float]):
    """Highest whole percentile with at least ten ops beyond it, or None."""
    n = len(times)
    if n <= 10:
        return None
    pct = int(100 * (n - 10) / n)
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return {"percentile": pct, "value": value, "samples": n}


def run(args, cls, workdir: Path) -> tuple[dict, dict]:
    import workloads

    tracer = spans.Tracer() if args.trace else None
    started = time.perf_counter()

    setup_s = []
    # each repeat sets up afresh; the ops run on the last one
    for _ in range(cls.setup_repeats):
        w = cls(args.seed, workdir)
        t0 = time.perf_counter()
        if tracer:
            with tracer.recording(spans.SETUP):
                w.setup()
        else:
            w.setup()
        setup_s.append(time.perf_counter() - t0)

    op_s, traced_ops, untraced_op_s = [], {}, []
    digests, failures = [], []
    # a traced run alternates traced and untraced ops, and needs one of each
    min_ops = 2 if tracer else 1
    phase_start = time.perf_counter()
    i = 0
    while len(op_s) < min_ops or time.perf_counter() - phase_start < args.seconds:
        if len(op_s) >= min_ops and time.perf_counter() - started + max(op_s) > HARD_STOP_S:
            break
        traced = tracer is not None and i % 2 == 0
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.recording(i):
                    result = w.op(i)
            else:
                result = w.op(i)
            elapsed = time.perf_counter() - t0
            digest = w.check(result)
            if cls.repeatable and digests and digest != digests[0]:
                raise workloads.CheckFailed("output bytes differ from op 0 on the same input")
            digests.append(digest)
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - t0
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        op_s.append(elapsed)
        if traced:
            traced_ops[i] = elapsed
        elif tracer:
            untraced_op_s.append(elapsed)
        i += 1

    if tracer:
        metrics = tracer.metrics(traced_ops, untraced_op_s, len(setup_s))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.fmean(op_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "world": workloads.describe_world(w.world),
        "env": env_record(),
        "setup_s": setup_s,
        "op_s": op_s,
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail_percentile(op_s),
        "ops_failed_frac": len(failures) / len(op_s),
        "failures": failures[:5],
        # the first op's input is fixed by the seed, so its hash compares across commits
        "sha256_op0": digests[0] if digests else None,
    }
    result = {
        "correct": not failures,
        "attempted": len(op_s),
        "failed": len(failures),
        "metrics": metrics,
    }
    if tracer:
        record["spans"] = tracer.dump()
    return result, record


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "dasim" / "__init__.py").is_file():
        print(f"error: no dasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dasim

    if Path(dasim.__file__).resolve().parent != ROOT / "src" / "dasim":
        print(f"error: imported dasim from {dasim.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = RUNS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, record = run(args, workloads.WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps({"result": result, **record}) + "\n")

    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"{'op_s_p50':32s} {record['op_s_p50']:14.6g} s")
    tail = record["op_s_tail"]
    if tail:
        print(f"{'op_s_tail':32s} {tail['value']:14.6g} s "
              f"(p{tail['percentile']} of {tail['samples']} ops)")
    print(f"{'ops_failed_frac':32s} {record['ops_failed_frac']:14.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    record.pop("spans", None)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
