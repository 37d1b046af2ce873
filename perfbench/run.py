"""prosodiff benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload train|eval-val|sample-requests \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. BLAS runs on one thread. ``--trace 0`` prints the end-to-end
metrics (``sample-requests`` op times at the machine's reference speed,
see ``speed.py``); ``--trace 1`` wraps prosodiff's layer functions and
prints the per-layer metrics instead. See ``perfbench/README.md`` for what
each metric means and which end-to-end number it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
# what op_s_p50 and work_per_s are called for each workload
ALIASES = {
    "train": {"op_s_p50": "train_op_s_p50", "work_per_s": "train_steps_per_s"},
    "eval-val": {"op_s_p50": "eval_op_s_p50", "work_per_s": "eval_utt_per_s"},
    "sample-requests": {"op_s_p50": "request_s_p50", "work_per_s": "requests_per_s"},
}


def _commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).exists():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "eval-val", "sample-requests"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "prosodiff" / "cli.py").is_file():
        print(f"perfbench: no prosodiff sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads OpenBLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    sizes = wl.Sizes()
    golden = wl.load_golden(sizes)
    if golden is None:
        print("perfbench: golden.json missing or for other sizes", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup = wl.set_up(work, args.seed, sizes)
        workload = wl.WORKLOAD_CLASSES[args.workload](setup, args.seed, sizes, work, golden)
        if args.trace:
            results, notes, metrics = wl.measure_traced(workload, args.seconds)
            units = wl.per_layer_units()
        else:
            results, notes = wl.measure(workload, args.seconds)
            metrics = wl.end_to_end(results, setup)
            units = END_TO_END_UNITS
            if workload.at_reference_speed:
                notes.append("measured, before scaling to reference speed: "
                             + json.dumps(wl.end_to_end(results, setup, at_reference=False)))
                notes.append(f"median speed scale: {statistics.median(r.scale for r in results)}")
    except wl.SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    failed = sum(not r.ok for r in results)
    for note in notes:
        print(f"note: {note}")
    print("env: " + json.dumps(environment(args), sort_keys=True))
    print(f"ops: attempted={len(results)} failed={failed} error_rate={failed / len(results)}")
    aliases = ALIASES[args.workload] if not args.trace else {}
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}" + (f"  ({aliases[name]})" if name in aliases else ""))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
