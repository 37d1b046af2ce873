"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/make_golden.py

For every input slot (workload seed modulo ``GOLDEN_SLOTS``) this sets up
once, then runs op 0 of ``train`` and ops 0 to ``GOLDEN_DRAWS - 1`` of
``eval-val``. It stores the final train losses, and the eval JS divergences
and descriptor spread averaged over the eval ops, in
``perfbench/golden.json``. Run it on the commit whose outputs the benchmark
should hold later commits to; it takes about 40 s per slot.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

from run import BLAS_ENV, BLAS_THREADS, ROOT


def main() -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    def run(op):
        code, err = wl.run_cli(op.argv)
        if code != 0:
            raise SystemExit(f"slot {slot}: prosodiff {op.argv[0]} exited {code}: {err}")
        return op

    sizes = wl.Sizes()
    slots = {}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for slot in range(wl.GOLDEN_SLOTS):
        work = Path(tempfile.mkdtemp(prefix="golden-", dir=scratch))
        try:
            setup = wl.set_up(work, slot, replace(sizes, setup_repeats=1))
            train, evaluate = wl.Train(setup, slot, sizes, work, None), wl.EvalVal(setup, slot, sizes, work, None)
            train_op = run(train.op(0))
            reports = [evaluate.report(run(evaluate.op(i)).out) for i in range(wl.GOLDEN_DRAWS)]
            entry = {
                "train_final_loss": train.final_losses(train_op.out),
                "eval_js": {ch: statistics.fmean(js[ch] for js, _ in reports) for ch in reports[0][0]},
                "eval_spread": statistics.fmean(spread for _, spread in reports),
            }
            slots[str(slot)] = entry
            print(slot, json.dumps(entry), flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    scratch.rmdir()
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump({"sizes": asdict(sizes), "slots": slots}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
