"""Re-measures the constants the benchmark stores.

    python3 perfbench/calibrate.py [--seed N]

Run from the root of a source checkout on the reference machine.  Prints
the median kernel time (``common.KERNEL_NOMINAL_S``), the median reference
process time (``common.REF_PROCESS_NOMINAL_S``) and the normalised seconds
of one pass of each workload (``workloads.PASS_S``), measured with the
stored nominal times; after changing a nominal time, run it again for the
pass times.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    root = os.getcwd()
    kernels = [common.time_kernel() for _ in range(300)]
    print(f"KERNEL_NOMINAL_S ~ {statistics.median(kernels):.6f}")
    bench = run.Run(types.SimpleNamespace(workload=None), root)
    refs = [common.time_ref_process(bench.env) for _ in range(15)]
    print(f"REF_PROCESS_NOMINAL_S ~ {statistics.median(refs):.4f}")
    run_dir = os.path.join(root, ".perfbench_run", f"calibrate{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        for name in run.WORKLOADS:
            plan = workloads.build(name, args.seed, root, run_dir)
            if name == "cli_cold":
                seconds = sum(bench.cold(plan, run_dir)[0])
            else:
                records, _ = bench.worker(plan, "run", 3, False)
                seconds = sum(bench.check_ops(plan, records)[0].values())
            print(f"PASS_S[{name!r}] ~ {seconds:.2f}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
