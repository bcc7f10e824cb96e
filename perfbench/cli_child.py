"""A traced CLI process: ``cli_child.py STATS_PATH <causalgames arguments>``.

Times the import of ``causalgames.cli``, installs the span wrappers, runs
the command-line entry point and writes normalised per-layer self times
and counts to STATS_PATH as JSON.  Exits with the command's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from spans import Tracer  # noqa: E402


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    k0 = common.time_kernel()
    t0 = time.perf_counter()
    import causalgames.cli  # noqa: F401

    import_wall = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = sys.modules["causalgames.cli"].main(argv)
    k1 = common.time_kernel()
    factor = common.kernel_factor(k0, k1)
    raw, layer_raw = tracer.take()
    with open(stats_path, "w") as fh:
        json.dump({"import_ms": import_wall / factor * 1e3,
                   "layers": {k: v / factor * 1e3 for k, v in raw.items()},
                   "self_ms": {k: v / factor * 1e3 for k, v in layer_raw.items()},
                   "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
