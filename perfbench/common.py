"""Shared pieces of the benchmark: the reference kernel and small helpers.

Every time the benchmark reports is normalised by a reference timed right
before and after the measured interval.  Operations inside a process use
the kernel: pure Python that keeps nothing alive after it returns, so it
tracks the interpreter's speed on this machine at this moment.  A
normalised figure reads as the time on a machine that runs the kernel in
``KERNEL_NOMINAL_S``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

# Wall time of one kernel call on the reference machine (see README.md).
KERNEL_NOMINAL_S = 0.0015
_KERNEL_ROUNDS = 3000

# Times of whole processes (cold CLI runs, set-up) are normalised by a
# reference process instead: a fresh interpreter importing a fixed set of
# standard-library modules, timed from spawn to exit.  The kernel above
# tracks the speed of running Python code; start-up and imports also
# depend on process creation and file reads, which it does not see.
REF_PROCESS_CODE = ("import argparse, asyncio, dataclasses, decimal, email.message, "
                    "http.client, json, logging, typing, unittest, xml.dom.minidom")
REF_PROCESS_NOMINAL_S = 0.2


def kernel() -> int:
    """A fixed slice of dict, tuple and integer work; returns a checksum."""
    table = {}
    acc = 7
    for i in range(_KERNEL_ROUNDS):
        key = (i & 63, acc & 7)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1000003
    return acc + len(table)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def time_ref_process(env) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", REF_PROCESS_CODE], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    proc.wait()
    return time.perf_counter() - t0


def kernel_factor(before: float, after: float) -> float:
    """How much slower than nominal the kernel ran around an interval."""
    return (before + after) / 2.0 / KERNEL_NOMINAL_S


def ref_factor(before: float, after: float) -> float:
    """How much slower than nominal the reference process ran around one."""
    return (before + after) / 2.0 / REF_PROCESS_NOMINAL_S


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
