"""The host's current speed, measured beside each job.

A shared 2-vCPU host runs the same code up to half as fast in some spells
as in others, and a spell can outlast a whole run, so raw wall times of
two runs of one commit differ by more than any useful regression bound.  CPU
time tracks wall time here, so the slowdown is in the instructions
themselves (neighbours on the same cores and caches), not in waiting.

The benchmark therefore times a fixed reference kernel right before and
after every job and reports each job in *reference seconds*: its wall
time times ``REF_S`` over the kernel's time beside it.  The kernel is the
benchmark's own code, never the program's, so a faster program still
reads faster; it does what the program's hot loops do (dicts keyed by
``Fraction`` exponents, added and multiplied term by term), so it slows
down with the host in the same proportion.  ``REF_S`` is about the
kernel's time at this host's usual speed, which keeps reference seconds
close to wall seconds.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REF_S = 0.008


def _kernel() -> int:
    a = {Fraction(i, 7): i * 3 % 5 for i in range(1, 60)}
    b = {Fraction(i, 11): i * 5 % 7 for i in range(1, 60)}
    prod = {}
    for _ in range(3):
        total = dict(a)
        for e, v in b.items():
            total[e] = (total.get(e, 0) + v) % 5
        prod = {}
        for e1, v1 in list(a.items())[:25]:
            for e2, v2 in list(b.items())[:25]:
                k = e1 + e2
                prod[k] = (prod.get(k, 0) + v1 * v2) % 5
        a = {k: v for k, v in total.items() if v}
    return len(prod)


def reference_s() -> float:
    """Wall seconds of the faster of two kernel runs (so that one
    interruption does not count), with the cyclic collector paused so
    that the program's heap cannot charge a collection to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def adjusted(wall: float, ref: float) -> float:
    """``wall`` seconds, measured while the kernel took ``ref`` seconds, in
    reference seconds."""
    return wall * REF_S / ref
