"""Compiler substrate: the instrumentation passes of §IV-B/C.

The paper adds two LLVM passes — ``AOS-opt-pass`` detects allocation and
deallocation calls and inserts intrinsics, and ``AOS-backend-pass`` lowers
the intrinsics to ``pacma``/``bndstr``/``bndclr``/``xpacm`` sequences
(Fig. 7).  Our equivalent lowers mechanism-independent workload traces to
concrete instruction streams, one variant per protection mechanism:

========== ==========================================================
baseline    no instrumentation
watchdog    Fig. 5a: check µops, metadata propagation, lock-and-key
pa          PARTS-style return-address + data-pointer integrity
aos         Fig. 5b / Fig. 7: pacma + bndstr / bndclr + xpacm + pacma
pa+aos      AOS plus PA pointer integrity with autm on-load checks
========== ==========================================================
"""

from .passes import (
    LoweredWorkload,
    LoweringPlan,
    lower_trace,
    BaselineLowering,
    WatchdogLowering,
    PALowering,
    AOSLowering,
)

__all__ = [
    "LoweredWorkload",
    "LoweringPlan",
    "lower_trace",
    "BaselineLowering",
    "WatchdogLowering",
    "PALowering",
    "AOSLowering",
]
