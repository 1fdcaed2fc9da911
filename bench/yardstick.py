"""Interpreter speed, measured next to every request.

The machine this benchmark runs on changes speed by 10-30 % over seconds
to minutes (other tenants share its cores), and a pure-Python program
slows down with it.  So every request is paired with a run of a fixed
pure-Python kernel (float arithmetic, function calls, dict stores and
17-digit formatting, like the package's own hot loops), and reported
request times are scaled to the speed at which that kernel takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / kernel seconds measured alongside

The unscaled values are printed next to the scaled ones.  Set-up time is
not scaled by this kernel: a fresh start spends it loading modules, which
does not track the kernel; ``run.py`` scales it by a fresh numpy import.
"""

import gc
import math
import time

#: Kernel time at the reference speed (its typical time on a 2-core x86 VM
#: running CPython 3.11).
REFERENCE_S = 0.0018


def seconds() -> float:
    """Wall time of one run of the kernel.

    The cyclic garbage collector is paused meanwhile, so that garbage left by
    the program's last request is not collected on the kernel's clock."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        x = 0.0
        for i in range(1, 1500):
            x = math.fsum((x, math.sqrt(i), 1.0 / i))
            acc[i % 97] = format(x, ".17g")
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scale(measured: float, kernel_s: float) -> float:
    """``measured`` seconds expressed at the reference speed."""
    return measured * REFERENCE_S / kernel_s
