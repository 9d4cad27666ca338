"""Machine-speed probe: a fixed kernel of small numpy calls, timed between ops.

The speed of a shared machine shifts by up to about 2x for seconds to
minutes at a time, with no steal time to show for it, and the program's
ops slow by the same factor as this kernel, which makes the same kind
of small-array numpy calls as the stepper and the resolver. The run
times the kernel every ``INTERVAL_S`` of wall time; each op's time is
multiplied by ``REFERENCE_S`` over the mean of the two kernel times
around it, so it reads as the op's time on a machine that runs the
kernel in ``REFERENCE_S``. The kernel does not call simpact, so a change
of the program moves the scaled times by as much as the raw ones.

Cold starts are not scaled: over 40 of them, with and without a
memory-bound process beside them, their time did not follow the
kernel's (fitted exponent -0.08), and scaling raised their spread.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time that scaled times refer to: about its time on an idle
#: 2-CPU machine of the kind the baseline was taken on.
REFERENCE_S = 1.14e-3

#: Wall time between kernel samples during the timed phase.
INTERVAL_S = 0.02

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])


def sample() -> float:
    """Wall time of one run of the kernel, in seconds."""
    start = time.perf_counter()
    x = np.ones(3)
    for _ in range(130):
        x = np.linalg.solve(_A, x + 1.0)
        x = x / np.linalg.norm(x)
        np.concatenate([x, _A @ x])
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for a time taken between two kernel samples."""
    return REFERENCE_S / (0.5 * (before + after))
