"""The pass-time estimate behind ``wall_s``.

A pass is cut into short segments at points that fall at the same place of the
work in every pass: the start and end of each timed call, and every
``EVERY``-th rhs call of each integration loop, ``integrate._integrate_array``
(the loop behind ``integrate()`` and the reductions' own integrators).
A segment between two stamps of the same loop covers ``EVERY`` rhs calls,
with the steps, projections and recording between them; all such segments of
one loop do the same work.  ``EVERY`` = 28 is 7 RK4 or 4 DOPRI5 steps, about
half a millisecond at suite sizes.

The host this benchmark was written on slows a single thread by up to a
factor of two, for milliseconds to minutes at a time, and only ever slows it.
The estimate therefore takes each piece of work at its fastest time seen in
the run: a loop's segments at the fastest of all its segments over all
passes, and every other segment (set-up, observables, comparisons, writing)
at its fastest time in the same place over the passes.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

EVERY = 28


class SegmentClock:
    """Stamps the time every ``EVERY``-th rhs call of each integration loop,
    and keeps, per timed call, the fastest time of each kind of segment."""

    def __init__(self):
        self.stamps = []    # (time, number of the loop within the current call)
        self._loops = 0
        self._undo = []
        self.best = {}      # label -> _Best

    def install(self):
        """Wrap the integration loop wherever synclab binds it; returns False
        if there is none, and then every segment is an edge."""
        loop = getattr(importlib.import_module("synclab.integrate"), "_integrate_array", None)
        if loop is None:
            return False
        stamps, clock = self.stamps, time.perf_counter

        def stamped_loop(rhs, *args, **kwargs):
            number, calls = self._loops, [0]
            self._loops += 1

            def counted(y):
                calls[0] += 1
                if calls[0] % EVERY == 0:
                    stamps.append((clock(), number))
                return rhs(y)

            return loop(counted, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "synclab" or name.startswith("synclab."):
                for attr, val in list(vars(mod).items()):
                    if val is loop:
                        self._undo.append((mod, attr, val))
                        setattr(mod, attr, stamped_loop)
        return True

    def uninstall(self):
        while self._undo:
            mod, attr, val = self._undo.pop()
            setattr(mod, attr, val)

    def time_call(self, label, thunk, record=True):
        """Run ``thunk()`` and return its result; with ``record``, fold its
        segments into the fastest times kept for ``label``."""
        self.stamps.clear()
        self._loops = 0
        t0 = time.perf_counter()
        out = thunk()
        if record:
            points = [(t0, None)] + self.stamps + [(time.perf_counter(), None)]
            best = self.best.setdefault(label, _Best())
            best.add([(b[0] - a[0], a[1] if a[1] == b[1] else None)
                      for a, b in zip(points, points[1:])])
        return out

    def estimate(self) -> float:
        """The estimated time of one pass: the sum over its calls."""
        return sum(best.estimate() for best in self.best.values())


class _Best:
    """The fastest times of one call's segments over the passes.

    A segment is ``(seconds, loop)``, with the loop set when both ends are
    stamps of that loop; such segments are pooled per loop.  The others, the
    edges, are kept by position.
    """

    def __init__(self):
        self.passes = 0
        self.loops = {}         # loop -> [fastest segment, segments seen]
        self.edges = None       # fastest time at each edge position
        self.edge_sums = []     # each pass's edges, summed
        self.aligned = True

    def add(self, segments):
        self.passes += 1
        edges = []
        for dt, loop in segments:
            if loop is None:
                edges.append(dt)
            else:
                seen = self.loops.setdefault(loop, [math.inf, 0])
                seen[0] = min(seen[0], dt)
                seen[1] += 1
        self.edge_sums.append(sum(edges))
        if self.edges is None:
            self.edges = edges
        elif len(edges) == len(self.edges):
            self.edges = [min(a, b) for a, b in zip(self.edges, edges)]
        else:
            self.aligned = False

    def estimate(self) -> float:
        total = sum(fastest * seen / self.passes for fastest, seen in self.loops.values())
        # if the passes did not stop at the same places, take the fastest
        # pass's edges whole
        return total + (sum(self.edges) if self.aligned else min(self.edge_sums))
