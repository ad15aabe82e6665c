"""Per-layer tracing from outside the program: wrap the names the engine
resolves at call time, record spans in memory, and restore the names.

The engine reaches its layers three ways, and each needs its own target:

* from-imports bound into ``hopfleet.engine`` (``match``,
  ``assign_hop_zones``, ``agent_reward``): wrapping ``matching.match`` would
  miss the engine's own reference, so the engine's name is wrapped;
* module attributes looked up on each call (``dm.*``, ``fl.*``, ``rl.*``):
  the attribute on the layer's module is wrapped;
* methods (``VehicleState.planned_stops``, ``QNetwork.q_values`` ...): the
  class attribute is wrapped, so every instance sees it.

A span is (tick, name, parent, start, end). The tick number is the span id
shared by everything one ``Simulation.step`` causes; set-up spans carry -1.
Self time is a span's duration minus the time covered by its child spans;
times are the thread's cpu time.
Calls, self times and counters cover the ticks and what follows them; a
set-up span only adds its duration to ``setup_s``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

SETUP_TICK = -1


class Tracer:
    """Installs span and counter wrappers; ``with tracer:`` scopes them."""

    def __init__(self):
        self._installed = []  # (owner, attribute, original)
        self._targets = []  # (owner, attribute, name, on_result, opens_tick); None: count only
        self.reset()

    def reset(self):
        """Forget every span and counter; the wrappers stay installed."""
        self.stack = []  # open spans: [name, start, child_seconds]
        self.tick = SETUP_TICK
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.setup_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []

    # -- targets -------------------------------------------------------------

    def span(self, owner, attribute, name, on_result=None, opens_tick=False):
        """Time every call of ``owner.attribute`` as a span called ``name``.

        ``on_result(tracer, args, result)`` runs after a span outside set-up
        has closed, so the counters it updates do not count against the
        layer's time.
        With ``opens_tick`` the call's first argument is the simulation, and
        its tick number becomes the id of every span the call causes.
        """
        self._targets.append((owner, attribute, name, on_result, opens_tick))

    def count(self, owner, attribute, name):
        """Count calls of ``owner.attribute`` without timing them; the call's
        time stays in its caller's self time."""
        self._targets.append((owner, attribute, name, None, None))

    def __enter__(self):
        for owner, attribute, name, on_result, opens_tick in self._targets:
            original = vars(owner).get(attribute)
            if original is None:
                raise AttributeError(f"{owner!r} defines no {attribute!r} to wrap")
            wrapper = (self._counted(original, name) if opens_tick is None
                       else self._timed(original, name, on_result, opens_tick))
            setattr(owner, attribute, wrapper)
            self._installed.append((owner, attribute, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
        return False

    def _counted(self, original, name):
        def wrapper(*args, **kwargs):
            if self.tick != SETUP_TICK:
                self.calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _timed(self, original, name, on_result, opens_tick):
        clock = time.thread_time  # the host times of run.py are cpu time too

        def wrapper(*args, **kwargs):
            if opens_tick:
                self.tick = args[0].tick
            stack = self.stack
            parent = stack[-1][0] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if self.tick == SETUP_TICK:
                    self.setup_s[name] += duration
                else:
                    self.calls[name] += 1
                    self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self.spans.append((self.tick, name, parent, frame[1], end))
            if on_result is not None and self.tick != SETUP_TICK:
                on_result(self, args, result)
            return result

        return wrapper

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, times in microseconds from
        the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for tick, name, parent, start, end in self.spans:
                fh.write(json.dumps([tick, name, parent, round((start - origin) * 1e6, 1),
                                     round((end - origin) * 1e6, 1)]) + "\n")
