"""Spans recorded from outside the program, and their per-layer analysis.

The traced run wraps public entry points of each layer (class methods
and module functions) in :class:`Tracer` spans.  A span has a name, a
start and an end in nanoseconds, the index of its parent (the innermost
span open when it started, or -1) and a call id: the harness call (one
``submit_batch``) that caused it.  Spans stay in memory until the run
ends, are written out as JSON, and are analysed from that file by
:func:`self_times`.

The open-span stack is shared by all threads.  That is exact here
because the benchmark is a closed loop with one client and serial
batches: at most one request is in flight, so the HTTP handler thread
of the in-process front-end only runs while the client thread waits
inside its own span.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter_ns

__all__ = ["Tracer", "DelegatingStore", "install_layer_spans", "self_times"]


class Tracer:
    """In-memory span recorder; records only while ``enabled``.

    Spans live in flat integer arrays rather than one list per span:
    arrays hold no references, so a few hundred thousand spans add no
    work to the garbage collector's passes over the program's objects.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.calls = array("q")
        self.enabled = False
        self.call_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, function):
        """``function`` wrapped so that each call records a span."""
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, calls, stack = self.parents, self.calls, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            calls.append(tracer.call_id)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced wrapper."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def dump(self, path) -> None:
        """Write the spans as a JSON list of ``[name, start, end, parent, call]``."""
        spans = [
            list(span)
            for span in zip(
                self.names, self.starts, self.ends, self.parents, self.calls
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle, separators=(",", ":"))


class DelegatingStore:
    """A ``SessionStore`` that forwards every call to ``inner``.

    The benchmark passes it to ``PodService(store=...)`` in traced runs,
    so that ``record_step`` and ``load`` can carry spans without any
    change to the store classes themselves.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self.record_step = tracer.wrap("pods.store_write", inner.record_step)
        self.load = tracer.wrap("pods.store_read", inner.load)

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    from repro.core.spocus import SpocusTransducer
    from repro.logic.sat import SatSolver
    from repro.pods.service import PodService
    from repro.pods.session import Session
    from repro.server import wire
    from repro.server.client import PodClient
    from repro.server.frontend import PodServer
    from repro.server.worker import WorkerHandle
    from repro.shadow.service import ShadowService
    from repro.verify.api import monitor
    from repro.verify.api.auditor import OnlineAuditor

    # The harness calls submit_batch on in-process services; the span is
    # the root of each call there (PodClient.submit_batch is the root
    # over HTTP).
    tracer.patch(PodService, "submit_batch", "pods.batch_self")
    tracer.patch(ShadowService, "submit_batch", "pods.batch_self")
    tracer.patch(PodClient, "submit_batch", "server.http")
    tracer.patch(wire, "encode_step_request", "server.codec")
    tracer.patch(wire, "decode_step_result", "server.codec")
    tracer.patch(PodServer, "submit_batch", "server.frontend")
    tracer.patch(WorkerHandle, "call", "server.worker")
    tracer.patch(ShadowService, "submit", "shadow.self")
    tracer.patch(PodService, "submit", "pods.submit_self")
    tracer.patch(Session, "step", "core.step_self")
    tracer.patch(SpocusTransducer, "output_with_context", "core.output")
    tracer.patch(SpocusTransducer, "state_function", "core.state")
    tracer.patch(OnlineAuditor, "observe_step", "audit.observe_self")
    # LogValidityMonitor calls the name it imported into its own module.
    tracer.patch(monitor, "check_log_validity", "logic.log_validity_self")
    tracer.patch(SatSolver, "solve", "logic.sat")


def _covered(children: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``children`` clipped to ``[start, end]``."""
    covered = 0
    reach = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, reach)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            reach = child_end
    return covered


def self_times(spans: list[list]) -> dict:
    """``{name: {"calls", "self_ns"}}`` over ``[name, start, end, parent, call]`` spans.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, parent, _call in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    names: dict[str, dict] = {}
    for index, (name, start, end, _parent, _call) in enumerate(spans):
        entry = names.setdefault(name, {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += (end - start) - _covered(
            children.get(index, []), start, end
        )
    return names
