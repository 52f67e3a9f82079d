"""Spans around the calls into each vfem layer, recorded from outside.

`Tracer.install()` replaces the public functions and methods listed in
`TRACED` with wrappers that record one span per call: a name, start and
end (`perf_counter` seconds), the enclosing span on the same thread, and
the thread. Spans stay in memory until `write()`; `uninstall()` puts the
originals back. The wrappers patch the name the caller looks up, so a
function imported into several modules is patched in each of them.

The `encode` wrapper also tallies the bytes of every encoded message by
kind and direction. Every message is encoded exactly once on both
transports, so these tallies add up to the fit's byte counters.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple, Optional

# (module, attribute path, span name): the caller-visible names of the
# public entry points of each layer
TRACED = (
    ("vfem.dataio", "read_dataset", "dataio.read"),
    ("vfem.data", "MissingMask.patterns", "data.patterns"),
    ("vfem.engine", "initialize", "engine.initialize"),
    ("vfem.messages", "WireSchema.__init__", "messages.schema_init"),
    ("vfem.messages", "WireSchema.validate", "messages.validate"),
    ("vfem.transport", "encode", "messages.encode"),
    ("vfem.transport", "decode", "messages.decode"),
    ("vfem.transport", "InProcessTransport.__init__", "transport.open"),
    ("vfem.transport", "InProcessTransport.send_to_client", "transport.send"),
    ("vfem.transport", "InProcessTransport.recv_from_client", "transport.recv"),
    ("vfem.transport", "SocketTransport.__init__", "transport.open"),
    ("vfem.transport", "SocketTransport.send_to_client", "transport.send"),
    ("vfem.transport", "SocketTransport.recv_from_client", "transport.recv"),
    ("vfem.federated", "ClientAgent.handle_message", "federated.agent"),
    ("vfem.federated", "ServerCoordinator.run_iteration", "federated.coordinator"),
    ("vfem.centralized", "estep", "centralized.estep"),
    ("vfem.inference", "estep", "centralized.estep"),
    ("vfem.centralized", "closed_form_m_step", "centralized.m_step"),
    ("vfem.inference", "sketch_statistics", "inference.sketch"),
    ("vfem.inference", "assemble_information", "inference.information"),
    ("vfem.inference", "sem_jacobian", "inference.jacobian"),
    ("vfem.inference", "asymptotic_covariance", "inference.covariance"),
)

MESSAGE_KINDS = (
    "estep_local_fit", "estep_quad_form", "estep_broadcast",
    "mstep_local_fit", "mstep_coupling_vec", "mstep_residual_coupling",
    "mstep_partial_projection", "mstep_aggregated_projection",
    "varstep_scalar", "control",
)

# span name -> (self-time metric, call-count metric or None)
LAYER_SPANS = {
    "dataio.read": ("dataio.read_s", "dataio.read_calls"),
    "data.patterns": ("data.patterns_s", "data.patterns_calls"),
    "engine.initialize": ("engine.initialize_s", None),
    "messages.schema_init": ("messages.schema_init_s", None),
    "messages.validate": ("messages.validate_s", "messages.validate_calls"),
    "messages.encode": ("messages.encode_s", "messages.encode_calls"),
    "messages.decode": ("messages.decode_s", "messages.decode_calls"),
    "transport.open": ("transport.open_s", None),
    "transport.send": ("transport.send_self_s", None),
    "transport.recv": ("transport.recv_self_s", None),
    "federated.agent": ("federated.agent_s", "federated.agent_calls"),
    "federated.coordinator": ("federated.coordinator_self_s", None),
    "centralized.estep": ("centralized.estep_s", "centralized.estep_calls"),
    "centralized.m_step": ("centralized.m_step_s", "centralized.m_step_calls"),
    "inference.sketch": ("inference.sketch_s", None),
    "inference.information": ("inference.information_s", None),
    "inference.jacobian": ("inference.jacobian_s", None),
    "inference.covariance": ("inference.covariance_s", None),
}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]    # enclosing span on the same thread
    thread: int


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children.

    Children are recorded on the thread of their parent, so their intervals
    nest inside it and do not overlap one another."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans) -> dict:
    """Self time and call count summed per span name."""
    own = self_times(spans)
    seconds, calls = defaultdict(float), Counter()
    for s in spans:
        seconds[s.name] += own[s.sid]
        calls[s.name] += 1
    return {"seconds": dict(seconds), "calls": dict(calls)}


def count_within(spans, ancestor: str, name: str) -> int:
    """Number of spans called `name` with an ancestor called `ancestor`."""
    by_id = {s.sid: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        up = by_id.get(s.parent)
        while up is not None and up.name != ancestor:
            up = by_id.get(up.parent)
        count += up is not None
    return count


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.bytes_by_kind: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span named `name`."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident()))

    def _wrap(self, name: str, original):
        tracer = self
        if name == "messages.encode":
            def traced(msg):
                line = tracer.span(name, original, msg)
                nbytes = len(line) if line.isascii() else len(line.encode("utf-8"))
                with tracer._lock:
                    tracer.bytes_by_kind[(msg.kind, msg.sender == 0)] += nbytes
                return line
        else:
            def traced(*args, **kwargs):
                return tracer.span(name, original, *args, **kwargs)
        traced.__name__ = getattr(original, "__name__", name)
        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for module_name, path, name in TRACED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._saved.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def mark(self) -> tuple:
        """A point to measure from with `layer_metrics`."""
        with self._lock:
            return len(self.spans), Counter(self.bytes_by_kind)

    def layer_metrics(self, since: tuple) -> dict:
        """The per-layer metrics of the spans recorded after `since`."""
        first, bytes_before = since
        totals = layer_totals(self.spans[first:])
        with self._lock:
            tally = self.bytes_by_kind - bytes_before
        out = {}
        for span_name, (time_metric, calls_metric) in LAYER_SPANS.items():
            out[time_metric] = totals["seconds"].get(span_name, 0.0)
            if calls_metric is not None:
                out[calls_metric] = totals["calls"].get(span_name, 0)
        for kind in MESSAGE_KINDS:
            out[f"transport.bytes.{kind}"] = sum(
                v for (k, _), v in tally.items() if k == kind)
        out["transport.bytes_to_clients"] = sum(
            v for (_, down), v in tally.items() if down)
        out["transport.bytes_from_clients"] = sum(
            v for (_, down), v in tally.items() if not down)
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, start times relative to the first."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "thread": s.thread, "start": s.start - origin,
                    "end": s.end - origin}) + "\n")
