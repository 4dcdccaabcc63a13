"""Boundary tracing: wall time and call counts per layer, from outside.

A *layer* is a package under ``src/repro/``.  :data:`ENTRY_POINTS` names
the public entry points the traced run wraps at runtime; nothing under
``src/`` is edited.  Each wrapped call records its count, its self time
(wall time minus the time covered by nested wrapped calls) and one span
``(id, parent id, entry point, start, end)`` kept in memory and written
out when the run ends.

Every entry point also states where it must run (``moves``: calls > 0 in
the timed region) and where it must not (``zero``).  The coverage check
compares those predictions with the counts, which catches a wrapper that
missed because a caller bound the function early (a dispatch table, a
cached engine, a module-level ``from ... import``).
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from array import array
from dataclasses import dataclass

GO = ("go_storm", "go_many_users")
STORM = ("go_storm",)
MANY = ("go_many_users",)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped boundary: metric name, targets, and coverage predictions."""

    name: str
    targets: tuple[str, ...]  # "module:Qualified.name"
    moves: tuple[str, ...] = ()
    zero: tuple[str, ...] = ()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_FAULT_QUERIES = tuple(
    f"repro.sim.faults:FaultPlan.{m}"
    for m in ("link_down", "host_down", "control_down", "has_link_faults",
              "has_host_faults", "has_degradations", "bandwidth_factor",
              "first_interruption", "endpoint_disrupted", "next_clear_time")
)

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("gridftp.session_handle", ("repro.gridftp.server:GridFTPSession.handle",), GO),
    EntryPoint("gridftp.pool_checkout", ("repro.gridftp.client:ControlChannelPool.checkout",),
               GO),
    EntryPoint("gridftp.client_login", ("repro.gridftp.client:ClientSession.login",), GO),
    EntryPoint("gridftp.engine_execute", ("repro.gridftp.transfer:TransferEngine.execute",),
               GO),
    EntryPoint("gridftp.mode_e_plan", ("repro.gridftp.mode_e:ModeEPlan.plan",), GO),
    EntryPoint("pki.rsa.sign", ("repro.pki.rsa:sign",), MANY),
    EntryPoint("pki.rsa.verify", ("repro.pki.rsa:verify",), MANY),
    EntryPoint("pki.rsa.keygen", ("repro.pki.rsa:generate_keypair",), MANY),
    EntryPoint("pki.validate_chain", ("repro.pki.validation:validate_chain",), MANY),
    # The GridFTP control channel authenticates in ClientSession.login and
    # the server's ADAT handler; no workload reaches gsi.establish_context
    # or its session cache, so neither is wrapped.
    EntryPoint("gsi.delegate", ("repro.gsi.delegation:delegate_credential",), GO),
    EntryPoint("myproxy.logon", ("repro.myproxy.client:myproxy_logon",), MANY, STORM),
    EntryPoint("auth.pam", ("repro.auth.pam:PamStack.authenticate",), MANY, STORM),
    EntryPoint("scheduler.submit", ("repro.scheduler.workers:FleetScheduler.submit",), GO),
    EntryPoint("scheduler.queue_push", ("repro.scheduler.queue:FairShareQueue.push",), GO),
    EntryPoint("scheduler.queue_pop", ("repro.scheduler.queue:FairShareQueue.pop_next",), GO),
    EntryPoint("scheduler.lease_grant", ("repro.scheduler.leases:LeaseTable.grant",), GO),
    EntryPoint("scheduler.run_until_idle",
               ("repro.scheduler.workers:FleetScheduler.run_until_idle",
                "repro.scheduler.sharding:ShardedFleetScheduler.run_until_idle"),
               GO),
    EntryPoint("globusonline.activate", ("repro.globusonline.service:GlobusOnline.activate",),
               MANY, STORM),
    EntryPoint("globusonline.submit_transfer",
               ("repro.globusonline.service:GlobusOnline.submit_transfer",), GO),
    EntryPoint("globusonline.run_job", ("repro.globusonline.transfer:run_job",), GO),
    EntryPoint("globusonline.run_batch_job", ("repro.globusonline.transfer:run_batch_job",),
               GO),
    EntryPoint("recovery.run", ("repro.recovery.engine:RecoveryEngine.run",), GO),
    EntryPoint("net.path", ("repro.net.topology:Network.path",), GO),
    EntryPoint("net.channel_request",
               ("repro.net.channel:ControlChannel.request",
                "repro.net.channel:ControlChannel.pipeline"),
               GO),
    EntryPoint("storage.open_write", ("repro.storage.posix:PosixStorage.open_write",), GO),
    EntryPoint("storage.write_file", ("repro.storage.posix:PosixStorage.write_file",), GO),
    EntryPoint("storage.stat", ("repro.storage.posix:PosixStorage.stat",), GO),
    EntryPoint("sim.fire_due", ("repro.sim.events:Scheduler.fire_due",), GO),
    EntryPoint("sim.faults_query", _FAULT_QUERIES, GO),
    EntryPoint("telemetry.span", ("repro.telemetry.trace:Tracer.span",), GO),
    EntryPoint("telemetry.span_exit", ("repro.telemetry.trace:_SpanHandle.__exit__",), GO),
    EntryPoint("telemetry.emit", ("repro.sim.world:World.emit",), GO),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e.layer for e in ENTRY_POINTS))


class Recorder:
    """Per-entry-point call counts and self time, plus a bounded span log."""

    def __init__(self, names, span_capacity: int = 200_000, clock=time.perf_counter) -> None:
        self.names = tuple(names)
        self.span_capacity = span_capacity
        self.clock = clock
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # one frame per active wrapped call: [span id, time covered by children]
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Forget counts and spans (called outside any wrapped call)."""
        self.calls[:] = [0] * len(self.names)
        self.self_s[:] = [0.0] * len(self.names)
        self.spans_dropped = 0
        self._next_id = 1
        self._ids = array("q")
        self._parents = array("q")
        self._entries = array("i")
        self._starts = array("d")
        self._ends = array("d")

    def wrap(self, index: int, fn):
        """``fn`` wrapped to record under entry point ``index``."""
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_s[index] += duration - frame[1]
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                self._record(span_id, parent, index, start, end)

        return wrapper

    def _record(self, span_id, parent, index, start, end) -> None:
        if len(self._ids) >= self.span_capacity:
            self.spans_dropped += 1
            return
        self._ids.append(span_id)
        self._parents.append(parent)
        self._entries.append(index)
        self._starts.append(start)
        self._ends.append(end)

    def span_count(self) -> int:
        return len(self._ids)

    def write_spans(self, path) -> None:
        """Write the span log as CSV (times relative to the first span)."""
        origin = self._starts[0] if self._starts else 0.0
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,layer,entry_point,start_s,end_s\n")
            for i in range(len(self._ids)):
                name = self.names[self._entries[i]]
                fh.write(f"{self._ids[i]},{self._parents[i]},{name.split('.', 1)[0]},"
                         f"{name},{self._starts[i] - origin:.9f},"
                         f"{self._ends[i] - origin:.9f}\n")


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _rebind_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module global, module-level dict value
    and class attribute that holds ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
            elif isinstance(value, type) and value.__module__ == name:
                for k, v in list(vars(value).items()):
                    if v is original:
                        setattr(value, k, replacement)


def install(recorder: Recorder, entry_points=ENTRY_POINTS) -> None:
    """Wrap every target of every entry point (imports the targets)."""
    for index, entry in enumerate(entry_points):
        for target in entry.targets:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(recorder.wrap(index, raw.__func__)))
                else:
                    setattr(owner, attr, recorder.wrap(index, raw))
            else:
                original = getattr(owner, attr)
                _rebind_everywhere(original, recorder.wrap(index, original))


class GcMonitor:
    """Cyclic-GC collections and pause time, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0
        gc.callbacks.append(self._callback)

    def reset(self) -> None:
        self.collections = 0
        self.pause_s = 0.0

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started


def coverage_problems(workload: str, calls: dict[str, int],
                      entry_points=ENTRY_POINTS) -> list[str]:
    """Predictions the traced counts contradict (empty when all hold)."""
    problems = []
    for entry in entry_points:
        n = calls[entry.name]
        if workload in entry.moves and n == 0:
            problems.append(f"{entry.name}.calls is 0 on {workload}; expected > 0")
        if workload in entry.zero and n != 0:
            problems.append(f"{entry.name}.calls is {n} on {workload}; expected 0")
    return problems
