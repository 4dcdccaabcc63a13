"""The transfer engine: moving bytes under the network model.

This is where the GridFTP data channel meets the simulated WAN.  An
execute() call takes a source (file content + stripe hosts + security),
a sink (write sink + stripe hosts + security), and options (parallelism,
protection, transport, block size), then:

1. performs data-channel authentication (the Figure 4/5 logic);
2. computes the achievable rate from the XIO stack over every
   stripe-pair flow;
3. streams mode E blocks — real payload bytes for literal files — into
   the sink, charging virtual time;
4. honours the fault plan: an interruption mid-transfer persists the
   received ranges (restart markers) and raises
   :class:`~repro.errors.TransferFaultError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from repro.errors import TransferError, TransferFaultError
from repro.gridftp.dcau import DataChannelAuthCache, DataChannelSecurity, DCAUMode
from repro.gridftp.mode_e import DEFAULT_BLOCK_SIZE, ModeEPlan
from repro.gridftp.perf import PerfMarker, progress_markers
from repro.net.tcp import TCPModel
from repro.net.topology import PathStats
from repro.sim.world import World
from repro.storage.data import FileData, SyntheticData, checksum
from repro.storage.dsi import WriteSink
from repro.util.ranges import ByteRangeSet
from repro.xio.drivers import GsiProtectDriver, Protection, TcpDriver, UdtDriver
from repro.xio.stack import XIOStack

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultPlan


_File = TypeVar("_File")

#: histogram bucket edges for ``transfer_duration_seconds`` (virtual seconds)
TRANSFER_DURATION_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)


@dataclass(frozen=True)
class TransferOptions:
    """Tunable knobs for one transfer (the OPTS/SBUF/PROT command state)."""

    parallelism: int = 1
    block_size: int = DEFAULT_BLOCK_SIZE
    protection: Protection = Protection.CLEAR
    dcau: DCAUMode = DCAUMode.SELF
    dcau_subject: str | None = None  # DCAU S <subject> argument
    tcp_window_bytes: int | None = None  # None -> era-default 64 KiB
    transport: str = "tcp"  # "tcp" | "udt"
    marker_interval_s: float = 5.0
    pipelining: bool = False  # batch control commands for many-file jobs
    concurrency: int = 1  # simultaneous whole-file transfers

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise TransferError("parallelism must be >= 1")
        if self.concurrency < 1:
            raise TransferError("concurrency must be >= 1")
        if self.tcp_window_bytes is not None and self.tcp_window_bytes < 0:
            raise TransferError("tcp_window_bytes must be positive (None or 0: untuned)")
        if self.transport not in ("tcp", "udt"):
            raise TransferError(f"unknown transport {self.transport!r}")

    def with_(self, **kwargs) -> "TransferOptions":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **kwargs)

    def build_stack(self) -> XIOStack:
        """The XIO stack these options imply."""
        if self.transport == "udt":
            transport = UdtDriver()
        else:
            model = (
                TCPModel.tuned(self.tcp_window_bytes)
                if self.tcp_window_bytes
                else TCPModel.untuned()
            )
            transport = TcpDriver(model=model)
        stack = XIOStack(transport=transport)
        if self.protection is not Protection.CLEAR:
            stack = stack.push(GsiProtectDriver(protection=self.protection))
        return stack


@dataclass(slots=True)
class TransferResult:
    """Outcome of a completed transfer.

    Logically immutable; slotted, not frozen, because one is built for
    every transfer (DESIGN §17, *Hot value objects*).
    """

    nbytes: int
    start_time: float
    end_time: float
    streams: int
    stripes: int
    verified: bool
    checksum: str
    markers: tuple[PerfMarker, ...] = ()

    @property
    def duration_s(self) -> float:
        """Elapsed virtual seconds."""
        return self.end_time - self.start_time

    @property
    def rate_bps(self) -> float:
        """Effective payload rate in bits per second."""
        if self.duration_s <= 0:
            return 0.0
        return self.nbytes * 8.0 / self.duration_s


@dataclass
class SourceSpec:
    """The sending side of a transfer."""

    hosts: tuple[str, ...]
    data: FileData
    security: DataChannelSecurity
    needed: ByteRangeSet | None = None  # restart: only these ranges

    def __post_init__(self) -> None:
        if not self.hosts:
            raise TransferError("source has no hosts")


@dataclass
class SinkSpec:
    """The receiving side of a transfer."""

    hosts: tuple[str, ...]
    sink: WriteSink
    security: DataChannelSecurity

    def __post_init__(self) -> None:
        if not self.hosts:
            raise TransferError("sink has no hosts")


@dataclass(frozen=True)
class _Flow:
    src: str
    dst: str
    path: PathStats


class _TransferProfile:
    """Route/rate/plan state shared by identical repeat transfers.

    A fleet moves millions of files over a handful of (source hosts,
    sink hosts, options, size) shapes; everything here is a pure
    function of that shape and the topology, so recomputing it per
    transfer is waste.  Cached values are the *identical* floats the
    inline computation produced — virtual-time outcomes cannot drift.
    Invalidation: the owning cache is keyed by the network's
    ``topology_version``.  Which of the route's resources have any
    scheduled fault is kept too, stamped with the fault plan and its
    ``version`` (:meth:`exposure`).
    """

    __slots__ = ("flows", "nstripes", "max_rtt", "stack", "stack_describe",
                 "rate_bps", "links", "hosts", "setup_extra", "plan",
                 "_stamp", "_exposed")

    def __init__(self, engine: "TransferEngine", source: "SourceSpec",
                 sink: "SinkSpec", options: "TransferOptions") -> None:
        self.flows = engine._flows(source, sink)
        self.nstripes = len(self.flows)
        self.max_rtt = max(f.path.rtt_s for f in self.flows)
        stack = self.stack = options.build_stack()
        self.stack_describe = stack.describe()
        rate = 0.0
        for f in self.flows:
            per_flow = stack.throughput(f.path, options.parallelism)
            if options.concurrency > 1:
                per_flow = min(per_flow, f.path.bottleneck_bps / options.concurrency)
            rate += per_flow
        self.rate_bps = rate
        links, hosts = TransferEngine._all_resources(self.flows)
        self.links = tuple(sorted(links))
        self.hosts = tuple(sorted(hosts))
        self.setup_extra = (
            max(stack.setup_time_s(f.path) for f in self.flows)
            + max(stack.ramp_penalty_s(f.path, options.parallelism)
                  for f in self.flows)
        )
        self.plan = ModeEPlan.plan(source.data.size, options.block_size, None)
        self._stamp: tuple[FaultPlan | None, int] = (None, -1)
        self._exposed: tuple[tuple[str, ...], ...] = ((), (), ())

    def exposure(self, world: World) -> tuple[tuple[str, ...], ...]:
        """Check every flow's path is up now; return the route's faulted
        (links with outages, hosts with crashes, links with degradations).

        The subsets are derived again only when the plan has changed, and
        the paths are checked only when some link or host has an outage
        scheduled: on a clean route no check can raise.
        """
        faults = world.faults
        plan, version = self._stamp
        if plan is not faults or version != faults.version:
            self._exposed = faults.faulted(self.links, self.hosts)
            self._stamp = (faults, faults.version)
        exposed = self._exposed
        if exposed[0] or exposed[1]:
            for f in self.flows:
                world.network.check_path_up(f.path)
        return exposed


class TransferEngine:
    """Executes transfers against one world.

    Every metric instrument is resolved once here — steady-state
    transfers touch the registry zero times — and every labelled series
    a transfer can produce is pre-registered at zero, so exposition
    shows the full set before the first fault or degradation.
    """

    def __init__(self, world: World) -> None:
        self.world = world
        metrics = world.metrics
        self._active = metrics.gauge(
            "active_data_channels", "Data channels currently moving bytes"
        ).labels()
        self._bytes_moved = metrics.counter(
            "data_channel_bytes_total",
            "Payload bytes moved on data channels",
            labelnames=("outcome", "transport"),
        )
        # bound per-(outcome, transport) children, created on first use
        self._bytes_children: dict[tuple[str, str], object] = {}
        transfers = metrics.counter(
            "transfers_total", "Data-channel transfer attempts", labelnames=("outcome",)
        )
        self._transfers_complete = transfers.labels(outcome="complete")
        self._transfers_fault = transfers.labels(outcome="fault")
        self._degraded = metrics.counter(
            "transfers_degraded_total",
            "Transfers that ran through a bandwidth-degradation episode",
        ).labels()
        self._faults_data_channel = metrics.counter(
            "faults_injected_total", "Fault-plan interruptions observed",
            labelnames=("kind",),
        ).labels(kind="data_channel")
        self._duration_obs = metrics.histogram(
            "transfer_duration_seconds",
            "End-to-end duration of completed transfers (virtual seconds)",
            buckets=TRANSFER_DURATION_BUCKETS,
        ).labels()
        self._transfers_complete.inc(0.0)
        self._transfers_fault.inc(0.0)
        self._degraded.inc(0.0)
        self._faults_data_channel.inc(0.0)
        # transfer-shape profiles, dropped whenever the topology mutates
        self._profiles: dict[tuple, _TransferProfile] = {}
        self._profiles_topo_version = -1
        # DCAU successes replayed across files/jobs (wall-clock only; the
        # 2*RTT setup charge stays governed by charge_setup below)
        self.dcau_cache = DataChannelAuthCache()

    @classmethod
    def for_world(cls, world: World) -> "TransferEngine":
        """The shared engine for ``world`` (created on first use).

        The engine holds no per-transfer state — only the world handle
        and metric children bound to the world's registry — so every
        client sharing one instance is indistinguishable from each
        owning its own, minus the per-construction registry work.
        """
        engine = world.__dict__.get("_transfer_engine")
        if engine is None:
            engine = world._transfer_engine = cls(world)
        return engine

    def _bytes_child(self, outcome: str, transport: str):
        key = (outcome, transport)
        child = self._bytes_children.get(key)
        if child is None:
            child = self._bytes_moved.labels(outcome=outcome, transport=transport)
            self._bytes_children[key] = child
        return child

    # -- internals -----------------------------------------------------------

    def _flows(self, source: SourceSpec, sink: SinkSpec) -> list[_Flow]:
        """Stripe-pair flows: one per max(src stripes, dst stripes)."""
        n = max(len(source.hosts), len(sink.hosts))
        flows = []
        for i in range(n):
            src = source.hosts[i % len(source.hosts)]
            dst = sink.hosts[i % len(sink.hosts)]
            flows.append(_Flow(src=src, dst=dst, path=self.world.network.path(src, dst)))
        return flows

    @staticmethod
    def _all_resources(flows: list[_Flow]) -> tuple[set[str], set[str]]:
        links: set[str] = set()
        hosts: set[str] = set()
        for f in flows:
            links.update(f.path.link_ids)
            hosts.update(f.path.hosts)
            hosts.update((f.src, f.dst))
        return links, hosts

    # -- the main entry point ----------------------------------------------------

    def execute(
        self,
        source: SourceSpec,
        sink: SinkSpec,
        options: TransferOptions,
        charge_setup: bool = True,
        advance_clock: bool = True,
        finalize: bool = True,
    ) -> TransferResult:
        """Run one transfer to completion (or interruption).

        Raises :class:`~repro.errors.DCAUError` if data-channel
        authentication fails (Figure 4) and
        :class:`~repro.errors.TransferFaultError` if the fault plan cuts
        the transfer; in the latter case the sink's partial state has
        been persisted for restart.

        ``advance_clock=False`` computes timing without moving the world
        clock — :meth:`execute_lanes` runs each file so and advances the
        clock once by the lanes' makespan.  Fault interruption is only
        modelled when the clock advances.

        Every run opens a ``data_channel`` tracer span and maintains the
        ``active_data_channels`` gauge; bytes and outcomes land in the
        ``data_channel_bytes_total`` / ``transfers_total`` counters.
        """
        world = self.world
        active = self._active
        with world.tracer.span(
            "data_channel",
            transport=options.transport,
            parallelism=options.parallelism,
        ) as span:
            active.inc()
            try:
                return self._execute(
                    source, sink, options, charge_setup, advance_clock, finalize, span
                )
            finally:
                active.dec()

    def execute_lanes(
        self,
        files: Iterable[_File],
        open_ends: Callable[[_File], tuple[SourceSpec, SinkSpec]],
        options: TransferOptions,
    ) -> Iterator[tuple[_File, TransferResult]]:
        """Run ``files`` on ``options.concurrency`` lanes; yield each as it ends.

        The concurrency optimization for many small files: each file joins
        the lane that frees first, only the first ``concurrency`` files pay
        channel setup (mode E channels are cached per lane), and the clock
        advances once, by the makespan, after the last file.
        ``open_ends(file)`` opens a file's ends only when the file starts,
        and the caller reports each ``(file, result)`` before the next file
        runs, so storage side effects and events keep the order of one
        file after another.  The clock moves once the caller has taken the
        last result; a file that raises ends the run with the clock where
        it stood.
        """
        k = options.concurrency
        lane_time = [0.0] * k
        for i, file in enumerate(files):
            source, sink = open_ends(file)
            result = self.execute(source, sink, options, charge_setup=i < k,
                                  advance_clock=False)
            lane = min(range(k), key=lane_time.__getitem__)
            lane_time[lane] += result.duration_s
            yield file, result
        self.world.advance(max(lane_time))

    def _profile(self, source: SourceSpec, sink: SinkSpec,
                 options: TransferOptions) -> _TransferProfile:
        """The cached :class:`_TransferProfile` for this transfer shape."""
        tv = self.world.network.topology_version
        if tv != self._profiles_topo_version:
            self._profiles.clear()
            self._profiles_topo_version = tv
        key = (source.hosts, sink.hosts, options, source.data.size)
        prof = self._profiles.get(key)
        if prof is None:
            prof = self._profiles[key] = _TransferProfile(self, source, sink, options)
        return prof

    def _execute(
        self,
        source: SourceSpec,
        sink: SinkSpec,
        options: TransferOptions,
        charge_setup: bool,
        advance_clock: bool,
        finalize: bool,
        span,
    ) -> TransferResult:
        world = self.world
        prof = self._profile(source, sink, options)
        f_links, f_hosts, d_links = prof.exposure(world)

        window_start = world.now

        # 1. data channel authentication (sender connects, receiver listens).
        # Mode E data channels are cached across files, so a reused channel
        # (charge_setup=False) re-validates logically but pays no time.
        authed = self.dcau_cache.authenticate(
            source.security, sink.security, window_start
        )
        extra_time = 0.0
        if authed and charge_setup:
            extra_time += 2.0 * prof.max_rtt

        # 2. achievable rate (profiled).  Concurrent whole-file transfers
        # (the "concurrency" optimization) share the bottleneck fairly.
        rate_bps = prof.rate_bps
        if rate_bps <= 0:
            raise TransferError("zero achievable rate on every flow")
        # chaos degradation episodes slow the transfer without cutting it;
        # only links with any scheduled episode can change the factor
        degrade = (
            world.faults.bandwidth_factor(d_links, window_start) if d_links else 1.0
        )
        if degrade < 1.0:
            rate_bps *= degrade
            world.emit(
                "gridftp.transfer.degraded",
                "transfer running on degraded links",
                factor=degrade,
            )
            self._degraded.inc()
        if charge_setup:
            extra_time += prof.setup_extra
        if advance_clock:
            world.advance(extra_time)

        # 3. the block schedule (range arithmetic — no Block objects)
        plan = (
            prof.plan
            if source.needed is None
            else ModeEPlan.plan(source.data.size, options.block_size, source.needed)
        )
        total = plan.total_bytes
        start = world.now if advance_clock else world.now + extra_time
        payload_s = total * 8.0 / rate_bps
        end = start + payload_s

        # 4. fault check over the whole window (setup included); resources
        # with no scheduled outage at all cannot interrupt anything
        fault_at = None
        if advance_clock and (f_links or f_hosts):
            fault_at = world.faults.first_interruption(f_links, f_hosts, window_start, end)

        if fault_at is not None:
            delivered = 0
            if fault_at > start:
                delivered = int(rate_bps / 8.0 * (fault_at - start))
            self._write_ranges(sink.sink, source.data, plan, limit=delivered)
            received = sink.sink.received
            sink.sink.close(complete=False)
            world.advance_to(max(fault_at, world.now))
            world.emit(
                "gridftp.transfer.fault",
                "transfer interrupted",
                bytes_done=received.total_bytes(),
                bytes_total=total,
            )
            self._bytes_child("fault", options.transport).inc(received.total_bytes())
            self._transfers_fault.inc()
            self._faults_data_channel.inc()
            span.fields.update(nbytes=received.total_bytes(), bytes_total=total)
            raise TransferFaultError(
                f"transfer interrupted at t={fault_at:.3f} after "
                f"{received.total_bytes()}/{total} bytes",
                received=received,
                at_time=fault_at,
            )

        # 5. clean completion: move every block, advance, verify.
        # finalize=False leaves the destination as a persisted partial
        # (ERET window retrievals): nothing to fingerprint yet.
        self._write_ranges(sink.sink, source.data, plan, limit=None)
        if advance_clock:
            world.advance(payload_s)
        if finalize:
            committed = sink.sink.close(complete=True)
            verified = (
                committed is not None
                and checksum(committed) == checksum(source.data)
            )
        else:
            sink.sink.close(complete=False)
            verified = False
        nstripes = prof.nstripes
        nstreams = options.parallelism * nstripes
        markers = progress_markers(
            start, payload_s, total, stripes=nstripes, interval_s=options.marker_interval_s
        )
        end_time = world.now if advance_clock else end
        duration = end_time - window_start
        eff_rate = total * 8.0 / duration if duration > 0 else 0.0
        result = TransferResult(
            nbytes=total,
            start_time=window_start,
            end_time=end_time,
            streams=nstreams,
            stripes=nstripes,
            verified=verified,
            checksum=checksum(source.data),
            markers=tuple(markers),
        )
        world.emit(
            "gridftp.transfer.complete",
            "transfer complete",
            nbytes=total,
            duration=duration,
            rate_bps=eff_rate,
            streams=nstreams,
            stripes=nstripes,
            stack=prof.stack_describe,
            verified=verified,
        )
        self._bytes_child("complete", options.transport).inc(total)
        self._transfers_complete.inc()
        ctx = world.tracer.current
        self._duration_obs.observe(
            duration,
            exemplar=ctx.trace_id if ctx is not None else None)
        span.fields.update(nbytes=total, rate_bps=eff_rate,
                           streams=nstreams, stripes=nstripes)
        return result

    @staticmethod
    def _write_ranges(
        sink: WriteSink, data: FileData, plan: ModeEPlan, limit: int | None
    ) -> None:
        """Deliver the plan's whole-block prefix under ``limit`` to the sink.

        Only *whole* blocks count as received (a cut mid-block delivers
        nothing for that block), matching mode E semantics where a block
        is acknowledged only when fully stored —
        :meth:`ModeEPlan.delivered_prefix` computes that prefix without
        framing blocks, and each contiguous span lands as one bulk write.
        An empty plan (zero-byte file) still sends its bare EOF block, so
        a synthetic zero-byte transfer records its content definition.
        """
        synthetic = data if isinstance(data, SyntheticData) else None
        if not plan.ranges:
            if synthetic is not None:
                sink.write_synthetic_range(0, 0, synthetic)
            return
        # no budget: the plan's own spans are the delivery — skip the
        # ByteRangeSet round-trip and burst each span as one bulk write
        spans = plan.ranges if limit is None else plan.delivered_prefix(limit)
        for start, end in spans:
            if synthetic is not None:
                sink.write_synthetic_range(start, end - start, synthetic)
            else:
                sink.write_range(start, data.read(start, end - start))


def estimate_rate_bps(
    world: World,
    src_host: str,
    dst_host: str,
    options: TransferOptions,
) -> float:
    """Steady-state rate the options would achieve host-to-host (no I/O)."""
    path = world.network.path(src_host, dst_host)
    return options.build_stack().throughput(path, options.parallelism)
