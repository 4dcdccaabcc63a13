"""The worldwide GridFTP fleet (Figure 1's data source).

Section II.A: "The Globus GridFTP server is deployed on more than 5,000
servers worldwide and is responsible for an average of more than 10
million transfers totaling approximately half a petabyte of data every
day ... these numbers are based on reporting from GridFTP servers that
choose to enable reporting, presumably a subset of all servers."

:class:`FleetModel` grows a server fleet over a simulated multi-year
window and synthesizes each day's usage records from the *reporting*
subset, feeding them through the same usage pipeline a live server uses
(:mod:`repro.metrics.usage`).  The growth curve is logistic, calibrated
so the final year matches the paper's figures.

:class:`FleetTransferScenario` is the *wall-clock* counterpart: instead
of synthesizing usage records it actually drives the transfer engine at
fleet scale — thousands of small-file transfers between one endpoint
pair plus a multi-GiB striped transfer, under a dense scheduled-fault
plan — so ``benchmarks/bench_wallclock_fleet.py`` can measure how fast
the *simulator* itself runs the paper's workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.gridftp.dcau import DataChannelSecurity, DCAUMode
from repro.gridftp.mode_e import DEFAULT_BLOCK_SIZE
from repro.gridftp.transfer import (
    SinkSpec,
    SourceSpec,
    TransferEngine,
    TransferOptions,
    TransferResult,
)
from repro.pki.validation import TrustStore
from repro.sim.world import World
from repro.storage.data import LiteralData, SyntheticData
from repro.storage.posix import PosixStorage
from repro.util.units import GB, KB, PB, gbps


@dataclass(frozen=True)
class FleetDay:
    """Aggregate usage for one simulated day."""

    day_index: int
    servers_total: int
    servers_reporting: int
    transfers: int
    bytes_moved: int


class FleetModel:
    """Deterministic fleet growth + per-day usage synthesis."""

    def __init__(
        self,
        seed: int = 0,
        days: int = 4 * 365,
        final_servers: int = 5000,
        final_transfers_per_day: float = 10e6,
        final_bytes_per_day: float = 0.5 * PB,
        reporting_fraction: float = 0.6,
        midpoint_fraction: float = 0.55,
        growth_rate: float = 0.006,
    ) -> None:
        self.rng = random.Random(seed)
        self.days = days
        self.final_servers = final_servers
        self.final_transfers_per_day = final_transfers_per_day
        self.final_bytes_per_day = final_bytes_per_day
        self.reporting_fraction = reporting_fraction
        self.midpoint = midpoint_fraction * days
        self.growth_rate = growth_rate

    def _logistic(self, day: int) -> float:
        """Adoption fraction in (0, 1] at ``day``."""
        raw = 1.0 / (1.0 + math.exp(-self.growth_rate * (day - self.midpoint)))
        end = 1.0 / (1.0 + math.exp(-self.growth_rate * (self.days - self.midpoint)))
        return float(raw / end)

    def day(self, day_index: int) -> FleetDay:
        """Synthesize one day of fleet-wide usage."""
        if not 0 <= day_index < self.days:
            raise ValueError(f"day {day_index} outside [0, {self.days})")
        adoption = self._logistic(day_index)
        servers = max(1, int(round(self.final_servers * adoption)))
        reporting = max(1, int(round(servers * self.reporting_fraction)))
        # day-to-day jitter: weekday dips, noisy science campaigns
        jitter = 1.0 + 0.15 * self.rng.gauss(0.0, 1.0)
        weekly = 1.0 - 0.2 * (day_index % 7 >= 5)
        transfers = max(
            0, int(self.final_transfers_per_day * adoption * jitter * weekly)
        )
        mean_size = self.final_bytes_per_day / self.final_transfers_per_day
        bytes_moved = int(transfers * mean_size * (1.0 + 0.1 * self.rng.gauss(0.0, 1.0)))
        return FleetDay(
            day_index=day_index,
            servers_total=servers,
            servers_reporting=reporting,
            transfers=transfers,
            bytes_moved=max(0, bytes_moved),
        )

    def series(self, step_days: int = 7) -> list[FleetDay]:
        """The sampled multi-year series (weekly by default)."""
        return [self.day(d) for d in range(0, self.days, step_days)]


# ---------------------------------------------------------------------------
# Wall-clock fleet scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetWorkloadConfig:
    """Shape of one wall-clock fleet run.

    ``side_pairs``/``scheduled_faults`` build a realistic backdrop: a
    topology with many more hosts and links than the transfer touches,
    and a dense fault plan on those *side* links — exactly what a
    production fault schedule looks like from one transfer's point of
    view (almost everything scheduled is about somebody else).
    """

    seed: int = 7
    small_files: int = 10_000
    small_file_bytes: int = 64 * KB
    striped_bytes: int = 4 * GB
    stripes: int = 4
    side_pairs: int = 50
    scheduled_faults: int = 2_000
    block_size: int = DEFAULT_BLOCK_SIZE

    def quick(self) -> "FleetWorkloadConfig":
        """A CI-smoke-sized copy (same per-transfer cost, fewer of them)."""
        from dataclasses import replace

        return replace(self, small_files=1_000, striped_bytes=512 * 1024 * 1024)


@dataclass
class FleetRunStats:
    """What one phase of the scenario did (for the bench report)."""

    transfers: int = 0
    bytes_moved: int = 0
    blocks_planned: int = 0
    results: list[TransferResult] = field(default_factory=list)


def _blocks_for(size: int, block_size: int) -> int:
    """Mode E blocks a whole-file plan of ``size`` bytes produces."""
    return max(1, -(-size // block_size))


class FleetTransferScenario:
    """Drives the transfer engine the way a busy deployment does.

    One endpoint pair (``dtn-src`` → ``dtn-dst`` across two routers)
    moves every small file — fleets re-use routes — while ``stripes``
    stripe hosts on each side carry the multi-GiB striped transfer.
    ``scheduled_faults`` outages/degradations sit on side links the
    transfers never touch, so every run finishes clean but every fault
    query sees a production-sized plan.
    """

    def __init__(self, config: FleetWorkloadConfig | None = None) -> None:
        self.config = config or FleetWorkloadConfig()
        cfg = self.config
        self.world = World(seed=cfg.seed)
        net = self.world.network
        net.add_host("dtn-src", nic_bps=gbps(10))
        net.add_host("dtn-dst", nic_bps=gbps(10))
        net.add_router("core-a")
        net.add_router("core-b")
        net.add_link("dtn-src", "core-a", gbps(40), 0.001)
        net.add_link("core-a", "core-b", gbps(100), 0.02)
        net.add_link("core-b", "dtn-dst", gbps(40), 0.001)
        self.src_stripes = tuple(f"src-s{i}" for i in range(cfg.stripes))
        self.dst_stripes = tuple(f"dst-s{i}" for i in range(cfg.stripes))
        for h in self.src_stripes:
            net.add_host(h, nic_bps=gbps(10))
            net.add_link(h, "core-a", gbps(10), 0.001)
        for h in self.dst_stripes:
            net.add_host(h, nic_bps=gbps(10))
            net.add_link(h, "core-b", gbps(10), 0.001)
        # the backdrop: side links whose faults this scenario never hits
        side_links = []
        for i in range(cfg.side_pairs):
            a, b = f"fleet-h{i}a", f"fleet-h{i}b"
            net.add_host(a)
            net.add_host(b)
            side_links.append(net.add_link(a, b, gbps(1), 0.01).link_id)
        rng = random.Random(cfg.seed)
        for i in range(cfg.scheduled_faults):
            link = side_links[i % len(side_links)]
            at = rng.uniform(0.0, 50_000.0)
            if i % 3 == 0:
                self.world.faults.degrade_link(
                    link, at=at, duration=rng.uniform(5.0, 60.0),
                    factor=rng.uniform(0.2, 0.8),
                )
            elif i % 3 == 1:
                self.world.faults.cut_link(link, at=at, duration=rng.uniform(1.0, 30.0))
            else:
                self.world.faults.crash_host(
                    f"fleet-h{i % len(side_links)}a", at=at,
                    duration=rng.uniform(1.0, 30.0),
                )
        self.engine = TransferEngine(self.world)
        self.storage = PosixStorage(self.world.clock)
        self.storage.makedirs("/fleet", 0)
        self._security = DataChannelSecurity(
            mode=DCAUMode.NONE, credential=None, trust=TrustStore(),
            endpoint_name="fleet",
        )
        self._payload = LiteralData(
            bytes(rng.getrandbits(8) for _ in range(cfg.small_file_bytes))
        )
        # the small-file hot path reuses one spec/options trio per call:
        # the engine treats specs as read-only, so only the sink handle
        # needs swapping between transfers
        self._small_source = SourceSpec(
            hosts=("dtn-src",), data=self._payload, security=self._security
        )
        self._small_sink = SinkSpec(
            hosts=("dtn-dst",),
            sink=None,  # type: ignore[arg-type]  # set per transfer
            security=self._security,
        )
        self._small_options = TransferOptions(block_size=cfg.block_size)

    # -- the two phases -------------------------------------------------------

    def run_small_file(self, index: int) -> TransferResult:
        """Move one small file dtn-src -> dtn-dst (the per-file hot path)."""
        sink_spec = self._small_sink
        sink_spec.sink = self.storage.open_write(
            f"/fleet/file-{index}.dat", 0, self._payload.size
        )
        return self.engine.execute(
            self._small_source, sink_spec, self._small_options
        )

    def run_small_files(self, on_each=None) -> FleetRunStats:
        """The many-small-files phase; ``on_each(i, fn)`` may wrap each call."""
        cfg = self.config
        stats = FleetRunStats()
        for i in range(cfg.small_files):
            if on_each is not None:
                result = on_each(i, lambda: self.run_small_file(i))
            else:
                result = self.run_small_file(i)
            stats.transfers += 1
            stats.bytes_moved += result.nbytes
            stats.blocks_planned += _blocks_for(result.nbytes, cfg.block_size)
        return stats

    def run_striped(self) -> FleetRunStats:
        """The multi-GiB striped phase (synthetic content, 4-way stripes)."""
        cfg = self.config
        data = SyntheticData(seed=cfg.seed + 99, length=cfg.striped_bytes)
        sink = self.storage.open_write("/fleet/striped.bin", 0, data.size)
        result = self.engine.execute(
            SourceSpec(hosts=self.src_stripes, data=data, security=self._security),
            SinkSpec(hosts=self.dst_stripes, sink=sink, security=self._security),
            TransferOptions(parallelism=4, block_size=cfg.block_size),
        )
        return FleetRunStats(
            transfers=1,
            bytes_moved=result.nbytes,
            blocks_planned=_blocks_for(result.nbytes, cfg.block_size),
            results=[result],
        )
