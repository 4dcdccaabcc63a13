"""A seeded multi-site archival campaign (the pipeline's test harness).

Builds one :class:`World` with a source site and N destination sites
around a core router, a crashing component/worker fleet, a fleet
scheduler (optionally sharded), a catalog, and the five pipeline
components — then submits a small-file-heavy request backlog and drives
it to completion under chaos.  Every payload byte written to the source
is retained in ``source_payloads`` so tests and benchmarks can assert
replica byte-identity after the source copies are gone.

Component hosts and worker hosts are *control-plane* names: they carry
chaos crashes (killing claims) but sit outside the data topology, so a
picker crash never perturbs a transfer's path — exactly the scheduler
soak's discipline.  The optional site blackout is the opposite: it
crashes a destination *data* host mid-campaign, forcing the replicator's
recovery loop to checkpoint-restart through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any

from repro.archive.bundler import Bundler
from repro.archive.catalog import ArchiveRequest, Catalog, archive_slos
from repro.archive.deleter import Deleter
from repro.archive.picker import Picker
from repro.archive.pipeline import ArchivePipeline
from repro.archive.replicator import Replicator
from repro.archive.verifier import SiteMoveVerifier
from repro.scheduler import FleetScheduler, SchedulerConfig
from repro.scheduler.sharding import ShardedFleetScheduler
from repro.sim.faults import ChaosConfig
from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.storage.posix import PosixStorage
from repro.telemetry.slo import default_slos
from repro.util.units import KB, gbps

COMPONENT_HOSTS = (
    "arch-picker", "arch-bundler", "arch-replicator",
    "arch-verifier", "arch-deleter",
)
WORKER_HOSTS = ("arch-w0", "arch-w1", "arch-w2", "arch-w3")


@dataclass
class ArchiveSite:
    """One storage endpoint: a topology host plus its DSI."""

    name: str
    host: str
    storage: PosixStorage


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one archival campaign run."""

    seed: int = 7
    requests: int = 6
    files_per_request: int = 24
    file_bytes: int = 64 * KB
    dest_sites: int = 2
    max_bundle_bytes: int = 512 * KB
    max_bundle_files: int = 8
    chaos: bool = True
    site_blackout: bool = True
    lease_s: float = 45.0
    quorum: int = 2
    shards: int = 1
    #: a bundle's claims accumulate across all five stages, and dense
    #: chaos costs many lapses per stage — keep the quarantine valve far
    #: from normal-operation reach
    max_claim_attempts: int = 200

    def quick(self) -> "CampaignConfig":
        """A CI-smoke-sized copy (same faults per unit work, fewer units)."""
        return replace(self, requests=2, files_per_request=8)


#: component crashes arrive at this per-host mean (Poisson); with the
#: campaign lease the clean-claim odds per attempt are e^(-45/25) ~ 0.17,
#: so claims retry repeatedly but converge well inside 50 attempts
_CHAOS = ChaosConfig(
    host_crash_every_s=25.0,
    host_downtime_s=(5.0, 20.0),
    marker_corruption_prob=0.05,
    horizon_s=3600.0,
)


class ArchivalCampaign:
    """One reproducible end-to-end run of the archival pipeline."""

    #: whole-site blackout windows on site-1 (onset, duration), virtual s
    BLACKOUTS = (
        (30.0, 90.0), (300.0, 120.0), (700.0, 150.0),
        (1200.0, 120.0), (1800.0, 150.0), (2500.0, 120.0),
    )

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.config = cfg = config or CampaignConfig()
        # traced, with an unbounded event log: flight recording needs the
        # spans and events, and soak assertions scan the full campaign
        # (a run emits a few tens of thousands of events, well in budget)
        self.world = world = World(seed=cfg.seed, span_capacity=8192, trace=True)
        world.enable_observability(slos=default_slos() + archive_slos())

        net = world.network
        net.add_router("archive-core")
        self.source = self._make_site(world, 0)
        self.sites: dict[str, ArchiveSite] = {}
        for i in range(1, cfg.dest_sites + 1):
            site = self._make_site(world, i)
            self.sites[site.name] = site
            site.storage.makedirs("/archive", 0)

        sched_config = SchedulerConfig(
            workers=len(WORKER_HOSTS),
            worker_hosts=WORKER_HOSTS if cfg.chaos else (),
            lease_s=40.0,
            heartbeat_s=8.0,
            max_task_attempts=50,
        )
        if cfg.shards > 1:
            self.scheduler = ShardedFleetScheduler(
                world, sched_config, shards=cfg.shards)
        else:
            self.scheduler = FleetScheduler(world, sched_config)

        self.catalog = Catalog(
            world, lease_s=cfg.lease_s,
            max_claim_attempts=cfg.max_claim_attempts)
        hosts = COMPONENT_HOSTS if cfg.chaos else (None,) * 5
        self.picker = Picker(
            world, self.catalog, self.source, host=hosts[0],
            max_bundle_bytes=cfg.max_bundle_bytes,
            max_bundle_files=cfg.max_bundle_files)
        self.bundler = Bundler(
            world, self.catalog, self.source, host=hosts[1], max_per_cycle=3)
        self.replicator = Replicator(
            world, self.catalog, self.source, self.sites, self.scheduler,
            host=hosts[2], max_per_cycle=2)
        self.verifier = SiteMoveVerifier(
            world, self.catalog, self.sites, host=hosts[3], quorum=cfg.quorum)
        self.deleter = Deleter(
            world, self.catalog, self.source, host=hosts[4], quorum=cfg.quorum)
        self.pipeline = ArchivePipeline(
            world, self.catalog, self.picker, self.bundler, self.replicator,
            self.verifier, self.deleter, self.scheduler)

        self.source_payloads: dict[str, bytes] = {}
        self.requests: list[ArchiveRequest] = []
        self._seed_source_data()

        if cfg.chaos:
            world.chaos.configure(_CHAOS)
            world.chaos.arm(
                links=(), hosts=list(COMPONENT_HOSTS) + list(WORKER_HOSTS))
        if cfg.site_blackout:
            # a destination site goes dark repeatedly across the campaign
            # span, so replica transfers and retries land inside windows
            for at, duration in self.BLACKOUTS:
                world.faults.crash_host("site-1", at=at, duration=duration)

    @staticmethod
    def _make_site(world: World, index: int) -> ArchiveSite:
        name = f"site-{index}"
        world.network.add_host(name, nic_bps=gbps(10))
        world.network.add_link(name, "archive-core", gbps(10), 0.005)
        return ArchiveSite(
            name=name, host=name, storage=PosixStorage(world.clock))

    def _seed_source_data(self) -> None:
        cfg = self.config
        rng = random.Random(cfg.seed)
        storage = self.source.storage
        for r in range(cfg.requests):
            user = f"user{r}"
            storage.makedirs(f"/data/{user}", 0)
            paths = []
            for j in range(cfg.files_per_request):
                path = f"/data/{user}/f{j:03d}.dat"
                payload = rng.randbytes(cfg.file_bytes)
                storage.write_file(path, LiteralData(payload), uid=0)
                self.source_payloads[path] = payload
                paths.append(path)
            self.requests.append(ArchiveRequest(
                request_id=f"req-{r:03d}",
                user=user,
                source_site=self.source.name,
                dest_sites=tuple(sorted(self.sites)),
                paths=tuple(paths),
            ))

    # -- driving -----------------------------------------------------------

    def run(self) -> dict[str, Any]:
        """Submit every request and drive the pipeline to completion."""
        for request in self.requests:
            self.catalog.submit(request)
        stats = self.pipeline.run_until_idle()
        stats["injected_faults"] = self.injected_faults()
        stats["worker_crashes"] = self._worker_crashes()
        return stats

    def injected_faults(self) -> int:
        """Faults that actually bit a claim (component + worker crashes)."""
        return self.pipeline.component_crashes() + self._worker_crashes()

    def _worker_crashes(self) -> int:
        # get() + total() sums labelled series, so this works sharded or not
        metric = self.world.metrics.get("scheduler_worker_crashes_total")
        return int(metric.total()) if metric is not None else 0

    # -- assertions helpers ------------------------------------------------

    def replica_payload(self, bundle_id: str, site_name: str) -> bytes:
        """The archived bundle bytes at one destination site."""
        bundle = self.catalog.bundle(bundle_id)
        path = next(r.path for r in bundle.replicas if r.site == site_name)
        return self.sites[site_name].storage.open_read(path, 0).read_all()

    def expected_bundle_payload(self, bundle_id: str) -> bytes:
        """The bundle's bytes recomputed from the retained source payloads."""
        bundle = self.catalog.bundle(bundle_id)
        return b"".join(self.source_payloads[p] for p in bundle.files)
