"""Shared fixtures: worlds, topologies, sites, and users.

Two site styles are provided:

* ``conventional_site`` — classic GridFTP deployment (well-known CA,
  host cert, gridmap callout), used to test the pre-GCMU workflow;
* ``gcmu_site`` — a full GCMU install (MyProxy Online CA + DN callout).

``two_domain_world`` wires two sites with *disjoint* trust roots plus a
client laptop and a SaaS host — the Figure 4/5/6 topology.

Fixture worlds keep no spans or events (``World(trace=False)``); a test
that reads them asks with ``@pytest.mark.traced``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import settings as hypothesis_settings

# Derandomize property tests and drop per-example deadlines (RSA keygen
# examples are legitimately slow): the whole suite is reproducible.
hypothesis_settings.register_profile("repro", derandomize=True, deadline=None)
hypothesis_settings.load_profile("repro")

from repro.auth import (
    AccountDatabase,
    Control,
    LdapDirectory,
    LdapPamModule,
    PamStack,
)
from repro.core.gcmu import GCMUEndpoint, install_gcmu
from repro.gridftp.client import GridFTPClient
from repro.gridftp.server import GridFTPServer
from repro.gsi.authz import GridmapCallout
from repro.gsi.gridmap import Gridmap
from repro.pki.ca import CertificateAuthority
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.proxy import create_proxy
from repro.pki.validation import TrustStore
from repro.sim.world import World
from repro.storage.posix import PosixStorage
from repro.util import memo
from repro.util.units import gbps, mbps


def traced(request: pytest.FixtureRequest) -> bool:
    """Whether the requesting test is marked ``@pytest.mark.traced``."""
    return request.node.get_closest_marker("traced") is not None


@pytest.fixture
def world(request: pytest.FixtureRequest) -> World:
    """A fresh deterministic world."""
    return World(seed=42, trace=traced(request))


@pytest.fixture(autouse=True)
def _session_cache_flag(monkeypatch: pytest.MonkeyPatch) -> None:
    """Give back the session-cache flag each test found.

    Building a world reads ``REPRO_NO_SESSION_CACHE`` into the flag
    :func:`repro.util.memo.enabled` returns, so a test that flips the
    variable and builds a world would otherwise leave its setting to the
    tests after it.
    """
    monkeypatch.setattr(memo, "_enabled", memo._enabled)


@pytest.fixture
def cache_on(monkeypatch: pytest.MonkeyPatch) -> None:
    """Session caches on, even in a run under ``REPRO_NO_SESSION_CACHE``.

    Sets the variable, for the worlds the test builds, and the flag, for
    a world another fixture built first.
    """
    monkeypatch.delenv("REPRO_NO_SESSION_CACHE", raising=False)
    monkeypatch.setattr(memo, "_enabled", True)


@pytest.fixture
def cache_off(monkeypatch: pytest.MonkeyPatch) -> None:
    """Session caches off (``REPRO_NO_SESSION_CACHE=1``) for one test.

    Sets the variable and the flag, as :func:`cache_on` does.
    """
    monkeypatch.setenv("REPRO_NO_SESSION_CACHE", "1")
    monkeypatch.setattr(memo, "_enabled", False)


@dataclass
class Site:
    """One deployed (conventional) GridFTP site for tests."""

    name: str
    host: str
    ca: CertificateAuthority
    trust: TrustStore
    accounts: AccountDatabase
    gridmap: Gridmap
    storage: PosixStorage
    server: GridFTPServer
    user_credentials: dict[str, Credential] = field(default_factory=dict)

    def add_user(self, world: World, username: str) -> Credential:
        """Provision an account + long-term credential + gridmap entry."""
        self.accounts.add_user(username)
        cred = self.ca.issue_credential(
            DistinguishedName.make(("O", self.name), ("OU", "people"), ("CN", username))
        )
        self.gridmap.add(cred.subject, username)
        self.storage.makedirs(f"/home/{username}", 0)
        self.storage.chown(f"/home/{username}", self.accounts.get(username).uid)
        self.user_credentials[username] = cred
        return cred

    def proxy_for(self, world: World, username: str) -> Credential:
        return create_proxy(
            self.user_credentials[username], world.clock, world.rng.python(f"px:{username}")
        )

    def client_for(
        self, world: World, username: str, client_host: str, local_storage=None
    ) -> GridFTPClient:
        return GridFTPClient(
            world,
            client_host,
            credential=self.proxy_for(world, username),
            trust=self.trust,
            local_storage=local_storage or _client_fs(world),
            username=username,
        )


def _client_fs(world: World) -> PosixStorage:
    fs = PosixStorage(world.clock)
    fs.makedirs("/tmp", 0)
    return fs


def make_conventional_site(
    world: World, name: str, host: str, port: int = GridFTPServer.DEFAULT_PORT
) -> Site:
    """Build a classic GridFTP deployment on an existing host."""
    rng = world.rng.python(f"site:{name}")
    ca = CertificateAuthority(
        DistinguishedName.make(("O", name), ("CN", f"{name} CA")), world.clock, rng
    )
    trust = TrustStore()
    trust.add_anchor(ca.certificate)
    accounts = AccountDatabase()
    gridmap = Gridmap()
    storage = PosixStorage(world.clock)
    host_cred = ca.issue_credential(
        DistinguishedName.make(("O", name), ("OU", "hosts"), ("CN", host))
    )
    server = GridFTPServer(
        world,
        host,
        host_cred,
        trust,
        GridmapCallout(gridmap),
        accounts,
        storage,
        port=port,
        name=f"gridftp-{name}",
    ).start()
    return Site(
        name=name,
        host=host,
        ca=ca,
        trust=trust,
        accounts=accounts,
        gridmap=gridmap,
        storage=storage,
        server=server,
    )


def make_gcmu_site(
    world: World,
    host: str,
    site_name: str,
    users: dict[str, str],
    register_with=None,
    endpoint_name: str | None = None,
    dcsc_enabled: bool = True,
) -> GCMUEndpoint:
    """Install GCMU on an existing host with LDAP-backed users."""
    accounts = AccountDatabase()
    ldap = LdapDirectory(base_dn=f"dc={site_name}")
    for username, password in users.items():
        accounts.add_user(username)
        ldap.add_entry(username, password)
    pam = PamStack(f"myproxy-{site_name}").add(Control.SUFFICIENT, LdapPamModule(ldap))
    endpoint = install_gcmu(
        world,
        host,
        site_name,
        accounts,
        pam,
        register_with=register_with,
        endpoint_name=endpoint_name,
        dcsc_enabled=dcsc_enabled,
        charge_install_time=False,
    )
    for username in users:
        endpoint.make_home(username)
    return endpoint


@dataclass
class TwoDomains:
    """The Figure 4/5/6 topology, assembled."""

    world: World
    site_a: Site
    site_b: Site
    laptop: str
    saas_host: str
    inter_site_link_id: str


@pytest.fixture
def two_domain_world(request: pytest.FixtureRequest) -> TwoDomains:
    """Two conventional sites with disjoint CAs, a laptop, a SaaS host."""
    world = World(seed=1234, trace=traced(request))
    net = world.network
    net.add_host("dtn-a", nic_bps=gbps(10))
    net.add_host("dtn-b", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_host("saas", nic_bps=gbps(10))
    inter = net.add_link("dtn-a", "dtn-b", gbps(10), 0.05, loss=1e-5)
    net.add_link("laptop", "dtn-a", mbps(20), 0.02)
    net.add_link("laptop", "dtn-b", mbps(20), 0.03)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    site_a = make_conventional_site(world, "SiteA", "dtn-a")
    site_b = make_conventional_site(world, "SiteB", "dtn-b")
    alice_a = site_a.add_user(world, "alice")
    site_b.add_user(world, "asmith")
    del alice_a
    return TwoDomains(
        world=world,
        site_a=site_a,
        site_b=site_b,
        laptop="laptop",
        saas_host="saas",
        inter_site_link_id=inter.link_id,
    )


@pytest.fixture
def simple_pair(world: World) -> tuple[World, Site, str]:
    """One site + a laptop, for single-server protocol tests."""
    net = world.network
    net.add_host("server1", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("server1", "laptop", gbps(1), 0.01, loss=0.0)
    site = make_conventional_site(world, "Lab", "server1")
    site.add_user(world, "alice")
    return world, site, "laptop"
