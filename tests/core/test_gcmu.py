"""GCMU installation and the Figure 3 workflow."""

import pytest

from repro.errors import AuthenticationError
from repro.gridftp.client import GridFTPClient
from repro.pki.validation import TrustStore
from repro.util.units import gbps
from tests.conftest import make_gcmu_site


@pytest.fixture
def gcmu(world):
    net = world.network
    net.add_host("dtn.site.edu", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("dtn.site.edu", "laptop", gbps(1), 0.01)
    ep = make_gcmu_site(world, "dtn.site.edu", "siteX",
                        {"alice": "pwA", "bob": "pwB"})
    return world, ep


def test_install_provisions_everything(gcmu):
    world, ep = gcmu
    assert ep.server.address == ("dtn.site.edu", 2811)
    assert ep.myproxy.address == ("dtn.site.edu", 7512)
    # the server trusts exactly the local CA
    assert len(ep.server.trust) == 1
    assert ep.server.trust.find_anchor(ep.myproxy.ca.certificate) is not None
    # host credential issued by the local CA, not an external one
    assert ep.server.credential.chain[0].issuer == ep.myproxy.ca.subject
    # the callout is the DN parser, not a gridmap
    assert ep.server.authz.name == "gcmu-myproxy-dn"


@pytest.mark.traced
def test_figure3_full_workflow(gcmu):
    """Steps 1-5 of Figure 3, inline."""
    world, ep = gcmu
    from repro.myproxy.client import myproxy_logon

    trust = TrustStore()
    # steps 1-3: username/password -> PAM -> short-lived certificate
    cred = myproxy_logon(world, "laptop", ep.myproxy, "alice", "pwA", trust=trust)
    assert str(cred.subject) == "/O=GCMU/OU=siteX/CN=alice"
    # step 4: authenticate to GridFTP with that certificate
    client = GridFTPClient(world, "laptop", credential=cred, trust=trust)
    session = client.connect(ep.server)
    # step 5: AUTHZ parsed the username from the DN; setuid done
    assert session.logged_in_as == "alice"
    assert session.server_session.account.uid == ep.accounts.get("alice").uid
    ev = world.log.select("gridftp.authz.ok")[-1]
    assert ev.fields["callout"] == "gcmu-myproxy-dn"


def test_wrong_password_stops_at_step_2(gcmu):
    world, ep = gcmu
    from repro.myproxy.client import myproxy_logon

    with pytest.raises(AuthenticationError):
        myproxy_logon(world, "laptop", ep.myproxy, "alice", "wrong")


def test_users_cannot_cross_accounts(gcmu):
    """Bob's certificate maps to bob, and only bob."""
    world, ep = gcmu
    from repro.myproxy.client import myproxy_logon

    trust = TrustStore()
    bob_cred = myproxy_logon(world, "laptop", ep.myproxy, "bob", "pwB", trust=trust)
    client = GridFTPClient(world, "laptop", credential=bob_cred, trust=trust)
    with pytest.raises(AuthenticationError, match="Authorization failed"):
        client.connect(ep.server, username="alice")


def test_locked_account_refused_at_authorization(gcmu):
    world, ep = gcmu
    from repro.myproxy.client import myproxy_logon

    trust = TrustStore()
    cred = myproxy_logon(world, "laptop", ep.myproxy, "alice", "pwA", trust=trust)
    ep.accounts.lock("alice")
    client = GridFTPClient(world, "laptop", credential=cred, trust=trust)
    with pytest.raises(AuthenticationError):
        client.connect(ep.server)


def test_make_home(gcmu):
    world, ep = gcmu
    st = ep.storage.stat("/home/alice", 0)
    assert st.is_dir
    assert st.owner_uid == ep.accounts.get("alice").uid


def test_no_gridmap_anywhere(gcmu):
    """The deliverable of Section IV.C: no DN->user table to maintain."""
    world, ep = gcmu
    from repro.core.authz_callout import MyProxyDNCallout

    assert isinstance(ep.server.authz, MyProxyDNCallout)
    assert ep.server.authz.fallback is None


def test_stop_releases_ports(gcmu):
    world, ep = gcmu
    ep.stop()
    assert ("dtn.site.edu", 2811) not in world.network.listeners
    assert ("dtn.site.edu", 7512) not in world.network.listeners


def test_install_charges_time(world):
    net = world.network
    net.add_host("h", nic_bps=gbps(10))
    from repro.auth import AccountDatabase, PamStack
    from repro.core.gcmu import install_gcmu

    t0 = world.now
    install_gcmu(world, "h", "s", AccountDatabase(), PamStack(),
                 charge_install_time=True)
    assert world.now - t0 > 60.0  # minutes, not days


def test_registration_with_globus_online(world):
    from repro.globusonline.service import GlobusOnline

    net = world.network
    net.add_host("h", nic_bps=gbps(10))
    net.add_host("saas", nic_bps=gbps(10))
    net.add_link("h", "saas", gbps(1), 0.02)
    go = GlobusOnline(world, "saas")
    ep = make_gcmu_site(world, "h", "alcf", {"u": "p"},
                        register_with=go, endpoint_name="alcf#dtn")
    assert "alcf#dtn" in go.endpoints
    assert ep.endpoint_info.name == "alcf#dtn"
    assert go.endpoints["alcf#dtn"].info.supports_activation
