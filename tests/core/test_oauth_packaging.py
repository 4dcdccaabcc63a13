"""GCMU with the packaged OAuth server (Section VIII, implemented)."""

import pytest

from repro.globusonline.service import GlobusOnline
from repro.scenarios import gcmu_site
from repro.util.units import gbps


@pytest.fixture
def net(world):
    n = world.network
    for h in ("dtn", "saas", "laptop"):
        n.add_host(h, nic_bps=gbps(10))
    n.add_link("dtn", "saas", gbps(1), 0.02)
    n.add_link("dtn", "laptop", gbps(1), 0.01)
    return world


@pytest.mark.traced
def test_with_oauth_installs_and_registers(net):
    world = net
    from repro.auth import AccountDatabase, Control, LdapDirectory, LdapPamModule, PamStack
    from repro.core.gcmu import install_gcmu

    go = GlobusOnline(world, "saas")
    accounts = AccountDatabase()
    accounts.add_user("alice")
    ldap = LdapDirectory()
    ldap.add_entry("alice", "pw")
    pam = PamStack().add(Control.SUFFICIENT, LdapPamModule(ldap))
    ep = install_gcmu(world, "dtn", "site", accounts, pam,
                      register_with=go, endpoint_name="site#dtn",
                      with_oauth=True, charge_install_time=False)
    assert ep.oauth is not None
    assert ep.endpoint_info.supports_oauth
    record = go.endpoint("site#dtn")
    assert record.oauth is ep.oauth
    # OAuth activation works with zero extra wiring
    user = go.register_user("alice@globusid")
    world.log.clear()
    act = go.activate_oauth(user, "site#dtn", "alice", "pw")
    assert act.credential.subject.common_name == "alice"
    parties = {e.fields["party"] for e in world.log.select("credential.exposure")}
    assert parties == {"site:site"}


def test_default_install_has_no_oauth(net):
    world = net
    ep = gcmu_site(world, "dtn", "plain", {"u": "p"})
    assert ep.oauth is None


def test_oauth_port_configurable(net):
    world = net
    from repro.auth import AccountDatabase, PamStack
    from repro.core.gcmu import install_gcmu

    ep = install_gcmu(world, "dtn", "s", AccountDatabase(), PamStack(),
                      with_oauth=True, oauth_port=8443,
                      charge_install_time=False)
    assert ep.oauth.address == ("dtn", 8443)
    ep.stop()
    assert ("dtn", 8443) not in world.network.listeners
