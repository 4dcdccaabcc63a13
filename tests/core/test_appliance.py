"""The virtual appliance and admin console (Section VIII future work)."""

import pytest

from repro.core.appliance import ApplianceImage
from repro.errors import ReproError
from repro.myproxy.client import myproxy_logon
from repro.util.units import gbps


@pytest.fixture
def booted(world):
    net = world.network
    net.add_host("vm-host", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("vm-host", "laptop", gbps(1), 0.01)
    image = ApplianceImage(site_name="biolab", with_oauth=True,
                           preloaded_users=(("alice", "pw"),))
    return world, image, image.boot(world, "vm-host")


def test_boot_provisions_everything(booted):
    world, image, appliance = booted
    status = appliance.console.api_status()
    assert status["site"] == "biolab"
    assert status["gridftp"]["up"]
    assert status["myproxy"]["up"]
    assert status["oauth"]["up"]
    assert status["users"] == 1


def test_image_is_reusable_configuration(booted):
    world, image, appliance = booted
    world.network.add_host("vm-host-2", nic_bps=gbps(10))
    second = image.boot(world, "vm-host-2")
    # independent deployments, same settings
    assert second.endpoint.host == "vm-host-2"
    assert second.endpoint.myproxy.ca.certificate.fingerprint() != (
        appliance.endpoint.myproxy.ca.certificate.fingerprint()
    )


def test_preloaded_user_can_logon(booted):
    world, image, appliance = booted
    cred = myproxy_logon(world, "laptop", appliance.endpoint.myproxy, "alice", "pw")
    assert cred.subject.common_name == "alice"


def test_console_add_and_lock_user(booted):
    world, image, appliance = booted
    console = appliance.console
    out = console.run("add-user bob hunter2")
    assert "bob" in out
    cred = myproxy_logon(world, "laptop", appliance.endpoint.myproxy, "bob", "hunter2")
    assert cred.subject.common_name == "bob"
    console.run("lock-user bob")
    # PAM still passes (htpasswd), but GridFTP authorization refuses later;
    # locking is a local-account concern.
    assert appliance.endpoint.accounts.get("bob").locked
    console.run("unlock-user bob")
    assert not appliance.endpoint.accounts.get("bob").locked


def test_console_restart_services(booted):
    world, image, appliance = booted
    console = appliance.console
    t0 = world.now
    out = console.run("restart-services")
    assert "restart #1" in out
    assert world.now > t0  # the bounce takes time
    status = console.api_status()
    assert status["gridftp"]["up"] and status["myproxy"]["up"]
    # still usable after the bounce
    myproxy_logon(world, "laptop", appliance.endpoint.myproxy, "alice", "pw")


def test_console_trust_ca(booted):
    world, image, appliance = booted
    from repro.pki.ca import CertificateAuthority
    from repro.pki.dn import DistinguishedName as DN

    other = CertificateAuthority(DN.parse("/O=X/CN=X"), world.clock,
                                 world.rng.python("x"), key_bits=256)
    before = len(appliance.endpoint.server.trust)
    out = appliance.console.api_trust_ca(other.certificate)
    assert out["anchors"] == before + 1


def test_console_register_with_globus_online(booted):
    world, image, appliance = booted
    from repro.globusonline.service import GlobusOnline

    world.network.add_host("saas", nic_bps=gbps(10))
    world.network.add_link("saas", "vm-host", gbps(1), 0.02)
    go = GlobusOnline(world, "saas")
    appliance.console.api_register(go, "biolab#vm")
    record = go.endpoint("biolab#vm")
    assert record.info.supports_oauth  # the packaged OAuth is advertised
    user = go.register_user("alice@globusid")
    act = go.activate_oauth(user, "biolab#vm", "alice", "pw")
    assert act.credential.subject.common_name == "alice"


def test_console_cli_errors_and_help(booted):
    world, image, appliance = booted
    console = appliance.console
    assert "commands:" in console.run("help")
    with pytest.raises(ReproError):
        console.run("frobnicate")
    with pytest.raises(ReproError):
        console.run("")


@pytest.mark.traced
def test_console_audit_log(booted):
    world, image, appliance = booted
    console = appliance.console
    console.run("add-user carol pw")
    console.run("restart-services")
    assert console.audit_log == ["add-user carol", "restart-services"]
    assert world.log.count("gcmu.appliance.admin") == 2


def test_oauth_packaging_flag(world):
    world.network.add_host("plain", nic_bps=gbps(10))
    image = ApplianceImage(site_name="no-oauth", with_oauth=False)
    appliance = image.boot(world, "plain")
    assert appliance.endpoint.oauth is None
    assert appliance.console.api_status()["oauth"] is None


def test_stop_stops_oauth_too(booted):
    world, image, appliance = booted
    appliance.endpoint.stop()
    assert ("vm-host", 443) not in world.network.listeners
