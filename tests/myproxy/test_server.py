"""The MyProxy Online CA server."""

import pytest

from repro.auth import Control, LdapDirectory, LdapPamModule, PamStack
from repro.errors import PamError, ReproError
from repro.myproxy.server import MyProxyOnlineCA
from repro.pki.dn import DistinguishedName as DN
from repro.pki.validation import TrustStore, validate_chain
from repro.sim.world import World
from repro.util.units import DAY, HOUR
from repro.util.units import gbps
from tests.conftest import make_gcmu_site


@pytest.fixture
def ca_env(world):
    world.network.add_host("dtn", nic_bps=gbps(10))
    ldap = LdapDirectory()
    ldap.add_entry("alice", "pw")
    pam = PamStack().add(Control.SUFFICIENT, LdapPamModule(ldap))
    myproxy = MyProxyOnlineCA(world, "dtn", "alcf", pam).start()
    return world, ldap, myproxy


def test_logon_issues_short_lived_cert(ca_env):
    world, ldap, myproxy = ca_env
    cred = myproxy.logon("alice", "pw")
    assert cred.certificate.lifetime() == 12 * HOUR
    assert myproxy.issued_count == 1


def test_username_embedded_in_dn(ca_env):
    """Paper Section IV: 'It embeds the local username in the DN'."""
    world, ldap, myproxy = ca_env
    cred = myproxy.logon("alice", "pw")
    assert str(cred.subject) == "/O=GCMU/OU=alcf/CN=alice"
    assert cred.subject.common_name == "alice"
    assert cred.certificate.extensions["issued_by_service"] == "myproxy:alcf"


@pytest.mark.traced
def test_bad_password_rejected(ca_env):
    world, ldap, myproxy = ca_env
    with pytest.raises(PamError):
        myproxy.logon("alice", "wrong")
    assert myproxy.issued_count == 0
    # and the event log shows no issuance
    assert world.log.count("myproxy.issue") == 0


def test_unknown_user_rejected_with_same_error(ca_env):
    world, ldap, myproxy = ca_env
    msg1 = msg2 = None
    try:
        myproxy.logon("alice", "wrong")
    except PamError as e:
        msg1 = str(e)
    try:
        myproxy.logon("ghost", "pw")
    except PamError as e:
        msg2 = str(e)
    assert msg1 == msg2


def test_lifetime_capped(ca_env):
    world, ldap, myproxy = ca_env
    cred = myproxy.logon("alice", "pw", lifetime_s=365 * DAY)
    assert cred.certificate.lifetime() <= myproxy.max_lifetime_s


def test_issued_cert_validates_against_site_ca(ca_env):
    world, ldap, myproxy = ca_env
    cred = myproxy.logon("alice", "pw")
    trust = TrustStore()
    trust.add_anchor(myproxy.ca.certificate, policy=myproxy.ca.policy)
    result = validate_chain(cred.chain, trust, world.now)
    assert result.identity.common_name == "alice"
    assert result.policy_checked


def test_cert_expires(ca_env):
    world, ldap, myproxy = ca_env
    cred = myproxy.logon("alice", "pw")
    world.advance(13 * HOUR)
    assert not cred.valid_at(world.now)


def test_ca_namespace_policy_restricts_site(ca_env):
    world, ldap, myproxy = ca_env
    assert myproxy.ca.policy.permits(DN.parse("/O=GCMU/OU=alcf/CN=x"))
    assert not myproxy.ca.policy.permits(DN.parse("/O=GCMU/OU=nersc/CN=x"))


def test_session_handles_protocol(ca_env):
    world, ldap, myproxy = ca_env
    from repro.myproxy.protocol import LogonRequest, LogonResponse

    session = myproxy.open_session("laptop")
    reply = session.handle(LogonRequest("alice", "pw", 3600).encode())
    resp = LogonResponse.decode(reply[0])
    assert resp.ok
    bad = LogonResponse.decode(
        session.handle(LogonRequest("alice", "nope", 3600).encode())[0]
    )
    assert not bad.ok
    garbage = LogonResponse.decode(session.handle("garbage line")[0])
    assert not garbage.ok


@pytest.mark.parametrize("lifetime", ["nan", "inf", "-inf", "-5", "0"])
def test_session_refuses_lifetime_not_finite_and_positive(ca_env, lifetime):
    """No credential outlives the cap: a NaN end would validate forever."""
    world, ldap, myproxy = ca_env
    from repro.myproxy.protocol import LogonRequest, LogonResponse

    line = LogonRequest("alice", "pw", 3600).encode().rsplit(" ", 1)[0]
    resp = LogonResponse.decode(myproxy.open_session("laptop").handle(f"{line} {lifetime}")[0])
    assert not resp.ok
    assert "not finite and positive" in resp.error
    assert myproxy.issued_count == 0


def test_session_answers_err_to_any_logon_error(ca_env, monkeypatch):
    world, ldap, myproxy = ca_env
    from repro.errors import CertificateError
    from repro.myproxy.protocol import LogonRequest, LogonResponse

    def refuse(*args):
        raise CertificateError("no key for you")

    monkeypatch.setattr(myproxy, "logon", refuse)
    reply = myproxy.open_session("laptop").handle(LogonRequest("alice", "pw", 3600).encode())
    resp = LogonResponse.decode(reply[0])
    assert not resp.ok
    assert resp.error == "no key for you"


def test_logon_with_nan_lifetime_issues_nothing(ca_env):
    world, ldap, myproxy = ca_env
    from repro.errors import CertificateError

    with pytest.raises(CertificateError):
        myproxy.logon("alice", "pw", float("nan"))
    assert myproxy.issued_count == 0


@pytest.mark.parametrize("lifetime", [0, -5, float("nan"), float("inf")])
def test_in_process_logon_refuses_lifetime_before_pam_and_key_search(lifetime):
    """0 is no request for the default, and +inf no request for the cap."""
    world = World(seed=1)
    world.network.add_host("dtn", nic_bps=gbps(10))
    myproxy = make_gcmu_site(world, "dtn", "alcf", {"alice": "pw"}).myproxy
    before = myproxy.ca.rng.getstate()
    with pytest.raises(ReproError, match="not finite and positive"):
        myproxy.logon("alice", "pw", lifetime)
    assert myproxy.ca.rng.getstate() == before
    assert myproxy.issued_count == 0
    # a refused lifetime draws no key: the next logon gets the key a
    # fresh site's first logon gets
    twin = World(seed=1)
    twin.network.add_host("dtn", nic_bps=gbps(10))
    first = make_gcmu_site(twin, "dtn", "alcf", {"alice": "pw"}).myproxy.logon("alice", "pw")
    assert myproxy.logon("alice", "pw").key == first.key


def test_logon_charges_processing_time(ca_env):
    world, ldap, myproxy = ca_env
    from repro.myproxy.protocol import LogonRequest

    session = myproxy.open_session("laptop")
    t0 = world.now
    session.handle(LogonRequest("alice", "pw", 3600).encode())
    assert world.now > t0
