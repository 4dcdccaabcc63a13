"""The site OAuth server."""

import pytest

from repro.auth import Control, LdapDirectory, LdapPamModule, PamStack
from repro.errors import AuthenticationError
from repro.globusonline.oauth import OAuthServer
from repro.myproxy.server import MyProxyOnlineCA
from repro.util.units import gbps


@pytest.fixture
def oauth_env(world):
    world.network.add_host("dtn", nic_bps=gbps(10))
    ldap = LdapDirectory()
    ldap.add_entry("alice", "pw")
    pam = PamStack().add(Control.SUFFICIENT, LdapPamModule(ldap))
    myproxy = MyProxyOnlineCA(world, "dtn", "alcf", pam).start()
    oauth = OAuthServer(world, "dtn", myproxy, port=8443).start()
    return world, myproxy, oauth


def test_authorize_then_exchange(oauth_env):
    world, myproxy, oauth = oauth_env
    code = oauth.authorize("alice", "pw")
    cred = oauth.exchange(code)
    assert cred.subject.common_name == "alice"


def test_codes_single_use(oauth_env):
    world, myproxy, oauth = oauth_env
    code = oauth.authorize("alice", "pw")
    oauth.exchange(code)
    with pytest.raises(AuthenticationError, match="already-redeemed"):
        oauth.exchange(code)


def test_invalid_code(oauth_env):
    world, myproxy, oauth = oauth_env
    with pytest.raises(AuthenticationError):
        oauth.exchange("bogus")


def test_bad_password(oauth_env):
    world, myproxy, oauth = oauth_env
    with pytest.raises(AuthenticationError):
        oauth.authorize("alice", "wrong")


def test_codes_unique(oauth_env):
    world, myproxy, oauth = oauth_env
    c1 = oauth.authorize("alice", "pw")
    c2 = oauth.authorize("alice", "pw")
    assert c1 != c2


@pytest.mark.traced
def test_exposure_names_site_not_third_party(oauth_env):
    world, myproxy, oauth = oauth_env
    world.log.clear()
    oauth.authorize("alice", "pw")
    parties = {e.fields["party"] for e in world.log.select("credential.exposure")}
    assert parties == {"site:alcf"}


def test_stop_releases_port(oauth_env):
    world, myproxy, oauth = oauth_env
    oauth.stop()
    assert ("dtn", 8443) not in world.network.listeners
