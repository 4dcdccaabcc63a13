"""The hosted service: registry, activation, exposure accounting."""

import pytest

from repro.errors import AuthenticationError, ReproError
from repro.globusonline.service import GlobusOnline
from repro.util.units import HOUR, gbps
from tests.conftest import make_gcmu_site


@pytest.fixture
def go_world(world):
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "saas")
    ep_a = make_gcmu_site(world, "dtn-a", "alcf", {"alice": "pwA"},
                          register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_gcmu_site(world, "dtn-b", "nersc", {"asmith": "pwB"},
                          register_with=go, endpoint_name="nersc#dtn")
    return world, go, ep_a, ep_b


def test_registration_carries_site_ca(go_world):
    world, go, ep_a, ep_b = go_world
    rec = go.endpoint("alcf#dtn")
    assert rec.trust.find_anchor(ep_a.myproxy.ca.certificate) is not None


def test_unknown_endpoint(go_world):
    world, go, *_ = go_world
    with pytest.raises(ReproError):
        go.endpoint("nowhere#dtn")


def test_activation_stores_short_term_credential(go_world):
    world, go, ep_a, ep_b = go_world
    user = go.register_user("alice@globusid")
    act = go.activate(user, "alcf#dtn", "alice", "pwA")
    assert act.credential.subject.common_name == "alice"
    assert user.activation_for("alcf#dtn", world.now) is act


def test_activation_bad_password(go_world):
    world, go, ep_a, ep_b = go_world
    user = go.register_user("alice@globusid")
    with pytest.raises(AuthenticationError):
        go.activate(user, "alcf#dtn", "alice", "wrong")


def test_activation_expires(go_world):
    world, go, ep_a, ep_b = go_world
    user = go.register_user("alice@globusid")
    go.activate(user, "alcf#dtn", "alice", "pwA", lifetime_s=1 * HOUR)
    world.advance(2 * HOUR)
    with pytest.raises(AuthenticationError, match="expired"):
        user.activation_for("alcf#dtn", world.now)


def test_unactivated_endpoint(go_world):
    world, go, ep_a, ep_b = go_world
    user = go.register_user("alice@globusid")
    with pytest.raises(AuthenticationError, match="not activated"):
        user.activation_for("alcf#dtn", world.now)


@pytest.mark.traced
def test_password_activation_exposes_to_go_and_site(go_world):
    """Figure 6 path: the password transits Globus Online."""
    world, go, ep_a, ep_b = go_world
    user = go.register_user("alice@globusid")
    world.log.clear()
    go.activate(user, "alcf#dtn", "alice", "pwA")
    parties = {e.fields["party"] for e in world.log.select("credential.exposure")}
    assert parties == {"globusonline", "site:alcf"}


@pytest.mark.traced
def test_oauth_activation_exposes_to_site_only(go_world):
    """Figure 7 path: the password never touches the third party."""
    world, go, ep_a, ep_b = go_world
    from repro.globusonline.oauth import OAuthServer

    oauth = OAuthServer(world, "dtn-a", ep_a.myproxy, port=8443).start()
    go.attach_oauth("alcf#dtn", oauth)
    user = go.register_user("alice@globusid")
    world.log.clear()
    go.activate_oauth(user, "alcf#dtn", "alice", "pwA")
    parties = {e.fields["party"] for e in world.log.select("credential.exposure")}
    assert parties == {"site:alcf"}


def test_oauth_activation_without_oauth_server(go_world):
    world, go, ep_a, ep_b = go_world
    user = go.register_user("alice@globusid")
    with pytest.raises(AuthenticationError, match="no OAuth server"):
        go.activate_oauth(user, "alcf#dtn", "alice", "pwA")


def test_activation_unsupported_endpoint(go_world):
    """An endpoint registered without a MyProxy CA can't activate."""
    world, go, ep_a, ep_b = go_world
    from repro.core.endpoint import EndpointInfo

    go.register_endpoint(EndpointInfo(
        name="legacy#dtn", display_name="legacy",
        gridftp_address=("dtn-a", 2899),
    ))
    user = go.register_user("u")
    with pytest.raises(AuthenticationError, match="no MyProxy CA"):
        go.activate(user, "legacy#dtn", "x", "y")
