"""Property: no data channel authenticates a peer that trust or DCSC would reject.

Paper Figures 4-5 as a checked invariant.  One authenticated server
session is driven through random steps: DCAU A/S/N, DCSC P with a
CA-issued, self-signed or foreign-domain context, DCSC D, the pool's
``reset_for_reuse``, adding or removing a CA in the server's trust
store or handing the server a copy of it, and moving the clock past a
certificate's ``not_after``.

A small reference model tracks what the session should hold (DCAU mode
and subject, the installed DCSC credential); a DCSC P it predicts from
an uncached :func:`decode_dcsc_blob`.  After every step the verdict a
two-party transfer gets -- the engine's DCAU cache over the session's
reused posture -- must equal :func:`authenticate_data_channel` over
postures built fresh from the model: the same success, or the same
:class:`DCAUError` text.  The property runs with the session caches on
and under ``REPRO_NO_SESSION_CACHE=1``.
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DCAUError, ProtocolError
from repro.gridftp.dcau import DataChannelSecurity, DCAUMode, authenticate_data_channel
from repro.gridftp.dcsc import decode_dcsc_blob, encode_dcsc_blob
from repro.pki.ca import self_signed_credential
from repro.pki.dn import DistinguishedName as DN
from repro.pki.proxy import strip_proxy_cns
from repro.sim.world import World
from repro.util.units import HOUR, gbps
from tests.conftest import make_conventional_site

_CONTEXTS = ("alice-eec", "alice-short", "self-signed", "foreign")
_SUBJECTS = ("/O=SiteA/OU=people/CN=alice", "/O=SiteB/OU=people/CN=asmith", "/CN=nobody")

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("dcau"), st.sampled_from(("A", "N"))),
        st.tuples(st.just("dcau_s"), st.sampled_from(_SUBJECTS)),
        st.tuples(st.just("dcsc_p"), st.sampled_from(_CONTEXTS)),
        st.tuples(st.just("dcsc_d")),
        st.tuples(st.just("reset")),
        st.tuples(st.sampled_from(("add_ca", "remove_ca")), st.sampled_from(("A", "B"))),
        st.tuples(st.just("copy_trust")),
        st.tuples(st.just("expire"), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=12,
)


class _Fixture:
    """Two disjoint domains; alice's session on SiteA is the one driven."""

    def __init__(self) -> None:
        world = self.world = World(seed=19)
        net = world.network
        for host in ("dtn-a", "dtn-b", "laptop"):
            net.add_host(host, nic_bps=gbps(10))
        net.add_link("laptop", "dtn-a", gbps(1), 0.02)
        self.site_a = make_conventional_site(world, "SiteA", "dtn-a")
        self.site_b = make_conventional_site(world, "SiteB", "dtn-b")
        alice = self.site_a.add_user(world, "alice")
        asmith = self.site_b.add_user(world, "asmith")
        self.client = self.site_a.client_for(world, "alice", "laptop")
        self.client.trust = self.site_a.trust.copy()  # the laptop's own CA directory
        self.session = self.client.connect(self.site_a.server).server_session
        self.contexts = {
            "alice-eec": alice,
            "alice-short": self.site_a.ca.issue_credential(alice.subject, lifetime=3 * HOUR),
            "self-signed": self_signed_credential(
                DN.parse("/CN=ctx"), world.clock, world.rng.python("ctx"), lifetime=6 * HOUR),
            "foreign": asmith,
        }
        self.blobs = {name: encode_dcsc_blob(c) for name, c in self.contexts.items()}
        self.cas = {"A": self.site_a.ca.certificate, "B": self.site_b.ca.certificate}
        # the expiries a step can move the clock past, earliest first
        self.expiries = sorted([
            self.contexts["alice-short"].certificate.not_after,
            self.contexts["self-signed"].certificate.not_after,
            self.session.delegated.certificate.not_after,
            self.client.credential.expires_at(),
        ])
        # the reference model of the session's DCAU state
        self.mode = DCAUMode.SELF
        self.subject: DN | None = None
        self.dcsc = None
        self.login_identity = strip_proxy_cns(self.client.credential.subject)

    def step(self, op) -> None:
        kind, ss, trust = op[0], self.session, self.site_a.server.trust
        if kind == "dcau":
            assert ss.handle(f"DCAU {op[1]}") == ["200 Command okay."]
            self.mode, self.subject = DCAUMode(op[1]), None
        elif kind == "dcau_s":
            assert ss.handle(f"DCAU S {op[1]}") == ["200 Command okay."]
            self.mode, self.subject = DCAUMode.SUBJECT, DN.parse(op[1])
        elif kind == "dcsc_p":
            blob = self.blobs[op[1]]
            reply = ss.handle(f"DCSC P {blob}")
            try:
                fresh = decode_dcsc_blob(blob, self.world.now)
            except ProtocolError as exc:
                assert reply == [f"501 {exc}"]
            else:
                assert reply == ["200 Command okay."]
                self.dcsc = fresh.credential
        elif kind == "dcsc_d":
            assert ss.handle("DCSC D") == ["200 Command okay."]
            self.dcsc = None
        elif kind == "reset":
            ss.reset_for_reuse()
            self.mode, self.subject, self.dcsc = DCAUMode.SELF, None, None
        elif kind == "add_ca":
            trust.add_anchor(self.cas[op[1]])
        elif kind == "remove_ca":
            trust.remove_anchor(self.cas[op[1]])
        elif kind == "copy_trust":
            self.site_a.server.trust = trust.copy()
        else:
            target = self.expiries[op[1]] + 1.0
            if target > self.world.now:
                self.world.advance(target - self.world.now)

    def model_posture(self) -> DataChannelSecurity:
        """The server's posture, built from the model alone."""
        credential, anchors, intermediates, override = self.session.delegated, (), (), None
        if self.dcsc is not None:
            credential = self.dcsc
            anchors = tuple(c for c in self.dcsc.chain if c.subject == c.issuer)
            intermediates = tuple(c for c in self.dcsc.chain if c.subject != c.issuer)
            override = strip_proxy_cns(self.dcsc.certificate.subject)
        expected = {DCAUMode.SELF: self.login_identity,
                    DCAUMode.SUBJECT: self.subject}.get(self.mode)
        return DataChannelSecurity(
            mode=self.mode, credential=credential, trust=self.site_a.server.trust,
            extra_anchors=anchors, extra_intermediates=intermediates,
            expected_identity=expected, expected_subject_override=override,
            endpoint_name=self.site_a.server.name,
        )


def _verdict(authenticate, connector, listener, now):
    try:
        return ("authenticated", authenticate(connector, listener, now))
    except DCAUError as exc:
        return ("refused", str(exc))


@pytest.mark.parametrize("cached", [True, False], ids=["cache-on", "cache-off"])
@settings(max_examples=30, deadline=None)
@given(steps=_steps)
# Figure 5: SiteA drops its own CA, so only the blob's anchor lets the
# proxy through; reverting the context brings the Figure 4 miss back
@example(steps=[("remove_ca", "A"), ("dcsc_p", "alice-eec"), ("dcsc_d",)])
# a cached success must not outlive the context's leaf
@example(steps=[("dcsc_p", "alice-short"), ("expire", 0), ("dcsc_p", "alice-short")])
# a posture must follow the server to its new trust store
@example(steps=[("dcau", "A"), ("copy_trust",), ("remove_ca", "A")])
def test_dcau_verdict_matches_fresh_postures(cached, steps):
    saved = os.environ.get("REPRO_NO_SESSION_CACHE")
    if cached:
        os.environ.pop("REPRO_NO_SESSION_CACHE", None)
    else:
        os.environ["REPRO_NO_SESSION_CACHE"] = "1"
    try:
        fx = _Fixture()
        engine = fx.client.engine
        for op in steps:
            fx.step(op)
            now = fx.world.now
            got = _verdict(engine.dcau_cache.authenticate,
                           fx.session.data_channel_security(),
                           fx.client.data_channel_security(fx.mode), now)
            want = _verdict(authenticate_data_channel, fx.model_posture(),
                            fx.client.data_channel_security(fx.mode), now)
            assert got == want, (op, got, want)
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_SESSION_CACHE", None)
        else:
            os.environ["REPRO_NO_SESSION_CACHE"] = saved
