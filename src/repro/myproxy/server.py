"""The MyProxy Online CA server.

Figure 3, steps 1-3: the user presents site username/password; the CA
passes them to the local authentication system via PAM; on success it
issues a short-lived X.509 certificate that "embeds the local username
in the distinguished name (DN) of the certificate, since this
certificate will be used to authenticate with this site only."

The CA's namespace is ``/O=GCMU/OU=<site>/CN=<username>``; its signing
policy restricts it to exactly that subtree, and the certificate carries
the ``issued_by_service`` extension so GCMU's authorization callout can
recognize locally-issued certificates (Section IV.C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.auth.pam import PamStack
from repro.errors import PamError, ReproError
from repro.myproxy.protocol import LogonRequest, LogonResponse
from repro.net.sockets import Listener, ServerSession, Service, listen, close_listener
from repro.pki.ca import CertificateAuthority, check_lifetime
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.policy import SigningPolicy
from repro.util.units import HOUR

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World
    from repro.telemetry.metrics import CounterChild


class MyProxyOnlineCA(Service):
    """A site's online CA, bound to its PAM stack."""

    DEFAULT_PORT = 7512
    #: short-lived, per the paper; a classic MyProxy default is 12 hours
    DEFAULT_LIFETIME = 12 * HOUR
    #: hard ceiling a client may request
    MAX_LIFETIME = 7 * 24 * HOUR

    def __init__(
        self,
        world: "World",
        host: str,
        site_name: str,
        pam: PamStack,
        port: int = DEFAULT_PORT,
        max_lifetime_s: float = MAX_LIFETIME,
    ) -> None:
        self.world = world
        self.host = host
        self.site_name = site_name
        self.pam = pam
        self.port = port
        self.max_lifetime_s = max_lifetime_s
        subject = DistinguishedName.make(("O", "GCMU"), ("OU", site_name), ("CN", "MyProxy CA"))
        namespace = DistinguishedName.make(("O", "GCMU"), ("OU", site_name))
        self.ca = CertificateAuthority(
            subject,
            world.clock,
            # host is part of the stream name so two same-named sites (two
            # boots of one appliance image) get independent CA keys
            rng=world.rng.python(f"myproxy:{site_name}:{host}"),
            policy=SigningPolicy.namespace(subject, namespace),
        )
        self.issued_count = 0
        # myproxy_certs_issued_total{site}, bound at the first issue
        self._issued: CounterChild | None = None
        self._listener: Listener | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "MyProxyOnlineCA":
        """Bind the listening port and begin serving."""
        self._listener = listen(self.world.network, self.host, self.port, self)
        self.world.emit("myproxy.start", "online CA listening",
                        site=self.site_name, address=f"{self.host}:{self.port}")
        return self

    def stop(self) -> None:
        """Release the listening port."""
        if self._listener is not None:
            close_listener(self.world.network, self._listener)
            self._listener = None

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) this service listens on."""
        return (self.host, self.port)

    def open_session(self, client_host: str) -> "MyProxySession":
        """Accept one connection (Service interface)."""
        return MyProxySession(self, client_host)

    # -- issuance ---------------------------------------------------------------

    def user_subject(self, username: str) -> DistinguishedName:
        """The DN this site issues for ``username`` (username in the CN)."""
        return DistinguishedName.make(
            ("O", "GCMU"), ("OU", self.site_name), ("CN", username)
        )

    def logon(self, username: str, passphrase: str, lifetime_s: float | None = None) -> Credential:
        """Authenticate via PAM and issue a short-lived credential.

        ``lifetime_s`` None asks for :attr:`DEFAULT_LIFETIME`; any other
        value must pass :func:`~repro.pki.ca.check_lifetime`, or
        :class:`CertificateError` is raised before PAM runs or a key is
        drawn.  Raises :class:`~repro.errors.PamError` on authentication
        failure (with a deliberately generic message).
        """
        if lifetime_s is not None:
            check_lifetime(lifetime_s)
        with self.world.tracer.span(
            "myproxy.logon", site=self.site_name, username=username
        ):
            self.pam.authenticate(username, passphrase)  # raises on failure
            requested = self.DEFAULT_LIFETIME if lifetime_s is None else lifetime_s
            lifetime = min(requested, self.max_lifetime_s)
            credential = self.ca.issue_credential(
                self.user_subject(username),
                lifetime=lifetime,
                extensions={
                    "issued_by_service": f"myproxy:{self.site_name}",
                    "local_username": username,
                },
            )
            self.issued_count += 1
            if self._issued is None:
                self._issued = self.world.metrics.counter(
                    "myproxy_certs_issued_total",
                    "Short-lived certificates issued by online CAs",
                    labelnames=("site",),
                ).labels(site=self.site_name)
            self._issued.inc()
            self.world.emit(
                "myproxy.issue",
                "short-lived credential issued",
                site=self.site_name,
                username=username,
                subject=str(credential.subject),
                lifetime_s=lifetime,
            )
            return credential


class MyProxySession(ServerSession):
    """One myproxy-logon connection."""

    #: PAM conversations and key generation are not free; charge a nominal
    #: server-side processing cost per logon.
    PROCESSING_TIME_S = 0.15

    def __init__(self, server: MyProxyOnlineCA, client_host: str) -> None:
        self.server = server
        self.client_host = client_host

    def handle(self, line: str) -> list[str]:
        """Process one request line (ServerSession interface)."""
        try:
            request = LogonRequest.decode(line)
            check_lifetime(request.lifetime_s)
        except Exception as exc:
            return [LogonResponse(ok=False, error=f"bad request: {exc}").encode()]
        self.server.world.clock.advance(self.PROCESSING_TIME_S)
        try:
            credential = self.server.logon(
                request.username, request.passphrase, request.lifetime_s
            )
        except PamError as exc:
            self.server.world.emit(
                "myproxy.deny", "logon denied",
                site=self.server.site_name, username=request.username,
            )
            return [LogonResponse(ok=False, error=str(exc)).encode()]
        except ReproError as exc:
            return [LogonResponse(ok=False, error=str(exc)).encode()]
        return [LogonResponse(ok=True, credential_pem=credential.to_pem()).encode()]
