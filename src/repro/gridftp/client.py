"""The GridFTP client PI and the ``globus-url-copy``-style API.

A :class:`GridFTPClient` holds a user's credential and trust roots on a
client host; :meth:`~GridFTPClient.connect` opens a control channel and
performs the mutual GSI handshake (client validates the server's host
certificate; server validates the user's delegated proxy).  The session
object then exposes the protocol commands plus high-level ``get``/
``put``/``get_partial``/``get_many`` operations: each takes the server
session's end of the data channel, builds the client's own end over its
local storage, and runs the two through the transfer engine.

``globus_url_copy`` mirrors the command from paper Section IV.E::

    globus-url-copy gsiftp://<server>/<path> file:/<path>
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    PamError,
    ProtocolError,
    TransferError,
)
from repro.gridftp.dcau import DataChannelSecurity, DCAUMode
from repro.gridftp.replies import Reply, final_reply, size_of, unparseable
from repro.gridftp.restart import ByteRangeSet, format_restart_marker
from repro.gridftp.server import GridFTPServer, GridFTPSession
from repro.gridftp.transfer import (
    SinkSpec,
    SourceSpec,
    TransferEngine,
    TransferOptions,
    TransferResult,
)
from repro.gsi.delegation import delegate_credential
from repro.net.channel import ControlChannel
from repro.util import memo, opcount
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.proxy import DEFAULT_PROXY_LIFETIME
from repro.xio.drivers import Protection
from repro.pki.validation import TrustStore, validate_chain
from repro.sim.world import World
from repro.storage.dsi import DataStorageInterface
from repro.util.encoding import b64decode_str, b64encode_str, pem_decode_all

if TYPE_CHECKING:  # pragma: no cover
    from repro.auth.accounts import Account


@dataclass(frozen=True)
class GridFTPUrl:
    """A parsed ``gsiftp://host[:port]/path`` or ``file:///path`` URL."""

    scheme: str
    host: str
    port: int
    path: str

    @staticmethod
    def parse(url: str) -> "GridFTPUrl":
        """Parse from the textual form."""
        scheme, sep, rest = url.partition("://")
        if not sep:
            # accept the paper's "file:/<path>" single-slash spelling
            if url.startswith("file:/"):
                return GridFTPUrl(scheme="file", host="", port=0, path=url[len("file:") :])
            raise ProtocolError(f"malformed URL {url!r}", code=501)
        scheme = scheme.lower()
        if scheme == "file":
            return GridFTPUrl(scheme="file", host="", port=0, path="/" + rest.lstrip("/"))
        if scheme not in ("gsiftp", "ftp"):
            raise ProtocolError(f"unsupported URL scheme {scheme!r}", code=501)
        hostport, slash, path = rest.partition("/")
        host, _, port_s = hostport.partition(":")
        port = int(port_s) if port_s else GridFTPServer.DEFAULT_PORT
        return GridFTPUrl(scheme=scheme, host=host, port=port, path="/" + path)

    def __str__(self) -> str:
        if self.scheme == "file":
            return f"file://{self.path}"
        return f"{self.scheme}://{self.host}:{self.port}{self.path}"


@dataclass
class _PooledSession:
    """One idle, authenticated control channel awaiting reuse."""

    session: "ClientSession"
    client_trust: tuple[int, int]  # (uid, version) at release
    server_trust: tuple[int, int]
    server_credential_fp: str
    released_at: float


def _delegation_matches(delegated: Credential, credential: Credential, t: float) -> bool:
    """True iff a proxy of ``credential`` delegated at ``t`` ends with ``delegated``.

    A login delegates a new proxy of the client credential ending at
    ``min(t + DEFAULT_PROXY_LIFETIME, expiry)``.  The parked session's
    proxy has the same key and serial (delegation re-derives its rng
    stream on every login) and differs only in its start, which no
    later check can tell apart; so the two are interchangeable exactly
    while they end together.  That always holds when the credential's
    expiry clips the proxy (Globus Online's 12 h MyProxy activations).
    """
    not_after = delegated.certificate.not_after
    return not_after == min(t + DEFAULT_PROXY_LIFETIME, credential.expires_at())


class ControlChannelPool:
    """Per-world pool of authenticated GridFTP control channels.

    Real GridFTP clients and Globus Online hold control connections open
    across transfers; this pool gives the simulation the same amortized
    behaviour *without changing any virtual outcome*.  A checkout replays
    exactly the per-step fault checks and clock charges a fresh
    ``connect()`` + AUTH/ADAT/USER login would make (TCP handshake
    1.5 RTT, then three command round trips) and skips only the pure
    wall-clock work: chain walks, RSA verification, proxy delegation and
    PEM codec traffic.  That skip is sound because an entry is reused
    only while a fresh login would succeed with the same outcome:

    * same client credential (leaf fingerprint in the key) and the same
      requested username mapping;
    * both trust stores unchanged — (uid, version) recorded at release;
    * same server object behind the listener, same server credential;
    * no host crash or control-channel drop touched either endpoint
      while the channel sat idle (``FaultPlan.endpoint_disrupted``) —
      faults active *now* are caught by the replayed checks themselves;
    * the checks a fresh login makes against the clock pass at the
      instants it would make them (:meth:`_fresh_login_account`): the
      server's and the client's credentials are valid, and the proxy a
      fresh login delegates ends when the parked one does
      (:func:`_delegation_matches`);
    * the authorization callout and setuid, re-run, still map the peer
      to an account (the session takes whatever account they return).

    Every check runs before the clock moves.  Any condition failing
    silently discards the entry and reports a miss; the caller then
    performs the real handshake, which reproduces whatever the fresh
    world would have done — success or failure — with identical charges.
    Entries are LRU-bounded; ``REPRO_NO_SESSION_CACHE``, read when the
    world is built (:func:`repro.util.memo.enabled`), disables pooling
    entirely.
    """

    MAX_ENTRIES = 256

    def __init__(self, world: World) -> None:
        self.world = world
        self._entries: dict[tuple, _PooledSession] = {}
        self.reuses = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self._reuse_c = world.metrics.counter(
            "control_channel_pool_reuses_total",
            "Authenticated control channels reused from the pool",
        )
        self._miss_c = world.metrics.counter(
            "control_channel_pool_misses_total",
            "Pool misses (full GSI handshake performed)",
        )
        self._invalidate_c = world.metrics.counter(
            "control_channel_pool_invalidations_total",
            "Pooled channels discarded by fault/expiry/trust invalidation",
        )
        self._size_g = world.metrics.gauge(
            "control_channel_pooled_sessions", "Idle authenticated channels held"
        )

    @classmethod
    def for_world(cls, world: World) -> "ControlChannelPool":
        """The world's pool, created on first use."""
        pool = getattr(world, "_control_channel_pool", None)
        if pool is None:
            pool = cls(world)
            world._control_channel_pool = pool
        return pool

    @staticmethod
    def _key(client: "GridFTPClient", address: tuple[str, int], username: str | None) -> tuple:
        return (
            client.host,
            address,
            client.credential.certificate.fingerprint(),
            username,
        )

    def checkout(
        self,
        client: "GridFTPClient",
        address: tuple[str, int],
        username: str | None,
    ) -> "ClientSession | None":
        """An authenticated session to ``address``, or None (do a real login)."""
        key = self._key(client, address, username)
        entry = self._entries.pop(key, None)
        if entry is None:
            self._miss()
            return None
        world = self.world
        now = world.now
        session = entry.session
        channel = session.channel
        server_session = channel._session
        ok = (
            (client.trust.uid, client.trust.version) == entry.client_trust
            and not channel.closed
            and isinstance(server_session, GridFTPSession)
            and not server_session.closed
        )
        if ok:
            server = server_session.server
            listener = world.network.listeners.get(address)
            ok = (
                (server.trust.uid, server.trust.version) == entry.server_trust
                and server.credential.certificate.fingerprint()
                == entry.server_credential_fp
                and listener is not None
                and listener.service is server
                # chaos while the channel sat idle kills the connection;
                # faults active at `now` are re-checked by the replay below
                and not world.faults.endpoint_disrupted(
                    (address[0], client.host), entry.released_at, now
                )
            )
        if not ok:
            self._discard(entry)
            self._miss()
            return None
        # Replay the handshake's network behaviour.  Failures before any
        # clock advance are treated as misses (the caller's real handshake
        # re-raises them identically, still at zero charge); failures after
        # an advance must raise here, at the exact virtual instant the
        # fresh world would have raised.
        network = world.network
        try:
            path = network.path(client.host, address[0])
            if not channel.route_clear(path):
                network.check_path_up(path)
        except Exception:
            self._discard(entry)
            self._miss()
            return None
        account = self._fresh_login_account(client, session, username, path.rtt_s, now)
        if account is None:
            self._discard(entry)
            self._miss()
            return None
        world.clock.advance(1.5 * path.rtt_s)  # TCP handshake, as sockets.connect
        channel.path = path
        try:
            for _ in range(3):  # the AUTH, ADAT, USER round trips
                channel._check_open()
                world.clock.advance(path.rtt_s + channel.proc_time_s)
        except Exception:
            self._discard(entry)
            raise
        # what USER sets on a fresh login
        server_session.account = account
        server_session.cwd = account.home
        session.client = client
        session.authenticated = True
        session.logged_in_as = account.username
        # The options pipeline is re-charged per lease; a reused session
        # may take the charge-only fast path (see apply_options).
        session._options_applied = None
        session._options_fastpath = True
        self.reuses += 1
        self._reuse_c.inc()
        self._size_g.set(len(self._entries))
        opcount.bump("gsi.handshake.resumed")
        world.emit(
            "globusonline.session.reused",
            "pooled control channel reused",
            endpoint=f"{address[0]}:{address[1]}",
            client=client.host,
            user=client.username,
        )
        return session

    @staticmethod
    def _fresh_login_account(
        client: "GridFTPClient",
        session: "ClientSession",
        username: str | None,
        rtt_s: float,
        now: float,
    ) -> "Account | None":
        """The account a fresh login starting at ``now`` would map to.

        None when that login would fail, or would leave the server
        holding a proxy that ends at another instant.  The login's
        checks against the clock run at known instants: the client
        checks the AUTH chain and delegates once the TCP handshake and
        the AUTH round trip are charged, and the server validates the
        delegated chain one round trip later.
        """
        proc_s = session.channel.proc_time_s
        t_auth = now + 1.5 * rtt_s + (rtt_s + proc_s)
        t_adat = t_auth + (rtt_s + proc_s)
        server_session = session.server_session
        credential = client.credential
        if not (
            server_session.server.credential.valid_at(t_auth)
            and credential.valid_at(t_auth)
            and credential.valid_at(t_adat)
            and _delegation_matches(server_session.delegated, credential, t_auth)
        ):
            return None
        try:
            return server_session.map_account(_user_arg(username))
        except (AuthorizationError, PamError):
            return None

    def release(self, session: "ClientSession") -> bool:
        """Park a session for reuse; closes it instead when ineligible."""
        client = session.client
        channel = session.channel
        server_session = channel._session
        now = self.world.now
        eligible = (
            memo.enabled()
            and session.authenticated
            and session.logged_in_as is not None
            and not channel.closed
            and isinstance(server_session, GridFTPSession)
            and not server_session.closed
            and client.credential is not None
            and server_session.delegated is not None
            and client.credential.valid_at(now)
            # once a fresh login would delegate a proxy ending later, it
            # always will: min(now + lifetime, expiry) never decreases
            and _delegation_matches(server_session.delegated, client.credential, now)
        )
        if not eligible:
            channel.close()
            return False
        server = server_session.server
        key = self._key(client, channel.address, session._pool_username)
        old = self._entries.pop(key, None)
        if old is not None and old.session is not session:
            self._discard(old)
        server_session.reset_for_reuse()
        self._entries[key] = _PooledSession(
            session=session,
            client_trust=(client.trust.uid, client.trust.version),
            server_trust=(server.trust.uid, server.trust.version),
            server_credential_fp=server.credential.certificate.fingerprint(),
            released_at=now,
        )
        if len(self._entries) > self.MAX_ENTRIES:
            oldest = next(iter(self._entries))
            self._discard(self._entries.pop(oldest))
            self.evictions += 1
        self._size_g.set(len(self._entries))
        return True

    def invalidate_host(self, host: str) -> int:
        """Drop every pooled channel touching ``host`` (either end)."""
        doomed = [
            k for k in self._entries if k[0] == host or k[1][0] == host
        ]
        for k in doomed:
            self._discard(self._entries.pop(k))
        if doomed:
            self.invalidations += len(doomed)
            self._invalidate_c.inc(len(doomed))
            self._size_g.set(len(self._entries))
        return len(doomed)

    def clear(self) -> int:
        """Close and drop every pooled channel."""
        n = len(self._entries)
        for entry in list(self._entries.values()):
            self._discard(entry)
        self._entries.clear()
        self._size_g.set(0)
        return n

    def stats(self) -> dict[str, int]:
        """Point-in-time counters for ops tables and tests."""
        return {
            "pooled": len(self._entries),
            "reuses": self.reuses,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    def _miss(self) -> None:
        self.misses += 1
        self._miss_c.inc()

    def _discard(self, entry: _PooledSession) -> None:
        try:
            entry.session.channel.close()
        except Exception:
            pass


class GridFTPClient:
    """A user's GridFTP client on a particular host."""

    def __init__(
        self,
        world: World,
        host: str,
        credential: Credential | None = None,
        trust: TrustStore | None = None,
        local_storage: DataStorageInterface | None = None,
        username: str = "user",
    ) -> None:
        self.world = world
        self.host = host
        self.credential = credential
        self.trust = trust or TrustStore()
        self.local_storage = local_storage
        self.username = username
        self.engine = TransferEngine.for_world(world)

    # -- connection ----------------------------------------------------------

    def connect(
        self,
        server: GridFTPServer | tuple[str, int],
        login: bool = True,
        username: str | None = None,
        pooled: bool = False,
    ) -> "ClientSession":
        """Open a control channel; optionally authenticate and log in.

        With ``pooled=True`` an idle authenticated channel to the same
        endpoint (same credential, same username mapping) is reused from
        the world's :class:`ControlChannelPool` when one is available,
        and the returned session goes back to the pool on
        :meth:`ClientSession.release` instead of closing.
        """
        address = server.address if isinstance(server, GridFTPServer) else server
        if pooled and login and self.credential is not None and memo.enabled():
            hit = ControlChannelPool.for_world(self.world).checkout(
                self, address, username
            )
            if hit is not None:
                return hit
        channel = ControlChannel(self.world.network, self.host, address)
        session = ClientSession(self, channel)
        session._pooled = pooled
        session._pool_username = username
        if login:
            try:
                session.login(username=username)
            except BaseException:
                # a failed login leaves no half-logged-in session open
                # on the server
                channel.close()
                raise
        return session

    # -- local data-channel posture --------------------------------------------

    def data_channel_security(self, mode: DCAUMode) -> DataChannelSecurity:
        """The client side of a two-party data channel."""
        expected = self.credential.identity if self.credential else None
        return DataChannelSecurity(
            mode=mode,
            credential=self.credential,
            trust=self.trust,
            expected_identity=expected,
            endpoint_name=f"client@{self.host}",
        )


def _options_server_state(options: TransferOptions) -> list[tuple[str, object]] | None:
    """The server-session mutations the options pipeline would make.

    Mirrors ``_cmd_type``/``_cmd_mode``/``_cmd_opts``/``_cmd_prot``/
    ``_cmd_dcau``/``_cmd_sbuf`` for well-formed options.  Returns None
    whenever any value could draw a protocol error from the real
    handlers (non-int parallelism, missing DCAU subject, ...), so the
    caller runs the genuine pipeline and errors surface as uncached.
    """
    if type(options.parallelism) is not int:
        return None
    if options.tcp_window_bytes and type(options.tcp_window_bytes) is not int:
        return None
    if not isinstance(options.protection, Protection):
        return None
    if not isinstance(options.dcau, DCAUMode):
        return None
    updates: list[tuple[str, object]] = [
        ("type_", "I"),
        ("mode", "E"),
        ("parallelism", max(1, options.parallelism)),
        ("protection", options.protection),
    ]
    if options.dcau is DCAUMode.SUBJECT:
        if not options.dcau_subject:
            return None  # "DCAU S" with no subject is a 501 on the wire
        try:
            subject = DistinguishedName.parse(str(options.dcau_subject))
        except Exception:
            return None
        updates.append(("dcau_mode", DCAUMode.SUBJECT))
        updates.append(("dcau_subject", subject))
    else:
        updates.append(("dcau_mode", options.dcau))
        updates.append(("dcau_subject", None))
    if options.tcp_window_bytes:
        updates.append(("tcp_window", options.tcp_window_bytes))
    return updates


class ClientSession:
    """A logged-in control-channel session, with high-level operations."""

    def __init__(self, client: GridFTPClient, channel: ControlChannel) -> None:
        self.client = client
        self.channel = channel
        self.world = client.world
        self.authenticated = False
        self.logged_in_as: str | None = None
        self._options_applied: TransferOptions | None = None
        # pool bookkeeping (set by GridFTPClient.connect / pool checkout)
        self._pooled = False
        self._pool_username: str | None = None
        self._options_fastpath = False

    # -- low-level helpers ---------------------------------------------------

    @property
    def server_session(self) -> GridFTPSession:
        """The server-side session object (introspection)."""
        session = self.channel.session
        assert isinstance(session, GridFTPSession)
        return session

    @property
    def server(self) -> GridFTPServer:
        """The GridFTP server this session talks to."""
        return self.server_session.server

    def command(self, line: str) -> Reply:
        """Send one command; return the final reply (raise on 4xx/5xx)."""
        return final_reply(line, self.channel.request(line))

    def command_lines(self, line: str) -> list[str]:
        """Send one command; return every reply line (multiline replies)."""
        lines = self.channel.request(line)
        final_reply(line, lines)
        return lines

    def pipeline(self, commands: list[str]) -> list[Reply]:
        """Send commands back to back; their final replies (raise on 4xx/5xx)."""
        batches = self.channel.pipeline(commands)
        return [final_reply(command, lines) for command, lines in zip(commands, batches)]

    # -- the GSI handshake -------------------------------------------------------

    def login(self, username: str | None = None) -> str:
        """AUTH/ADAT mutual authentication, then USER mapping.

        Returns the local account name the server mapped us to.
        """
        client = self.client
        if client.credential is None:
            raise AuthenticationError(
                f"client {client.username!r} has no credential to authenticate with"
            )
        opcount.bump("gsi.handshake.full")
        reply = self.command("AUTH GSSAPI")
        # the 334 carries the server's certificate chain; validate it
        # against *our* trust roots (the client half of mutual auth).
        if not reply.text.startswith("ADAT="):
            raise AuthenticationError(f"unexpected AUTH reply: {reply}")
        chain = _parse_cert_chain(b64decode_str(reply.text[len("ADAT=") :]))
        try:
            validate_chain(chain, client.trust, self.world.now)
        except Exception as exc:
            leaf = next((cert.subject for cert in chain), "(no certificate)")
            raise AuthenticationError(
                f"client rejected server certificate {leaf}: {exc}"
            ) from exc
        # delegate a proxy to the server and present it
        delegated = delegate_credential(
            client.credential, self.world.clock, self.world.rng.python("delegation")
        )
        blob = b64encode_str(delegated.to_pem(include_key=True).encode("ascii"))
        try:
            self.command(f"ADAT {blob}")
            self.authenticated = True
            self.command(f"USER {_user_arg(username)}")
        except ProtocolError as exc:
            if exc.code in (530, 535):
                raise AuthenticationError(str(exc)) from exc
            raise
        self.logged_in_as = self.server_session.account.username
        return self.logged_in_as

    # -- session parameter helpers ---------------------------------------------------

    def apply_options(self, options: TransferOptions) -> None:
        """Push transfer options to the server (idempotent per option set)."""
        if self._options_applied == options:
            return
        commands = ["TYPE I", "MODE E", f"OPTS RETR Parallelism={options.parallelism};"]
        commands.append("PBSZ 0")
        commands.append(f"PROT {options.protection.value}")
        if options.dcau is DCAUMode.SUBJECT and options.dcau_subject:
            commands.append(f"DCAU S {options.dcau_subject}")
        else:
            commands.append(f"DCAU {options.dcau.value}")
        if options.tcp_window_bytes:
            commands.append(f"SBUF {options.tcp_window_bytes}")
        if self._options_fastpath:
            # Charge-only replay for a pooled session: every command in
            # this pipeline is a deterministic state-setter on the server
            # session (TYPE/MODE/OPTS/PBSZ/PROT/DCAU/SBUF), so we apply
            # the identical state mutations directly and advance the
            # clock by exactly what ControlChannel.pipeline would charge.
            # Anything malformed falls through to the real pipeline so
            # protocol errors surface exactly as uncached.
            self._options_fastpath = False
            updates = _options_server_state(options)
            if updates is not None:
                channel = self.channel
                channel._check_open()
                self.world.clock.advance(
                    channel.rtt_s + channel.proc_time_s * len(commands)
                )
                server_session = self.server_session
                for attr, value in updates:
                    setattr(server_session, attr, value)
                self._options_applied = options
                return
        self.pipeline(commands)
        self._options_applied = options

    def dcsc(self, blob_or_default: str) -> Reply:
        """Send a DCSC command: a P blob, or "D" (either case) to revert."""
        if blob_or_default in ("D", "d"):
            return self.command("DCSC D")
        return self.command(f"DCSC P {blob_or_default}")

    # -- namespace convenience ------------------------------------------------------

    def pwd(self) -> str:
        """Current working directory (PWD)."""
        reply = self.command("PWD")
        try:
            return reply.text.split('"')[1]
        except IndexError:
            raise unparseable("PWD", str(reply)) from None

    def cwd(self, path: str) -> None:
        """Change working directory (CWD)."""
        self.command(f"CWD {path}")

    def mkdir(self, path: str) -> None:
        """Create a directory (MKD)."""
        self.command(f"MKD {path}")

    def delete(self, path: str) -> None:
        """Remove a file (DELE)."""
        self.command(f"DELE {path}")

    def rename(self, old: str, new: str) -> None:
        """Move a file (RNFR/RNTO)."""
        self.command(f"RNFR {old}")
        self.command(f"RNTO {new}")

    def size(self, path: str) -> int:
        """Remote file size in bytes (SIZE)."""
        return size_of(self.command(f"SIZE {path}"))

    def checksum(self, path: str, algorithm: str = "sha256") -> str:
        """Server-side checksum of a file (CKSM)."""
        return self.command(f"CKSM {algorithm} {path}").text

    def list_dir(self, path: str = "") -> list[str]:
        """Names in a directory (LIST)."""
        lines = self.command_lines(f"LIST {path}".strip())
        return [l.strip() for l in lines[1:-1]]

    def features(self) -> list[str]:
        """The server's FEAT extension labels."""
        lines = self.command_lines("FEAT")
        return [l.strip() for l in lines[1:-1]]

    def supports(self, feature: str) -> bool:
        """True if the server advertises ``feature`` in FEAT."""
        wanted = feature.upper()
        for label in self.features():
            if label.upper() == wanted:
                return True
        return False

    def quit(self) -> None:
        """Close the session (QUIT)."""
        self.command("QUIT")
        self.channel.close()

    def release(self) -> None:
        """Give the session back: to the pool if pooled, else close it.

        Pool-ineligible sessions (failed auth, chaos-closed channel, a
        delegated proxy a fresh login would no longer reproduce) are
        closed outright, exactly as a non-pooled caller would.
        """
        if self._pooled and memo.enabled():
            ControlChannelPool.for_world(self.world).release(self)
        else:
            self.channel.close()

    # -- data port negotiation ----------------------------------------------------------

    def passive(self) -> tuple[str, int]:
        """PASV; returns the server's data address."""
        reply = self.command("PASV")
        try:
            return _address(reply.text.split("(", 1)[1].rstrip(")"))
        except (IndexError, ValueError):
            raise unparseable("PASV", str(reply)) from None

    def striped_passive(self) -> list[tuple[str, int]]:
        """SPAS; returns one data address per stripe."""
        lines = self.command_lines("SPAS")
        out: list[tuple[str, int]] = []
        for line in lines[1:-1]:
            try:
                out.append(_address(line.strip()))
            except ValueError:
                raise unparseable("SPAS", line) from None
        return out

    def port(self, addr: tuple[str, int]) -> None:
        """Tell the server where to connect (PORT)."""
        self.command(f"PORT {addr[0]}:{addr[1]}")

    def striped_port(self, addrs: list[tuple[str, int]]) -> None:
        """Striped PORT (SPOR) with one address per stripe."""
        arg = " ".join(f"{h}:{p}" for h, p in addrs)
        self.command(f"SPOR {arg}")

    def rest(self, ranges: ByteRangeSet) -> None:
        """Send a restart marker (REST) with the held ranges."""
        self.command(f"REST {format_restart_marker(ranges)}")

    # -- whole-file operations ------------------------------------------------------------

    def _prepare(self, options: TransferOptions | None) -> TransferOptions:
        """Push ``options`` (default: plain options) for a transfer to or from local storage."""
        if self.client.local_storage is None:
            raise TransferError("client has no local storage configured")
        options = options or TransferOptions()
        self.apply_options(options)
        return options

    def _local_sink(
        self, path: str, size: int, options: TransferOptions, resume: bool = False
    ) -> SinkSpec:
        """The client's own receiving end: ``path`` in its local storage."""
        client = self.client
        return SinkSpec(
            hosts=(client.host,),
            sink=client.local_storage.open_write(path, 0, size, resume=resume),
            security=client.data_channel_security(options.dcau),
        )

    def get(
        self,
        remote_path: str,
        local_path: str,
        options: TransferOptions | None = None,
        restart: ByteRangeSet | None = None,
    ) -> TransferResult:
        """RETR ``remote_path`` into the client's local storage."""
        options = self._prepare(options)
        if restart is not None:
            self.rest(restart)  # the ranges we already hold
        self.command(f"RETR {remote_path}")
        ss = self.server_session
        intent = ss.take_intent()
        source = ss.source_end(intent)
        sink = self._local_sink(local_path, source.data.size, options,
                                resume=restart is not None)
        result = self.client.engine.execute(source, sink, options)
        ss.record(result, "retrieve", intent)
        return result

    def put(
        self,
        local_path: str,
        remote_path: str,
        options: TransferOptions | None = None,
        restart: ByteRangeSet | None = None,
    ) -> TransferResult:
        """STOR the client's local file to ``remote_path``."""
        options = self._prepare(options)
        client = self.client
        data = client.local_storage.open_read(local_path, 0)
        needed = None
        if restart is not None:
            needed = restart.complement(data.size)
            self.rest(restart)
        self.passive()
        self.command(f"STOR {remote_path}")
        ss = self.server_session
        intent = ss.take_intent()
        sink = ss.sink_end(intent, data.size)
        source = SourceSpec(
            hosts=(client.host,),
            data=data,
            security=client.data_channel_security(options.dcau),
            needed=needed,
        )
        result = client.engine.execute(source, sink, options)
        ss.record(result, "store", intent)
        return result

    def get_partial(
        self,
        remote_path: str,
        offset: int,
        length: int,
        local_path: str,
        options: TransferOptions | None = None,
    ) -> TransferResult:
        """ERET: retrieve only [offset, offset+length) of a remote file.

        The local file is created at the remote file's full size with
        just that window populated (the partial persists, so later
        windows can fill in around it).
        """
        options = self._prepare(options)
        size = self.size(remote_path)
        self.command(f"ERET P {offset} {length} {remote_path}")
        ss = self.server_session
        intent = ss.take_intent()
        source = ss.source_end(intent)
        sink = self._local_sink(local_path, size, options, resume=True)
        # a window transfer cannot verify the whole-file fingerprint;
        # finalize only once the accumulated windows cover the file.
        held = sink.sink.received
        complete = held.union(intent.needed if intent.needed is not None else held).covers(size)
        result = self.client.engine.execute(source, sink, options, finalize=complete)
        ss.record(result, "retrieve-partial", intent)
        return result

    def get_many(
        self,
        paths: list[tuple[str, str]],
        options: TransferOptions | None = None,
    ) -> list[TransferResult]:
        """Fetch many (remote, local) files.

        Honours the two lots-of-small-files optimizations from the paper:

        * **pipelining** — all RETR commands stream back-to-back in one
          round trip instead of one round trip each;
        * **concurrency** — ``options.concurrency`` files move at once
          (:meth:`TransferEngine.execute_lanes`); the elapsed virtual
          time is the concurrent makespan.

        Data channels are mode E cached: only the first file on each lane
        pays channel setup.
        """
        options = self._prepare(options)
        ss = self.server_session
        intents = []
        if options.pipelining:
            batches = self.channel.pipeline([f"RETR {r}" for r, _ in paths])
            for (remote, local), lines in zip(paths, batches):
                final_reply(f"RETR {remote}", lines)
                intents.append((ss.take_intent(), local))
        else:
            for remote, local in paths:
                self.command(f"RETR {remote}")
                intents.append((ss.take_intent(), local))

        def open_ends(file):
            intent, local = file
            source = ss.source_end(intent)
            return source, self._local_sink(local, source.data.size, options)

        results = []
        for (intent, _), result in self.client.engine.execute_lanes(
            intents, open_ends, options
        ):
            ss.record(result, "retrieve", intent)
            results.append(result)
        return results


def _user_arg(username: str | None) -> str:
    """The USER argument of a login: the account asked for, else the callout's choice."""
    return username if username is not None else ":globus-mapping:"


def _address(text: str) -> tuple[str, int]:
    """``(host, port)`` from ``"host:port"``; ValueError if the port is not an int."""
    host, _, port_s = text.rpartition(":")
    return (host, int(port_s))


def _parse_cert_chain(pem_bytes: bytes) -> list[Certificate]:
    """Certificates from concatenated PEM (server AUTH reply)."""
    text = pem_bytes.decode("ascii", errors="replace")
    return [Certificate.from_der(der)
            for label, der in pem_decode_all(text)
            if label == "CERTIFICATE"]


def globus_url_copy(
    world: World,
    src_url: str,
    dst_url: str,
    client: GridFTPClient,
    options: TransferOptions | None = None,
) -> TransferResult:
    """The command-line workhorse from paper Section IV.E.

    Supports ``gsiftp -> file`` (get), ``file -> gsiftp`` (put), and
    ``gsiftp -> gsiftp`` (third-party transfer).
    """
    src = GridFTPUrl.parse(src_url)
    dst = GridFTPUrl.parse(dst_url)
    options = options or TransferOptions()
    if src.scheme == "gsiftp" and dst.scheme == "file":
        session = client.connect((src.host, src.port))
        try:
            return session.get(src.path, dst.path, options)
        finally:
            session.quit()
    if src.scheme == "file" and dst.scheme == "gsiftp":
        session = client.connect((dst.host, dst.port))
        try:
            return session.put(src.path, dst.path, options)
        finally:
            session.quit()
    if src.scheme == "gsiftp" and dst.scheme == "gsiftp":
        from repro.gridftp.third_party import third_party_transfer

        src_session = client.connect((src.host, src.port))
        dst_session = client.connect((dst.host, dst.port))
        try:
            return third_party_transfer(
                src_session, src.path, dst_session, dst.path, options
            )
        finally:
            src_session.quit()
            dst_session.quit()
    raise ProtocolError(f"unsupported URL pair {src_url!r} -> {dst_url!r}", code=501)
