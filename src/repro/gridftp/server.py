"""The GridFTP server protocol interpreter (server PI).

One :class:`GridFTPServer` listens on a control port; each accepted
connection gets a :class:`GridFTPSession` implementing the command state
machine: RFC 2228 security (AUTH/ADAT), the authorization callout and
setuid (Section II.C), transfer parameter commands (TYPE/MODE/OPTS/
PBSZ/PROT/DCAU/SBUF/REST), data port negotiation (PASV/PORT and striped
SPAS/SPOR), transfer verbs (RETR/STOR), and the Section V DCSC command.

Deviation from the wire protocol, documented here once: directory
listings (LIST) return their lines inline in the reply rather than over
a data channel — the simulation gains nothing from shipping listings
through the transfer engine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import (
    AuthorizationError,
    CertificateError,
    DCAUError,
    PamError,
    ProtocolError,
    StorageError,
    TransferError,
)
from repro.gridftp import replies as R
from repro.gridftp.commands import feature_labels, known_verbs, lookup, parse_command
from repro.gridftp.dcau import DataChannelSecurity, DCAUMode
from repro.gridftp.dcsc import DcscContext, decode_dcsc_blob
from repro.gridftp.restart import ByteRangeSet, parse_restart_marker
from repro.gridftp.transfer import SinkSpec, SourceSpec, TransferResult
from repro.net.sockets import Listener, ServerSession, Service, listen, listen_ephemeral, close_listener
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.validation import TrustStore, ValidationResult, validate_chain
from repro.storage.data import FileData
from repro.storage.dsi import DataStorageInterface, WriteSink
from repro.util.encoding import b64decode_str, b64encode_str
from repro.util.memo import Memo
from repro.xio.drivers import Protection

if TYPE_CHECKING:  # pragma: no cover
    from repro.auth.accounts import Account, AccountDatabase
    from repro.gsi.authz import AuthorizationCallout
    from repro.sim.world import World

# The reply lines the server sends unchanged, rendered once: every
# command answers with one, and ``str(Reply)`` is an f-string per call.
_BANNER = str(R.BANNER)
_OPENING_DATA = str(R.OPENING_DATA)
_COMMAND_OK = str(R.COMMAND_OK)
_TRANSFER_COMPLETE = str(R.TRANSFER_COMPLETE)
_LOGGED_IN = str(R.LOGGED_IN)
_SECURITY_OK = str(R.SECURITY_OK)
_NEED_MORE_INFO = str(R.NEED_MORE_INFO)
_SERVICE_UNAVAILABLE = str(R.SERVICE_UNAVAILABLE)
_UNRECOGNIZED = str(R.UNRECOGNIZED)
_BAD_PARAMETER = str(R.BAD_PARAMETER)
_NOT_LOGGED_IN = str(R.NOT_LOGGED_IN)
_GOODBYE = str(R.GOODBYE)


def _feat_reply(dcsc_enabled: bool) -> tuple[str, ...]:
    head = R.FEATURES_FOLLOW
    labels = feature_labels(dcsc_enabled)
    return (f"{head.code}-{head.text}", *(f" {label}" for label in labels), "211 End")


# The registry is fixed at import, so FEAT has one body per DCSC setting.
_FEAT_DCSC = _feat_reply(True)
_FEAT_LEGACY = _feat_reply(False)


@dataclass
class TransferIntent:
    """What a RETR, ERET, STOR or ESTO set up, awaiting the data channel."""

    direction: str  # "send" | "recv"
    path: str
    data: FileData | None = None  # send
    needed: ByteRangeSet | None = None  # send: only these ranges (REST, ERET)
    resume: bool = False  # recv: reopen the partial file (REST, ESTO)


class _DataPortService(Service):
    """Placeholder service bound to a PASV/SPAS data port.

    Nothing connects through the socket layer — the transfer engine is
    handed endpoints directly — but third-party orchestration resolves a
    PORT address back to the owning session through this object.
    """

    def __init__(self, session: "GridFTPSession") -> None:
        self.session = session

    def open_session(self, client_host: str) -> ServerSession:  # pragma: no cover
        """Accept one connection (Service interface)."""
        raise ProtocolError("data ports do not accept control sessions")


class GridFTPServer(Service):
    """One Globus GridFTP server deployment."""

    DEFAULT_PORT = 2811
    #: distinct DCSC blobs whose parse one server keeps; a Globus Online
    #: storm sends one blob per activated user
    DCSC_MEMO_ENTRIES = 256

    def __init__(
        self,
        world: "World",
        host: str,
        credential: Credential,
        trust: TrustStore,
        authz: "AuthorizationCallout",
        accounts: "AccountDatabase",
        dsi: DataStorageInterface,
        port: int = DEFAULT_PORT,
        dcsc_enabled: bool = True,
        usage_reporting: bool = True,
        name: str | None = None,
    ) -> None:
        self.world = world
        self.host = host
        self.port = port
        self.credential = credential
        self.trust = trust
        self.authz = authz
        self.accounts = accounts
        self.dsi = dsi
        self.dcsc_enabled = dcsc_enabled
        self.usage_reporting = usage_reporting
        self.name = name or f"gridftp@{host}"
        #: open sessions in the order they opened (a dict used as an
        #: ordered set: a closing session leaves it in O(1))
        self.sessions: dict[GridFTPSession, None] = {}
        self._listener: Listener | None = None
        #: stripe data-mover hosts; plain servers move data themselves
        self.dtp_hosts: tuple[str, ...] = (host,)
        # bound metric children, resolved once per labelset: every
        # control-channel command and usage record goes through these
        self._cmd_counters: dict[str, Any] = {}
        self._bytes_counters: dict[tuple[str, str], Any] = {}
        #: blob digest -> parsed DcscContext (see repro.gridftp.dcsc)
        self.dcsc_memo = Memo(f"dcsc.blob[{self.name}]", self.DCSC_MEMO_ENTRIES)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "GridFTPServer":
        """Bind the control port."""
        self._listener = listen(self.world.network, self.host, self.port, self)
        self.world.emit("gridftp.server.start", "server listening", server=self.name,
                        address=f"{self.host}:{self.port}", dcsc=self.dcsc_enabled)
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

    def open_session(self, client_host: str) -> "GridFTPSession":
        """Accept one connection (Service interface)."""
        session = GridFTPSession(self, client_host)
        self.sessions[session] = None
        return session

    # -- usage telemetry (Figure 1 pipeline) -----------------------------------

    def record_transfer(
        self, result: TransferResult, direction: str, path: str, mode: str = "E"
    ) -> None:
        """Emit a usage record, if this deployment enabled reporting.

        Figure 1's caveat applies: "these numbers are based on reporting
        from GridFTP servers that choose to enable reporting".  The
        ``bytes_transferred_total`` counter is always fed — it is this
        deployment's own telemetry, not the opt-in usage pipeline.
        """
        child = self._bytes_counters.get((direction, mode))
        if child is None:
            child = self._bytes_counters[(direction, mode)] = self.world.metrics.counter(
                "bytes_transferred_total",
                "Payload bytes in server-reported transfers",
                labelnames=("direction", "mode"),
            ).labels(direction=direction, mode=mode)
        child.inc(result.nbytes)
        if not self.usage_reporting:
            return
        self.world.emit(
            "usage.record",
            "transfer usage report",
            server=self.name,
            host=self.host,
            nbytes=result.nbytes,
            duration=result.duration_s,
            direction=direction,
            path=path,
            streams=result.streams,
            stripes=result.stripes,
        )


class GridFTPSession(ServerSession):
    """Per-connection server PI state machine."""

    def __init__(self, server: GridFTPServer, client_host: str) -> None:
        self.server = server
        self.client_host = client_host
        self.world = server.world
        # security state
        self.auth_pending = False
        self.peer: ValidationResult | None = None
        self.delegated: Credential | None = None
        self.account: "Account | None" = None
        # session parameters
        self.cwd = "/"
        self.type_ = "A"
        self.mode = "S"
        self.parallelism = 1
        self.protection = Protection.CLEAR
        self.dcau_mode = DCAUMode.SELF
        self.dcau_subject: DistinguishedName | None = None
        self.tcp_window: int | None = None
        self.restart: ByteRangeSet | None = None
        self.dcsc: DcscContext | None = None
        # (inputs, posture) of the last data_channel_security() call
        self._posture: tuple[tuple, DataChannelSecurity] | None = None
        # data channel negotiation
        self.passive_listeners: list[Listener] = []
        self.remote_ports: list[tuple[str, int]] = []
        self.pending: list[TransferIntent] = []
        self._rnfr: str | None = None
        self.closed = False
        self.banner = _BANNER

    # -- dispatch -----------------------------------------------------------------

    def handle(self, line: str) -> list[str]:
        """Process one command line; return reply lines."""
        if self.closed:
            return [_SERVICE_UNAVAILABLE]
        try:
            verb, arg = parse_command(line)
        except ProtocolError:
            return [_UNRECOGNIZED]
        spec = lookup(verb)
        world = self.world
        server_name = self.server.name
        with world.tracer.span(
            "gridftp.command", verb=verb, server=server_name
        ):
            world.emit("gridftp.command", "command", server=server_name,
                       verb=verb, client=self.client_host)
            counter = self.server._cmd_counters.get(verb)
            if counter is None:
                counter = self.server._cmd_counters[verb] = self.world.metrics.counter(
                    "gridftp_commands_total", "Control-channel commands dispatched",
                    labelnames=("verb",),
                ).labels(verb=verb)
            counter.inc()
            if spec is None:
                return [_UNRECOGNIZED]
            if spec.requires_auth and self.account is None:
                return [_NOT_LOGGED_IN]
            handler = _HANDLERS.get(verb)
            if handler is None:
                return [_UNRECOGNIZED]
            try:
                return handler(self, arg)
            except ProtocolError as exc:
                return [f"{exc.code} {exc}"]
            except StorageError as exc:
                return [str(R.file_unavailable(arg or self.cwd, str(exc)))]

    def close(self) -> None:
        """Tear down per-connection state and leave the server's sessions."""
        self._release_data_ports()
        self.closed = True
        self.server.sessions.pop(self, None)

    def reset_for_reuse(self) -> None:
        """Restore just-logged-in defaults, keeping the security state.

        The control-channel pool parks sessions between jobs; a reused
        session must present exactly the state a freshly authenticated
        one would (transfer parameters at their defaults, no pending
        intents or data ports, cwd back at the account home) so that the
        client's option pipeline and data-port negotiation replay
        identically.  ``peer``/``delegated``/``account`` survive — they
        are what reuse amortizes.
        """
        self._release_data_ports()
        self.remote_ports = []
        self.pending.clear()
        self.restart = None
        self.dcsc = None
        self._rnfr = None
        self.type_ = "A"
        self.mode = "S"
        self.parallelism = 1
        self.protection = Protection.CLEAR
        self.dcau_mode = DCAUMode.SELF
        self.dcau_subject = None
        self.tcp_window = None
        if self.account is not None:
            self.cwd = self.account.home

    # -- security ------------------------------------------------------------------

    def _cmd_auth(self, arg: str) -> list[str]:
        if arg.upper() != "GSSAPI":
            return ["504 Unknown security mechanism."]
        self.auth_pending = True
        # present the server's certificate chain (never the key) so the
        # client can authenticate *us* — the mutual half of GSI
        chain_pem = "".join(c.to_pem() for c in self.server.credential.chain)
        return [f"334 ADAT={b64encode_str(chain_pem.encode('ascii'))}"]

    def _cmd_adat(self, arg: str) -> list[str]:
        if not self.auth_pending:
            return ["503 Bad sequence of commands: send AUTH first."]
        try:
            pem = b64decode_str(arg).decode("ascii", errors="replace")
            credential = Credential.from_pem(pem)
            self.peer = validate_chain(credential.chain, self.server.trust, self.world.now)
        except (ProtocolError, CertificateError) as exc:
            # "If authentication is not successful, the connection is dropped."
            self.close()
            self.world.emit("gridftp.auth.fail", "control channel auth failed",
                            server=self.server.name, reason=str(exc))
            return [f"535 Authentication failed: {exc}"]
        self.delegated = credential
        self.auth_pending = False
        self.world.emit("gridftp.auth.ok", "control channel authenticated",
                        server=self.server.name, subject=str(self.peer.subject))
        return [_SECURITY_OK]

    def map_account(self, arg: str) -> "Account":
        """The local account USER ``arg`` maps the authenticated peer to.

        Runs the authorization callout, then setuid; raises
        :class:`AuthorizationError` or :class:`PamError` when either
        refuses.  The control-channel pool calls this on every reuse, so
        a pooled session is mapped exactly as a fresh login would be.
        """
        requested = None if arg in ("", ":globus-mapping:") else arg
        username = self.server.authz.map_subject(self.peer, requested)
        return self.server.accounts.setuid(username)

    def _cmd_user(self, arg: str) -> list[str]:
        if self.peer is None:
            return [_NOT_LOGGED_IN]
        try:
            self.account = self.map_account(arg)
        except (AuthorizationError, PamError) as exc:
            self.world.emit("gridftp.authz.fail", "authorization failed",
                            server=self.server.name, subject=str(self.peer.identity),
                            reason=str(exc))
            return [f"530 Authorization failed: {exc}"]
        self.cwd = self.account.home
        self.world.emit("gridftp.authz.ok", "authorized",
                        server=self.server.name, subject=str(self.peer.identity),
                        local_user=self.account.username, callout=self.server.authz.name)
        return [_LOGGED_IN]

    def _cmd_pass(self, arg: str) -> list[str]:
        # GSI servers do not use passwords; accept as a no-op after USER.
        return [_COMMAND_OK] if self.account else [_NOT_LOGGED_IN]

    # -- session parameters ------------------------------------------------------------

    def _cmd_type(self, arg: str) -> list[str]:
        if arg.upper() not in ("I", "A"):
            return [_BAD_PARAMETER]
        self.type_ = arg.upper()
        return [_COMMAND_OK]

    def _cmd_mode(self, arg: str) -> list[str]:
        if arg.upper() not in ("S", "E"):
            return [_BAD_PARAMETER]
        self.mode = arg.upper()
        return [_COMMAND_OK]

    def _cmd_opts(self, arg: str) -> list[str]:
        # OPTS RETR Parallelism=8,8,8;
        head, _, rest = arg.partition(" ")
        if head.upper() != "RETR":
            return [_BAD_PARAMETER]
        for clause in rest.strip().rstrip(";").split(";"):
            key, _, value = clause.partition("=")
            if key.strip().lower() == "parallelism":
                try:
                    self.parallelism = max(1, int(value.split(",")[0]))
                except ValueError:
                    return [_BAD_PARAMETER]
        return [_COMMAND_OK]

    def _cmd_pbsz(self, arg: str) -> list[str]:
        try:
            int(arg)
        except ValueError:
            return [_BAD_PARAMETER]
        return [_COMMAND_OK]

    def _cmd_prot(self, arg: str) -> list[str]:
        try:
            self.protection = Protection(arg.strip().upper())
        except ValueError:
            return [_BAD_PARAMETER]
        return [_COMMAND_OK]

    def _cmd_dcau(self, arg: str) -> list[str]:
        # parse everything before touching state: a rejected DCAU must
        # leave the previous posture (and its expected peer) in force
        parts = arg.split(None, 1)
        try:
            mode = DCAUMode.parse(parts[0])
            subject = None
            if mode is DCAUMode.SUBJECT:
                subject = DistinguishedName.parse(parts[1])
        except (IndexError, DCAUError, CertificateError):
            return [_BAD_PARAMETER]
        self.dcau_mode = mode
        self.dcau_subject = subject
        return [_COMMAND_OK]

    def _cmd_sbuf(self, arg: str) -> list[str]:
        try:
            window = int(arg)
        except ValueError:
            return [_BAD_PARAMETER]
        if window <= 0:
            return [_BAD_PARAMETER]
        self.tcp_window = window
        return [_COMMAND_OK]

    def _cmd_rest(self, arg: str) -> list[str]:
        self.restart = parse_restart_marker(arg)
        return [_NEED_MORE_INFO]

    def _cmd_dcsc(self, arg: str) -> list[str]:
        if not self.server.dcsc_enabled:
            # "a legacy GridFTP server that knows nothing about DCSC"
            return [_UNRECOGNIZED]
        parts = arg.split(None, 1)
        if not parts:
            return [_BAD_PARAMETER]
        ctx_type = parts[0].upper()
        if ctx_type == "D":
            self.dcsc = None
            self.world.emit("gridftp.dcsc", "context reverted to default",
                            server=self.server.name)
            return [_COMMAND_OK]
        if ctx_type == "P":
            if len(parts) < 2:
                return [_BAD_PARAMETER]
            self.dcsc = decode_dcsc_blob(parts[1], self.world.now, self.server.dcsc_memo)
            self.world.emit("gridftp.dcsc", "context installed",
                            server=self.server.name,
                            subject=str(self.dcsc.credential.subject))
            return [_COMMAND_OK]
        return [f"501 Unknown DCSC context type {ctx_type!r}."]

    # -- data port negotiation -----------------------------------------------------------

    def _release_data_ports(self) -> None:
        for listener in self.passive_listeners:
            close_listener(self.world.network, listener)
        self.passive_listeners = []

    def _cmd_pasv(self, arg: str) -> list[str]:
        self._release_data_ports()
        listener = listen_ephemeral(
            self.world.network, self.server.dtp_hosts[0], _DataPortService(self)
        )
        self.passive_listeners = [listener]
        return [R.PASSIVE_FMT.format(addr=f"{listener.host}:{listener.port}")]

    def _cmd_spas(self, arg: str) -> list[str]:
        self._release_data_ports()
        lines = ["229-Entering Striped Passive Mode"]
        for dtp_host in self.server.dtp_hosts:
            listener = listen_ephemeral(self.world.network, dtp_host, _DataPortService(self))
            self.passive_listeners.append(listener)
            lines.append(f" {listener.host}:{listener.port}")
        lines.append("229 End")
        return lines

    def _cmd_port(self, arg: str) -> list[str]:
        host, _, port_s = arg.rpartition(":")
        try:
            self.remote_ports = [(host, int(port_s))]
        except ValueError:
            return [_BAD_PARAMETER]
        return [_COMMAND_OK]

    def _cmd_spor(self, arg: str) -> list[str]:
        ports: list[tuple[str, int]] = []
        for item in arg.split():
            host, _, port_s = item.rpartition(":")
            try:
                ports.append((host, int(port_s)))
            except ValueError:
                return [_BAD_PARAMETER]
        if not ports:
            return [_BAD_PARAMETER]
        self.remote_ports = ports
        return [_COMMAND_OK]

    # -- namespace commands ------------------------------------------------------------

    def _resolve(self, path: str) -> str:
        if path.startswith("/"):
            return path
        base = self.cwd.rstrip("/")
        return f"{base}/{path}"

    @property
    def uid(self) -> int:
        """The setuid'd local uid of this session."""
        assert self.account is not None
        return self.account.uid

    def _cmd_pwd(self, arg: str) -> list[str]:
        return [f'257 "{self.cwd}" is the current directory.']

    def _cmd_cwd(self, arg: str) -> list[str]:
        target = self._resolve(arg)
        st = self.server.dsi.stat(target, self.uid)
        if not st.is_dir:
            return [str(R.file_unavailable(target, "Not a directory"))]
        self.cwd = target
        return ["250 CWD command successful."]

    def _cmd_mkd(self, arg: str) -> list[str]:
        target = self._resolve(arg)
        self.server.dsi.mkdir(target, self.uid)
        return [f'257 "{target}" created.']

    def _cmd_dele(self, arg: str) -> list[str]:
        self.server.dsi.delete(self._resolve(arg), self.uid)
        return ["250 DELE command successful."]

    def _cmd_rnfr(self, arg: str) -> list[str]:
        target = self._resolve(arg)
        self.server.dsi.stat(target, self.uid)  # 550 if missing
        self._rnfr = target
        return [_NEED_MORE_INFO]

    def _cmd_rnto(self, arg: str) -> list[str]:
        if self._rnfr is None:
            return ["503 Bad sequence of commands: send RNFR first."]
        self.server.dsi.rename(self._rnfr, self._resolve(arg), self.uid)
        self._rnfr = None
        return ["250 RNTO command successful."]

    def _cmd_list(self, arg: str) -> list[str]:
        target = self._resolve(arg) if arg else self.cwd
        names = self.server.dsi.listdir(target, self.uid)
        lines = ["250-Directory listing"]
        lines.extend(f" {name}" for name in names)
        lines.append("250 End")
        return lines

    def _cmd_size(self, arg: str) -> list[str]:
        st = self.server.dsi.stat(self._resolve(arg), self.uid)
        return [R.SIZE_FMT.format(size=st.size)]

    def _cmd_mdtm(self, arg: str) -> list[str]:
        st = self.server.dsi.stat(self._resolve(arg), self.uid)
        return [f"213 {st.mtime:.0f}"]

    def _cmd_cksm(self, arg: str) -> list[str]:
        # CKSM <algorithm> <path>   (offset/length args of the real
        # command are accepted and ignored when numeric)
        parts = [p for p in arg.split() if p]
        if len(parts) < 2:
            return [_BAD_PARAMETER]
        algorithm = parts[0]
        path = parts[-1]
        try:
            digest = self.server.dsi.checksum(self._resolve(path), self.uid, algorithm)
        except ValueError as exc:
            return [f"504 {exc}"]
        return [f"213 {digest}"]

    def _cmd_feat(self, arg: str) -> list[str]:
        # the flag is read per FEAT: it may change on a live server
        return list(_FEAT_DCSC if self.server.dcsc_enabled else _FEAT_LEGACY)

    def _cmd_noop(self, arg: str) -> list[str]:
        return [_COMMAND_OK]

    def _cmd_quit(self, arg: str) -> list[str]:
        self.close()
        return [_GOODBYE]

    def _cmd_abor(self, arg: str) -> list[str]:
        self.pending.clear()
        self.restart = None
        return [_TRANSFER_COMPLETE]

    # -- transfers ---------------------------------------------------------------------

    def _cmd_retr(self, arg: str) -> list[str]:
        path = self._resolve(arg)
        data = self.server.dsi.open_read(path, self.uid)
        # REST carried the ranges the client already holds; send the rest.
        needed = self.restart.complement(data.size) if self.restart is not None else None
        self.pending.append(
            TransferIntent(direction="send", path=path, data=data, needed=needed)
        )
        self.restart = None
        return [_OPENING_DATA]

    def _cmd_stor(self, arg: str) -> list[str]:
        # the expected size arrives with the data in mode E, so sink_end()
        # opens the sink once the data channel knows it; a REST before
        # the STOR reopens the partial file instead of truncating it
        self.pending.append(TransferIntent(
            direction="recv", path=self._resolve(arg), resume=self.restart is not None
        ))
        self.restart = None
        return [_OPENING_DATA]

    def _cmd_eret(self, arg: str) -> list[str]:
        # ERET P <offset> <length> <path> — partial retrieve
        parts = arg.split()
        if len(parts) != 4 or parts[0].upper() != "P":
            return [_BAD_PARAMETER]
        try:
            offset, length = int(parts[1]), int(parts[2])
        except ValueError:
            return [_BAD_PARAMETER]
        path = self._resolve(parts[3])
        data = self.server.dsi.open_read(path, self.uid)
        needed = ByteRangeSet([(offset, min(offset + length, data.size))])
        self.pending.append(
            TransferIntent(direction="send", path=path, data=data, needed=needed)
        )
        return [_OPENING_DATA]

    def _cmd_esto(self, arg: str) -> list[str]:
        # ESTO A <offset> <path> — adjusted store (append at offset)
        parts = arg.split()
        if len(parts) != 3 or parts[0].upper() != "A":
            return [_BAD_PARAMETER]
        path = self._resolve(parts[2])
        self.pending.append(TransferIntent(direction="recv", path=path, resume=True))
        return [_OPENING_DATA]

    # -- engine-facing accessors -----------------------------------------------------

    def take_intent(self) -> TransferIntent:
        """Claim the oldest pending transfer (FIFO: pipelined RETRs queue)."""
        if not self.pending:
            raise ProtocolError("no transfer pending on this session", code=503)
        return self.pending.pop(0)

    def make_sink(self, intent: TransferIntent, expected_size: int) -> WriteSink:
        """Open the storage sink for a recv intent, as the session's uid."""
        return self.server.dsi.open_write(
            intent.path, self.uid, expected_size, resume=intent.resume
        )

    def source_end(self, intent: TransferIntent) -> SourceSpec:
        """This server's sending end of a data channel for a send intent."""
        if intent.data is None:
            raise TransferError(f"no file opened for sending {intent.path!r}")
        return SourceSpec(
            hosts=self.server.dtp_hosts,
            data=intent.data,
            security=self.data_channel_security(),
            needed=intent.needed,
        )

    def sink_end(self, intent: TransferIntent, size: int) -> SinkSpec:
        """This server's receiving end of a data channel for a recv intent."""
        return SinkSpec(
            hosts=self.server.dtp_hosts,
            sink=self.make_sink(intent, size),
            security=self.data_channel_security(),
        )

    def record(self, result: TransferResult, direction: str, intent: TransferIntent) -> None:
        """Report ``intent``'s finished transfer to the server's usage telemetry."""
        self.server.record_transfer(result, direction, intent.path, mode=self.mode)

    def data_channel_security(self) -> DataChannelSecurity:
        """This endpoint's DCAU posture, honouring any DCSC context.

        Default: present the user's delegated proxy, accept what the
        endpoint's trust roots validate, and (mode A) expect the peer to
        be the same user.  With DCSC installed: present the blob
        credential, extend validation with the blob's certificates, and
        expect the blob's identity (paper Section V: "tell it to both
        send and accept the user credential used by the other server").

        The posture is built once per session state: while every input
        below is the same object as at the last call, that call's
        (frozen) posture is returned.  The trust store is read live by
        validation and by the DCAU cache key, so editing it needs no
        new posture.
        """
        inputs = (self.dcau_mode, self.dcau_subject, self.dcsc, self.delegated,
                  self.peer, self.server.trust)
        posture = self._posture
        if posture is not None and all(map(operator.is_, inputs, posture[0])):
            return posture[1]
        credential = self.delegated
        extra_anchors: tuple = ()
        extra_intermediates: tuple = ()
        override = None
        if self.dcsc is not None:
            credential = self.dcsc.credential
            extra_anchors = self.dcsc.anchors
            extra_intermediates = self.dcsc.intermediates
            override = self.dcsc.credential.identity
        expected = None
        if self.dcau_mode is DCAUMode.SELF and self.peer is not None:
            expected = self.peer.identity
        elif self.dcau_mode is DCAUMode.SUBJECT:
            expected = self.dcau_subject
        security = DataChannelSecurity(
            mode=self.dcau_mode,
            credential=credential,
            trust=self.server.trust,
            extra_anchors=extra_anchors,
            extra_intermediates=extra_intermediates,
            expected_identity=expected,
            expected_subject_override=override,
            endpoint_name=self.server.name,
        )
        self._posture = (inputs, security)
        return security


#: verb -> unbound handler, resolved once at import time (the
#: per-command f-string + getattr was measurable at fleet drain rates)
_HANDLERS = {
    verb: getattr(GridFTPSession, "_cmd_" + verb.lower())
    for verb in known_verbs()
    if hasattr(GridFTPSession, "_cmd_" + verb.lower())
}
