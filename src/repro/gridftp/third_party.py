"""Third-party transfers: a client moving data between two servers.

Paper Section II.C: the client sends PASV to the receiving server, PORT
(with the returned address) to the sending server, then STOR/RETR; the
data flows server-to-server while the client only watches the control
channels.  Data channel authentication runs *between the two servers*,
which is where the cross-domain trust problem of Figure 4 lives and
where a DCSC context (Figure 5) fixes it.

``use_dcsc`` selects the Figure 5 strategies:

* ``None`` — no DCSC: plain DCAU (fails across domains);
* a :class:`~repro.pki.credential.Credential` — send its blob via
  ``DCSC P`` to whichever endpoint(s) advertise DCSC support, so they
  present/accept that credential on the data channel.
"""

from __future__ import annotations

from repro.errors import LinkDownError, NetworkError, TransferFaultError
from repro.gridftp.client import ClientSession
from repro.gridftp.dcsc import encode_dcsc_blob
from repro.gridftp.restart import ByteRangeSet
from repro.gridftp.transfer import TransferOptions, TransferResult
from repro.pki.credential import Credential
from repro.recovery import CircuitBreaker, RecoveryEngine, RetryPolicy


def install_dcsc_contexts(
    source_session: ClientSession,
    dest_session: ClientSession,
    context_credential: Credential,
    both: bool = False,
) -> list[str]:
    """Send DCSC P to the DCSC-capable endpoint(s); returns who accepted.

    The paper's key property: "this works even if one endpoint is a
    legacy GridFTP server that knows nothing about DCSC" — so we probe
    FEAT and only send where supported.  With ``both=True`` (the
    higher-security self-signed-context mode) both endpoints must accept.
    """
    blob = encode_dcsc_blob(context_credential)
    accepted: list[str] = []
    sessions = [dest_session, source_session]
    for session in sessions:
        if session.supports("DCSC"):
            session.dcsc(blob)
            accepted.append(session.server.name)
            if not both and accepted:
                break
    return accepted


def third_party_transfer(
    source_session: ClientSession,
    source_path: str,
    dest_session: ClientSession,
    dest_path: str,
    options: TransferOptions | None = None,
    use_dcsc: Credential | None = None,
    dcsc_both: bool = False,
    restart: ByteRangeSet | None = None,
) -> TransferResult:
    """Run one third-party transfer between two logged-in sessions.

    Raises :class:`~repro.errors.DCAUError` when the servers' trust
    domains are disjoint and no adequate DCSC context was installed
    (the Figure 4 outcome), and :class:`TransferFaultError` on injected
    faults (restartable via ``restart``).
    """
    options = options or TransferOptions()
    world = source_session.world
    with world.tracer.span(
        "third_party",
        source=source_session.server.name,
        dest=dest_session.server.name,
    ):
        with world.tracer.span("control_channel", stage="options"):
            source_session.apply_options(options)
            dest_session.apply_options(options)

        if use_dcsc is not None:
            with world.tracer.span("dcsc", both=dcsc_both):
                accepted = install_dcsc_contexts(
                    source_session, dest_session, use_dcsc, both=dcsc_both
                )
                if not accepted:
                    world.emit(
                        "gridftp.dcsc", "no endpoint accepted the DCSC context",
                        source=source_session.server.name, dest=dest_session.server.name,
                    )

        with world.tracer.span("control_channel", stage="data_port"):
            # receiver listens (PASV / SPAS for striped receivers)
            if len(dest_session.server.dtp_hosts) > 1:
                addrs = dest_session.striped_passive()
                source_session.striped_port(addrs)
            else:
                addr = dest_session.passive()
                source_session.port(addr)

            # restart marker: the sender learns which ranges the receiver
            # already holds (it sends the complement); the receiver reopens
            # its partial file instead of truncating.
            if restart is not None:
                source_session.rest(restart)
                dest_session.rest(restart)

            dest_session.command(f"STOR {dest_path}")
            source_session.command(f"RETR {source_path}")

        src_ss = source_session.server_session
        dst_ss = dest_session.server_session
        recv_intent = dst_ss.take_intent()
        send_intent = src_ss.take_intent()
        source = src_ss.source_end(send_intent)
        sink = dst_ss.sink_end(recv_intent, source.data.size)
        result = source_session.client.engine.execute(source, sink, options)
        src_ss.record(result, "retrieve", send_intent)
        dst_ss.record(result, "store", recv_intent)
        return result


def third_party_with_restart(
    source_session: ClientSession,
    source_path: str,
    dest_session: ClientSession,
    dest_path: str,
    options: TransferOptions | None = None,
    use_dcsc: Credential | None = None,
    max_attempts: int = 5,
    retry_backoff_s: float = 10.0,
    policy: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
) -> tuple[TransferResult, int]:
    """Retry a third-party transfer across faults using restart markers.

    This is the client-side recovery loop a tool like globus-url-copy
    runs; Globus Online's hosted equivalent (which also re-activates
    credentials) lives in :mod:`repro.globusonline.transfer`.  The loop
    itself is a :class:`~repro.recovery.RecoveryEngine`: exponential
    backoff with seeded jitter, restart markers accumulated into a
    checkpoint (round-tripped through the wire format, so chaos-corrupted
    markers are detected and discarded), and an optional circuit breaker
    keyed on the endpoint pair.  Returns (result, attempts_used).
    """
    world = source_session.world
    if policy is None:
        policy = RetryPolicy(
            max_attempts=max_attempts,
            initial_backoff_s=retry_backoff_s,
            multiplier=2.0,
            max_backoff_s=max(retry_backoff_s, 300.0),
            jitter=0.1,
        )
    engine = RecoveryEngine(
        world,
        policy=policy,
        breaker=breaker,
        component="client",
        loop_span_name="retry_loop",
        attempt_span_name="attempt",
    )
    endpoint = f"{source_session.server.name}->{dest_session.server.name}"
    src_host = source_session.server.host
    dst_host = dest_session.server.host
    pairs = ((src_host, dst_host),
             (source_session.client.host, src_host),
             (dest_session.client.host, dst_host))

    def operation(att):
        _reset_control_state(source_session, dest_session)
        return third_party_transfer(
            source_session,
            source_path,
            dest_session,
            dest_path,
            options,
            use_dcsc=use_dcsc,
            restart=att.checkpoint,
        )

    outcome = engine.run(
        operation,
        endpoint=endpoint if breaker is not None else None,
        wait_clear=lambda _n: wait_paths_clear(world, pairs, _MAX_OUTAGE_WAIT_S),
        retry_on=(TransferFaultError, LinkDownError),
        describe="transfer",
        span_fields={"source": source_session.server.name,
                     "dest": dest_session.server.name},
        wrap_exhausted=True,
    )
    return outcome.result, outcome.attempts


def _reset_control_state(
    source_session: ClientSession, dest_session: ClientSession
) -> None:
    """ABOR away half-negotiated transfer state before a fresh attempt.

    A fault that lands mid-control-sequence (e.g. a control-channel drop
    between REST and STOR) can leave queued intents or a pending restart
    marker on a server session; the next attempt would consume them and
    desynchronize.  A clean attempt leaves nothing behind, so this is a
    no-op on the happy path (keeping traced span trees unchanged).
    """
    for session in (source_session, dest_session):
        ss = session.server_session
        if ss.pending or ss.restart is not None:
            session.command("ABOR")


#: longest a retry loop will sleep waiting for one outage to end
_MAX_OUTAGE_WAIT_S = 3600.0


def wait_paths_clear(world, host_pairs, max_wait_s: float | None = None) -> None:
    """Advance the clock until the known outages on some routes are over.

    Collects the links and hosts on the route of every ``(a, b)`` pair
    (skipping pairs with no route) and advances to the fault plan's next
    clear time, by at most ``max_wait_s`` when given.  Backoff between
    attempts is the recovery engine's business; this only waits out
    *known* outages, and is a no-op when the routes are clear.
    """
    links: set[str] = set()
    hosts: set[str] = set()
    for a, b in host_pairs:
        try:
            path = world.network.path(a, b)
        except NetworkError:
            continue
        links.update(path.link_ids)
        hosts.update(path.hosts)
    clear = world.faults.next_clear_time(links, hosts, world.now)
    if max_wait_s is not None:
        clear = min(clear, world.now + max_wait_s)
    if clear > world.now:
        world.advance_to(clear)
