"""Request/response control channels with round-trip accounting.

The FTP/GridFTP control channel is a synchronous text protocol: every
command costs a round trip unless the client *pipelines* (GridFTP
Pipelining, Bresnahan et al. 2007).  The channel charges virtual time
accordingly, which is what makes the lots-of-small-files benchmark
meaningful:

* ``request(line)`` — one command, one round trip;
* ``pipeline(lines)`` — N commands streamed back-to-back: one round trip
  plus server processing for all of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ControlChannelDownError, NetworkError
from repro.net.sockets import ServerSession, connect

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Network, PathStats
    from repro.sim.faults import FaultPlan


class ControlChannel:
    """A client's connection to a line-oriented service.

    ``proc_time_s`` models per-command server processing; it is tiny but
    nonzero so that pipelined batches still take measurable time.

    Every command first checks that the route and both endpoints' control
    planes are up.  Most routes carry no fault at all, so the channel
    keeps which of its route's resources and endpoints have any scheduled
    fault, stamped with the fault plan and its ``version``, and checks
    only when that exposure is not empty.
    """

    DEFAULT_PROC_TIME = 200e-6

    def __init__(
        self,
        network: "Network",
        client_host: str,
        address: tuple[str, int],
        proc_time_s: float = DEFAULT_PROC_TIME,
    ) -> None:
        self.network = network
        self.client_host = client_host
        self.address = address
        self.proc_time_s = proc_time_s
        self._session: ServerSession | None = None
        self._path: "PathStats | None" = None
        self.closed = False
        # (plan, version) the exposure below was derived from
        self._stamp: "tuple[FaultPlan | None, int]" = (None, -1)
        self._path_exposed = False
        self._control_exposed: tuple[str, ...] = ()
        self._connect()

    def _connect(self) -> None:
        self._session, self._path = connect(self.network, self.client_host, self.address)

    @property
    def path(self) -> "PathStats":
        """The network path from the client host to the server's address."""
        assert self._path is not None
        return self._path

    @path.setter
    def path(self, stats: "PathStats") -> None:
        if stats is not self._path:  # another route: derive its exposure anew
            self._path = stats
            self._stamp = (None, -1)

    @property
    def rtt_s(self) -> float:
        """Round-trip time of this channel's path."""
        return self.path.rtt_s

    @property
    def session(self) -> ServerSession:
        """The server-side session (tests reach in to inspect state)."""
        if self._session is None or self.closed:
            raise NetworkError("channel is closed")
        return self._session

    def _expose(self, faults: "FaultPlan") -> None:
        """Which of this channel's route and endpoints ``faults`` can touch."""
        links, hosts, _ = faults.faulted(self.path.link_ids, self.path.hosts)
        self._path_exposed = bool(links or hosts)
        self._control_exposed = tuple(
            host for host in (self.address[0], self.client_host)
            if faults.has_control_faults(host)
        )
        self._stamp = (faults, faults.version)

    def route_clear(self, stats: "PathStats") -> bool:
        """True when ``stats`` is this channel's route and its current
        exposure says no outage can touch it, so an up-check could not
        raise.  The pool asks this before it replays a parked login."""
        faults = self.network.world.faults
        plan, version = self._stamp
        return (
            stats is self._path
            and plan is faults
            and version == faults.version
            and not self._path_exposed
        )

    def _check_open(self) -> None:
        if self.closed or self._session is None:
            raise NetworkError("channel is closed")
        world = self.network.world
        faults = world.faults
        plan, version = self._stamp
        if plan is not faults or version != faults.version:
            self._expose(faults)
        if self._path_exposed:
            self.network.check_path_up(self.path)
        # control-plane chaos: the path is up but the endpoint's control
        # listener is unreachable (disconnect / listener restart).
        for host in self._control_exposed:
            if faults.control_down(host, world.now):
                raise ControlChannelDownError(
                    f"control channel to {host} is down at t={world.now:.3f}"
                )

    def request(self, line: str) -> list[str]:
        """Send one command, wait for its replies.  Costs one RTT."""
        self._check_open()
        self.network.world.clock.advance(self.rtt_s + self.proc_time_s)
        return self._session.handle(line)

    def pipeline(self, lines: list[str]) -> list[list[str]]:
        """Send many commands back-to-back without waiting between them.

        Costs one RTT for the whole batch plus per-command processing.
        Returns the reply list of each command, in order.
        """
        self._check_open()
        if not lines:
            return []
        self.network.world.clock.advance(self.rtt_s + self.proc_time_s * len(lines))
        return [self._session.handle(line) for line in lines]

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self.closed and self._session is not None:
            self._session.close()
        self.closed = True
        self._session = None
