"""Simulated wide-area network: topology, TCP/UDT models, channels.

This package replaces the paper's physical testbed.  It provides:

* :mod:`repro.net.topology` — hosts, links and minimum-latency routing
  (a bidirectional Dijkstra with a fixed tie rule);
* :mod:`repro.net.tcp` — a first-order TCP performance model (window
  limit, Mathis loss limit, slow-start ramp, parallel streams);
* :mod:`repro.net.udt` — a rate-based UDT model (the XIO UDT driver);
* :mod:`repro.net.sockets` — ports, listeners and connection setup;
* :mod:`repro.net.channel` — request/response control channels with RTT
  accounting (this is what makes pipelining measurable).

Whole transfers are timed by the GridFTP transfer engine
(:mod:`repro.gridftp.transfer`), which combines these rates with
setup, ramp and fault windows; concurrent files share a bottleneck
there.
"""

from repro.net.topology import Host, Link, Network, PathStats
from repro.net.tcp import TCPModel, tcp_stream_rate, tcp_aggregate_rate
from repro.net.udt import UDTModel
from repro.net.sockets import Listener, Service, ServerSession
from repro.net.channel import ControlChannel

__all__ = [
    "Host",
    "Link",
    "Network",
    "PathStats",
    "TCPModel",
    "tcp_stream_rate",
    "tcp_aggregate_rate",
    "UDTModel",
    "Listener",
    "Service",
    "ServerSession",
    "ControlChannel",
]
