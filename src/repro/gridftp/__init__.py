"""Globus GridFTP: protocol, server, client, striping, DCAU, DCSC.

The full data-movement stack of paper Section II, plus the Section V
protocol extension (DCSC).  Layout mirrors the architecture of Figure 2:

* control channel: :mod:`replies`, :mod:`commands`, :mod:`server`
  (server PI, including the GSI AUTH/ADAT handshake), :mod:`client`
  (client PI);
* data channel: :mod:`mode_e` (extended block mode framing),
  :mod:`restart` / :mod:`perf` (markers), :mod:`transfer` (the engine
  that binds the protocol to the network model), :mod:`striped`
  (striped servers).  The data transfer process (DTP) is not a class
  of its own: a server's DTP nodes are ``GridFTPServer.dtp_hosts`` (one
  host, or a striped server's stripe hosts), and its storage access is
  the server's DSI;
* security: :mod:`dcau` (data channel authentication), :mod:`dcsc`
  (the Data Channel Security Context command);
* orchestration: :mod:`third_party`, :mod:`tuning`.
"""

from repro.gridftp.replies import Reply
from repro.gridftp.restart import ByteRangeSet, format_restart_marker, parse_restart_marker
from repro.gridftp.transfer import TransferOptions, TransferResult
from repro.gridftp.server import GridFTPServer
from repro.gridftp.client import GridFTPClient, GridFTPUrl, globus_url_copy
from repro.gridftp.striped import StripedGridFTPServer
from repro.gridftp.dcau import DCAUMode
from repro.gridftp.dcsc import encode_dcsc_blob, decode_dcsc_blob

__all__ = [
    "Reply",
    "ByteRangeSet",
    "format_restart_marker",
    "parse_restart_marker",
    "TransferOptions",
    "TransferResult",
    "GridFTPServer",
    "GridFTPClient",
    "GridFTPUrl",
    "globus_url_copy",
    "StripedGridFTPServer",
    "DCAUMode",
    "encode_dcsc_blob",
    "decode_dcsc_blob",
]
