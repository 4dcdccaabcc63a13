"""Control-channel command parsing and the command registry.

GridFTP commands are single text lines: a case-insensitive verb and an
optional argument.  The registry records which verbs exist, whether they
require an authenticated session, and whether they are GridFTP
extensions (reported by FEAT).  ``DCSC`` is the Section V addition; a
server built with ``dcsc_enabled=False`` behaves as the paper's "legacy
GridFTP server that knows nothing about DCSC".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError


@dataclass(frozen=True)
class CommandSpec:
    """Registry metadata for one verb."""

    verb: str
    requires_auth: bool
    feature: str | None = None  # FEAT label for extensions
    help: str = ""


_REGISTRY: dict[str, CommandSpec] = {}


def _register(verb: str, requires_auth: bool, feature: str | None = None, help: str = "") -> None:
    _REGISTRY[verb] = CommandSpec(verb=verb, requires_auth=requires_auth, feature=feature, help=help)


# RFC 959 core
_register("USER", False, help="Identify the user (or :globus-mapping:)")
_register("PASS", False, help="Password (plain FTP only)")
_register("QUIT", False, help="Close the session")
_register("NOOP", False, help="No operation")
_register("FEAT", False, feature=None, help="List supported extensions")
_register("TYPE", True, help="Representation type (I = image)")
_register("MODE", True, help="Transfer mode (S = stream, E = extended block)")
_register("PWD", True, help="Print working directory")
_register("CWD", True, help="Change working directory")
_register("MKD", True, help="Make directory")
_register("DELE", True, help="Delete file")
_register("RNFR", True, help="Rename from")
_register("RNTO", True, help="Rename to")
_register("LIST", True, help="Directory listing")
_register("SIZE", True, feature="SIZE", help="File size")
_register("MDTM", True, feature="MDTM", help="File modification time")
_register("PASV", True, help="Enter passive mode")
_register("PORT", True, help="Specify data port")
_register("REST", True, feature="REST STREAM", help="Restart marker")
_register("RETR", True, help="Retrieve file")
_register("STOR", True, help="Store file")
_register("ABOR", True, help="Abort transfer")
# RFC 2228 security
_register("AUTH", False, feature="AUTH GSSAPI", help="Security mechanism negotiation")
_register("ADAT", False, help="Security data (credential exchange)")
_register("PBSZ", True, feature="PBSZ", help="Protection buffer size")
_register("PROT", True, feature="PROT", help="Data channel protection level")
# GridFTP extensions
_register("SPAS", True, feature="SPAS", help="Striped passive")
_register("SPOR", True, feature="SPOR", help="Striped port")
_register("DCAU", True, feature="DCAU", help="Data channel authentication mode")
_register("OPTS", True, feature="OPTS", help="Set options (e.g. RETR Parallelism)")
_register("SBUF", True, feature="SBUF", help="Set TCP buffer size")
_register("CKSM", True, feature="CKSM", help="File checksum")
_register("ERET", True, feature="ERET", help="Extended retrieve (partial file)")
_register("ESTO", True, feature="ESTO", help="Extended store (partial file)")
# the paper's new command
_register("DCSC", True, feature="DCSC", help="Data channel security context")


def parse_command(line: str) -> tuple[str, str]:
    """Split a raw line into ``(verb, argument)``, the verb upper-cased.

    A pair, not an object: the server parses every line it receives.
    """
    stripped = line.strip()
    if not stripped:
        raise ProtocolError("empty command line", code=500)
    verb, _, arg = stripped.partition(" ")
    return verb.upper(), arg.strip()


def lookup(verb: str) -> CommandSpec | None:
    """Registry entry for ``verb`` (upper-case), or None if unknown."""
    spec = _REGISTRY.get(verb)
    if spec is not None:
        return spec
    return _REGISTRY.get(verb.upper())


def feature_labels(dcsc_enabled: bool = True) -> list[str]:
    """The FEAT response body for a server."""
    labels = sorted({spec.feature for spec in _REGISTRY.values() if spec.feature})
    if not dcsc_enabled:
        labels.remove("DCSC")
    return labels


def known_verbs() -> list[str]:
    """Every registered command verb, sorted."""
    return sorted(_REGISTRY)
