"""FTP reply codes and formatting (RFC 959 / RFC 2228 / GridFTP).

Replies are single lines ``"<code> <text>"``; the helpers classify them
the way a client PI must (preliminary/completion/intermediate/transient/
permanent) and carry the codes this implementation actually uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError


@dataclass(slots=True)
class Reply:
    """One control-channel reply.

    Logically immutable; slotted, not frozen, because the client parses
    one from every reply it receives (DESIGN §17, *Hot value objects*).
    """

    code: int
    text: str

    def __post_init__(self) -> None:
        if not 100 <= self.code <= 659:
            raise ProtocolError(f"invalid reply code {self.code}")

    def __str__(self) -> str:
        return f"{self.code} {self.text}"

    # -- RFC 959 categories ------------------------------------------------

    @property
    def is_preliminary(self) -> bool:
        """1xx: action started, expect another reply."""
        return 100 <= self.code < 200

    @property
    def is_completion(self) -> bool:
        """2xx: action completed successfully."""
        return 200 <= self.code < 300

    @property
    def is_intermediate(self) -> bool:
        """3xx: send more information."""
        return 300 <= self.code < 400

    @property
    def is_transient_error(self) -> bool:
        """4xx: try again later."""
        return 400 <= self.code < 500

    @property
    def is_permanent_error(self) -> bool:
        """5xx: do not repeat as-is."""
        return 500 <= self.code < 600

    @property
    def is_error(self) -> bool:
        """True for any 4xx/5xx reply."""
        return self.code >= 400

    @staticmethod
    def parse(line: str) -> "Reply":
        """Parse ``"<code> <text>"``."""
        head, _, text = line.partition(" ")
        try:
            code = int(head)
        except ValueError:
            raise ProtocolError(f"malformed reply line: {line!r}") from None
        return Reply(code, text)


# -- the codes this server emits ------------------------------------------------

BANNER = Reply(220, "GridFTP Server (repro) ready.")
OPENING_DATA = Reply(150, "Opening BINARY mode data connection.")
COMMAND_OK = Reply(200, "Command okay.")
FEATURES_FOLLOW = Reply(211, "Extensions supported")
SIZE_FMT = "213 {size}"
TRANSFER_COMPLETE = Reply(226, "Transfer complete.")
PASSIVE_FMT = "227 Entering Passive Mode ({addr})"
LOGGED_IN = Reply(230, "User logged in, proceed.")
SECURITY_OK = Reply(232, "GSSAPI authentication succeeded.")
SECURITY_CONTINUE = Reply(334, "Using authentication type GSSAPI; ADAT must follow.")
NEED_MORE_INFO = Reply(350, "Requested file action pending further information.")
SERVICE_UNAVAILABLE = Reply(421, "Service not available, closing control connection.")
TRANSFER_ABORTED = Reply(426, "Connection closed; transfer aborted.")
UNRECOGNIZED = Reply(500, "Syntax error, command unrecognized.")
BAD_PARAMETER = Reply(501, "Syntax error in parameters or arguments.")
NOT_LOGGED_IN = Reply(530, "Not logged in.")
FILE_UNAVAILABLE_FMT = "550 {path}: {reason}"
GOODBYE = Reply(221, "Goodbye.")


def file_unavailable(path: str, reason: str = "No such file or directory") -> Reply:
    """A 550 with the offending path."""
    return Reply(550, f"{path}: {reason}")


def raise_for_reply(reply: Reply) -> Reply:
    """Client-side helper: raise :class:`ProtocolError` on 4xx/5xx."""
    if reply.is_error:
        raise ProtocolError(str(reply), code=reply.code)
    return reply


def final_reply(command: str, lines: list[str]) -> Reply:
    """The last line of the reply to ``command``; raise on 4xx/5xx or no line."""
    if not lines:
        raise ProtocolError(f"no reply to {command!r}")
    return raise_for_reply(Reply.parse(lines[-1]))


def unparseable(command: str, line: str) -> ProtocolError:
    """The error for a reply line the client cannot parse.

    A typed error fails only the job the reply arrived on; an
    ``IndexError`` or ``ValueError`` would escape every job runner.
    """
    return ProtocolError(f"unparseable reply to {command}: {line!r}")


def size_of(reply: Reply) -> int:
    """The byte count a SIZE reply carries."""
    try:
        return int(reply.text)
    except ValueError:
        raise unparseable("SIZE", str(reply)) from None
