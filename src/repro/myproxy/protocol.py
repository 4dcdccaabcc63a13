"""MyProxy logon protocol messages.

The real protocol runs over TLS with its own framing; we keep the
message *content* faithful — username, passphrase, requested lifetime in,
signed certificate (or error) out — encoded as single text lines so it
rides the same :class:`~repro.net.channel.ControlChannel` machinery as
everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.util.encoding import b64decode_str, b64encode_str


@dataclass(frozen=True)
class LogonRequest:
    """A myproxy-logon request."""

    username: str
    passphrase: str
    lifetime_s: float

    def encode(self) -> str:
        """Render as the single-line wire form."""
        user_b64 = b64encode_str(self.username.encode("utf-8"))
        pass_b64 = b64encode_str(self.passphrase.encode("utf-8"))
        return f"LOGON {user_b64} {pass_b64} {self.lifetime_s:.0f}"

    @staticmethod
    def decode(line: str) -> "LogonRequest":
        """Parse the single-line wire form."""
        parts = line.split()
        if len(parts) != 4 or parts[0] != "LOGON":
            raise ProtocolError(f"malformed myproxy logon line: {line!r}", code=501)
        try:
            return LogonRequest(
                username=b64decode_str(parts[1]).decode("utf-8"),
                passphrase=b64decode_str(parts[2]).decode("utf-8"),
                lifetime_s=float(parts[3]),
            )
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"malformed myproxy logon fields: {exc}", code=501) from exc


@dataclass(frozen=True)
class LogonResponse:
    """The server's answer: a credential PEM or an error."""

    ok: bool
    credential_pem: str = ""
    error: str = ""

    def encode(self) -> str:
        """Render as the single-line wire form."""
        if self.ok:
            return f"OK {b64encode_str(self.credential_pem.encode('ascii'))}"
        return f"ERR {b64encode_str(self.error.encode('utf-8'))}"

    @staticmethod
    def decode(line: str) -> "LogonResponse":
        """Parse the single-line wire form."""
        tag, _, body = line.partition(" ")
        try:
            if tag == "OK":
                return LogonResponse(ok=True, credential_pem=b64decode_str(body).decode("ascii"))
            if tag == "ERR":
                return LogonResponse(ok=False, error=b64decode_str(body).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed myproxy response body: {exc}", code=501) from exc
        raise ProtocolError(f"malformed myproxy response: {line!r}", code=501)
