"""Grid Security Infrastructure: credentials, gridmaps, callouts, delegation.

The security handling of paper Section II.C: the authorization callout
that maps a certificate subject to a local user id, gridmap files (the
error prone mechanism GCMU eliminates), and proxy delegation (what lets
Globus Online act for the user).  GSI mutual authentication itself runs
on the control channel: ``ClientSession.login`` validates the server's
AUTH chain and delegates a proxy, and ``GridFTPSession._cmd_adat``
validates that proxy's chain (see :mod:`repro.gridftp`).
"""

from repro.gsi.credentials import CredentialStore
from repro.gsi.gridmap import Gridmap
from repro.gsi.authz import AuthorizationCallout, GridmapCallout
from repro.gsi.delegation import delegate_credential

__all__ = [
    "CredentialStore",
    "Gridmap",
    "AuthorizationCallout",
    "GridmapCallout",
    "delegate_credential",
]
