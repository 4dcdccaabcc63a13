"""Grid Security Infrastructure: contexts, gridmaps, callouts, delegation.

Implements the security handling of paper Section II.C: GSI mutual
authentication on the control channel, the authorization callout that
maps a certificate subject to a local user id, gridmap files (the error
prone mechanism GCMU eliminates), and proxy delegation (what lets Globus
Online act for the user).
"""

from repro.gsi.context import SecurityContext, establish_context
from repro.gsi.credentials import CredentialStore
from repro.gsi.gridmap import Gridmap
from repro.gsi.authz import AuthorizationCallout, GridmapCallout
from repro.gsi.delegation import delegate_credential

__all__ = [
    "SecurityContext",
    "establish_context",
    "CredentialStore",
    "Gridmap",
    "AuthorizationCallout",
    "GridmapCallout",
    "delegate_credential",
]
