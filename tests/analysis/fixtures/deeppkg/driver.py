"""Forgets to release what the pool admitted.

The acquiring call below is a bare name (no ``.admit`` attribute
syntax in this file); only the call graph, which knows ``pool.admit``
returns an acquisition, can tell the driver leaks it.
"""

from .pool import admit


def run_session(server, spec):
    stream = admit(server, spec)
    if stream is None:
        return False
    return True
