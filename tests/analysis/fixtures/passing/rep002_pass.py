"""REP013 fixture (clean): acquisitions rolled back on failure."""

from repro.util.errors import CapacityError


def commit_all(servers, transport, spec):
    streams = []
    flow = None
    try:
        for server in servers:
            streams.append(server.admit(spec))
        flow = transport.reserve(spec)
    except CapacityError:
        rollback(transport, streams)
        raise
    return streams, flow


def rollback(transport, streams):
    for stream in streams:
        stream.server.release(stream)
