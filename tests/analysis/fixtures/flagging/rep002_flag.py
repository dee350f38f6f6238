"""REP013 fixture: a failing admit/reserve unwinds past held streams."""


def commit_all(servers, transport, spec):
    streams = []
    for server in servers:
        streams.append(server.admit(spec))
    flow = transport.reserve(spec)
    return streams, flow
