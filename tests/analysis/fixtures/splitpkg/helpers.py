"""Hands the admitted stream back: the caller owns the release."""


def open_stream(server, spec):
    return server.admit(spec)
