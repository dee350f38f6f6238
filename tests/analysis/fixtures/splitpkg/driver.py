"""Drops the stream ``helpers.open_stream`` admitted (REP012 here)."""

from .helpers import open_stream


def run(server, spec):
    stream = open_stream(server, spec)
    return True
