"""A pragma on the decorator line covers the whole def header."""


def decorate(fn: object) -> object:
    return fn


@decorate  # reprolint: disable=REP005 -- fixture: decorated header
def collect(a, seen=[]):
    return a
