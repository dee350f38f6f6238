"""REP013: a fallible step runs while the reservation is unprotected.

`validate` demonstrably raises, so the exception edge out of its call
site carries the still-held stream to the function's exceptional exit.
"""

from repro.util.errors import ValidationError


def validate(spec):
    if spec.rate <= 0:
        raise ValidationError("unusable rate")


def run(server, spec):
    stream = server.admit(spec)
    validate(spec)
    server.release(stream)
    return True
