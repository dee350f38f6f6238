"""The fallible step is guarded: the handler rolls back, then re-raises."""

from repro.util.errors import ValidationError


def validate(spec):
    if spec.rate <= 0:
        raise ValidationError("unusable rate")


def run(server, spec):
    stream = server.admit(spec)
    try:
        validate(spec)
    except ValidationError:
        server.rollback(stream)
        raise
    server.release(stream)
    return True
