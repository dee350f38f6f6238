"""Fixture package: the acquisition and the dropped result live in two modules."""
