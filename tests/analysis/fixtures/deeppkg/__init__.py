"""Fixture package: a cross-module reservation leak only the whole-program rules can see."""
