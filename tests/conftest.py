"""Shared test settings: one reproducible hypothesis profile for every property test."""

from hypothesis import settings

settings.register_profile("opquant", derandomize=True, database=None, deadline=None)
settings.load_profile("opquant")
