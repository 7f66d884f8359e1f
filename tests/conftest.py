"""Test-wide Hypothesis settings: examples are derandomized, so the suite
draws the same ones on every run, and no example database is written."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
