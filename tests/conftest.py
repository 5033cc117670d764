"""Shared test settings."""

from hypothesis import settings

# Derandomized so that property tests draw the same examples on every run,
# in line with the package's determinism contract; no deadline because
# timings on a loaded machine are not what these tests check.
settings.register_profile("gapest", derandomize=True, deadline=None)
settings.load_profile("gapest")
