"""Hypothesis draws the same examples on every run: a run of the suite
passes or fails the same test ids each time.  Each test's own @settings
(example counts, deadlines) still applies on top of this profile."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
