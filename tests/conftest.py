"""Test-suite settings: property tests draw the same examples on every
run (derandomized hypothesis profile, no per-example deadline)."""

from hypothesis import settings

settings.register_profile("flatcover", derandomize=True, deadline=None)
settings.load_profile("flatcover")
