"""Shared pytest set-up.

``pytest --hypothesis-profile=ci`` selects a derandomized profile: every
property test draws the same examples on every run, so CI cannot flake on a
newly found case.  Without the flag hypothesis keeps its default, randomized
profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
