"""Shared test settings.

Property tests run under one registered hypothesis profile: derandomized, so
every run draws the same examples, with no per-example deadline (timings on a
shared host vary) and a bounded example count, so the suite stays cheap.
"""

from hypothesis import settings

settings.register_profile("sdnfp", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("sdnfp")
