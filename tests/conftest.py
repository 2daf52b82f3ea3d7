"""Shared test settings.

Property tests run under a derandomized Hypothesis profile: the same
examples every run, no example database on disk and no per-example
deadline, so Tier-1 stays deterministic and its run time bounded.
"""

try:
    from hypothesis import settings
except ImportError:  # tests/test_properties.py skips itself without Hypothesis
    pass
else:
    settings.register_profile(
        "espc", derandomize=True, database=None, deadline=None, max_examples=200
    )
    settings.load_profile("espc")
