"""Suite-wide hypothesis settings: examples are derived from each test's
source rather than drawn at random, and there is no per-example deadline, so
property tests pick the same inputs on every run and a busy machine cannot
fail them on timing."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
