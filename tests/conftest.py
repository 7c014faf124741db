"""One Hypothesis profile for every property test: the examples are derived
from each test's name, not drawn at random, and no example database is kept,
so every run (and every checkout) tries the same inputs.  Each ``@settings``
sets only ``max_examples``."""

from hypothesis import settings

settings.register_profile("lgforge", derandomize=True, database=None, deadline=None)
settings.load_profile("lgforge")
