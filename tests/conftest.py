"""Settings shared by the test modules.

Hypothesis draws the same examples on every run (derandomize) and keeps no
example database, so a pass or a failure of the tier-1 run repeats.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
