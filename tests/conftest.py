import os

from hypothesis import HealthCheck, settings

# The default profile draws the same examples on every run, and replays
# nothing from a local example database, so a tier-1 verdict depends on the
# commit alone.  The thorough profile stays random, for exploration.
settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
settings.register_profile("thorough", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
