"""Settings and fixtures shared by every test module."""
from hypothesis import settings

from loopback import scorer_server, web_site  # noqa: F401  (fixtures)

# Each property test draws the same examples on every run (and keeps no
# example database), so the suite's verdict depends only on the code.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
