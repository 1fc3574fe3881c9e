import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# every property test runs the same examples on every run, with no example
# database on disk and no per-example deadline
settings.register_profile("sshchain", derandomize=True, database=None, deadline=None)
settings.load_profile("sshchain")
