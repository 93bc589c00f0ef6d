import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Every property test draws the same examples on every run and keeps no
# example database; each test sets its own max_examples.
settings.register_profile("rookorder", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("rookorder")
