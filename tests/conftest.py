"""Shared test settings: one reproducible hypothesis profile for every run.

derandomize makes each property test draw the same examples on every run,
and database=None stores no failing examples.  Hypothesis also caches the
literals it finds in local modules under its home directory; that cache goes
to a temporary directory removed at exit, so no .hypothesis/ appears here.
"""

import tempfile

from hypothesis import configuration, settings

_HOME = tempfile.TemporaryDirectory(prefix="ttalab-hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)
settings.register_profile("ttalab", derandomize=True, deadline=None, database=None)
settings.load_profile("ttalab")
