"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` derandomizes the property
tests, so a failure repeats on every run, and prints the blob that
reproduces it; without the variable the default profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
