"""Shared test set-up.

The property tests draw their examples from a derandomized hypothesis
profile, so every run of the suite checks the same examples, and nothing
is written to an example database.
"""

try:
    from hypothesis import settings
except ImportError:  # tests/test_kernels.py skips itself
    pass
else:
    settings.register_profile("bentkit", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("bentkit")
