"""Settings shared by the test modules."""

from hypothesis import settings

# Each property draws the same examples on every run, keeps no example
# database, and has no deadline: the wall time of one example on a shared
# machine says nothing about the code.
settings.register_profile("beatnote", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("beatnote")
