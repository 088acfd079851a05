"""Hypothesis settings shared by every test module.

`print_blob=True` makes a failing property test print the
`@reproduce_failure(...)` line that replays its falsifying example exactly,
also where the local `.hypothesis/` example database is absent, as on a
fresh CI runner.  Example counts, seeds and deadlines stay with each test.
"""

from hypothesis import settings

settings.register_profile("imaginarity", print_blob=True)
settings.load_profile("imaginarity")
