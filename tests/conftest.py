"""One Hypothesis profile for the suite: derandomized, with no deadline,
no example database and a bounded number of examples, so that every run
draws the same examples in a few seconds."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("pertbvp", derandomize=True, deadline=None,
                              database=None, max_examples=40)
    settings.load_profile("pertbvp")
