from hypothesis import settings

# A fixed seed per test: every run draws the same examples.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
