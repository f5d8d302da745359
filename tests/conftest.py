"""Suite-wide hypothesis settings."""

from hypothesis import Phase, settings

# A failing example is still shrunk and reported, but not explained: the
# explain phase re-runs variants of it and pytest formats a traceback for
# each, which on a test with many float arguments takes minutes.
settings.register_profile("koopbound", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("koopbound")
