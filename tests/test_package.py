"""The package's public export list."""

import treereg


def test_every_exported_name_resolves():
    # A stale string in __all__ breaks only `from treereg import *`.
    missing = []
    for name in treereg.__all__:
        try:
            getattr(treereg, name)
        except AttributeError:
            missing.append(name)
    assert missing == []
