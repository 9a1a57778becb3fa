import sdoflab


def test_public_names_resolve():
    # Every name the package exports is importable from it.
    missing = [name for name in sdoflab.__all__ if not hasattr(sdoflab, name)]
    assert missing == []
