import laff


def test_public_names_resolve():
    # guards __all__ against names the package no longer defines
    for name in laff.__all__:
        assert getattr(laff, name) is not None, name
    namespace = {}
    exec("from laff import *", namespace)
    assert set(laff.__all__) <= set(namespace)
