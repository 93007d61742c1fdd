import corrspectra


def test_all_exports_resolve_once():
    # a name deleted from the package but left in __all__ breaks
    # `from corrspectra import *`
    assert len(set(corrspectra.__all__)) == len(corrspectra.__all__)
    for name in corrspectra.__all__:
        assert getattr(corrspectra, name, None) is not None, name
