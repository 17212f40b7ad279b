from types import ModuleType

import arcpack


def test_all_lists_every_public_name():
    # a name deleted from a module must leave both the import and __all__
    bound = {
        name
        for name, value in vars(arcpack).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(arcpack.__all__) == len(set(arcpack.__all__))
    assert set(arcpack.__all__) == bound
    for name in arcpack.__all__:
        assert getattr(arcpack, name) is not None
