import types

import martnet as mn


def test_all_lists_exactly_the_public_names():
    # every listed name resolves, and every public attribute that is not a module is listed
    assert len(mn.__all__) == len(set(mn.__all__))
    assert [name for name in mn.__all__ if not hasattr(mn, name)] == []
    public = {name for name, v in vars(mn).items() if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(mn.__all__)
