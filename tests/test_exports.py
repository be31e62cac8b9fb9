import types

import cremlat


def test_all_lists_every_public_name():
    # a name deleted from only the imports or only __all__ shows up here
    bound = {
        name for name, value in vars(cremlat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(cremlat.__all__) == sorted(bound)  # a name listed twice fails too
