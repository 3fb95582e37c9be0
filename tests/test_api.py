import inspect

import semidom


def test_all_lists_exactly_the_public_names():
    names = semidom.__all__
    assert len(names) == len(set(names))
    bound = {name for name, value in vars(semidom).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    # every export resolves, and a function removed from the package
    # cannot stay behind in the list
    assert set(names) == bound
