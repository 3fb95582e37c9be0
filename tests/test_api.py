import inspect

import semidom


def test_all_lists_exactly_the_public_names():
    names = semidom.__all__
    assert len(names) == len(set(names))
    # every export resolves, loaded with the package or on first use
    for name in names:
        getattr(semidom, name)
    # and a function removed from the package cannot stay behind in the
    # list, nor a public name be left out of it
    public = {name for name in dir(semidom)
              if not name.startswith("_")
              and not inspect.ismodule(getattr(semidom, name))}
    assert set(names) == public
