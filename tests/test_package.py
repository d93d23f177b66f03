"""The package's public namespace."""

import szegolab


def test_every_exported_name_resolves_once():
    names = szegolab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(szegolab, name)]
    assert not missing
