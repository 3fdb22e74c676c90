"""The package's public names."""

import hypersos


def test_every_export_resolves_once():
    names = hypersos.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hypersos, name)]
    assert missing == []
