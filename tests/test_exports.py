"""The package's public name list."""

import csumlab


def test_all_names_resolve_once():
    names = csumlab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(csumlab, name)]
    assert not missing, missing
