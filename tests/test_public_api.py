from __future__ import annotations

import rexgot


def test_every_exported_name_resolves():
    missing = [name for name in rexgot.__all__ if not hasattr(rexgot, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(rexgot.__all__) == len(set(rexgot.__all__))
