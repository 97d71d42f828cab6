"""The package's export list: every name resolves, none is listed twice."""

from __future__ import annotations

from collections import Counter

import hsclassify


def test_every_exported_name_resolves():
    assert [name for name in hsclassify.__all__ if not hasattr(hsclassify, name)] == []


def test_no_exported_name_is_listed_twice():
    assert [name for name, n in Counter(hsclassify.__all__).items() if n > 1] == []
