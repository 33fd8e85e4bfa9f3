"""The package's public surface."""

from __future__ import annotations

import citescore


def test_every_exported_name_resolves():
    missing = [name for name in citescore.__all__ if not hasattr(citescore, name)]
    assert not missing
    assert len(set(citescore.__all__)) == len(citescore.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from citescore import *", namespace)
    assert set(citescore.__all__) <= namespace.keys()
