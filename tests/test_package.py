"""The package's public names."""

import importlib

import pytest

import commtrack

MODULES = ["", ".cli", ".errors", ".graph", ".ingest", ".louvain", ".metrics", ".sweep", ".synth", ".tracker"]


@pytest.mark.parametrize("module", ["commtrack" + m for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_only_what_its_modules_export():
    stale = []
    for name in commtrack.__all__:
        home = getattr(getattr(commtrack, name), "__module__", "commtrack")
        if home != "commtrack" and name not in importlib.import_module(home).__all__:
            stale.append(f"{home}.{name}")
    assert stale == []
