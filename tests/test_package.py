"""The package's public names."""

import importlib

import pytest

MODULES = ["", ".cli", ".ingest", ".louvain", ".metrics", ".sweep", ".synth", ".tracker"]


@pytest.mark.parametrize("module", ["commtrack" + m for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
