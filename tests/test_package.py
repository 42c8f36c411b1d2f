"""The package's public names."""

import importlib
import re
from pathlib import Path

import pytest

import commtrack
from commtrack.synth import SynthSpec, generate

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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    spec = SynthSpec(n_nodes=60, n_communities=4, p_in=0.4, p_out=0.02,
                     churn_rate=0.1, migrate_rate=0.05, steps=2, seed=3)
    (g0, _), (g1, _) = generate(spec)
    exec(compile(code, "README.md", "exec"), {"g0": g0, "g1": g1})
    assert capsys.readouterr().out.strip()
