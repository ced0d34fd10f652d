"""Guards against deletions: exported names resolve, and perfbench's hooks
still find the layers they trace; and against a second stream layout."""
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import cfbounds

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = [module for module in (importlib.import_module(f"cfbounds.{info.name}")
                                 for info in pkgutil.iter_modules(cfbounds.__path__))
           if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_perfbench_hooks_find_their_targets(monkeypatch):
    import cfbounds.cli  # noqa: F401  (imports every hooked module)

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through ``sys.modules``
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.missing_hooks() == []


def test_one_generator_jump_in_the_package():
    # the replication driver, verify._replicate, is the one place that
    # positions a generator in a stream
    jumps = [f"{path.name}:{number}"
             for path in sorted(Path(cfbounds.__file__).parent.glob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if ".advance(" in line]
    assert len(jumps) <= 1, jumps
