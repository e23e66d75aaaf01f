"""The public API: every name a package or module exports in ``__all__``
resolves.

A stale export (a name left in ``__all__`` after its definition was
removed or renamed) breaks ``from repro.x import *`` and misleads
readers of the package index; this test fails on it.
"""

import importlib
import pkgutil

import pytest

import repro


INFOS = sorted(
    (info.name, info.ispkg)
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"
)
PACKAGES = ["repro"] + [name for name, ispkg in INFOS if ispkg]
MODULES = [name for name, ispkg in INFOS if not ispkg]


def test_every_subpackage_is_found():
    # Guards the discovery itself: a walk that finds nothing passes trivially.
    assert {"repro.depth", "repro.fda.basis", "repro.serving"} <= set(PACKAGES)
    assert {"repro.depth.functional", "repro.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if name in MODULES and exported is None:
        pytest.skip(f"{name} declares no __all__")
    assert exported, f"{name} has no __all__"
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
