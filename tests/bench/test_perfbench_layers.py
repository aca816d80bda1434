"""Tier-1 guard for the per-layer map of the traced end-to-end benchmark.

``perfbench/layers.py`` skips an entry point it cannot resolve, so a
renamed or moved function would silently read 0 in ``--trace 1`` and
its time would fall to the layer that called it.  This loads the file by
path (``perfbench/`` is not a package) and checks that every entry point
in ``LAYERS`` resolves, as the tracer resolves it, to a callable defined
in ``src/``, and that the ``build`` layer finds at least one BUILD.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_LAYERS = _ROOT / "perfbench" / "layers.py"
_SRC = _ROOT / "src"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(spec: str):
    """The attribute ``Tracer._wrap`` would replace: defined on its owner
    itself (a module, or a class for methods), not inherited."""
    module_name, _, qualname = spec.partition(":")
    *path, name = qualname.split(".")
    owner = importlib.import_module(module_name)
    for part in path:
        owner = getattr(owner, part)
    return vars(owner).get(name)


def test_every_layer_entry_point_resolves_into_src():
    layers = _load_layers()
    for layer, specs in layers.LAYERS.items():
        for spec in specs:
            target = _resolve(spec)
            assert callable(target), f"{layer}: {spec} does not resolve"
            source = Path(inspect.getsourcefile(target)).resolve()
            assert source.is_relative_to(_SRC), (
                f"{layer}: {spec} resolves outside src/ ({source})"
            )


def test_build_layer_finds_builds():
    assert _load_layers()._build_methods()
