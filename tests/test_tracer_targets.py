"""The benchmark's tracer wraps clickrank functions by name (``perfbench/spans.py``,
``TARGETS``); a rename there would only show when a traced run fails. Each
name must resolve the way ``install`` resolves it."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the module imports only the standard library
    return module.TARGETS


@pytest.mark.parametrize("layer, qualname", [(t[0], t[1]) for t in _targets()])
def test_target_resolves(layer, qualname):
    module = importlib.import_module(f"clickrank.{layer}")
    if "." in qualname:
        cls_name, method = qualname.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, qualname))


def test_importing_the_cli_loads_every_traced_layer():
    # perfbench/clidriver.py imports only clickrank.cli before ``install`` looks
    # up sys.modules["clickrank.<layer>"] for every target
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys, clickrank.cli; print(*sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    layers = {f"clickrank.{target[0]}" for target in _targets()}
    assert layers - set(result.stdout.split()) == set()
