"""Runtime dependencies, export lists, the reproducibility of the shipped data
and the test configuration."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import voaleak

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    env = dict(os.environ)
    src = str(Path(voaleak.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, voaleak\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "[]"


def test_export_lists_resolve():
    modules = [voaleak] + [importlib.import_module(f"voaleak.{m.name}")
                           for m in pkgutil.iter_modules(voaleak.__path__)]
    missing = [(module.__name__, name) for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
    namespace: dict = {}
    exec("from voaleak import *", namespace)
    assert set(voaleak.__all__) <= namespace.keys()


def test_generate_data_rebuilds_data_byte_for_byte(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate_data", ROOT / "scripts" / "generate_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA_DIR", tmp_path)
    script.main()
    for name in ("fringe_reference.csv", "fringe_voa.csv", "iv_trace.csv"):
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes()


def test_tracer_wrapped_names_resolve():
    # perfbench/tracer.py wraps these names with getattr; a refactor that
    # drops one breaks the traced benchmark run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import voaleak.cli  # noqa: F401  (imports every wrapped module)
    missing = [(module, attr) for module, attr, _ in tracer.WRAPPED
               if not hasattr(sys.modules[module], attr)]
    assert missing == []


def test_failing_property_gets_a_failure_report(tmp_path):
    # hypothesis explains a failing property with libcst, whose import
    # warns; the warnings-as-errors setting must not turn that warning
    # into an INTERNALERROR that ends the whole run.
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True)
    output = child.stdout + child.stderr
    assert child.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
