"""Runtime dependencies, the console script, export lists, the
reproducibility of the shipped data and the test configuration."""

import ast
import contextlib
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import voaleak

ROOT = Path(__file__).resolve().parent.parent


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    """A new interpreter, run with args, that imports this voaleak."""
    env = dict(os.environ)
    src = str(Path(voaleak.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def _fresh_child(code: str) -> str:
    """The stdout of code run in a new interpreter that imports this voaleak."""
    child = _run_child(["-c", code])
    child.check_returncode()
    return child.stdout.strip()


def test_import_loads_no_scipy():
    code = ("import sys, voaleak\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    assert _fresh_child(code) == "[]"


def test_cli_import_loads_no_dataclasses():
    # The records derive from errors.Record, which generates no code at
    # import; dataclasses would build and exec methods for each class.
    code = "import sys, voaleak.cli\nprint('dataclasses' in sys.modules)\n"
    assert _fresh_child(code) == "False"


def test_console_script_runs_a_shipped_command():
    # The [project.scripts] target, read from pyproject.toml as text
    # (tomllib is new in Python 3.11), called as an installed voaleak
    # calls it: sys.exit(target()) with the command line in sys.argv.
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, target = re.fullmatch(
        r'voaleak = "([\w.]+):(\w+)"', scripts.strip()).groups()
    assert callable(getattr(importlib.import_module(module), target))
    code = f"import sys\nfrom {module} import {target}\nsys.exit({target}())\n"
    argv = ["-W", "error", "-c", code, "leakage",
            "--config", str(ROOT / "configs" / "device.cfg")]
    ok = _run_child(argv)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout.startswith("drive_voltage_v,count_rate_hz,pulse_width_s,mu\n")
    bad = _run_child(argv + ["--override", "emission.1.pulse_width=0"])
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("error:config:") and bad.stderr.count("\n") == 1


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


# The names `from voaleak import *` gives, written out: an export list
# assembled from the modules' lists must neither lose nor gain one.
PUBLIC = {
    "__version__",
    "VoaleakError", "DomainError", "InsufficientDataError",
    "ConfigurationError", "TraceParseError", "TraceSchemaError",
    "CarrierState", "IvCurve", "IdealityFit", "DEFAULT_FIT_WINDOWS",
    "plasma_dispersion_general", "soref_1550", "attenuation_db",
    "attenuation_from_counts", "bandgap_wavelength", "fit_ideality",
    "FringeTrace", "ExtremaPair", "find_extrema_pair", "center_wavelength",
    "EmissionSpec", "mean_photon_number",
    "ChannelParams", "Observables", "observables_for_intensity",
    "DecoyObservations", "SinglePhotonBounds", "single_photon_bounds",
    "binary_entropy", "coin_imbalance", "phase_error_with_tha",
    "gllp_key_rate", "dual_source_key_rate", "calibrated_intensity",
    "ScenarioConfig", "SweepResult", "WavelengthResult",
    "IvFitResult", "LeakageResult", "RESULT_HEADER", "load_config",
    "run_scenario", "load_trace", "save_trace", "emit_results",
    "read_results",
}


def test_public_names():
    assert len(PUBLIC) == 47
    assert len(voaleak.__all__) == len(set(voaleak.__all__))
    assert set(voaleak.__all__) == PUBLIC


def test_errors_exports_the_exception_classes():
    errors = voaleak.errors
    assert set(errors.__all__) == {
        "VoaleakError", "DomainError", "InsufficientDataError",
        "ConfigurationError", "TraceParseError", "TraceSchemaError"}
    assert len(errors.__all__) == 6
    assert all(issubclass(getattr(errors, name), errors.VoaleakError)
               for name in errors.__all__)


def test_generate_data_rebuilds_data_byte_for_byte(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate_data", ROOT / "scripts" / "generate_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA_DIR", tmp_path)
    script.main()
    for name in ("fringe_reference.csv", "fringe_voa.csv", "iv_trace.csv"):
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes()


def _tracer_wrapped() -> tuple:
    """perfbench/tracer.py's WRAPPED, read from its text without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    value, = (node.value for node in tree.body if isinstance(node, ast.Assign)
              and [target.id for target in node.targets] == ["WRAPPED"])
    return ast.literal_eval(value)


def test_tracer_wrapped_names_resolve():
    # perfbench/tracer.py wraps these names with getattr; a refactor that
    # drops one breaks the traced benchmark run.
    import voaleak.cli  # noqa: F401  (imports every wrapped module)
    wrapped = _tracer_wrapped()
    missing = [(module, attr) for module, attr, _ in wrapped
               if not hasattr(sys.modules[module], attr)]
    assert wrapped and missing == []


@pytest.mark.parametrize("name, unused", [
    ("passive_tha.cfg", "dual_source_key_rate"),
    ("dual_source.cfg", "gllp_key_rate"),
])
def test_a_sweep_calls_each_layer_through_a_scenario_global(name, unused):
    # The tracer times a layer only where scenario calls it by the module
    # global it wraps; a call through another name would go unseen.
    from voaleak import scenario
    layers = ("replace", "observables_for_intensity", "single_photon_bounds",
              "gllp_key_rate", "dual_source_key_rate")
    assert {("voaleak.scenario", layer) for layer in layers} <= {
        (module, attr) for module, attr, _ in _tracer_wrapped()}
    config = scenario.load_config(ROOT / "configs" / name)
    with contextlib.ExitStack() as stack:
        spies = {layer: stack.enter_context(mock.patch.object(
            scenario, layer, wraps=getattr(scenario, layer))) for layer in layers}
        result = scenario.run_scenario(config)
    assert len(result) == len(scenario.sweep_distances(config))
    calls = {layer: spy.call_count for layer, spy in spies.items()}
    assert calls == {**dict.fromkeys(layers, 1), unused: 0}


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
