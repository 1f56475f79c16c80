"""Public API surface tests: everything advertised exists and works."""

import re

import pytest

import repro


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this ``repro``;
    fails the test when it exits nonzero."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_all_symbols_resolve():
    """``repro`` and ``repro.service`` resolve their exports on first
    access: each name once, to its owning module's object, listed by
    ``dir`` and bound by a star import; other names raise, and a
    subpackage resolves after a bare ``import repro``."""
    import importlib

    import repro.service

    for module in (repro, repro.service):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), name
        assert set(module.__all__) <= set(dir(module))
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        for owner, names in module._EXPORTS.items():
            owning = importlib.import_module(owner)
            for name in names:
                assert getattr(module, name) is getattr(owning, name), name
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    _run_fresh("import repro\n"
               "assert callable(repro.core.solve)\n"
               "assert repro.graph.build_cfg is repro.build_cfg\n")


def test_version():
    assert re.match(r"\d+\.\d+\.\d+", repro.__version__)


def test_readme_quickstart_snippet_runs():
    """Execute the README's quickstart code block verbatim."""
    readme = open("README.md").read()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks, "README lost its python examples"
    namespace = {}
    for block in blocks:
        exec(compile(block, "<README>", "exec"), namespace)


def test_docs_exist_and_reference_real_modules():
    import importlib
    import pathlib

    for doc in ("equations", "paper_mapping", "language", "api", "tutorial"):
        path = pathlib.Path("docs") / f"{doc}.md"
        assert path.exists(), path
    # every `repro.x.y` module path mentioned in the docs must import
    mentioned = set()
    for path in pathlib.Path("docs").glob("*.md"):
        mentioned.update(re.findall(r"`(repro(?:\.\w+)+)`", path.read_text()))
    for dotted in sorted(mentioned):
        parts = dotted.split(".")
        for end in range(2, len(parts) + 1):
            candidate = ".".join(parts[:end])
            try:
                importlib.import_module(candidate)
                break
            except ImportError:
                continue
        else:
            module = importlib.import_module(".".join(parts[:-1]))
            assert hasattr(module, parts[-1]), dotted


def test_design_and_experiments_exist():
    for name in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
        text = open(name).read()
        assert "GIVE-N-TAKE" in text


def test_examples_are_runnable_modules():
    import pathlib
    import subprocess
    import sys

    examples = sorted(pathlib.Path("examples").glob("*.py"))
    assert len(examples) >= 8
    # compile-check only here (full runs are exercised separately)
    for example in examples:
        subprocess.run([sys.executable, "-m", "py_compile", str(example)],
                       check=True)


#: What a compile never loads: NumPy, the concurrency and network
#: stack, and every subsystem that is not on the compile path.
NOT_ON_THE_COMPILE_PATH = (
    "numpy", "asyncio", "concurrent.futures", "multiprocessing", "socket",
    "ssl", "subprocess", "repro.service", "repro.fleet", "repro.sched",
    "repro.machine", "repro.pre", "repro.prefetch", "repro.regpromo",
)


def test_compile_path_imports_only_the_compiler():
    """Compiling Figure 11 through the batch entry point in a fresh
    interpreter loads none of :data:`NOT_ON_THE_COMPILE_PATH`, so no
    compile process pays their start-up time and memory."""
    _run_fresh(
        "import sys\n"
        "from repro.batch.driver import compile_one\n"
        "from repro.testing.programs import FIG11_SOURCE\n"
        "assert compile_one('fig11', FIG11_SOURCE).ok\n"
        f"loaded = [m for m in {NOT_ON_THE_COMPILE_PATH!r} "
        "if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_annotate_command_loads_no_service_or_machine(tmp_path):
    """``repro annotate`` imports its subcommand's modules only: no
    asyncio, no compile service and no machine simulator."""
    from repro.testing.programs import FIG11_SOURCE

    source = tmp_path / "fig11.f"
    source.write_text(FIG11_SOURCE)
    _run_fresh(
        "import io, sys\n"
        "from repro.cli import main\n"
        f"assert main(['annotate', {str(source)!r}], out=io.StringIO()) == 0\n"
        "loaded = [m for m in ('asyncio', 'repro.service.server', "
        "'repro.service.runner', 'repro.machine') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
