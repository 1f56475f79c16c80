"""Public API surface tests: everything advertised exists and works."""

import re

import pytest

import repro


def test_all_symbols_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


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


def test_compile_path_does_not_import_numpy():
    """A compile loads no NumPy: compiling Figure 11 through the batch
    entry point in a fresh interpreter leaves ``numpy`` out of
    ``sys.modules``, so no compile process pays its start-up time and
    memory."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "from repro.batch.driver import compile_one\n"
        "from repro.testing.programs import FIG11_SOURCE\n"
        "assert compile_one('fig11', FIG11_SOURCE).ok\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
