import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import woody

MODULES = sorted(Path(woody.__file__).parent.glob("*.py"))


def parser_tokens(path: Path) -> int:
    """Tokens the CPython parser keeps: everything but comments and NL."""
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(src).readline)
               if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_below_the_parser_step(path):
    # CPython 3.11's parser doubles its token array at 4,096 tokens:
    # padding exact.py from 4,096 to 4,100 tokens raises its compile() peak
    # from 1,467 to 1,691 KiB. A fresh checkout compiles every module from
    # source, so the step shows in the benchmark's peak_rss_mb, whose bound
    # is 0.1 MiB; split a module before it crosses.
    assert parser_tokens(path) < 4096


def test_cli_import_leaves_the_pool_stack_unloaded():
    # woody.cli imports every library module; only a hunt that starts
    # workers needs concurrent.futures and multiprocessing, and it loads
    # them itself
    src = Path(woody.__file__).parent.parent
    probe = ("import sys, woody.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.split() == ["[]"]


def test_oracles_import_nothing_from_the_solvers():
    # the test-side oracles check woody.exact and the square pipeline, so
    # they must not run on the code they check; `from woody import exact`
    # counts as woody.exact
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert any(name.startswith("woody.") for name in imported)
    for name in imported:
        assert not name.startswith(("woody.exact", "woody.construct")), name
