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


def woody_imports(path: Path) -> set[str]:
    """The woody modules a package source file imports, relative or
    absolute, by their name inside the package ("graphs", "exact", ...)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import stays inside the package
                module = f"woody.{module}".rstrip(".")
            # `from . import x` and `from woody import x` import modules
            names = ([f"woody.{alias.name}" for alias in node.names]
                     if module == "woody" else [module])
        else:
            continue
        out.update(name.split(".")[1] for name in names if name.startswith("woody."))
    return out


@pytest.mark.parametrize("name", ["graphs.py", "verify.py"])
def test_checkers_import_no_producer(name):
    # every witness a hunt record carries is re-checked by graphs and
    # verify alone, so neither may import the code that produces witnesses
    imported = woody_imports(Path(woody.__file__).parent / name)
    assert imported <= {"errors", "graphs"}, imported


def imported_modules(path: Path) -> set[str]:
    """The modules a package source file imports by absolute name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module)
    return out


def test_only_the_deadline_and_the_timers_import_time():
    # a default solve, a default hunt and every re-verification read no
    # clock: exact polls an explicit --budget-secs deadline, harness times
    # stages under --timings, and cli times the solve `woody exact` prints
    importers = {path.name for path in MODULES if "time" in imported_modules(path)}
    assert importers == {"cli.py", "exact.py", "harness.py"}


def test_in_exact_only_the_ticker_reads_the_clock():
    tree = ast.parse((Path(woody.__file__).parent / "exact.py").read_text(encoding="utf-8"))
    readers = {top.name for top in tree.body
               if isinstance(top, (ast.ClassDef, ast.FunctionDef))
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "time"}
    assert readers == {"_Ticker"}


def test_certificate_checks_live_in_verify():
    import woody.decompose
    import woody.harness
    import woody.verify

    for name in ("DensityCertificate", "replay_coloring_number"):
        assert getattr(woody.verify, name).__module__ == "woody.verify", name
    # the producers re-use them under their old import paths
    assert woody.decompose.DensityCertificate is woody.verify.DensityCertificate
    assert woody.harness.replay_coloring_number is woody.verify.replay_coloring_number


def corpus_digest(name: str) -> str:
    root = Path(woody.__file__).parent.parent.parent
    out = subprocess.run([sys.executable, "tools/digest.py", f"tests/data/{name}"],
                         capture_output=True, text=True, cwd=root, check=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    return out.stdout


def test_digest_of_connected_n7_is_pinned():
    # tools/digest.py hashes every arboricity decomposition, every ζ and χ_a
    # value, node count and certificate, every square pipeline coloring and
    # the woody and strongly woody verdicts (with witnesses) of the all-zero
    # coloring of each graph of a corpus. Pinned so that a change meant to
    # alter nothing is checked against the commit before it; a change that
    # moves a certificate or a node count on purpose re-pins it, and its
    # CHANGES.md entry says why.
    assert corpus_digest("connected_n7.g6") == (
        "ee9e8923816d8e842ed3ce7e34a92ef2ef7c06456b4800df5ae4787a2b795170"
        "  tests/data/connected_n7.g6\n")


def test_digest_of_triangle_free_planar_upto12_is_pinned():
    # the only cached graphs with n = 9 to 12, pinned as connected_n7 is
    assert corpus_digest("triangle_free_planar_upto12.g6") == (
        "0690c775636fafa312e23d277d90a5548e6ddf13f3163c3bf846ca94ede635b9"
        "  tests/data/triangle_free_planar_upto12.g6\n")
