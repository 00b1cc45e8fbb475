"""``scripts/mutants.py`` on a throwaway tree: a mutant killed, a survivor and a missing old text reported."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"


def _mutants():
    """``scripts/mutants.py`` as a module, unrun."""
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_script_reports_each_verdict(tmp_path, monkeypatch, capsys):
    mutants = _mutants()
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    (tree / "src" / "calc.py").write_text("def double(x):\n    return 2 * x\n\n\ndef unused():\n    return 0\n")
    test = "from calc import double\n\n\ndef test_double():\n    assert double(3) == 6\n"
    (tree / "tests" / "test_calc.py").write_text(test)
    monkeypatch.setattr(mutants, "MUTANTS", [
        mutants.Mutant("K", "src/calc.py", "return 2 * x", "return 3 * x", "double triples"),
        mutants.Mutant("S", "src/calc.py", "return 0", "return 1", "an unused function changes"),
        mutants.Mutant("E", "src/calc.py", "return 4 * x", "return 5 * x", "text that is not there"),
    ])
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")  # the throwaway tests need no plugin: a faster start
    out = tmp_path / "out.json"
    assert mutants.main(["--root", str(tree), "--json", str(out)]) == 1
    results = {r["id"]: r for r in json.loads(out.read_text())}
    assert {key: r["verdict"] for key, r in results.items()} == {"K": "killed", "S": "survived", "E": "error"}
    assert results["K"]["detail"].startswith("FAILED tests/test_calc.py::test_double")
    assert results["E"]["detail"] == "old text occurs 0 times in src/calc.py"
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in printed[:3]] == [["K", "killed"], ["S", "survived"], ["E", "error"]]
    assert printed[-1] == "1/3 killed; not killed: S E"
    # The tree itself is never mutated.
    assert "return 2 * x" in (tree / "src" / "calc.py").read_text()
