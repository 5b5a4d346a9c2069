"""Docs cannot point at code that is gone: every test the docs cite by
node id (``tests/<file>.py::<name>``) exists, so a renamed or deleted
test cannot leave a stale pointer in ``README.md`` or ``docs/*.md``, and
every module DESIGN.md's module map lists exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
NODE_ID = re.compile(r"tests/([\w/]+\.py)::([\w:]+)")


def _defines(path: Path, name: str) -> bool:
    """True when ``name`` (``test_x``, ``TestX`` or ``TestX::test_y``)
    is defined at the top of the module or in the named class."""
    scope = ast.parse(path.read_text()).body
    for part in name.split("::"):
        node = next((n for n in scope if getattr(n, "name", None) == part
                     and isinstance(n, (ast.FunctionDef, ast.ClassDef))),
                    None)
        if node is None:
            return False
        scope = node.body
    return True


def test_cited_tests_are_defined():
    cited = {(doc.relative_to(ROOT).as_posix(), f"tests/{m[1]}", m[2])
             for doc in DOCS for m in NODE_ID.finditer(doc.read_text())}
    assert len(cited) >= 10, "the node-id pattern no longer matches the docs"
    stale = sorted(f"{doc}: {path}::{name}" for doc, path, name in cited
                   if not ((ROOT / path).is_file()
                           and _defines(ROOT / path, name)))
    assert stale == []


def test_module_map_files_exist():
    """Every ``*.py`` under a ``pkg/`` heading of DESIGN.md's module map
    exists in ``src/repro/<pkg>/``."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("## 2. System inventory (module map)", 1)[1]
    block = block.split("```", 2)[1]
    listed, pkg = [], None
    for line in block.splitlines():
        heading = re.match(r"  (\w+)/(?:\s|$)", line)
        if heading:
            pkg = heading[1]
            continue
        entry = re.match(r"    (\w+\.py)\s", line)
        if entry and pkg is not None:
            listed.append(f"{pkg}/{entry[1]}")
    assert len(listed) >= 30, "the module-map pattern no longer matches"
    missing = [p for p in listed if not (ROOT / "src/repro" / p).is_file()]
    assert missing == []


def test_experiments_doc_sections_match_the_code(tmp_path):
    """EXPERIMENTS.md is what the code prints: the cheapest sections,
    regenerated by ``repro.analysis.run_all``, appear in the committed
    file verbatim, and so does the header."""
    from repro.analysis import run_all

    out = tmp_path / "EXPERIMENTS.md"
    assert run_all.main([str(out), "--only", "fig1", "table1"]) == 0
    header, *sections = out.read_text().split("\n## ")
    committed = (ROOT / "EXPERIMENTS.md").read_text()
    assert committed.startswith(header + "\n## ")
    assert [s.split(":", 1)[0] for s in sections] == ["fig1", "table1"]
    for section in sections:
        assert "\n## " + section in committed, section.split("\n", 1)[0]
