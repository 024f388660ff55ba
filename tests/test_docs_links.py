"""Relative-link and anchor checker for ``docs/*.md`` and README.

Every ``[text](target)`` markdown link that points inside the repo
must resolve: the target file exists, and if the link carries a
``#fragment`` the target page has a heading whose GitHub-style anchor
matches. External links (``http(s)://``, ``mailto:``) are ignored —
CI must not depend on the network. Every ``python -m benchmarks.<mod>``
command names a module that runs something when run that way.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PAGES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]

_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.M)
_FENCE = re.compile(r"^```.*?^```[ \t]*$", re.M | re.S)


def github_anchor(heading: str) -> str:
    """GitHub's heading → anchor slug: lowercase, drop punctuation,
    spaces become hyphens."""
    text = re.sub(r"[*_`]", "", heading.strip())
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    slugs: set[str] = set()
    for match in _HEADING.finditer(text):
        slug = github_anchor(match.group(1))
        # duplicate headings get -1, -2, ... suffixes on GitHub
        n = 1
        while slug in slugs:
            slug = f"{github_anchor(match.group(1))}-{n}"
            n += 1
        slugs.add(slug)
    return slugs


def links_of(path: Path) -> list[str]:
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    return [m.group(1) for m in _LINK.finditer(text)]


@pytest.mark.parametrize("page", PAGES, ids=lambda p: p.name)
def test_relative_links_resolve(page):
    problems = []
    for link in links_of(page):
        if link.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, fragment = link.partition("#")
        dest = page if not target else (page.parent / target).resolve()
        if not dest.exists():
            problems.append(f"{link}: no such file {dest}")
            continue
        if fragment and dest.suffix == ".md":
            if fragment not in anchors_of(dest):
                problems.append(f"{link}: no heading for #{fragment} "
                                f"in {dest.name}")
    assert not problems, "\n".join(problems)


def test_docs_index_links_every_docs_page():
    """README's documentation index must cover every docs/*.md page."""
    readme_links = set(links_of(REPO / "README.md"))
    for doc in (REPO / "docs").glob("*.md"):
        assert f"docs/{doc.name}" in readme_links, (
            f"README documentation index is missing docs/{doc.name}"
        )


_BENCH_MODULE = re.compile(r"python3? -m (benchmarks(?:\.\w+)+)")


@pytest.mark.parametrize("page", PAGES, ids=lambda p: p.name)
def test_benchmark_module_commands_run_something(page):
    """A ``python -m benchmarks.<mod>`` whose module has no ``__main__``
    block exits 0 having done nothing."""
    problems = []
    for module in _BENCH_MODULE.findall(page.read_text(encoding="utf-8")):
        path = REPO.joinpath(*module.split("."))
        source = path.with_suffix(".py")
        if not source.exists():
            source = path / "__main__.py"
        if not source.exists():
            problems.append(f"{module}: no module at {source}")
        elif 'if __name__ == "__main__"' not in source.read_text(encoding="utf-8"):
            problems.append(f"{module}: {source.name} has no __main__ block")
    assert not problems, "\n".join(problems)
