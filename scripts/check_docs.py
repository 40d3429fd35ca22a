#!/usr/bin/env python3
"""Documentation link checker (registered as the `docs_links` ctest).

Three gates over the repository's markdown:

  1. Every intra-repo link target in every tracked .md file must exist
     (inline links and images; anchors are stripped; external schemes are
     skipped).
  2. Every file under docs/ must be reachable from README.md by following
     markdown links — no orphaned documentation.
  3. Every repo path named in an inline code span (`src/...`, `tests/...`,
     ... — see PATH_PREFIXES) of a markdown file reachable from README.md
     must exist in the tree, so docs cannot keep pointing at renamed or
     deleted files. `{hpp,cpp}`-style brace groups are expanded; spans with
     glob/shell characters are skipped. Unreachable notes (the change log,
     task statements) may name deleted files: recording a deletion is
     their job.

Usage: scripts/check_docs.py [repo-root]   (default: the repo containing
this script). Exits 0 when all gates pass, 1 otherwise.
"""

import os
import re
import sys

# Directories never scanned: build trees, VCS metadata, vendored/related
# sources, editor state.
SKIP_DIRS = (".git", ".claude", "related", "node_modules", "__pycache__")

# [text](target) and ![alt](target); target may be wrapped in <>.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?\s*(?:\"[^\"]*\")?\)")

EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

# `inline code`; spans starting with one of these top-level directories are
# treated as repo-path claims and must exist (gate 3). Anything else inside
# backticks (identifiers, flags, commands) is not a path claim.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
PATH_PREFIXES = ("src/", "docs/", "scripts/", "tests/", "bench/", "tools/",
                 "examples/")
BRACE_RE = re.compile(r"^(.*)\{([^{}]+)\}(.*)$")


def should_skip(dirname):
    return (dirname in SKIP_DIRS or dirname.startswith(".")
            or dirname.startswith("build"))


def markdown_files(root):
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if not should_skip(d)]
        for name in filenames:
            if name.endswith(".md"):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def stripped_text(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # Fenced code blocks routinely show link-like syntax and example paths
    # (scratch files, build outputs); they are not navigation or claims
    # about the tree, so neither gate checks them.
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def path_claims(text):
    """Repo paths asserted by inline code spans, brace groups expanded."""
    claims = []
    for span in CODE_SPAN_RE.findall(text):
        span = span.strip().rstrip(".,:;")
        if not span.startswith(PATH_PREFIXES):
            continue
        if any(ch in span for ch in " <>*?$|\"'()"):
            continue
        group = BRACE_RE.match(span)
        expanded = ([group.group(1) + alt + group.group(3)
                     for alt in group.group(2).split(",")]
                    if group else [span])
        claims.extend((span, p) for p in expanded)
    return claims


def path_exists(root, path):
    """True when the claimed path exists — exactly, or as a module stem.

    Docs name translation units by stem (`src/flow/supervisor`,
    `tools/mclg_cli`, `bench/bench_table1`); accept those when any file
    with that basename plus an extension lives in the claimed directory.
    """
    full = os.path.join(root, path.rstrip("/"))
    if os.path.exists(full):
        return True
    parent, stem = os.path.dirname(full), os.path.basename(full)
    if not stem or not os.path.isdir(parent):
        return False
    return any(name.startswith(stem + ".") for name in os.listdir(parent))


def resolve(source, target, root):
    """Intra-repo filesystem path a link points to, or None if external."""
    if target.startswith(EXTERNAL_SCHEMES) or target.startswith("#"):
        return None
    target = target.split("#", 1)[0]
    if not target:
        return None
    if target.startswith("/"):
        return os.path.normpath(os.path.join(root, target.lstrip("/")))
    return os.path.normpath(os.path.join(os.path.dirname(source), target))


def main():
    script_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else script_root
    readme = os.path.join(root, "README.md")
    if not os.path.exists(readme):
        print(f"check_docs: no README.md under {root}", file=sys.stderr)
        return 1

    failures = []
    graph = {}
    claims = {}
    checked_links = 0
    checked_paths = 0
    for md in markdown_files(root):
        rel = os.path.relpath(md, root)
        text = stripped_text(md)
        edges = set()
        for target in LINK_RE.findall(text):
            resolved = resolve(md, target, root)
            if resolved is None:
                continue
            checked_links += 1
            if not os.path.exists(resolved):
                failures.append(f"{rel}: broken link -> {target}")
                continue
            if resolved.endswith(".md"):
                edges.add(os.path.normpath(resolved))
        graph[os.path.normpath(md)] = edges
        claims[os.path.normpath(md)] = (rel, set(path_claims(text)))

    # BFS over the markdown link graph from README.md.
    reachable = set()
    frontier = [os.path.normpath(readme)]
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(graph.get(node, ()))

    for node in sorted(reachable):
        rel, spans = claims.get(node, ("", set()))
        for span, path in spans:
            checked_paths += 1
            if not path_exists(root, path):
                failures.append(f"{rel}: missing path -> {span} ({path})")

    docs_dir = os.path.join(root, "docs")
    for md in markdown_files(docs_dir) if os.path.isdir(docs_dir) else []:
        if os.path.normpath(md) not in reachable:
            failures.append(
                f"{os.path.relpath(md, root)}: not reachable from README.md")

    if failures:
        for failure in failures:
            print(f"check_docs FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check_docs OK: {checked_links} intra-repo links, "
          f"{checked_paths} inline path claims, "
          f"{len(reachable)} markdown files reachable from README.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
