#!/usr/bin/env python3
"""Wire-format documentation completeness checker.

Every frame magic declared in src/ats (``... kFooMagic = 0x...;``) and
every checkpoint ``SchemeKind`` enumerator must have normative coverage
in docs/WIRE_FORMAT.md:

  * the magic's 4-char ASCII name must appear in a ``##`` section
    heading (shared headings like "THT2 / LCS2 / GDS2" count),
  * the magic's hex constant must appear in the document (the family
    table or the section's offset table),
  * each SchemeKind value must have a ``| <kind> |`` row in the CKP1
    kind table,
  * the documented kBadKind bound must match [kMinSchemeKind,
    kMaxSchemeKind] from checkpoint.h,
  * every magic's version constant (``k<Prefix>Version`` beside
    ``k<Prefix>Magic`` in the same file) must equal the version the
    document gives it: the family table's "current version" column, and
    the ``version u32 = N`` field and ``version ≠ N`` rejection row of
    the section that names it.

Exits non-zero listing every gap, so the blocking wire-spec CI job
fails when a new frame lands without its spec.  Run from anywhere:

    python3 tools/check_wire_docs.py
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "ats"
DOC = REPO / "docs" / "WIRE_FORMAT.md"
CHECKPOINT_H = SRC / "persist" / "checkpoint.h"

# Every magic declaration names its ASCII tag in a trailing comment
# (the tag cannot be decoded from the literal alone: byte order in the
# hex spelling is not uniform across families, only the u32 compare
# matters on the wire).  The checker reads the tag from that comment and
# treats a missing comment as an error in its own right.
MAGIC_RE = re.compile(
    r"\bk\w*Magic\s*=\s*(0x[0-9a-fA-F]{8})u?\s*;"
    r"(?:\s*//\s*\"(\w{4})\")?")
VERSION_RE = r"\bk{prefix}Version\s*=\s*(\d+)u?\s*;"
TABLE_VERSION_RE = re.compile(
    r"^\|[^|\n]*\|\s*`0x[0-9a-fA-F]{8}`\s*\|\s*`(\w{4})`\s*\|\s*(\d+)\s*\|",
    re.MULTILINE)
FIELD_VERSION_RE = re.compile(r"version u32 = (\d+)|version ≠ (\d+)")
ENUM_RE = re.compile(r"enum class SchemeKind[^{]*\{(.*?)\};", re.DOTALL)
ENUMERATOR_RE = re.compile(r"\bk(\w+)\s*=\s*(\d+)")
BOUND_RE = re.compile(r"\bk(Min|Max)SchemeKind\s*=\s*(\d+)\s*;")


def collect_magics():
    # ascii tag -> (hex literal, declaring file, version constant or None)
    magics = {}
    unnamed = []   # (hex literal, declaring file) with no tag comment
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        text = path.read_text()
        for match in MAGIC_RE.finditer(text):
            hex_literal = match.group(1).lower()
            name = match.group(2)
            origin = path.relative_to(REPO)
            if name is None:
                unnamed.append((hex_literal, origin))
                continue
            prefix = re.match(r"k(\w*)Magic", match.group(0)).group(1)
            found = re.search(VERSION_RE.format(prefix=prefix), text)
            version = int(found.group(1)) if found else None
            magics.setdefault(name, (hex_literal, origin, version))
    return magics, unnamed


def documented_versions(doc, name):
    """Every version the document gives the tag `name`."""
    versions = [int(v) for tag, v in TABLE_VERSION_RE.findall(doc)
                if tag == name]
    section = None
    for line in doc.splitlines():
        if line.startswith("## "):
            section = name in line
        elif section:
            for field, row in FIELD_VERSION_RE.findall(line):
                versions.append(int(field or row))
    return versions


def collect_scheme_kinds():
    text = CHECKPOINT_H.read_text()
    enum_body = ENUM_RE.search(text)
    if enum_body is None:
        sys.exit(f"error: no SchemeKind enum in {CHECKPOINT_H}")
    kinds = {int(v): n for n, v in ENUMERATOR_RE.findall(enum_body.group(1))}
    bounds = {m.group(1): int(m.group(2)) for m in BOUND_RE.finditer(text)}
    return kinds, bounds.get("Min"), bounds.get("Max")


def main():
    doc = DOC.read_text()
    headings = " ".join(
        line for line in doc.splitlines() if line.startswith("##")
    )
    problems = []

    magics, unnamed = collect_magics()
    if not magics:
        problems.append("scanner found no frame magics under src/ats "
                        "(pattern drift? fix MAGIC_RE)")
    for hex_literal, origin in unnamed:
        problems.append(
            f"{origin}: magic {hex_literal} has no // \"XXXX\" tag comment "
            f"(the checker needs it to match the doc section)")
    for name, (hex_literal, origin, version) in sorted(magics.items()):
        if name not in headings:
            problems.append(
                f"{name} ({origin}): no '## ...{name}...' section heading "
                f"in {DOC.relative_to(REPO)}")
        if hex_literal not in doc.lower():
            problems.append(
                f"{name} ({origin}): magic {hex_literal} not documented "
                f"in {DOC.relative_to(REPO)}")
        if version is None:
            problems.append(
                f"{name} ({origin}): no version constant beside the magic "
                f"(expected k<Prefix>Version = N for k<Prefix>Magic)")
            continue
        documented = documented_versions(doc, name)
        if not documented:
            problems.append(
                f"{name} ({origin}): version {version} not documented "
                f"(family table row or 'version u32 = N' field)")
        for v in sorted(set(documented) - {version}):
            problems.append(
                f"{name} ({origin}): documented version {v}, but the "
                f"source constant is {version}")

    kinds, lo, hi = collect_scheme_kinds()
    if not kinds:
        problems.append("scanner found no SchemeKind enumerators "
                        "(pattern drift? fix ENUMERATOR_RE)")
    for value, name in sorted(kinds.items()):
        if not re.search(rf"^\|\s*{value}\s*\|", doc, re.MULTILINE):
            problems.append(
                f"SchemeKind::k{name} = {value}: no '| {value} | ...' row "
                f"in the CKP1 kind table")
    if lo is not None and hi is not None:
        if f"[{lo}, {hi}]" not in doc:
            problems.append(
                f"documented kBadKind bound does not mention [{lo}, {hi}] "
                f"(checkpoint.h says kMin/kMaxSchemeKind = {lo}/{hi})")

    if problems:
        print("check_wire_docs: WIRE_FORMAT.md is incomplete:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"check_wire_docs: {len(magics)} frame magics with their "
          f"versions and {len(kinds)} scheme kinds all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
