#!/usr/bin/env python3
"""Lint mixed atomic/plain struct layouts.

A struct that mixes std::atomic members with plain fields is a data race
waiting to happen: the atomics invite lock-free concurrent access, and any
plain field in the same object is then one forgotten happens-before edge away
from UB (exactly the class of bug behind the Frame.key/vaddr races). This
lint scans src/ and bench/ for `struct` definitions and requires every
non-atomic data member of an atomic-bearing struct to carry a written
protection contract:

    uint64_t gpa = 0;  // guarded-by: written once under grow_lock_ ...

ShardedCounter (src/util/sharded_counter.h) counts as an atomic member type:
its shards are atomics.

A second rule keeps the fault path's statistics sharded (DESIGN.md §8): a
`struct ...Stats` under src/core, src/cache or src/mem, and DeviceStats, may
not declare a raw `std::atomic<uint64_t>` counter; such fields are
ShardedCounter, so recording one never moves a shared cache line.

Exempt without annotation:
  - const / constexpr members (immutable after construction);
  - synchronization primitives (SpinLock, RwSpinLock, std::mutex, ...) —
    they ARE the guard;
  - static / using / typedef / friend declarations and member functions.

Classes (`class` keyword) are not scanned: their private members are covered
by the class's own synchronization discipline; `struct` is this codebase's
convention for shared plain-data records, which is where the hazard lives.

Usage: check_atomics.py [repo_root]
Exits nonzero with a report on any violation.
"""

import os
import re
import sys

SCAN_DIRS = ("src", "bench")
EXTENSIONS = (".h", ".cc", ".cpp")

STRUCT_HEAD_RE = re.compile(r"\bstruct(\s+alignas\s*\([^)]*\))?\s+(\w+)[^;{)]*\{")
ANNOTATION = "guarded-by:"

# Declaration prefixes that are not data members.
SKIP_PREFIX_RE = re.compile(
    r"^\s*(static|using|typedef|friend|template|enum|struct|class|union|"
    r"public|private|protected|explicit|operator)\b"
)
ATOMIC_RE = re.compile(r"\bstd\s*::\s*atomic\b|\batomic<|\bShardedCounter\b")
RAW_COUNTER_RE = re.compile(r"\bstd\s*::\s*atomic\s*<\s*(std\s*::\s*)?uint64_t\s*>")
SHARDED_STATS_DIRS = ("src/core/", "src/cache/", "src/mem/")
CONST_RE = re.compile(r"^\s*(mutable\s+)?(static\s+)?const(expr)?\b")
# Types that are themselves synchronization primitives.
SYNC_TYPE_RE = re.compile(
    r"\b(SpinLock|RwSpinLock|std\s*::\s*(mutex|shared_mutex|recursive_mutex|"
    r"timed_mutex|condition_variable\w*|once_flag))\b"
)


def strip_block_comments_and_strings(text: str) -> str:
    """Removes /*...*/ and string-literal contents (keeps // comments, which
    carry the guarded-by annotations)."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    return re.sub(r'"(?:[^"\\\n]|\\.)*"', '""', text)


def extract_body(text: str, open_brace: int) -> str:
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1 : i]
    return text[open_brace + 1 :]  # unbalanced: lint what we can


def split_declarations(body: str):
    """Yields (decl_text, line_offset) for each depth-0 statement of a struct
    body. Characters inside // comments are kept in the statement text (they
    carry the guarded-by annotations) but are never structural: a ';' in a
    comment does not terminate a declaration. A declaration ends at its
    structural ';' plus the remainder of that line, so a trailing
    '// guarded-by:' comment lands in the right statement. Nested {...}
    groups (functions, nested types, brace initializers) are consumed; a
    group preceded by '(' marks a function/constructor definition, which
    terminates the statement."""
    decl = []
    depth = 0
    line = 0
    start_line = 0
    in_comment = False
    pending = False  # structural ';' seen; flush at end of this line
    for ch in body:
        if depth == 0 and not decl and not pending:
            start_line = line
        decl.append(ch)
        if ch == "\n":
            line += 1
            in_comment = False
            if pending:
                yield "".join(decl), start_line
                decl = []
                pending = False
            continue
        if in_comment:
            continue
        if len(decl) >= 2 and decl[-1] == "/" and decl[-2] == "/":
            in_comment = True
            continue
        if pending:
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                code = re.sub(r"//[^\n]*", "", "".join(decl))
                if "(" in code:
                    decl = []  # function / constructor body just closed
        elif ch == ";" and depth == 0:
            pending = True
    if decl and pending:
        yield "".join(decl), start_line


def member_name(decl: str) -> str:
    flat = re.sub(r"//[^\n]*", "", decl)
    flat = re.sub(r"\{[^}]*\}", "", flat)
    flat = flat.split("=")[0]
    m = re.search(r"(\w+)\s*(\[[^\]]*\]\s*)?;?\s*$", flat.strip().rstrip(";"))
    return m.group(1) if m else flat.strip()


def must_shard(rel: str, name: str) -> bool:
    if name == "DeviceStats":
        return True
    return name.endswith("Stats") and rel.replace(os.sep, "/").startswith(SHARDED_STATS_DIRS)


def lint_struct(rel: str, name: str, body: str, base_line: int, errors: list):
    decls = list(split_declarations(body))
    if must_shard(rel, name):
        for decl, off in decls:
            code = re.sub(r"//[^\n]*", "", decl)
            if RAW_COUNTER_RE.search(code):
                errors.append(
                    f"{rel}:{base_line + off}: struct {name}: statistics field "
                    f"'{member_name(code)}' is a raw std::atomic<uint64_t>; "
                    f"use ShardedCounter (DESIGN.md §8)"
                )
    has_atomic = any(
        ATOMIC_RE.search(re.sub(r"//[^\n]*", "", d)) for d, _ in decls)
    if not has_atomic:
        return False
    for decl, off in decls:
        code = re.sub(r"//[^\n]*", "", decl)
        if ";" not in decl or not code.strip():
            continue
        if SKIP_PREFIX_RE.match(code.strip()):
            continue
        if "(" in code:  # member function declaration (or function pointer —
            continue  # annotate via a wrapper struct if one ever appears)
        if ATOMIC_RE.search(code) or CONST_RE.match(code.strip()):
            continue
        if SYNC_TYPE_RE.search(code):
            continue
        if ANNOTATION in decl:
            continue
        errors.append(
            f"{rel}:{base_line + off}: struct {name}: plain field "
            f"'{member_name(code)}' in an atomic-bearing struct needs a "
            f"'// {ANNOTATION} <what serializes access>' annotation"
        )
    return True


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    errors = []
    structs_seen = 0
    atomic_structs = 0

    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        for dirpath, _, filenames in os.walk(base):
            for filename in sorted(filenames):
                if not filename.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as f:
                    text = strip_block_comments_and_strings(f.read())
                rel = os.path.relpath(path, root)
                for m in STRUCT_HEAD_RE.finditer(text):
                    structs_seen += 1
                    open_brace = text.index("{", m.start())
                    body = extract_body(text, open_brace)
                    head_line = text.count("\n", 0, open_brace) + 1
                    if lint_struct(rel, m.group(2), body, head_line, errors):
                        atomic_structs += 1

    if structs_seen == 0:
        print("check_atomics: found no struct definitions — wrong root?")
        return 1
    for err in errors:
        print(err)
    if errors:
        print(f"check_atomics: {len(errors)} violation(s)")
        return 1
    print(f"check_atomics: {atomic_structs}/{structs_seen} atomic-bearing "
          f"structs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
