#!/usr/bin/env python3
"""Fail on fixed temp-file names in the test suite.

Usage: check_test_temp_paths.py [DIR]   (default: tests)

ctest runs every gtest TEST as its own process, in parallel under -j, so
a string literal appended to ``::testing::TempDir()`` names one file that
every test using it shares: one test's truncating write can land under
another test's live mmap.  Tests build temp paths with
``test_support::unique_temp_path()`` (tests/support/temp_path.hpp), which
adds the suite, test name and pid.  This check scans every C++ source under
DIR, ignoring ``//`` comments, for ``TempDir() + "..."``,
``std::string(TempDir()) + "..."`` and ``fs::path(TempDir()) / "..."``,
and exits 1 listing each hit.
"""

import re
import sys
from pathlib import Path

FIXED = re.compile(r'TempDir\(\)\s*\)?\s*[+/]\s*"')
COMMENT = re.compile(r"//[^\n]*")
SOURCES = ("*.cpp", "*.hpp", "*.h", "*.cc")


def fixed_names(source: Path) -> list[int]:
    text = COMMENT.sub("", source.read_text(encoding="utf-8"))
    return [text.count("\n", 0, hit.start()) + 1 for hit in FIXED.finditer(text)]


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("tests")
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    hits = 0
    for pattern in SOURCES:
        for source in sorted(root.rglob(pattern)):
            for lineno in fixed_names(source):
                print(f"{source}:{lineno}: fixed TempDir() file name; "
                      "use test_support::unique_temp_path()")
                hits += 1
    return 1 if hits else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
