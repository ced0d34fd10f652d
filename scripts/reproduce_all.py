#!/usr/bin/env python3
"""Regenerate every preset's data files into out/reproduce/<name>/.

After each preset's summary line, prints ``sha256  path`` for every file
it wrote, so two checkouts can be compared for byte-identical output.
"""
import hashlib
import json
import sys
from pathlib import Path

from cfbounds.presets import REPRODUCERS, reproduce


def main() -> int:
    base = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/reproduce")
    for name in sorted(REPRODUCERS):
        result = reproduce(name, base / name)
        print(f"{name}: {json.dumps(result['summary'], default=str)}")
        for path in result["files"]:
            print(f"  {hashlib.sha256(Path(path).read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
