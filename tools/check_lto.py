#!/usr/bin/env python3
"""Check that a CMake build tree links its targets with link-time optimisation.

src/CMakeLists.txt decides whether a build is LTO'd and prints the decision
as one configure line ("decongestant: link-time optimisation on|off ...").
This re-runs the configure step of BUILD_DIR to read that line, looks for
LTO objects (GCC's .gnu.lto_ sections, LLVM bitcode members) in libdecongestant.a,
then reads each TARGET's link command (link.txt under the Makefile
generators, `ninja -t commands` under Ninja) and looks for an -flto flag
in it. A link is LTO only when both hold.

Usage: python3 tools/check_lto.py [--report-only] BUILD_DIR TARGET...

Exits 1 when the configure line is missing, or says LTO is on while the
library holds no LTO objects or a target's link is not LTO. --report-only
prints the same lines and exits 0.
"""

import argparse
import pathlib
import re
import subprocess
import sys

DECISION = re.compile(r"decongestant: link-time optimisation (on|off)\b.*")


def link_command(build, target):
    """The command that links `target`, or None when none is found."""
    link_txt = next(build.glob(f"**/CMakeFiles/{target}.dir/link.txt"), None)
    if link_txt is not None:
        return link_txt.read_text()
    if (build / "build.ninja").exists():
        done = subprocess.run(["ninja", "-C", str(build), "-t", "commands",
                               target], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            return lines[-1]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report-only", action="store_true")
    parser.add_argument("build_dir", type=pathlib.Path)
    parser.add_argument("targets", nargs="+")
    args = parser.parse_args()

    configure = subprocess.run(["cmake", str(args.build_dir)],
                               capture_output=True, text=True)
    if configure.returncode != 0:
        sys.stdout.write(configure.stdout + configure.stderr)
        sys.exit(f"check_lto: re-configuring {args.build_dir} failed")
    decision = DECISION.search(configure.stdout)
    if decision is None:
        print(f"{args.build_dir}: the configure output states no LTO "
              "decision")
        return 0 if args.report_only else 1
    print(f"{args.build_dir}: {decision.group(0)}")

    unlinked = []
    library = next(args.build_dir.glob("**/libdecongestant.a"), None)
    if library is None:
        sys.exit(f"check_lto: no libdecongestant.a in {args.build_dir}")
    data = library.read_bytes()
    # An archive member's data follows its header's "`\n" terminator.
    lto_objects = b".gnu.lto_" in data or b"`\nBC\xc0\xde" in data
    print(f"  {library.name}: {'LTO' if lto_objects else 'plain'} objects")
    if not lto_objects:
        unlinked.append(library.name)
    for target in args.targets:
        command = link_command(args.build_dir, target)
        if command is None:
            sys.exit(f"check_lto: no link command for {target} in "
                     f"{args.build_dir}")
        lto = re.search(r"(^|\s)-flto\b", command) is not None
        print(f"  {target}: {'LTO' if lto else 'not LTO'}-linked")
        if not lto:
            unlinked.append(target)
    if decision.group(1) == "on" and unlinked and not args.report_only:
        print("LTO is on, but these are not LTO: " + ", ".join(unlinked))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
