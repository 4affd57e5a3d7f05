#!/usr/bin/env python3
"""Fail when a component class overrides handle_event() without declaring
accepted_events().

The realization routes broadcast control events with each component's
accepted_events() (docs/ARCHITECTURE.md, control events). A class that
handles events without saying which ones inherits its base's declaration,
which may be narrower than what its handler needs: those broadcasts would
be dropped without a trace. This scan keeps every handler in the tree
explicitly declared.

Usage: python3 scripts/check_accepted_events.py [DIR ...]   (default: src)
"""
import os
import re
import sys

CLASS_HEAD = re.compile(
    r"(?<!enum)\s(?:class|struct)\s+(\w+)(?:\s+final)?\s*(?::[^;{}]*)?$")
COMMENT_OR_LITERAL = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.S)


def class_bodies(text):
    """Yields (name, text at the class's own brace depth) for every class."""
    text = COMMENT_OR_LITERAL.sub(" ", text)
    stack = []  # per open brace: [name, own text] for classes, None otherwise
    found = []
    stmt_start = 0
    for i, ch in enumerate(text):
        if ch == "{":
            m = CLASS_HEAD.search(" " + text[stmt_start:i])
            entry = [m.group(1), []] if m else None
            stack.append(entry)
            if entry is not None:
                found.append(entry)
            stmt_start = i + 1
        elif ch == "}":
            if stack:
                stack.pop()
            stmt_start = i + 1
        elif ch == ";":
            stmt_start = i + 1
        if stack and stack[-1] is not None and ch not in "{}":
            stack[-1][1].append(ch)
    for name, chars in found:
        yield name, "".join(chars)


def main(argv):
    roots = argv[1:] or ["src"]
    bad = []
    for root in roots:
        for dirpath, _, files in os.walk(root):
            for f in sorted(files):
                if not f.endswith((".hpp", ".cpp", ".h")):
                    continue
                path = os.path.join(dirpath, f)
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                for name, body in class_bodies(text):
                    if (re.search(r"\bhandle_event\s*\(", body) and
                            not re.search(r"\baccepted_events\s*\(", body)):
                        bad.append(f"{path}: class {name} overrides "
                                   "handle_event() without accepted_events()")
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        print(f"{len(bad)} undeclared handler(s): declare the broadcast "
              "event types each handle_event() reacts to", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
