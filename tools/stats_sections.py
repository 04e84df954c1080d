#!/usr/bin/env python3
"""Print the simulated sections of an nvo_sim stats JSON.

    python3 tools/stats_sections.py run.stats.json > sections.json

Keeps the `stats` and `ledger` sections of a `stats_json=` file and
drops every key whose name starts with `host_` (host wall-clock
timers), at any depth. What is left depends only on the simulated run,
so it is byte-identical for a fixed config and seed. The `gate`
ctest tests compare it with the files under tests/data/ for the
perfbench configs run at full size (tools/gate.py --filter sections).
"""

import json
import sys


def drop_host(node):
    if isinstance(node, dict):
        return {k: drop_host(v) for k, v in node.items()
                if not k.startswith("host_")}
    if isinstance(node, list):
        return [drop_host(v) for v in node]
    return node


def sections(run):
    """The simulated sections of a parsed stats JSON, as file text."""
    out = {name: drop_host(run[name]) for name in ("stats", "ledger")}
    return json.dumps(out, indent=1) + "\n"


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        sys.stdout.write(sections(json.load(f)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
