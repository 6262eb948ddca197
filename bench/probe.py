"""Fresh-process probes for the cold costs that no in-process run sees.

``python -X importtime probe.py cli <argv...>`` runs one betalab command the
way ``python -m betalab.cli`` does, printing the command's own output, and
writes its import, parse and execute times as JSON on the last line of
stderr.  ``python probe.py nodes`` times the first quadrature call of a
fresh process minus a warm repeat of it: the node-table build.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _cli(argv: list) -> int:
    t0 = perf_counter()
    from betalab import cli

    t1 = perf_counter()
    inv = cli.parse(argv)
    t2 = perf_counter()
    code = cli.execute(inv)
    t3 = perf_counter()
    sys.stdout.flush()
    import json

    timing = {"import_ms": (t1 - t0) * 1e3, "parse_ms": (t2 - t1) * 1e3,
              "exec_ms": (t3 - t2) * 1e3}
    print(json.dumps(timing), file=sys.stderr)
    return code


def _nodes() -> int:
    from betalab import quadrature

    t0 = perf_counter()
    quadrature.beta_integral(0.5, 0.5)
    t1 = perf_counter()
    quadrature.beta_integral(0.5, 0.5)
    t2 = perf_counter()
    print(((t1 - t0) - (t2 - t1)) * 1e3)
    return 0


def import_self_ms(stderr: str) -> dict:
    """Import time of each betalab module from ``-X importtime`` output.

    A module is charged its own time plus that of every non-betalab module
    it pulled in (argparse for cli, csv for verify, ...), so the figures
    add up to the time ``import betalab.cli`` took.
    """
    rows = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0])
        except ValueError:
            continue  # the header line
        name = parts[2]
        rows.append((len(name) - len(name.lstrip()), name.strip(), self_us))
    owners: dict = {}
    stack: list = []  # (level, owner) of the enclosing imports
    for level, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        owner = name if name.startswith("betalab") else (stack[-1][1] if stack else None)
        if owner is not None:
            owners[owner] = owners.get(owner, 0.0) + self_us / 1e3
        stack.append((level, owner))
    return owners


if __name__ == "__main__":
    if sys.argv[1:2] == ["cli"]:
        raise SystemExit(_cli(sys.argv[2:]))
    if sys.argv[1:2] == ["nodes"]:
        raise SystemExit(_nodes())
    print("usage: probe.py cli <argv...> | probe.py nodes", file=sys.stderr)
    raise SystemExit(2)
