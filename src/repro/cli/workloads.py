"""``repro workloads``: the workload registry, for people and for tools."""

from __future__ import annotations

import argparse
from typing import Callable


def cmd_workloads(args: argparse.Namespace, out: Callable) -> int:
    """``repro workloads``: the machine-readable workload registry.

    Text mode prints each workload with its parameter schema (name,
    default, range); ``--json`` emits the stable machine-readable form
    the hunt driver and fleet labelling consume.
    """
    from repro.workloads import format_registry, registry_json

    if getattr(args, "json", False):
        import json

        out(json.dumps(registry_json(), indent=1))
    else:
        out(format_registry())
    return 0


def arguments(workloads: argparse.ArgumentParser) -> None:
    workloads.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable registry (stable schema)",
    )
    workloads.set_defaults(func=cmd_workloads)
