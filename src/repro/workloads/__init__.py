"""The case-study workloads, one per experiment — plus their registry.

Each workload builds the processes and remote hosts for one of the
paper's measurements and runs the kernel until the scenario completes.
They return small result records with the numbers the benchmarks check.

The **workload registry** (:data:`WORKLOAD_REGISTRY`) is the
machine-readable index over them: one :class:`WorkloadSpec` per CLI
workload name, carrying the runnable entry point, a parameter schema
(:class:`ParamSpec` — integer ranges or finite choices, with defaults),
the legacy ``--packets`` knob mapping, and the canonical capture-label
format.  ``repro workloads`` prints it, ``repro capture`` dispatches
through it, and the coverage hunter (:mod:`repro.coverage.hunt`) samples
its parameter spaces instead of hard-coding function references.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Optional

from repro.workloads.network_recv import NetworkReceiveResult, network_receive
from repro.workloads.network_send import NetworkSendResult, network_send
from repro.workloads.forkexec import ForkExecResult, fork_exec_storm
from repro.workloads.fileio import FileIoResult, file_write_storm, file_read_back
from repro.workloads.nfsio import NfsIoResult, nfs_read_stream
from repro.workloads.ttyio import TtyIoResult, attach_tty, type_and_read
from repro.workloads.mixed import MixedResult, mixed_activity
from repro.workloads.snmp import SnmpResult, snmp_agent_run


class WorkloadError(ValueError):
    """Unknown workload name or out-of-schema parameters."""


@dataclasses.dataclass(frozen=True)
class ParamSpec:
    """One workload parameter: an integer range or a finite choice set.

    ``lo``/``hi`` bound integer parameters (inclusive); ``choices``
    replaces them for enumerated parameters.  ``default`` always lies
    inside the schema — the registry self-check test asserts it.
    """

    name: str
    default: Any
    lo: Optional[int] = None
    hi: Optional[int] = None
    choices: Optional[tuple] = None
    doc: str = ""

    @property
    def kind(self) -> str:
        return "choice" if self.choices is not None else "int"

    def contains(self, value: Any) -> bool:
        if self.choices is not None:
            return value in self.choices
        return isinstance(value, int) and not isinstance(value, bool) and (
            self.lo is None or value >= self.lo
        ) and (self.hi is None or value <= self.hi)

    def check(self, value: Any) -> Any:
        if not self.contains(value):
            raise WorkloadError(
                f"parameter {self.name}={value!r} outside schema {self.describe()}"
            )
        return value

    def sample(self, rng: random.Random) -> Any:
        """Draw a uniform in-schema value (the hunter's explore move)."""
        if self.choices is not None:
            return rng.choice(self.choices)
        assert self.lo is not None and self.hi is not None
        return rng.randint(self.lo, self.hi)

    def perturb(self, rng: random.Random, current: Any) -> Any:
        """Nudge *current* within the schema (the hunter's exploit move).

        Integer parameters move by up to a quarter of their span (at
        least 1); choice parameters re-draw.  Always lands in-schema.
        """
        if self.choices is not None:
            return rng.choice(self.choices)
        assert self.lo is not None and self.hi is not None
        span = max(1, (self.hi - self.lo) // 4)
        value = current + rng.randint(-span, span)
        return min(self.hi, max(self.lo, value))

    def describe(self) -> str:
        if self.choices is not None:
            return f"{{{', '.join(str(c) for c in self.choices)}}}"
        return f"{self.lo}..{self.hi}"


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: entry point, schema, label and knob map.

    ``runner`` takes the built :class:`~repro.system.CaseStudySystem`
    plus validated keyword parameters — system-level needs (the tty
    attach, the SNMP agent's name table) live inside it, so every caller
    drives workloads the same way.  ``packets_map`` reproduces the
    legacy CLI ``--packets`` scaling exactly, keeping ``repro capture``
    byte-identical to the pre-registry dispatch.
    """

    name: str
    description: str
    func: Callable
    params: tuple[ParamSpec, ...]
    runner: Callable[[Any, dict], Any]
    packets_map: Callable[[int], dict]

    def defaults(self) -> dict:
        return {p.name: p.default for p in self.params}

    def schema(self) -> dict[str, ParamSpec]:
        return {p.name: p for p in self.params}

    def validate(self, params: dict) -> dict:
        """Defaults filled in, every override checked against the schema."""
        schema = self.schema()
        unknown = sorted(set(params) - set(schema))
        if unknown:
            raise WorkloadError(
                f"workload {self.name!r} has no parameter(s) {', '.join(unknown)}"
            )
        merged = self.defaults()
        for key, value in params.items():
            merged[key] = schema[key].check(value)
        return merged

    def run(self, system: Any, **params: Any) -> Any:
        """Run the workload on *system*'s kernel with validated params."""
        return self.runner(system, self.validate(params))

    def run_packets(self, system: Any, packets: int) -> Any:
        """The legacy CLI knob: one integer scaled onto the schema.

        Deliberately *not* range-checked: ``--packets`` predates the
        schema and may scale past the hunter's search ranges (they bound
        exploration, not operation).  Behaviour is byte-identical to the
        historical per-workload dispatch.
        """
        params = self.defaults()
        params.update(self.packets_map(packets))
        return self.runner(system, params)

    def sample(self, rng: random.Random) -> dict:
        return {p.name: p.sample(rng) for p in self.params}

    def label(self, params: Optional[dict] = None, prefix: str = "cli") -> str:
        """The canonical MPF2 capture label for a run of this workload.

        Without params: the classic ``cli: <name>`` the CLI has always
        written.  With params: the hunter's reproducible form,
        ``hunt: <name> key=value ...`` in schema order.
        """
        if params is None:
            return f"{prefix}: {self.name}"
        merged = self.validate(params)
        parts = " ".join(f"{p.name}={merged[p.name]}" for p in self.params)
        return f"{prefix}: {self.name} {parts}".rstrip()


def workload_for_label(label: str) -> Optional[str]:
    """Map a capture label back to its registry workload name.

    Accepts any ``<prefix>: <name> ...`` label the registry writes
    (``cli:``, ``hunt:``); returns ``None`` for labels the registry does
    not recognise (hand-rolled captures, empty MPF1 labels).
    """
    _, _, rest = label.partition(": ")
    name = rest.split(" ", 1)[0] if rest else ""
    return name if name in WORKLOAD_REGISTRY else None


#: Workload tag for captures whose label decodes to no registry workload.
UNLABELED = "<unlabeled>"


def workload_tag(label: str) -> str:
    """The grouping tag for one capture label.

    Registry labels (``cli: network``, ``hunt: network …``) group under
    the registry workload name; unrecognised labels group under the
    literal label; empty (MPF1) labels under :data:`UNLABELED`.
    """
    workload = workload_for_label(label)
    if workload is not None:
        return workload
    return label if label else UNLABELED


# -- the registry itself ------------------------------------------------------


def _network_runner(system: Any, p: dict) -> NetworkReceiveResult:
    return network_receive(
        system.kernel,
        total_packets=p["total_packets"],
        payload_bytes=p["payload_bytes"],
        read_size=p["read_size"],
    )


def _network_send_runner(system: Any, p: dict) -> NetworkSendResult:
    return network_send(system.kernel, total_bytes=p["total_bytes"], mss=p["mss"])


def _forkexec_runner(system: Any, p: dict) -> ForkExecResult:
    return fork_exec_storm(
        system.kernel, iterations=p["iterations"], touch_pages=p["touch_pages"]
    )


def _filewrite_runner(system: Any, p: dict) -> FileIoResult:
    return file_write_storm(
        system.kernel, nblocks=p["nblocks"], payload_byte=p["payload_byte"]
    )


def _fileread_runner(system: Any, p: dict) -> FileIoResult:
    return file_read_back(system.kernel, nblocks=p["nblocks"])


def _nfs_runner(system: Any, p: dict) -> NfsIoResult:
    return nfs_read_stream(
        system.kernel,
        file_bytes=p["file_bytes"],
        read_chunk=p["read_chunk"],
        with_checksums=bool(p["with_checksums"]),
        readahead_streams=p["readahead_streams"],
    )


def _mixed_runner(system: Any, p: dict) -> MixedResult:
    return mixed_activity(
        system.kernel,
        rounds=p["rounds"],
        faults_per_round=p["faults_per_round"],
        allocs_per_round=p["allocs_per_round"],
    )


def _tty_runner(system: Any, p: dict) -> TtyIoResult:
    attach_tty(system.kernel)
    return type_and_read(
        system.kernel, text="profile me please\n" * p["lines"]
    )


def _snmp_runner(mib_kind: str) -> Callable[[Any, dict], SnmpResult]:
    def run(system: Any, p: dict) -> SnmpResult:
        return snmp_agent_run(
            system.kernel,
            mib_kind=mib_kind,
            mib_size=p["mib_size"],
            requests=p["requests"],
            names=system.names,
        )

    return run


def _specs() -> tuple[WorkloadSpec, ...]:
    return (
        WorkloadSpec(
            name="network",
            description="TCP receive test (Figures 3/4): the SPARC sender "
            "saturates the PC",
            func=network_receive,
            params=(
                ParamSpec("total_packets", 60, 4, 90, doc="packets the SPARC sends"),
                ParamSpec("payload_bytes", 1024, 64, 2048, doc="TCP payload per packet"),
                ParamSpec("read_size", 4096, 512, 8192, doc="read(2) buffer size"),
            ),
            runner=_network_runner,
            packets_map=lambda packets: {"total_packets": packets},
        ),
        WorkloadSpec(
            name="network-send",
            description="TCP transmit test: the PC streams out to a discard sink",
            func=network_send,
            params=(
                ParamSpec("total_bytes", 32 * 1024, 2048, 65536, doc="bytes streamed out"),
                ParamSpec("mss", 1024, 256, 1460, doc="sender segment size"),
            ),
            runner=_network_send_runner,
            packets_map=lambda packets: {"total_bytes": packets * 1024},
        ),
        WorkloadSpec(
            name="forkexec",
            description="fork/exec storm (Figure 5)",
            func=fork_exec_storm,
            params=(
                ParamSpec("iterations", 3, 1, 6, doc="fork/exec/exit/wait rounds"),
                ParamSpec("touch_pages", 12, 2, 24, doc="pages the child faults in"),
            ),
            runner=_forkexec_runner,
            packets_map=lambda packets: {"iterations": max(1, packets // 15)},
        ),
        WorkloadSpec(
            name="filewrite",
            description="FFS asynchronous write storm",
            func=file_write_storm,
            params=(
                ParamSpec("nblocks", 24, 4, 40, doc="full blocks written then synced"),
                ParamSpec("payload_byte", 0x5A, 0, 255, doc="fill byte of every block"),
            ),
            runner=_filewrite_runner,
            packets_map=lambda packets: {"nblocks": max(4, packets // 2)},
        ),
        WorkloadSpec(
            name="fileread",
            description="seek-heavy alternating file reads",
            func=file_read_back,
            params=(
                ParamSpec("nblocks", 12, 4, 24, doc="blocks read from each far file"),
            ),
            runner=_fileread_runner,
            packets_map=lambda packets: {"nblocks": max(4, packets // 4)},
        ),
        WorkloadSpec(
            name="nfs",
            description="NFS read stream (UDP checksums off)",
            func=nfs_read_stream,
            params=(
                ParamSpec("file_bytes", 64 * 1024, 8192, 131072, doc="exported file size"),
                ParamSpec("read_chunk", 8192, 1024, 16384, doc="client read size"),
                ParamSpec("with_checksums", 0, choices=(0, 1), doc="UDP checksums on"),
                ParamSpec("readahead_streams", 4, 1, 6, doc="concurrent READ streams"),
            ),
            runner=_nfs_runner,
            packets_map=lambda packets: {"file_bytes": packets * 1024},
        ),
        WorkloadSpec(
            name="mixed",
            description="a bit of everything (Table 1 population)",
            func=mixed_activity,
            params=(
                ParamSpec("rounds", 6, 2, 10, doc="activity rounds"),
                ParamSpec("faults_per_round", 8, 2, 12, doc="page faults per round"),
                ParamSpec("allocs_per_round", 5, 1, 8, doc="malloc/free pairs per round"),
            ),
            runner=_mixed_runner,
            packets_map=lambda packets: {"rounds": max(2, packets // 8)},
        ),
        WorkloadSpec(
            name="tty",
            description="character-input interrupts (typing at a shell)",
            func=type_and_read,
            params=(
                ParamSpec("lines", 3, 1, 12, doc="'profile me please' lines typed"),
            ),
            runner=_tty_runner,
            packets_map=lambda packets: {"lines": max(1, packets // 10)},
        ),
        WorkloadSpec(
            name="snmp-linear",
            description="user-level profiled SNMP agent, linear MIB",
            func=snmp_agent_run,
            params=(
                ParamSpec("requests", 25, 5, 50, doc="SNMP GETs answered"),
                ParamSpec("mib_size", 400, 50, 600, doc="MIB entries"),
            ),
            runner=_snmp_runner("linear"),
            packets_map=lambda packets: {"requests": packets},
        ),
        WorkloadSpec(
            name="snmp-btree",
            description="user-level profiled SNMP agent, B-tree MIB",
            func=snmp_agent_run,
            params=(
                ParamSpec("requests", 25, 5, 50, doc="SNMP GETs answered"),
                ParamSpec("mib_size", 400, 50, 600, doc="MIB entries"),
            ),
            runner=_snmp_runner("btree"),
            packets_map=lambda packets: {"requests": packets},
        ),
    )


#: name -> WorkloadSpec, in presentation order.  The single source of
#: truth for CLI choices, descriptions and the hunter's search space.
WORKLOAD_REGISTRY: dict[str, WorkloadSpec] = {spec.name: spec for spec in _specs()}


def get_workload(name: str) -> WorkloadSpec:
    """Registry lookup with a workload-flavoured error."""
    spec = WORKLOAD_REGISTRY.get(name)
    if spec is None:
        raise WorkloadError(
            f"unknown workload {name!r}; pick one of "
            f"{', '.join(sorted(WORKLOAD_REGISTRY))}"
        )
    return spec


def format_registry() -> str:
    """The ``repro workloads`` listing: descriptions plus schemas."""
    lines = []
    for spec in WORKLOAD_REGISTRY.values():
        lines.append(f"  {spec.name:<12} {spec.description}")
        for param in spec.params:
            lines.append(
                f"      {param.name}={param.default}  ({param.describe()})"
                + (f"  {param.doc}" if param.doc else "")
            )
    return "\n".join(lines)


def registry_json() -> list[dict]:
    """The stable machine-readable form of the registry (name-sorted)."""
    out = []
    for _, spec in sorted(WORKLOAD_REGISTRY.items()):
        out.append(
            {
                "name": spec.name,
                "description": spec.description,
                "entry_point": f"{spec.func.__module__}.{spec.func.__name__}",
                "params": [
                    {
                        "name": p.name,
                        "kind": p.kind,
                        "default": p.default,
                        "lo": p.lo,
                        "hi": p.hi,
                        "choices": list(p.choices) if p.choices is not None else None,
                        "doc": p.doc,
                    }
                    for p in spec.params
                ],
            }
        )
    return out
