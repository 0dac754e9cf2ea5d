"""The machine-readable workload registry (``repro workloads``).

The registry is the contract between three consumers: the capture CLI
(legacy ``--packets`` mapping, whose labels are baked into golden MPF2
files and must never change), the coverage reports (label -> workload
grouping) and the hunt driver (schemas, sampling, perturbation).
"""

from __future__ import annotations

import importlib
import json
import random
import types

import pytest

from repro.__main__ import main
from repro.workloads import (
    WORKLOAD_REGISTRY,
    WorkloadError,
    format_registry,
    get_workload,
    registry_json,
    workload_for_label,
)

EXPECTED_NAMES = {
    "network", "network-send", "forkexec", "filewrite", "fileread",
    "nfs", "mixed", "tty", "snmp-linear", "snmp-btree",
}


def run_cli(*argv: str) -> tuple[int, str]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines)


class TestRegistryShape:
    def test_registry_names(self):
        assert set(WORKLOAD_REGISTRY) == EXPECTED_NAMES

    def test_every_param_default_is_in_schema(self):
        for spec in WORKLOAD_REGISTRY.values():
            assert spec.description
            for param in spec.params:
                assert param.doc, f"{spec.name}.{param.name} lacks a doc"
                assert param.contains(param.default), (
                    f"{spec.name}.{param.name} default out of schema"
                )

    def test_get_workload_rejects_unknown(self):
        with pytest.raises(WorkloadError):
            get_workload("no-such-workload")


class TestValidation:
    def test_unknown_param_rejected(self):
        spec = get_workload("network")
        with pytest.raises(WorkloadError):
            spec.validate({"bogus": 1})

    def test_out_of_range_rejected(self):
        spec = get_workload("network")
        hi = dict(spec.defaults())
        hi["total_packets"] = 10_000
        with pytest.raises(WorkloadError):
            spec.validate(hi)

    def test_defaults_validate_clean(self):
        for spec in WORKLOAD_REGISTRY.values():
            assert spec.validate(spec.defaults()) == spec.defaults()

    def test_sample_and_perturb_stay_in_schema(self):
        rng = random.Random(42)
        for spec in WORKLOAD_REGISTRY.values():
            for _ in range(20):
                sample = spec.sample(rng)
                spec.validate(sample)
                perturbed = {
                    param.name: param.perturb(rng, sample[param.name])
                    for param in spec.params
                }
                spec.validate(perturbed)


class TestLabels:
    def test_cli_label_is_the_legacy_format(self):
        # Baked into the golden v2 MPF2 captures: never change this.
        assert get_workload("network").label() == "cli: network"

    def test_parameterised_label_roundtrips(self):
        rng = random.Random(7)
        for spec in WORKLOAD_REGISTRY.values():
            label = spec.label(spec.sample(rng), prefix="hunt")
            assert label.startswith(f"hunt: {spec.name}")
            assert workload_for_label(label) == spec.name

    def test_unknown_labels_do_not_parse(self):
        assert workload_for_label("TCP receive (golden)") is None
        assert workload_for_label("") is None
        assert workload_for_label("cli: no-such-workload") is None


class TestPacketsCompatibility:
    """The legacy --packets knob maps onto registry parameters."""

    def test_packets_maps_reproduce_legacy_sizes(self):
        cases = {
            "network": {"total_packets": 30},
            "network-send": {"total_bytes": 30 * 1024},
            "forkexec": {"iterations": 2},
            "filewrite": {"nblocks": 15},
            "fileread": {"nblocks": 7},
            "nfs": {"file_bytes": 30 * 1024},
            "mixed": {"rounds": 3},
            "tty": {"lines": 3},
            "snmp-linear": {"requests": 30},
            "snmp-btree": {"requests": 30},
        }
        for name, expected in cases.items():
            mapped = WORKLOAD_REGISTRY[name].packets_map(30)
            for key, value in expected.items():
                assert mapped[key] == value, (name, key)

    def test_run_packets_is_not_range_checked(self):
        # --packets is an operational knob: sizes outside the hunt
        # schema (e.g. 200) must keep working exactly as before.
        from repro.system import build_case_study

        system = build_case_study()
        get_workload("fileread").run_packets(system, 200)


class TestCliListing:
    def test_text_listing_names_every_workload(self):
        code, text = run_cli("workloads")
        assert code == 0
        for spec in WORKLOAD_REGISTRY.values():
            assert spec.name in text
            for param in spec.params:
                assert param.name in text
        assert text == format_registry()

    def test_json_listing_is_the_stable_schema(self):
        code, text = run_cli("workloads", "--json")
        assert code == 0
        document = json.loads(text)
        assert document == registry_json()
        assert [row["name"] for row in document] == sorted(EXPECTED_NAMES)
        for row in document:
            assert set(row) == {
                "name", "description", "entry_point", "params"
            }
            for param in row["params"]:
                assert param["name"]
                assert "default" in param


class TestEntryPoints:
    """The registry imports no workload module; each entry point it
    lists names the function its runner calls, imported when it runs."""

    @pytest.mark.parametrize("row", registry_json(), ids=lambda row: row["name"])
    def test_entry_point_is_the_callable_the_runner_calls(self, monkeypatch, row):
        from repro.workloads import ttyio

        module_name, _, attr = row["entry_point"].rpartition(".")
        module = importlib.import_module(module_name)
        assert WORKLOAD_REGISTRY[row["name"]].func is getattr(module, attr)
        calls = []

        def stand_in(*args, **kwargs):
            calls.append(args)
            return "ran"

        monkeypatch.setattr(module, attr, stand_in)
        monkeypatch.setattr(ttyio, "attach_tty", lambda kernel: None)
        system = types.SimpleNamespace(kernel=object(), names=object())
        assert WORKLOAD_REGISTRY[row["name"]].run(system) == "ran"
        assert calls == [(system.kernel,)]
