"""Coverage subsystem: call graph, corpus scan, the P6xx family, the hunt.

The acceptance bar for the static leg is exact: the call graph's tag set
must equal the live case-study's instrumented universe, and every
instrumented function must land in exactly one of covered / blind spot /
unreachable / unmapped.  The mutation tests mirror the proflint idiom —
each P6xx code is provoked by the one defect it names (delete a call
edge -> P601, drop a capture -> P602, ...) and asserted by exact code.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil

import pytest

from repro.coverage.callgraph import ROOT_CATEGORIES, build_call_graph
from repro.coverage.corpus import CaptureCoverage, CorpusCoverage, scan_corpus
from repro.coverage.hunt import hunt_coverage
from repro.coverage.report import (
    build_coverage_report,
    coverage_diagnostics,
    render_coverage_json,
)
from repro.instrument.namefile import DUMMY_NAME, NameTable
from repro.instrument.tags import TagEntry
from repro.workloads import WORKLOAD_REGISTRY

GOLDEN = pathlib.Path(__file__).parent / "golden"
NAMES_FILE = GOLDEN / "case_study.tags"
SEED_CAPTURES = ("figure3_network_v2.mpf", "figure5_forkexec_v2.mpf")

#: Instrumented functions with no static path from any root: the known
#: dead instrumentation in the shipped kernel (asserted exactly so any
#: kernel or extractor change that silently grows/shrinks the set shows
#: up here).
KNOWN_DEAD = {
    "max",
    "ovbcopy",
    "setrunnable",
    "splclock",
    "splsoftclock",
    "untimeout",
    "vm_map_protect",
}


def codes(report) -> list[str]:
    return [diagnostic.code for diagnostic in report]


@pytest.fixture(scope="module")
def graph():
    return build_call_graph()


@pytest.fixture(scope="module")
def names():
    return NameTable.read(NAMES_FILE)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cov") / "corpus"
    root.mkdir()
    for name in SEED_CAPTURES:
        shutil.copy(GOLDEN / name, root / name)
    return root


@pytest.fixture(scope="module")
def corpus(corpus_dir, names):
    return scan_corpus(corpus_dir, names)


class TestCallGraph:
    def test_tags_equal_the_live_instrumented_universe(self, graph):
        from repro.system import build_case_study

        system = build_case_study()
        instrumented = {
            entry.name for entry in system.names if entry.name != DUMMY_NAME
        }
        assert set(graph.by_tag) == instrumented

    def test_all_root_categories_are_populated(self, graph):
        for category in ROOT_CATEGORIES:
            assert graph.roots[category], f"no {category} roots"

    def test_syscall_surface_is_reachable(self, graph):
        reachable = graph.reachable_tags()
        for tag in ("sys_fork", "sys_read", "sys_write", "swtch", "hardclock"):
            assert tag in reachable, f"{tag} should be statically reachable"

    def test_known_dead_instrumentation(self, graph):
        dead = set(graph.by_tag) - graph.reachable_tags()
        assert dead == KNOWN_DEAD

    def test_neighborhood_walks_both_directions(self, graph):
        # bcopy is a leaf called from many places: an undirected walk
        # must pull in caller-side tags, and the seed excludes itself.
        hood = graph.tag_neighborhood("bcopy", hops=2)
        assert "bcopy" not in hood
        assert len(hood) > 1

    def test_unknown_tag_has_empty_neighborhood(self, graph):
        assert graph.tag_neighborhood("no_such_fn") == frozenset()

    def test_root_restriction_shrinks_reachability(self, graph):
        syscall_only = graph.reachable_keys(categories=("syscall",))
        everything = graph.reachable_keys()
        assert syscall_only < everything


class TestCorpusScan:
    def test_capture_decodes_to_named_functions(self, corpus):
        row = corpus.captures[0]
        assert row.path.endswith(SEED_CAPTURES[0])
        assert row.ok
        assert row.records > 0
        assert row.observed
        assert DUMMY_NAME not in row.observed
        assert row.label == "cli: network"
        assert row.workload == "network"

    def test_corpus_groups_by_workload(self, corpus):
        groups = corpus.by_workload()
        assert sorted(groups) == ["forkexec", "network"]
        assert corpus.observed_union() == groups["network"] | groups["forkexec"]

    def test_unreadable_capture_is_carried_not_fatal(self, tmp_path, names):
        root = tmp_path / "corpus"
        root.mkdir()
        shutil.copy(GOLDEN / SEED_CAPTURES[0], root / SEED_CAPTURES[0])
        (root / "junk.mpf").write_bytes(b"not a capture at all")
        scanned = scan_corpus(root, names)
        assert len(scanned.captures) == 2
        assert len(scanned.failed) == 1
        assert scanned.failed[0].error
        assert scanned.observed_union()  # the good capture still counts

    def test_jobs_do_not_change_the_scan(self, corpus_dir, names):
        one = scan_corpus(corpus_dir, names, jobs=1)
        two = scan_corpus(corpus_dir, names, jobs=2)
        assert one == two


class TestCoverageReport:
    def test_every_function_classified_exactly_once(self, corpus, names, graph):
        report = build_coverage_report(corpus, names, graph=graph)
        universe = {
            entry.name for entry in names if entry.name != DUMMY_NAME
        }
        buckets = [
            set(report.covered),
            {spot.name for spot in report.blind_spots},
            {name for name, _ in report.unreachable},
            set(report.unmapped),
        ]
        assert set().union(*buckets) == universe
        assert sum(len(bucket) for bucket in buckets) == len(universe)
        assert not report.unmapped  # shipped names and sources agree

    def test_seed_corpus_has_blind_spots_not_errors(self, corpus, names, graph):
        report = build_coverage_report(corpus, names, graph=graph)
        diagnostics = coverage_diagnostics(report, graph=graph)
        assert set(codes(diagnostics)) == {"P601", "P602"}
        assert diagnostics.exit_code == 0  # warnings only

    def test_blind_spots_carry_workload_suggestions(self, corpus, names, graph):
        report = build_coverage_report(corpus, names, graph=graph)
        suggested = [
            spot for spot in report.blind_spots if spot.suggested_workload
        ]
        assert suggested, "no blind spot got a neighborhood suggestion"
        for spot in suggested:
            assert spot.suggested_workload in {"network", "forkexec"}
            assert spot.shared_neighbors > 0

    def test_p601_sites_point_at_definitions(self, corpus, names, graph):
        report = build_coverage_report(corpus, names, graph=graph)
        diagnostics = coverage_diagnostics(report, graph=graph)
        dead = [d for d in diagnostics if d.code == "P601"]
        assert {d.message.split()[0] for d in dead} == KNOWN_DEAD
        for diagnostic in dead:
            assert diagnostic.source.endswith(".py")
            assert diagnostic.line


class TestMutations:
    """Each P6xx code provoked by exactly the defect it names."""

    def test_p601_on_deleted_call_edge(self, tmp_path, corpus, names):
        # softclock is reachable only through its soft-interrupt
        # registration in Kernel.boot; neuter that one call edge and the
        # function must flip from blind spot to dead instrumentation.
        from repro.lint.ast_lint import kernel_source_root

        mutated = tmp_path / "kernel"
        shutil.copytree(kernel_source_root(), mutated)
        kernel_py = mutated / "kernel.py"
        text = kernel_py.read_text()
        assert "lambda: softclock(self)" in text
        kernel_py.write_text(
            text.replace("lambda: softclock(self)", "lambda: None")
        )
        graph = build_call_graph(kernel_root=mutated)
        assert "softclock" not in graph.reachable_tags()
        report = build_coverage_report(corpus, names, graph=graph)
        diagnostics = coverage_diagnostics(report, graph=graph)
        p601_names = {
            d.message.split()[0] for d in diagnostics if d.code == "P601"
        }
        assert p601_names == KNOWN_DEAD | {"softclock"}

    def test_p602_on_dropped_capture(self, tmp_path, corpus, names, graph):
        # Drop the forkexec capture: every reachable tag only it
        # observed must surface as a P602 blind spot.
        root = tmp_path / "corpus"
        root.mkdir()
        shutil.copy(GOLDEN / SEED_CAPTURES[0], root / SEED_CAPTURES[0])
        shrunk = scan_corpus(root, names)
        groups = corpus.by_workload()
        lost = groups["forkexec"] - groups["network"]
        lost &= graph.reachable_tags()
        assert lost, "forkexec observes nothing unique? corpus changed"
        report = build_coverage_report(shrunk, names, graph=graph)
        diagnostics = coverage_diagnostics(report, graph=graph)
        p602_names = {
            d.message.split()[0] for d in diagnostics if d.code == "P602"
        }
        assert lost <= p602_names

    def test_p603_on_redundant_workload(self, corpus, names, graph):
        # A synthetic second workload observing a strict subset of
        # network's tags contributes nothing unique.
        network = next(
            row for row in corpus.captures if row.workload == "network"
        )
        subset = frozenset(sorted(network.observed)[:5])
        redundant = CaptureCoverage(
            index=len(corpus.captures),
            path="synthetic.mpf",
            label="cli: fileread",
            workload="fileread",
            status="ok",
            records=10,
            observed=subset,
            unknown_tags=0,
        )
        doubled = CorpusCoverage(
            root=corpus.root, captures=corpus.captures + (redundant,)
        )
        report = build_coverage_report(doubled, names, graph=graph)
        diagnostics = coverage_diagnostics(report, graph=graph)
        redundant_rows = [
            d.message for d in diagnostics if d.code == "P603"
        ]
        assert any("'fileread'" in message for message in redundant_rows)

    def test_p604_on_namefile_tag_missing_from_sources(
        self, corpus, names, graph
    ):
        ghost = NameTable.read(NAMES_FILE)
        free = max(entry.value for entry in ghost) + 2
        ghost.add(TagEntry(name="ghost_fn", value=free))
        report = build_coverage_report(corpus, ghost, graph=graph)
        assert report.unmapped == ("ghost_fn",)
        diagnostics = coverage_diagnostics(report, graph=graph)
        assert "P604" in codes(diagnostics)
        assert diagnostics.exit_code == 1  # name/source disagreement is an error

    def test_p605_on_unreadable_capture(self, tmp_path, names, graph):
        root = tmp_path / "corpus"
        root.mkdir()
        shutil.copy(GOLDEN / SEED_CAPTURES[0], root / SEED_CAPTURES[0])
        (root / "junk.mpf").write_bytes(b"\x00" * 64)
        report = build_coverage_report(scan_corpus(root, names), names, graph=graph)
        assert len(report.failed) == 1
        assert report.failed[0][0] == "junk.mpf"  # basename, not path
        diagnostics = coverage_diagnostics(report, graph=graph)
        assert "P605" in codes(diagnostics)
        assert diagnostics.exit_code == 1


class TestDeterminism:
    def test_report_ignores_file_creation_order(self, tmp_path, names, graph):
        documents = []
        for order, parent in ((SEED_CAPTURES, "a"), (SEED_CAPTURES[::-1], "b")):
            root = tmp_path / parent / "corpus"
            root.mkdir(parents=True)
            for name in order:
                shutil.copy(GOLDEN / name, root / name)
            report = build_coverage_report(
                scan_corpus(root, names), names, graph=graph
            )
            documents.append(render_coverage_json(report))
        assert documents[0] == documents[1]

    def test_report_ignores_worker_count(self, corpus_dir, names, graph):
        documents = [
            render_coverage_json(
                build_coverage_report(
                    scan_corpus(corpus_dir, names, jobs=jobs),
                    names,
                    graph=graph,
                )
            )
            for jobs in (1, 2)
        ]
        assert documents[0] == documents[1]


def fake_runner(spec, params):
    """Deterministic stand-in: each workload 'observes' tags derived
    from its name and parameter values, so gains depend only on the
    drawn configuration."""
    tags = {f"{spec.name}:base"}
    for key, value in sorted(params.items()):
        tags.add(f"{spec.name}:{key}={value}")
    return frozenset(tags)


class TestHunt:
    def test_same_seed_same_hunt(self):
        kwargs = dict(seed=7, rounds=3, candidates=4, runner=fake_runner)
        first = hunt_coverage(frozenset(), **kwargs)
        second = hunt_coverage(frozenset(), **kwargs)
        assert first == second

    def test_gains_fold_into_covered(self):
        result = hunt_coverage(
            frozenset({"warm"}), seed=1, rounds=2, candidates=3,
            runner=fake_runner,
        )
        assert result.improved
        assert set(result.baseline) <= set(result.covered)
        for step in result.steps:
            assert step.gain == len(step.new_tags) > 0
            assert step.label.startswith(f"hunt: {step.workload} ")

    def test_params_are_validated_and_schema_ordered(self):
        result = hunt_coverage(
            frozenset(), seed=3, rounds=1, candidates=2, runner=fake_runner
        )
        for step in result.steps:
            spec = WORKLOAD_REGISTRY[step.workload]
            assert [key for key, _ in step.params] == [
                p.name for p in spec.params
            ]
            spec.validate(dict(step.params))  # in-schema or raises

    def test_saturated_baseline_yields_no_steps(self):
        # Enumerate the fake runner's whole tag space for one workload:
        # with every reachable tag already covered no round can gain.
        spec = WORKLOAD_REGISTRY["network"]
        baseline = {f"{spec.name}:base"}
        for param in spec.params:
            values = (
                param.choices
                if param.choices
                else range(param.lo, param.hi + 1)
            )
            baseline |= {
                f"{spec.name}:{param.name}={value}" for value in values
            }
        result = hunt_coverage(
            frozenset(baseline), seed=5, rounds=2, candidates=3,
            registry={"network": spec}, runner=fake_runner,
        )
        assert not result.improved
        assert not result.steps

    def test_live_fixed_seed_hunt_improves_seed_corpus(self, corpus):
        """The acceptance criterion: one fixed-seed round on a fresh
        simulated system strictly increases seed-corpus coverage."""
        baseline = corpus.observed_union()
        result = hunt_coverage(baseline, seed=1, rounds=1, candidates=2)
        assert result.improved
        assert result.gained
        again = hunt_coverage(baseline, seed=1, rounds=1, candidates=2)
        assert dataclasses.asdict(result) == dataclasses.asdict(again)
