"""Coverage-guided workload hunting: perturb parameters toward blind spots.

The closed loop over the coverage report.  Given the corpus's baseline
observed-tag set, the hunter runs a seeded greedy search:

1. each round draws *candidates* workload configurations from the
   registry — a workload name and an in-schema parameter sample from
   :meth:`repro.workloads.WorkloadSpec.sample`, biased toward
   perturbations of the best configuration found so far
   (:meth:`ParamSpec.perturb`, the exploit move);
2. every candidate runs on a **fresh** case-study system (simulated
   time only — candidate cost is wall-clock cheap and fully
   deterministic), and its capture decodes to an observed-tag set;
3. the candidate observing the most tags *not yet covered* wins the
   round (ties break on the smaller ``(workload, params)`` sort key, so
   the chosen parameters are reproducible run over run), its new tags
   fold into the covered set, and its capture label —
   ``hunt: <workload> key=value ...`` — names exactly the run that
   found them.

Determinism is the contract: the same ``(seed, rounds, candidates,
baseline)`` always selects the same configurations and reports the same
coverage, which is what lets CI assert "one fixed-seed hunt round
strictly increases seed-corpus coverage" as a regression test.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional

from repro.instrument.namefile import DUMMY_NAME
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.workloads import WORKLOAD_REGISTRY, WorkloadSpec

#: Evaluate a candidate: (spec, params) -> observed tag names.
CandidateRunner = Callable[[WorkloadSpec, dict], frozenset]


@dataclasses.dataclass(frozen=True)
class HuntStep:
    """One round's winning configuration."""

    round: int
    workload: str
    #: Validated parameters, in schema order.
    params: tuple[tuple[str, object], ...]
    label: str
    #: Tags this run added to the covered set, sorted.
    new_tags: tuple[str, ...]
    #: Total distinct tags the run observed.
    observed: int

    @property
    def gain(self) -> int:
        return len(self.new_tags)


@dataclasses.dataclass(frozen=True)
class HuntResult:
    """The whole hunt: baseline, chosen steps, final coverage."""

    seed: int
    rounds: int
    candidates: int
    baseline: tuple[str, ...]
    steps: tuple[HuntStep, ...]
    covered: tuple[str, ...]

    @property
    def improved(self) -> bool:
        return len(self.covered) > len(self.baseline)

    @property
    def gained(self) -> tuple[str, ...]:
        baseline = set(self.baseline)
        return tuple(tag for tag in self.covered if tag not in baseline)


def default_candidate_runner(spec: WorkloadSpec, params: dict) -> frozenset:
    """Build a fresh case study, run the candidate, decode its tags."""
    from repro.system import build_case_study

    system = build_case_study()
    capture = system.profile(
        lambda: spec.run(system, **params),
        label=spec.label(params, prefix="hunt"),
    )
    observed = set()
    for value in set(capture.records.tags):
        decoded = system.names.decode(value)
        if decoded is not None:
            observed.add(decoded[0].name)
    observed.discard(DUMMY_NAME)
    return frozenset(observed)


def _sort_key(workload: str, params: dict, spec: WorkloadSpec):
    return (workload, tuple(params[p.name] for p in spec.params))


def hunt_coverage(
    baseline: frozenset,
    seed: int = 0,
    rounds: int = 2,
    candidates: int = 4,
    registry: Optional[dict[str, WorkloadSpec]] = None,
    runner: Optional[CandidateRunner] = None,
    log: Optional[Callable[[str], None]] = None,
) -> HuntResult:
    """Greedy coverage-guided search over the workload registry.

    *baseline* is the corpus's observed-tag union; the result's
    ``covered`` is baseline plus everything the chosen runs added.
    *runner* is injectable for tests (and for hunting against recorded
    observation tables instead of live systems).
    """
    registry = registry if registry is not None else WORKLOAD_REGISTRY
    runner = runner if runner is not None else default_candidate_runner
    names = sorted(registry)
    if not names:
        raise ValueError("hunt needs a non-empty workload registry")
    rng = random.Random(seed)
    covered = set(baseline)
    steps: list[HuntStep] = []
    best_config: Optional[tuple[str, dict]] = None

    for round_index in range(1, rounds + 1):
        with _TELEMETRY.span("coverage.hunt.round"):
            drawn: list[tuple[str, dict]] = []
            for slot in range(candidates):
                if best_config is not None and slot % 2 == 1:
                    # Exploit: perturb the best configuration so far.
                    workload, params = best_config
                    spec = registry[workload]
                    drawn.append((workload, {
                        p.name: p.perturb(rng, params[p.name])
                        for p in spec.params
                    }))
                else:
                    # Explore: a fresh draw from the registry.
                    workload = names[rng.randrange(len(names))]
                    drawn.append((workload, registry[workload].sample(rng)))

            best: Optional[tuple[int, tuple, str, dict, frozenset]] = None
            for workload, params in drawn:
                spec = registry[workload]
                params = spec.validate(params)
                observed = runner(spec, params)
                gain = len(observed - covered)
                key = _sort_key(workload, params, spec)
                if log is not None:
                    log(
                        f"round {round_index}: {spec.label(params, 'hunt')} "
                        f"-> {len(observed)} tag(s), +{gain} new"
                    )
                # Maximise gain; tie-break on the smaller sort key so
                # the chosen parameters are reproducible.
                if best is None or (-gain, key) < (-best[0], best[1]):
                    best = (gain, key, workload, params, observed)

            assert best is not None
            gain, _, workload, params, observed = best
            if gain > 0:
                spec = registry[workload]
                new_tags = tuple(sorted(observed - covered))
                covered |= observed
                best_config = (workload, params)
                steps.append(HuntStep(
                    round=round_index,
                    workload=workload,
                    params=tuple(
                        (p.name, params[p.name]) for p in spec.params
                    ),
                    label=spec.label(params, prefix="hunt"),
                    new_tags=new_tags,
                    observed=len(observed),
                ))

    return HuntResult(
        seed=seed,
        rounds=rounds,
        candidates=candidates,
        baseline=tuple(sorted(baseline)),
        steps=tuple(steps),
        covered=tuple(sorted(covered)),
    )


def render_hunt_text(result: HuntResult) -> str:
    """The ``repro coverage hunt`` report."""
    lines = [
        f"coverage hunt: seed {result.seed}, {result.rounds} round(s) x "
        f"{result.candidates} candidate(s)",
        f"  baseline: {len(result.baseline)} observed tag(s)",
    ]
    for step in result.steps:
        lines.append(
            f"  round {step.round}: {step.label}  +{step.gain} new tag(s)"
        )
        lines.append(f"    {', '.join(step.new_tags)}")
    if not result.steps:
        lines.append("  no candidate observed a new tag")
    lines.append(
        f"  final: {len(result.covered)} covered tag(s) "
        f"(+{len(result.covered) - len(result.baseline)})"
    )
    return "\n".join(lines)


def render_hunt_json(result: HuntResult) -> str:
    import json

    document = {
        "version": 1,
        "tool": "profcov-hunt",
        "seed": result.seed,
        "rounds": result.rounds,
        "candidates": result.candidates,
        "baseline": len(result.baseline),
        "covered": len(result.covered),
        "gained": list(result.gained),
        "steps": [
            {
                "round": step.round,
                "workload": step.workload,
                "params": dict(step.params),
                "label": step.label,
                "new_tags": list(step.new_tags),
                "observed": step.observed,
            }
            for step in result.steps
        ],
    }
    return json.dumps(document, indent=2)
