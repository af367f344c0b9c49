"""Workload definitions and set-up.

Each workload is a list of instances, each with a plan: which distance
weights to search after `code`, and which certificates to produce.  Why
each workload exists, and which layers it loads and bypasses, is in
README.md next to this file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import inputs

DEFAULT_BUDGET = 10**9       # css.DEFAULT_ENUMERATION_BUDGET
EXPLICIT_BUDGET = 3 * 10**9  # passed where sum_w C(n, w) exceeds the default


@dataclass(frozen=True)
class Plan:
    """What the benchmark does with one instance after its graph command."""

    weights: tuple[int, ...] = ()   # `distance --max-weight` runs; () skips code/distance/verify
    self_complementary: bool = True
    self_dual: str = ""             # "isomorphism", "simple" or "" (none)
    embed_search: bool = False      # README's `embed-search --genus 1`


def budget_for(n: int, w: int) -> int | None:
    """The `--budget` to pass, or None where the default covers the search
    (without it, `distance` exits 2 above the default)."""
    total = sum(math.comb(n, i) for i in range(1, w + 1))
    return EXPLICIT_BUDGET if total > DEFAULT_BUDGET else None


CERTIFY = Plan(weights=(2, 3), self_dual="isomorphism")
CERTIFY_PALEY9 = Plan(weights=(2, 3), self_dual="isomorphism", embed_search=True)
BUILD = Plan(weights=(1,), self_dual="simple")
BUILD_LIFT = Plan(weights=(1,), self_complementary=False, self_dual="simple")
GRAPH_ONLY = Plan()
TAIL = Plan(weights=(1,), self_complementary=False)


@dataclass(frozen=True)
class Workload:
    name: str
    paley: dict[int, Plan]
    lifts: dict[int, Plan]
    bypassed: frozenset[str]   # wrapped functions this workload must not call

    def items(self, seed: int) -> list[tuple[inputs.Instance, Plan]]:
        instances = inputs.make_instances(sorted(self.paley), sorted(self.lifts), seed)
        return [(inst, (self.paley if inst.family == "paley" else self.lifts)[inst.order])
                for inst in instances]


_GENERIC_SEARCH = {"graphs.find_isomorphism", "graphs.is_self_complementary",
                   "embedding.search_self_dual_embedding", "embedding.rotation_to_json",
                   "cli.cmd_embed_search"}

WORKLOADS = {w.name: w for w in [
    Workload(
        "certify-small",
        paley={9: CERTIFY_PALEY9, **{q: CERTIFY for q in (17, 25, 41, 49, 73, 81, 89, 97)}},
        lifts={t: CERTIFY for t in (3, 4, 5)},
        bypassed=frozenset(),
    ),
    Workload(
        "build-large",
        paley={193: BUILD},
        lifts={6: BUILD_LIFT},
        bypassed=frozenset(_GENERIC_SEARCH | {"css.verify_witness"}),
    ),
    Workload(
        "paley-graphs",
        paley={97: TAIL, **{q: GRAPH_ONLY for q in (257, 289, 521, 529)}},
        lifts={},
        bypassed=frozenset(_GENERIC_SEARCH | {
            "css.verify_witness", "embedding.dual_graph", "cli.cmd_lift",
            "voltage.build_voltage_graph", "voltage.lift", "voltage.block_adjacency"}),
    ),
]}


def coverage_items(items):
    """The smallest instance of each (family, plan) group: enough to call
    every function the workload loads."""
    smallest = {}
    for inst, plan in items:
        key = (inst.family, plan)
        if key not in smallest or inst.order < smallest[key][0].order:
            smallest[key] = (inst, plan)
    return sorted(smallest.values(), key=lambda item: (item[0].family, item[0].order))


def set_up(workload: Workload, seed: int, directory: Path):
    """Import the CLI and write every rotation input; returns the items."""
    import paleylift.cli  # noqa: F401  (set-up time covers the import)

    items = workload.items(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for inst, plan in items:
        if plan.weights or plan.self_dual:
            _, text = inputs.rotation_text(inst)
            (directory / f"{inst.name}.rotation.json").write_text(text)
    return items
