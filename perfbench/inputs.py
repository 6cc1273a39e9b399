"""Seeded inputs of the three workloads.

Everything the program receives is generated here from ``--seed``; the
same seed always yields the same inputs.  The values come from the
paper's Table 4 (its four knob columns at the 1M-gate 130 nm design)
and Table 3 (the technology nodes), written out here rather than read
from the program, so the benchmark's references stay independent of it.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Table 4 columns: knob -> baseline_problem keyword and swept values,
#: in the paper's order.
KNOB_KEYWORD = {
    "K": "permittivity",
    "M": "miller_factor",
    "C": "clock_frequency",
    "R": "repeater_fraction",
}
TABLE4_VALUES: Dict[str, Tuple[float, ...]] = {
    "K": tuple(round(3.9 - 0.1 * i, 2) for i in range(22)),
    "M": tuple(round(2.0 - 0.05 * i, 2) for i in range(21)),
    "C": tuple(round(5.0e8 + 1.0e8 * i) * 1.0 for i in range(13)),
    "R": tuple(round(0.1 + 0.1 * i, 1) for i in range(5)),
}
#: Rank rises along K, M and R (lower permittivity, lower coupling,
#: more repeater area) and falls along C (faster clock).
NON_INCREASING = {"C"}

#: The paper's published Table 4 C-column plateaus at 130 nm:
#: (first Hz, last Hz, normalized rank).
PAPER_C_PLATEAUS = ((1.1e9, 1.5e9, 0.309706), (1.6e9, 1.7e9, 0.235608))
PLATEAU_TOLERANCE = 2e-3

#: Table 4's design: 1M gates; the second node is Table 3's 90 nm.
TABLE4_GATES = 1_000_000
TABLE4_NODES = ("130nm", "90nm")
#: api.sweep defaults (bunch 10000, 512 budget cells).
TABLE4_BUNCH = 10_000
TABLE4_UNITS = 512


@dataclass(frozen=True)
class Size:
    """Problem sizes of one benchmark mode (full or the self-test toy)."""

    table4_gates: int
    table4_bunch: int
    table4_units: int
    curve_gates: int
    curve_bunch: int
    curve_units: int
    service_gates: int


FULL = Size(
    table4_gates=TABLE4_GATES,
    table4_bunch=TABLE4_BUNCH,
    table4_units=TABLE4_UNITS,
    curve_gates=30_000,
    curve_bunch=2_000,
    curve_units=32,
    service_gates=TABLE4_GATES,
)
TOY = Size(
    table4_gates=20_000,
    table4_bunch=2_000,
    table4_units=64,
    curve_gates=10_000,
    curve_bunch=1_000,
    curve_units=16,
    service_gates=20_000,
)


@dataclass(frozen=True)
class Knob:
    """Picklable ``make_problem`` for one Table 4 column at one node."""

    node: str
    gates: int
    knob: str

    def __call__(self, value: float):
        from repro import api

        return api.baseline_problem(
            self.node, self.gates, **{KNOB_KEYWORD[self.knob]: value}
        )


def table4_columns() -> List[Tuple[str, str]]:
    """The eight (node, knob) sweeps of one table4 round, in a fixed
    order: the paper fixes table4's inputs, so the seed leaves them be."""
    return [(node, knob) for node in TABLE4_NODES for knob in "KMCR"]


def curve_designs(seed: int) -> List[Tuple[str, float]]:
    """The budget_curve design points: ``(knob, value)`` on the 130 nm
    baseline, every one of Table 4's 61 points, in a seeded order.

    Every seed runs the same set, so the work per op is the same.
    """
    designs = [(knob, value) for knob in "KMCR" for value in TABLE4_VALUES[knob]]
    random.Random(seed).shuffle(designs)
    return designs


#: The service mix: in each block of three requests one is a new
#: design (a memo miss) and two replay earlier requests (memo hits).
SERVICE_BLOCK = 3
#: Cap on requests per run; its distinct designs (a third) stay inside
#: the memo's 256 entries, so a replay is always a hit.
SERVICE_MAX_REQUESTS = 750

#: Table 4's ranges, sampled uniformly for new service designs.
SERVICE_RANGES = {
    "permittivity": (1.8, 3.9),
    "miller_factor": (1.0, 2.0),
    "clock_frequency": (5.0e8, 1.7e9),
    "repeater_fraction": (0.1, 0.5),
}


def reference_rank(payload: Dict[str, object]) -> Dict[str, object]:
    """api.compute_rank and RankRequest.fingerprint() of one service
    request, computed apart from the service."""
    from repro import api

    request = api.RankRequest.from_wire(payload)
    knobs = {k: v for k, v in payload.items() if k not in ("node", "gates")}
    problem = api.baseline_problem(payload["node"], payload["gates"], **knobs)
    result = api.compute_rank(
        problem, bunch_size=request.bunch_size, repeater_units=request.repeater_units
    )
    return {"rank": result.rank, "fingerprint": request.fingerprint()}


def service_requests(seed: int, gates: int) -> List[Tuple[int, Dict[str, object]]]:
    """The seeded request sequence: ``(design index, wire payload)``.

    Design ``i`` is the i-th new design; a replay repeats the payload
    of an earlier design byte for byte.
    """
    rng = random.Random(seed)
    designs: List[Dict[str, object]] = []
    sequence: List[Tuple[int, Dict[str, object]]] = []
    while len(sequence) < SERVICE_MAX_REQUESTS:
        new_at = 0 if not designs else rng.randrange(SERVICE_BLOCK)
        for slot in range(SERVICE_BLOCK):
            if slot == new_at:
                payload: Dict[str, object] = {"node": "130nm", "gates": gates}
                for name, (low, high) in SERVICE_RANGES.items():
                    payload[name] = round(rng.uniform(low, high), 6)
                designs.append(payload)
                sequence.append((len(designs) - 1, payload))
            else:
                index = rng.randrange(len(designs))
                sequence.append((index, designs[index]))
    return sequence[:SERVICE_MAX_REQUESTS]


def main() -> int:
    """Reference ranks of the payloads on stdin (a JSON list), printed
    as a JSON list in the same order:

        python3 perfbench/inputs.py < payloads.json
    """
    payloads = json.load(sys.stdin)
    json.dump([reference_rank(payload) for payload in payloads], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
