"""Output checks, run outside the timed phase.

Each returns a list of failure messages (empty when the outputs pass).
The references are the paper's published values, a separate solver
path, or properties the method must have; never a stored copy of the
program's own output.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Sequence

from inputs import NON_INCREASING, PAPER_C_PLATEAUS, PLATEAU_TOLERANCE, TABLE4_GATES

_EPS = 1e-12


def check_table4(sweeps: Sequence[Mapping[str, object]]) -> List[str]:
    """Table 4 columns: monotone in the paper's direction, every point
    fits with 0 < rank <= total wires, and at 130 nm / 1M gates the C
    column's plateaus equal the paper's published values.  Points that
    failed are counted apart as failed operations."""
    failures: List[str] = []
    for sweep in sweeps:
        label = f"table4 {sweep['node']} {sweep['knob']}"
        ranks = list(sweep["rank"])
        totals = list(sweep["total_wires"])
        normalized = [r / t for r, t in zip(ranks, totals)]
        for value, rank, total, fits in zip(
            sweep["values"], ranks, totals, sweep["fits"]
        ):
            if not fits or not 0 < rank <= total:
                failures.append(
                    f"{label}={value:g}: rank {rank} of {total} (fits={fits})"
                )
        pairs = list(zip(normalized, normalized[1:]))
        if sweep["knob"] in NON_INCREASING:
            bad = [i for i, (a, b) in enumerate(pairs) if b > a + _EPS]
        else:
            bad = [i for i, (a, b) in enumerate(pairs) if b < a - _EPS]
        if bad:
            failures.append(f"{label}: not monotone after point {bad[0]}")
        if sweep["node"] == "130nm" and sweep["knob"] == "C" and sweep["gates"] == TABLE4_GATES:
            by_value = dict(zip(sweep["values"], normalized))
            for first, last, paper in PAPER_C_PLATEAUS:
                for value, rank in by_value.items():
                    if first <= value <= last and abs(rank - paper) > PLATEAU_TOLERANCE:
                        failures.append(
                            f"{label}={value:g}: {rank:.6f} vs paper {paper}"
                        )
    return failures


def check_curves(designs: Sequence[Mapping[str, object]]) -> List[str]:
    """Budget curves: non-decreasing, repeat runs identical, and the
    full-budget rank equals api.compute_rank on the same design."""
    failures: List[str] = []
    for design in designs:
        label = f"curve {design['knob']}={design['value']:g}"
        ranks = list(design["ranks"])
        if any(b < a for a, b in zip(ranks, ranks[1:])):
            failures.append(f"{label}: curve decreases")
        if design["repeats_differ"]:
            failures.append(f"{label}: repeated curves differ")
        if ranks[-1] != design["reference_rank"]:
            failures.append(
                f"{label}: full-budget rank {ranks[-1]} "
                f"!= compute_rank {design['reference_rank']}"
            )
    return failures


def check_replies(
    replies: Sequence[Mapping[str, object]],
    references: Mapping[int, Mapping[str, object]],
) -> List[str]:
    """Service replies: replays byte-identical to the first reply for
    that request, fingerprint equal to the request's, rank equal to
    api.compute_rank computed by the load generator.  A reply that is
    not a 200 is a failed operation, counted apart, not checked here."""
    failures: List[str] = []
    first: Dict[int, bytes] = {}
    for reply in replies:
        design = reply["design"]
        label = f"request {reply['op']} (design {design})"
        if reply["status"] != 200:
            continue
        body = reply["body"]
        if design in first:
            if body != first[design]:
                failures.append(f"{label}: replay differs from first reply")
            continue
        first[design] = body
        payload = json.loads(body)
        reference = references[design]
        if payload.get("fingerprint") != reference["fingerprint"]:
            failures.append(f"{label}: fingerprint mismatch")
        if payload.get("rank") != reference["rank"]:
            failures.append(
                f"{label}: rank {payload.get('rank')} != compute_rank {reference['rank']}"
            )
    return failures
