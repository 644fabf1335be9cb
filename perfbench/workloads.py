"""The benchmark's workloads: seeded argv lists for the cftinv CLI.

Every input comes from the workload seed, and the same seed gives the same
argv lists.  The seed picks values, never sizes: each run of a workload does
the same amount of work whatever its seed, so the run-to-run spread measures
the program and the machine rather than the seed.  README.md explains each
choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Sectors of quantum dimension 1: the vacuum and its simple-current partner
# (Kac label (m-1, 1)).  Both give the same fit conditioning, so the seeded
# choice between them keeps timing, outcome and accuracy independent of the
# seed while still changing the sector the program evaluates.
UNIT_SECTORS = {3: ("vacuum", "1/2"), 4: ("vacuum", "3/2"),
                5: ("vacuum", "3"), 6: ("vacuum", "5")}

NONELLIPTIC = "NonEllipticDataError"
ASYMMETRIC = "the symmetric setup needs d1 = d3"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the documented defect it is known to hit.

    ``known`` is None for a command that must succeed, else the pair
    (exit code, stderr fragment) of a defect present at the baseline.  A
    known defect counts against ``pass_ratio`` but not as a failed
    operation; any other non-zero exit, and any output that fails its
    check, is a failed operation.
    """

    kind: str
    argv: tuple
    known: tuple | None = None


def _grid_bounds(rng, lo_range, hi_range):
    return (f"{rng.uniform(*lo_range):.3f}", f"{rng.uniform(*hi_range):.3f}")


def heat_trace(rng):
    cmds = []
    for m in (3, 4, 5, 6):
        known = (2, NONELLIPTIC) if m >= 5 else None
        cmds.append(Command("invariants", (
            "invariants", "--m", str(m), "--sector", rng.choice(UNIT_SECTORS[m]),
            "--format", "json"), known))
    for m in (3, 4, 5):
        # lo in [0.05, 0.3] and hi in [1.5, 2.4] put exactly two of the four
        # linear points below t = 1 (transform route) and two at or above it
        # (direct route), whatever the seed.
        lo, hi = _grid_bounds(rng, (0.05, 0.3), (1.5, 2.4))
        cmds.append(Command("characters", (
            "characters", "--m", str(m), "--grid", f"{lo}:{hi}:4",
            "--format", "json")))
    return cmds


def lab(rng):
    cmds = []
    for dims in ("2,3,2", "3,4,3", "2,3,4"):
        known = (1, ASYMMETRIC) if dims == "2,3,4" else None
        cmds.append(Command("lab", (
            "lab", "--dims", dims, "--seed", str(rng.randrange(10 ** 6)),
            "--format", "json"), known))
    return cmds


def fock_case_mix(seed: int) -> tuple:
    """How many of the Fock battery's 20 random cases have 1, 2, 3 and 4
    modes for ``verify --seed seed``.

    The brute-force cost of a case grows steeply with its mode count, so the
    mix sets the battery's cost.  This replays the battery's documented
    draws (one ``randint(1, 4)`` then one ``uniform`` per mode, per case),
    which the byte-identical report contract keeps fixed.
    """
    rng = random.Random(seed)
    counts = [0, 0, 0, 0]
    for _ in range(20):
        d = rng.randint(1, 4)
        counts[d - 1] += 1
        for _ in range(d):
            rng.uniform(0.05, 0.8)
    return tuple(counts)


def verify_all(rng):
    seed = rng.randrange(10 ** 6)
    while fock_case_mix(seed) != (5, 5, 5, 5):
        seed += 1
    lo = f"{rng.uniform(0.005, 0.02):.4f}"
    return [
        Command("verify", ("verify", "--all", "--seed", str(seed),
                           "--format", "json")),
        Command("fock", ("fock", "--grid", f"{lo}:1:5:log", "--format", "json")),
    ]


def series_sector(m: int, rng) -> str:
    """A seeded sector of model m, named by its exact weight."""
    weights = sorted({kac_weight(m, r, s) for r, s in kac_labels(m)})
    h = rng.choice(weights)
    return "vacuum" if h == 0 else str(h)


def kac_labels(m: int):
    return [(r, s) for r in range(1, m) for s in range(1, m + 1)
            if r * (m + 1) - s * m > 0]


def kac_weight(m: int, r: int, s: int) -> Fraction:
    lam = r * (m + 1) - s * m
    return Fraction(lam * lam - 1, 4 * m * (m + 1))


SERIES_CUTOFF = 20000


def series(rng):
    # The two ends of m = 5..8 (10 and 28 sectors) cost about the same as
    # any other pair, and m = 8 sets the working set, so the seed can pick
    # the order and the sectors without moving time or peak memory.
    ms = [5, 8]
    rng.shuffle(ms)
    return [Command("dump", ("characters", "--dump", "--cutoff", str(SERIES_CUTOFF),
                             "--m", str(m), "--sector", series_sector(m, rng)))
            for m in ms]


WORKLOADS = {"heat_trace": heat_trace, "lab": lab,
             "verify_all": verify_all, "series": series}


def commands(workload: str, seed: int) -> list:
    """The command sequence of one pass of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
