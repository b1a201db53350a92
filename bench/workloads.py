"""Seeded request generation for the three benchmark workloads.

A workload is an endless stream of *rounds*; a round is a list of CLI argv
lists.  Request costs here span three orders of magnitude, so a plain random
draw would move the median and tail latency by tens of percent from one seed
to the next.  Each round is therefore a balanced design: it covers the same
strata of request sizes every time, and the seed picks where each request
falls inside its stratum, a rotation of the design that moves on by one with
every round, and the order in which a timed run sends the requests.

Why each workload exists:

* prove-ladder: the prover and triangle layers do nearly all the work;
  decimation and sequences do none.
* numeric-mix: the sequences layer does most of the work; triangles serve
  bulk row dumps, intpoly runs at low degree with large coefficients, and
  cli writes megabytes of output; decimation runs Bareiss at degree <= 12.
* sweep-ranges: the batch command; it runs every route, Bareiss dominates
  at the top orders, and orders in one request share the process.

BENCHMARK.json lists prove-ladder and numeric-mix.  sweep-ranges can be run
by hand but is not part of it: its requests average about half a second, so
a one-minute run holds too few of them to ride out the host's swings in
speed, and its median and tail latency spread by 25-35% from run to run on
a 2-vCPU machine whose speed changed by a factor of about 1.6 every few
seconds.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

FORMATS = ("tsv", "markdown", "json")

Round = list[list[str]]


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [0, 1), in order."""
    return [(i + rng.random()) / n for i in range(n)]


def _pick(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto the integers lo..hi, each with equal weight."""
    return lo + int(u * (hi - lo + 1))


def prove_round(rng: random.Random, rotation: int) -> Round:
    """Every order 2..40 once; --show-matrix on the quarter of the orders
    with k + rotation divisible by 4."""
    out = []
    for k in range(2, 41):
        argv = ["prove", "--k", str(k), "--format", "json"]
        if (k + rotation) % 4 == 0:
            argv.append("--show-matrix")
        out.append(argv)
    return out


def sweep_round(rng: random.Random, rotation: int) -> Round:
    """Each order 2..28 tops one range, of width 1 + (top + shift) mod 10
    (clipped at 2), with shift 0 on even rotations and 5 on odd ones, so two
    consecutive rounds give every top a width w and its complement w + 5
    (mod 10).  Only the order of the ranges depends on the seed: the median
    sweep request sits where costs rise steeply with the range, and a seeded
    choice of ranges moved latency_p50_s by about 10% from seed to seed."""
    shift = 5 * (rotation % 2)
    out = []
    for top in range(2, 29):
        lo = max(2, top - (top + shift) % 10)
        out.append(["sweep", "--k-min", str(lo), "--k-max", str(top)])
    return out


def _verify(rng: random.Random, u_k: float, u_width: float) -> list[str]:
    k = _pick(u_k, 2, 25)
    width = int(1000 * 12**u_width)  # log-uniform over 1000..12000
    # a short stretch below 0 keeps the largest values (and so peak memory)
    # close to the same for every draw in a width stratum
    n_from = -rng.randint(1, width // 8)
    return [
        "verify", "--k", str(k), "--seed", str(rng.randrange(10**6)),
        "--n-from", str(n_from), "--n-to", str(n_from + width - 1),
        "--format", "json",
    ]


def _decimate(rng: random.Random, u_degree: float, u_stride: float) -> list[str]:
    degree = _pick(u_degree, 2, 12)
    coefficients = [rng.randint(-4, 4) for _ in range(degree - 1)]
    coefficients.append(rng.choice([c for c in range(-4, 5) if c]))
    charpoly = ",".join(str(c) for c in [1, *coefficients])
    return [
        "decimate", f"--charpoly={charpoly}", "--stride", str(_pick(u_stride, 2, 16)),
        "--format", "json",
    ]


def _triangle(rng: random.Random, u_rows: float, fmt: str) -> list[str]:
    kind = rng.choice("pq")
    return ["triangle", kind, "--rows", str(_pick(u_rows, 50, 300)), "--format", fmt]


def numeric_round(rng: random.Random, rotation: int) -> Round:
    """10 verify, 6 decimate and 4 triangle requests (50/30/20 by count).

    verify climbs a ladder: its i-th request draws k and the window width
    from the i-th of 10 strata of each, so small orders get short windows
    and large orders long ones.  Widths are log-uniform, so the lowest rungs
    cost about as much as a decimate or a triangle dump: the median request
    then falls among many of similar cost instead of on the edge between the
    cheap requests and the verify ladder.  decimate pairs degree and stride
    strata the same way, shifted by the rotation.  The triangle formats
    cycle.
    """
    out = [_verify(rng, a, b) for a, b in zip(_strata(rng, 10), _strata(rng, 10))]
    strides = _strata(rng, 6)
    strides = strides[rotation % 6 :] + strides[: rotation % 6]
    out += [_decimate(rng, a, b) for a, b in zip(_strata(rng, 6), strides)]
    out += [
        _triangle(rng, u, FORMATS[(rotation + i) % 3])
        for i, u in enumerate(_strata(rng, 4))
    ]
    return out


# name -> (round generator, smallest number of requests a timed run makes).
# The minimum fixes the tail percentile (see run.tail_percentile) so that it
# does not move when the program gets faster or slower.
WORKLOADS: dict[str, tuple[Callable[[random.Random, int], Round], int]] = {
    "prove-ladder": (prove_round, 117),
    "sweep-ranges": (sweep_round, 40),
    "numeric-mix": (numeric_round, 100),
}


def rounds(name: str, seed: int) -> Iterator[Round]:
    """The workload's request rounds for this seed, each in design order
    (requests sorted by their stratum); same seed, same rounds."""
    make = WORKLOADS[name][0]
    rng = random.Random(f"{name}:{seed}")
    rotation = 2 * rng.randrange(30)
    while True:
        yield make(rng, rotation)
        rotation += 1


def shuffled_rounds(name: str, seed: int) -> Iterator[Round]:
    """rounds(name, seed) with the requests of each round in seeded order,
    as a timed run sends them."""
    rng = random.Random(f"{name}:{seed}:order")
    for rnd in rounds(name, seed):
        rng.shuffle(rnd)
        yield rnd
