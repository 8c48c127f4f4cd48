"""Parameter-spoiling transformations and the realize-a-point pipeline.

Three elementary moves degrade code parameters in a controlled, exactly
verifiable way:

* lengthen: [n, m, d] -> [n+1, m, d]           (append a fixed zero symbol)
* puncture: [n, m, d] -> [n-1, m, d-1], d >= 2 (drop a coordinate where a
  minimum-distance witness pair differs; distances fall by at most one, so
  the new minimum is exactly d-1 and no words merge)
* shorten:  [n, m, d] -> [n-1, m', d' >= d]    (restrict to the largest
  symbol fiber of a non-constant coordinate, then drop it; within the fiber
  pairwise distances are unchanged, and m/q <= m' < m)

Composites walk parameters to exact targets: ``reduce_distance_exact``
alternates puncture/lengthen to hit a distance exactly while preserving
length and cardinality; ``reduce_floor_logcard`` alternates shorten/
lengthen until the integer part of log_q(cardinality) hits a target.
``realize_point`` combines them to manufacture, for a = 1..M, codes of
length a*n whose floor-log-cardinality is exactly a*k and distance exactly
a*d, so every output has the identical plane point (k/n, d/n).

Every transformation is recorded as a replayable step; traces reproduce the
final parameters exactly from the initial code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .budget import DEFAULT_BUDGET, SearchBudget
from .codes import Code, CodeParams, code_point, floor_log_q, min_distance, params
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    DegenerateInputError,
    DistanceTooSmallError,
    InternalContractError,
    SeedNotFoundError,
)
from .geometry import RatPoint
from .linear import GeneratorMatrix, LinearCode, pivot_step

LENGTHEN = "lengthen"
PUNCTURE = "puncture"
SHORTEN = "shorten"

AnyCode = Union[Code, LinearCode]


@dataclass(frozen=True)
class SpoilStep:
    """One elementary move, with enough detail to replay it mechanically."""

    kind: str
    coordinate: Optional[int] = None
    symbol: Optional[int] = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "coordinate": self.coordinate, "symbol": self.symbol}

    @classmethod
    def from_json(cls, payload: dict) -> "SpoilStep":
        return cls(
            kind=payload["kind"],
            coordinate=payload.get("coordinate"),
            symbol=payload.get("symbol"),
        )


@dataclass(frozen=True)
class SpoilTrace:
    initial: CodeParams
    steps: tuple[SpoilStep, ...]
    final: CodeParams

    def to_json(self) -> dict:
        return {
            "initial": _params_json(self.initial),
            "steps": [s.to_json() for s in self.steps],
            "final": _params_json(self.final),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SpoilTrace":
        return cls(
            initial=_params_from_json(payload["initial"]),
            steps=tuple(SpoilStep.from_json(s) for s in payload["steps"]),
            final=_params_from_json(payload["final"]),
        )


def _params_json(p: CodeParams) -> dict:
    return {"q": p.q, "n": p.n, "m": p.m, "d": p.d}


def _params_from_json(payload: dict) -> CodeParams:
    return CodeParams(q=payload["q"], n=payload["n"], m=payload["m"], d=payload["d"])


# --- elementary moves ----------------------------------------------------


def _lengthen_step(code: Code) -> tuple[Code, SpoilStep]:
    step = SpoilStep(LENGTHEN, coordinate=code.n, symbol=0)
    return apply_step(code, step), step


def _puncture_step(code: Code) -> tuple[Code, SpoilStep]:
    if code.n <= 1:
        raise ContractViolationError("cannot puncture length-1 codes")
    d, witness = min_distance(code)
    if d < 2:
        raise DistanceTooSmallError(
            f"puncture requires minimum distance >= 2, have {d}"
        )
    a, b = witness
    step = SpoilStep(PUNCTURE, coordinate=next(i for i in range(code.n) if a[i] != b[i]))
    return apply_step(code, step), step


def _shorten_step(code: Code) -> tuple[Code, SpoilStep]:
    if code.m == 1:
        raise DegenerateInputError("cannot shorten a singleton: all coordinates constant")
    if code.n <= 1:
        raise ContractViolationError("cannot shorten length-1 codes")
    coord = next(
        (i for i in range(code.n) if len({w[i] for w in code.words}) > 1), None
    )
    if coord is None:
        raise InternalContractError("distinct words with all coordinates constant")
    fibers = Counter(w[coord] for w in code.words)
    # the largest fiber, ties to the smallest symbol
    step = SpoilStep(SHORTEN, coordinate=coord, symbol=min(fibers, key=lambda s: (-fibers[s], s)))
    return apply_step(code, step), step


def apply_step(code: Code, step: SpoilStep) -> Code:
    """Apply one move to an explicit code; the only place words are rewritten,
    so a trace replays through the code that recorded it."""
    if step.kind == LENGTHEN:
        return Code.from_words(code.q, tuple(w + bytes([step.symbol or 0]) for w in code.words))
    if step.kind == PUNCTURE:
        c = step.coordinate
        return Code.from_words(code.q, tuple(w[:c] + w[c + 1:] for w in code.words))
    if step.kind == SHORTEN:
        c = step.coordinate
        kept = [w for w in code.words if w[c] == step.symbol]
        if not kept:
            raise InternalContractError("shorten replay selected an empty fiber")
        return Code.from_words(code.q, tuple(w[:c] + w[c + 1:] for w in kept))
    raise ContractViolationError(f"unknown step kind {step.kind!r}")


def replay_trace(trace: SpoilTrace, initial: Code) -> Code:
    """Apply a trace to its initial code; checks both parameter endpoints."""
    if params(initial) != trace.initial:
        raise ContractViolationError("code does not match the trace's initial parameters")
    code = initial
    for step in trace.steps:
        code = apply_step(code, step)
    final = params(code)
    if final != trace.final:
        raise InternalContractError(
            f"trace replay produced {final.triple()}, recorded {trace.final.triple()}"
        )
    return code


# --- public single moves (explicit and linear forms) ---------------------


def lengthen(code: AnyCode) -> AnyCode:
    """[n+1, m, d] always; appends a zero column for linear inputs."""
    if isinstance(code, LinearCode):
        rows = tuple(row + (0,) for row in code.gen.rows)
        return LinearCode(GeneratorMatrix(code.field, rows))
    return _lengthen_step(code)[0]


def puncture(code: AnyCode) -> AnyCode:
    """[n-1, m, d-1] exactly, requires n > 1 and d >= 2."""
    if isinstance(code, LinearCode):
        return _puncture_linear(code)
    return _puncture_step(code)[0]


def _puncture_linear(code: LinearCode) -> LinearCode:
    if code.n <= 1:
        raise ContractViolationError("cannot puncture length-1 codes")
    d = code.d
    if d < 2:
        raise DistanceTooSmallError(f"puncture requires minimum distance >= 2, have {d}")
    # drop the first nonzero coordinate of the first minimum-weight codeword
    for block in code.codeword_blocks():
        hits = np.flatnonzero(np.count_nonzero(block, axis=1) == d)
        if len(hits):
            coord = int(np.flatnonzero(block[hits[0]])[0])
            rows = tuple(row[:coord] + row[coord + 1:] for row in code.gen.rows)
            return LinearCode(GeneratorMatrix(code.field, rows))
    raise InternalContractError("no codeword attains the minimum weight")


def shorten(code: AnyCode) -> AnyCode:
    """[n-1, m', d' >= d] with m/q <= m' < m; linear inputs lose one dimension.

    The coordinate is the lowest non-constant one (lowest not-identically-
    zero one for linear inputs); ties between equal-size fibers go to the
    smallest symbol.
    """
    if isinstance(code, LinearCode):
        return _shorten_linear(code)
    return _shorten_step(code)[0]


def _shorten_linear(code: LinearCode) -> LinearCode:
    if code.n <= 1:
        raise ContractViolationError("cannot shorten length-1 codes")
    if code.k <= 1:
        raise ContractViolationError("linear shorten requires dimension > 1")
    field = code.field
    rows = [list(r) for r in code.gen.rows]
    coord = next(
        (c for c in range(code.n) if any(row[c] != 0 for row in rows)), None
    )
    if coord is None:
        raise InternalContractError("full-rank generator with zero matrix")
    pivot = next(r for r, row in enumerate(rows) if row[coord] != 0)
    pivot_step(field, rows, pivot, coord)
    kept = [tuple(row[:coord] + row[coord + 1:]) for r, row in enumerate(rows) if r != pivot]
    return LinearCode(GeneratorMatrix(field, tuple(kept)))


# --- exact-target composites ---------------------------------------------


def reduce_distance_exact(code: Code, d_target: int) -> Code:
    return _reduce_distance(code, d_target, [])


def _reduce_distance(code: Code, d_target: int, steps: list[SpoilStep], d: Optional[int] = None) -> Code:
    # d: the code's distance where the caller knows it
    if d_target < 1:
        raise ContractViolationError("distance target must be >= 1")
    if d is None:
        d, _ = min_distance(code)
    if d < d_target:
        raise ContractViolationError(f"current distance {d} already below target {d_target}")
    while d > d_target:
        code, step = _puncture_step(code)
        steps.append(step)
        code, step = _lengthen_step(code)
        steps.append(step)
        d -= 1
    return code


def reduce_floor_logcard(code: Code, t_target: int) -> Code:
    return _reduce_floor(code, t_target, [])


def _reduce_floor(code: Code, t_target: int, steps: list[SpoilStep]) -> Code:
    """Shorten (then re-lengthen) until floor(log_q m) == t_target.

    A single shorten drops the floor by at most one, and never below the
    target, so the loop cannot overshoot. Each unit drop is capped at n*q
    shorten rounds; hitting the cap is reported, not silently absorbed.
    """
    if t_target < 0:
        raise ContractViolationError("floor target must be >= 0")
    t = floor_log_q(code.m, code.q)
    if t < t_target:
        raise ContractViolationError(f"floor {t} already below target {t_target}")
    while t > t_target:
        cap = code.n * code.q
        rounds = 0
        while floor_log_q(code.m, code.q) == t:
            if rounds >= cap:
                raise BudgetExceededError(
                    "floor reduction did not drop within n*q shorten rounds",
                    nodes=rounds,
                    cap=cap,
                )
            code, step = _shorten_step(code)
            steps.append(step)
            code, step = _lengthen_step(code)
            steps.append(step)
            rounds += 1
        t -= 1
    return code


# --- finite multiplicity shadow ------------------------------------------

#: limit of the plane points of repeated lengthenings of a fixed code
LENGTHEN_LIMIT = RatPoint.of(0, 0)


def multiplicity_witness(code: Code, count: int) -> list[Code]:
    """The first ``count`` lengthenings: distinct triples, points scaling
    toward ``LENGTHEN_LIMIT`` like n/(n+j), each differing from the base
    point whenever that point is nonzero."""
    if count < 0:
        raise ContractViolationError("count must be nonnegative")
    out = []
    current = code
    for _ in range(count):
        current = lengthen(current)
        out.append(current)
    return out


# --- realize a target point with many codes ------------------------------


@dataclass(frozen=True)
class RealizedCode:
    """One output of ``realize_point``: the code, its seed, and the trace."""

    code: Code
    seed: Code
    trace: SpoilTrace

    @property
    def params(self) -> CodeParams:
        return self.trace.final

    @property
    def point(self) -> RatPoint:
        return code_point(self.trace.final)


SeedSource = Callable[[int, int, int, int], Optional[Code]]
# called as seed_source(q, length, floor_target, distance_target)


def realize_point(
    target: tuple[int, int, int],
    q: int,
    count: int,
    seed_source: Optional[SeedSource] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> list[RealizedCode]:
    """Construct ``count`` distinct codes all mapping to the point (k/n, d/n).

    ``target`` is (k, n, d) with 0 < k < n and 0 < d < n, so the point lies
    strictly inside the open unit square. The a-th output has length a*n,
    floor-log-cardinality exactly a*k, and distance exactly a*d; outputs are
    pairwise distinct because their lengths differ.

    The default seed source asks the greedy search for a code of length a*n
    and distance >= a*d with cardinality at least q**(a*k); any seed whose
    parameters dominate those requirements works.
    """
    k, n, d = target
    if count < 1:
        raise ContractViolationError("count must be >= 1")
    if not (0 < k < n and 0 < d < n):
        raise ContractViolationError(
            "target point must lie strictly inside the unit square"
        )
    if seed_source is None:
        seed_source = _default_seed_source(q, budget)

    outputs = []
    for a in range(1, count + 1):
        length, floor_t, dist = a * n, a * k, a * d
        seed = seed_source(q, length, floor_t, dist)
        log_entry = f"a={a}: need length<={length} floor>={floor_t} distance>={dist}"
        if seed is None:
            raise SeedNotFoundError(
                f"no seed found for level a={a}", search_log=[log_entry + " -> none"]
            )
        seed_params = params(seed)
        if (
            seed_params.n > length
            or floor_log_q(seed_params.m, q) < floor_t
            or seed_params.d < dist
        ):
            raise SeedNotFoundError(
                f"seed {seed_params.triple()} does not dominate level a={a}",
                search_log=[log_entry + f" -> got {seed_params.triple()}"],
            )
        steps: list[SpoilStep] = []
        code = seed
        while code.n < length:
            code, step = _lengthen_step(code)
            steps.append(step)
        code = _reduce_distance(code, dist, steps, seed_params.d)  # lengthening kept d
        walked = len(steps)
        code = _reduce_floor(code, floor_t, steps)
        if len(steps) > walked:  # shortening may have raised the distance
            code = _reduce_distance(code, dist, steps)
        final = params(code)
        if (
            final.n != length
            or floor_log_q(final.m, q) != floor_t
            or final.d != dist
        ):
            raise InternalContractError(
                f"realize pipeline produced {final.triple()} for level a={a}"
            )
        outputs.append(
            RealizedCode(code=code, seed=seed, trace=SpoilTrace(seed_params, tuple(steps), final))
        )
    return outputs


def _default_seed_source(q: int, budget: SearchBudget) -> SeedSource:
    def source(q_: int, length: int, floor_t: int, dist: int) -> Optional[Code]:
        from . import search  # deferred: search builds on spoiling

        code = search.greedy_code(q_, length, dist, budget=budget, target_m=q_ ** floor_t)
        if code.m >= q_ ** floor_t:
            return code
        return None

    return source
