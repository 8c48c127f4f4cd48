import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codeplane import kernels
from codeplane.cli import main
from codeplane.codes import Code, code_point, floor_log_q, min_distance, params, read_code_text, write_code_text
from codeplane.errors import (
    ContractViolationError,
    DegenerateInputError,
    DistanceTooSmallError,
)
from codeplane.geometry import RatPoint, max_distance
from codeplane.linear import seed_family, to_code
from codeplane.spoiling import (
    LENGTHEN,
    LENGTHEN_LIMIT,
    PUNCTURE,
    SHORTEN,
    SpoilStep,
    SpoilTrace,
    apply_step,
    lengthen,
    multiplicity_witness,
    puncture,
    realize_point,
    reduce_distance_exact,
    reduce_floor_logcard,
    replay_trace,
    shorten,
    _lengthen_step,
    _puncture_step,
    _shorten_step,
)


def _random_code(rng, q=None, n=None, max_m=64):
    q = q or rng.choice([2, 3, 4])
    n = n or rng.randrange(1, 13)
    m_target = rng.randrange(1, min(q ** n, max_m) + 1)
    words = set()
    while len(words) < m_target:
        words.add(bytes(rng.randrange(q) for _ in range(n)))
    return Code.from_words(q, words)


codes = st.builds(_random_code, st.randoms(use_true_random=False))


@given(codes)
@settings(max_examples=150, deadline=None)
def test_lengthen_law(code):
    before = params(code)
    after = params(lengthen(code))
    assert after.triple() == (before.n + 1, before.m, before.d)


@given(codes)
@settings(max_examples=150, deadline=None)
def test_puncture_law(code):
    before = params(code)
    if before.n <= 1 or before.d < 2:
        return
    after = params(puncture(code))
    assert after.triple() == (before.n - 1, before.m, before.d - 1)


@given(codes)
@settings(max_examples=150, deadline=None)
def test_shorten_law(code):
    before = params(code)
    if before.n <= 1 or before.m < 2:
        return
    after = params(shorten(code))
    assert after.n == before.n - 1
    assert before.m / before.q <= after.m < before.m
    assert after.d >= before.d or after.m == 1


def test_lengthen_examples():
    c = Code.from_words(2, [b"\x00\x00", b"\x01\x01"])
    assert params(lengthen(c)).triple() == (3, 2, 2)
    singleton = Code.from_words(2, [bytes(4)])
    assert params(lengthen(singleton)).triple() == (5, 1, 0)
    ham = to_code(seed_family("hamming_7_4"))
    assert params(lengthen(ham)).triple() == (8, 16, 3)


def test_puncture_examples_and_errors():
    rep = Code.from_words(2, [b"\x00\x00\x00", b"\x01\x01\x01"])
    assert params(puncture(rep)).triple() == (2, 2, 2)
    ext = to_code(seed_family("extended_hamming_8_4"))
    assert params(puncture(ext)).triple() == (7, 16, 3)
    pair = Code.from_words(2, [b"\x00\x00", b"\x01\x01"])
    assert params(puncture(pair)).triple() == (1, 2, 1)
    with pytest.raises(DistanceTooSmallError):
        puncture(Code.from_words(2, [b"\x00\x00", b"\x00\x01"]))
    with pytest.raises(ContractViolationError):
        puncture(Code.from_words(2, [b"\x00", b"\x01"]))


def test_shorten_examples_and_errors():
    even = to_code(seed_family("parity", n=3, q=2))
    assert params(shorten(even)).triple() == (2, 2, 2)
    tri = Code.from_words(2, [b"\x00\x00\x00", b"\x00\x01\x01", b"\x01\x00\x01"])
    shr = shorten(tri)  # coordinate 0, fiber of symbol 0 = {000, 011}
    assert shr.words == (b"\x00\x00", b"\x01\x01")
    ham = to_code(seed_family("hamming_7_4"))
    p = params(shorten(ham))
    assert p.n == 6 and p.m == 8 and p.d >= 3
    with pytest.raises(DegenerateInputError):
        shorten(Code.from_words(2, [b"\x00\x00"]))


def test_shorten_takes_the_largest_fiber_then_the_smallest_symbol():
    # coordinate 0: symbol 0 has one word, symbols 1 and 2 have two each
    code = Code.from_words(3, [b"\x00\x00", b"\x01\x00", b"\x01\x01", b"\x02\x01", b"\x02\x02"])
    out, step = _shorten_step(code)
    assert step == SpoilStep(SHORTEN, coordinate=0, symbol=1)
    assert out.words == (b"\x00", b"\x01")
    # a larger fiber beats a smaller symbol
    out, step = _shorten_step(Code.from_words(3, [b"\x00\x00", b"\x02\x00", b"\x02\x01"]))
    assert (step.symbol, out.words) == (2, (b"\x00", b"\x01"))


def _reference_moves(code):
    """The three moves as they were, each rewriting the words itself."""
    out = [(Code.from_words(code.q, tuple(w + b"\x00" for w in code.words)),
            SpoilStep(LENGTHEN, coordinate=code.n, symbol=0))]
    d, witness = min_distance(code)
    if code.n > 1 and d >= 2:
        a, b = witness
        coord = next(i for i in range(code.n) if a[i] != b[i])
        out.append((Code.from_words(code.q, tuple(w[:coord] + w[coord + 1:] for w in code.words)),
                    SpoilStep(PUNCTURE, coordinate=coord)))
    if code.m > 1 and code.n > 1:
        coord = next(i for i in range(code.n) if len({w[i] for w in code.words}) > 1)
        fibers = {}
        for w in code.words:
            fibers.setdefault(w[coord], []).append(w)
        symbol = min(fibers, key=lambda s: (-len(fibers[s]), s))
        out.append((Code.from_words(code.q, tuple(w[:coord] + w[coord + 1:] for w in fibers[symbol])),
                    SpoilStep(SHORTEN, coordinate=coord, symbol=symbol)))
    return out


@given(codes)
@settings(max_examples=150, deadline=None)
def test_moves_match_the_word_rewriting_reference(code):
    moves = [_lengthen_step(code)]
    d, _ = min_distance(code)
    if code.n > 1 and d >= 2:
        moves.append(_puncture_step(code))
    if code.m > 1 and code.n > 1:
        moves.append(_shorten_step(code))
    assert moves == _reference_moves(code)


def test_linear_variants_preserve_linearity():
    lin = seed_family("extended_hamming_8_4")
    assert (lengthen(lin).n, lengthen(lin).k, lengthen(lin).d) == (9, 4, 4)
    pl = puncture(lin)
    assert (pl.n, pl.k, pl.d) == (7, 4, 3)
    sl = shorten(seed_family("hamming_7_4"))
    assert (sl.n, sl.k) == (6, 3) and sl.d >= 3
    # zero column is appended, so every codeword ends in 0
    assert all(wd[-1] == 0 for wd in to_code(lengthen(lin)).words)


def test_reduce_distance_exact():
    ext = to_code(seed_family("extended_hamming_8_4"))
    out = reduce_distance_exact(ext, 2)
    assert params(out).triple() == (8, 16, 2)
    rep = Code.from_words(2, [b"\x00\x00\x00", b"\x01\x01\x01"])
    assert reduce_distance_exact(rep, 3) is rep or params(reduce_distance_exact(rep, 3)).d == 3
    assert params(reduce_distance_exact(rep, 1)).triple() == (3, 2, 1)
    with pytest.raises(ContractViolationError):
        reduce_distance_exact(rep, 4)


def test_reduce_floor_logcard():
    ext = to_code(seed_family("extended_hamming_8_4"))
    r82 = reduce_distance_exact(ext, 2)
    out = reduce_floor_logcard(r82, 2)
    p = params(out)
    assert p.n == 8 and floor_log_q(p.m, 2) == 2 and p.d >= 2
    # no-op when the floor already matches
    same = reduce_floor_logcard(out, 2)
    assert floor_log_q(params(same).m, 2) == 2

    rng = random.Random(5)
    words = set()
    while len(words) < 20:
        words.add(bytes(rng.randrange(2) for _ in range(8)))
    c = Code.from_words(2, words)  # floor log2(20) = 4
    out = reduce_floor_logcard(c, 3)
    assert floor_log_q(params(out).m, 2) == 3


def test_multiplicity_witness_convergence():
    rep = Code.from_words(2, [b"\x00\x00\x00", b"\x01\x01\x01"])
    witnesses = multiplicity_witness(rep, 20)
    triples = [params(wc).triple() for wc in witnesses]
    assert len(set(triples)) == 20
    assert triples[:3] == [(4, 2, 3), (5, 2, 3), (6, 2, 3)]
    base_point = code_point(params(rep))
    dists = [max_distance(code_point(params(wc)), LENGTHEN_LIMIT) for wc in witnesses]
    # strictly decreasing toward the limit, never equal to the base point
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert all(code_point(params(wc)) != base_point for wc in witnesses)
    # witness point is the base point scaled by n/(n+j)
    for j, wc in enumerate(witnesses, start=1):
        pt = code_point(params(wc))
        scale = Fraction(3, 3 + j)
        assert pt == RatPoint(base_point.r * scale, base_point.delta * scale)


def test_multiplicity_witness_singleton():
    singleton = Code.from_words(2, [bytes(2)])
    for wc in multiplicity_witness(singleton, 5):
        assert code_point(params(wc)) == RatPoint.of(0, 0)


def test_realize_point_acceptance_example():
    outputs = realize_point((1, 8, 1), q=2, count=3)
    assert [rc.params.triple() for rc in outputs] == [(8, 2, 1), (16, 4, 2), (24, 8, 3)]
    target = RatPoint.of(Fraction(1, 8), Fraction(1, 8))
    for rc in outputs:
        assert rc.point == target
        replayed = replay_trace(rc.trace, rc.seed)
        assert params(replayed) == rc.params


def test_realize_point_small_target():
    outputs = realize_point((1, 2, 1), q=2, count=2)
    assert [rc.params.triple() for rc in outputs] == [(2, 2, 1), (4, 4, 2)]


def test_realize_point_rejects_boundary_targets():
    with pytest.raises(ContractViolationError):
        realize_point((0, 8, 1), q=2, count=1)
    with pytest.raises(ContractViolationError):
        realize_point((8, 8, 1), q=2, count=1)
    with pytest.raises(ContractViolationError):
        realize_point((1, 8, 8), q=2, count=1)


def test_realize_measures_each_distance_walk_once(monkeypatch):
    from codeplane import kernels

    calls = []
    original = kernels.min_pairwise

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "min_pairwise", counted)
    # per level: the seed, whose measurement also serves the first puncture
    # and, with no puncture, the final check; the code each later puncture
    # cuts; and the final code after a puncture. A lengthened code keeps its
    # parent's distance, so a level of P punctures measures 1 + P codes
    # (2 + P while a code did not keep its distance)
    outputs = realize_point((1, 4, 2), q=2, count=2)
    kinds = [[step.kind for step in rc.trace.steps] for rc in outputs]
    assert not any(SHORTEN in k for k in kinds) and any(PUNCTURE in k for k in kinds)
    assert len(calls) == sum(1 + k.count(PUNCTURE) for k in kinds)


def test_spoiled_outputs_never_beat_the_search_oracle():
    from codeplane.search import best_min_distance

    rng = random.Random(31)
    oracle_cache = {}
    for _ in range(40):
        n = rng.randrange(2, 6)
        m_target = rng.randrange(2, min(2 ** n, 8) + 1)
        words = set()
        while len(words) < m_target:
            words.add(bytes(rng.randrange(2) for _ in range(n)))
        code = Code.from_words(2, words)
        for op in (lengthen, puncture, shorten):
            p = params(code)
            if op is puncture and (p.d < 2 or p.n <= 1):
                continue
            if op is shorten and (p.m < 2 or p.n <= 1):
                continue
            out = params(op(code))
            if out.n > 6 or out.m < 2:
                continue
            key = (out.n, out.m)
            if key not in oracle_cache:
                oracle_cache[key] = best_min_distance(2, out.n, out.m).d
            assert out.d <= oracle_cache[key]


def test_written_traces_replay_to_the_written_codes(tmp_path):
    # each trace file nests its trace under "trace" beside the manifest; replayed
    # on the written seed (realize) or on the input file (spoil), it gives the
    # written code byte for byte
    (tmp_path / "in.code.txt").write_text("2 5 4\n00000\n00111\n11100\n11011\n")
    assert main(["realize", "--target", "1/4,1/4", "--count", "2", "--out", str(tmp_path)]) == 0
    assert main(["spoil", "--input", str(tmp_path / "in.code.txt"), "--op", "puncture", "--count", "2",
                 "--out", str(tmp_path)]) == 0
    runs = [(f"realize_a{a}.trace.json", f"realize_a{a}.seed.txt", f"realize_a{a}.code.txt") for a in (1, 2)]
    runs.append(("spoil_trace.json", "in.code.txt", "spoiled.code.txt"))
    steps = 0
    for trace_name, seed_name, code_name in runs:
        trace = SpoilTrace.from_json(json.loads((tmp_path / trace_name).read_text())["trace"])
        seed = read_code_text((tmp_path / seed_name).read_text())
        assert write_code_text(replay_trace(trace, seed)) == (tmp_path / code_name).read_text(), trace_name
        steps += len(trace.steps)
    assert steps > 2  # the spoil trace's two punctures and at least one realize step


def test_replay_rejects_wrong_code():
    outputs = realize_point((1, 4, 1), q=2, count=1)
    trace = outputs[0].trace
    wrong = Code.from_words(2, [b"\x00", b"\x01"])
    with pytest.raises(ContractViolationError):
        replay_trace(trace, wrong)


# steps out of range on the q = 2, n = 3 code {000, 111}; unchecked, they
# gave a no-op, a longer code, an IndexError or a lengthen at the wrong place
@pytest.mark.parametrize("step", [
    SpoilStep(PUNCTURE, coordinate=7),
    SpoilStep(PUNCTURE, coordinate=-1),
    SpoilStep(PUNCTURE),
    SpoilStep(SHORTEN, coordinate=9, symbol=0),
    SpoilStep(SHORTEN, coordinate=-1, symbol=0),
    SpoilStep(SHORTEN, coordinate=0, symbol=2),
    SpoilStep(SHORTEN, coordinate=0),
    SpoilStep(LENGTHEN, coordinate=0, symbol=0),
    SpoilStep(LENGTHEN, coordinate=4, symbol=0),
    SpoilStep(LENGTHEN, symbol=0),
    SpoilStep(LENGTHEN, coordinate=3, symbol=2),
    SpoilStep(LENGTHEN, coordinate=3, symbol=-1),
    SpoilStep(PUNCTURE, coordinate=0, symbol=5),
], ids=lambda step: f"{step.kind}-{step.coordinate}-{step.symbol}")
def test_apply_step_checks_the_step_against_the_code(step):
    code = Code.from_words(2, [b"\x00\x00\x00", b"\x01\x01\x01"])
    with pytest.raises(ContractViolationError):
        apply_step(code, step)


def test_replay_rejects_a_no_op_step():
    code = Code.from_words(2, [b"\x00\x00\x00", b"\x01\x01\x01"])
    trace = SpoilTrace(params(code), (SpoilStep(PUNCTURE, coordinate=7),), params(code))
    with pytest.raises(ContractViolationError):
        replay_trace(trace, code)


def test_a_shorten_step_to_an_empty_fiber_is_the_caller_s_fault():
    # no word of {000, 011} has a 1 at coordinate 0: the step, not the library, is at fault
    code = Code.from_words(2, [b"\x00\x00\x00", b"\x00\x01\x01"])
    step = SpoilStep(SHORTEN, coordinate=0, symbol=1)
    with pytest.raises(ContractViolationError, match="shorten step selects no word"):
        apply_step(code, step)
    shortened = params(Code.from_words(2, [b"\x00\x00", b"\x01\x01"]))
    with pytest.raises(ContractViolationError, match="shorten step selects no word"):
        replay_trace(SpoilTrace(params(code), (step,), shortened), code)


def test_steps_in_range_still_apply():
    code = Code.from_words(3, [b"\x00\x00\x00", b"\x01\x01\x01", b"\x02\x02\x01"])
    assert apply_step(code, SpoilStep(LENGTHEN, coordinate=3, symbol=2)).words == (
        b"\x00\x00\x00\x02", b"\x01\x01\x01\x02", b"\x02\x02\x01\x02")
    assert apply_step(code, SpoilStep(PUNCTURE, coordinate=2)).words == (b"\x00\x00", b"\x01\x01", b"\x02\x02")
    assert apply_step(code, SpoilStep(SHORTEN, coordinate=2, symbol=1)).words == (b"\x01\x01", b"\x02\x02")


@pytest.mark.parametrize("q", [2, 3, 4, 16])
def test_kept_distances_match_a_fresh_measurement(q):
    # after random chains of moves, what each code keeps (measured, or carried
    # by lengthen) is the first attaining pair of its own sorted words
    rng = random.Random(q)
    checked = 0
    for _ in range(30):
        code = _random_code(rng, q=q, n=rng.randrange(2, 9), max_m=40)
        for _ in range(8):
            move = rng.choice([_lengthen_step, _puncture_step, _shorten_step, None])
            try:
                if move is None:
                    min_distance(code)
                else:
                    code = move(code)[0]
            except (ContractViolationError, DistanceTooSmallError, DegenerateInputError):
                continue
            if code._measured is not None:
                assert code._measured == kernels.min_pairwise(code.packed(), code.m, code.n)
                assert code == Code.from_words(q, code.words)
                checked += 1
    assert checked > 20
