"""The generator against a from-the-recipe reimplementation."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import flowagg
import oracles
from flowagg.rng import LANE_DRAWS, LANE_MIN_DRAWS, SplitMix64, Xoshiro256StarStar, derive_seed

# Raw batch sizes around the lane route's edges: its threshold -1, 0 and
# +1, a lane-multiple +-1, and a batch of more than 100,000 draws.
LANE_MULTIPLE = LANE_DRAWS * (LANE_MIN_DRAWS // LANE_DRAWS + 5)
LANE_COUNTS = [LANE_MIN_DRAWS - 1, LANE_MIN_DRAWS, LANE_MIN_DRAWS + 1,
               LANE_MULTIPLE - 1, LANE_MULTIPLE + 1, 100_003]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0x123456789ABCDEF])
def test_splitmix_matches_reference(seed):
    mixer = SplitMix64(seed)
    got = [mixer.next() for _ in range(16)]
    assert got == oracles.splitmix64_seq(seed, 16)


@pytest.mark.parametrize("seed", [0, 7, 10**18])
def test_u64_stream_matches_reference(seed):
    g = Xoshiro256StarStar(seed)
    got = [g.next_u64() for _ in range(64)]
    assert got == oracles.xoshiro_seq(seed, 64)


@pytest.mark.parametrize("count", [0, 1, 2, *LANE_COUNTS])
def test_raw_batches_match_the_stream_on_either_route(count):
    g = Xoshiro256StarStar(5)
    raw, state = oracles.xoshiro_walk(5, count + 3)
    got = g._draw_u64(count)
    assert got.dtype == np.uint64 and got.tolist() == raw[:count]
    assert [g.next_u64() for _ in range(3)] == raw[count:]
    assert g.s == state


def _run_fresh(script):
    """Run `script` in a new interpreter, where no jump table exists yet."""
    src = os.path.dirname(os.path.dirname(flowagg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def test_import_builds_no_jump_table():
    _run_fresh(
        "import flowagg.rng as r\n"
        "assert r._JUMPS == []\n"
        "g = r.Xoshiro256StarStar(1)\n"
        "g.uniform_array((r.LANE_MIN_DRAWS - 1,))\n"
        "assert r._JUMPS == []\n"
        "g.uniform_array((r.LANE_MIN_DRAWS,))\n"
        "assert r._JUMPS and all(t.nbytes == 8192 for t in r._JUMPS)\n"
    )


def test_threads_that_build_the_jump_chain_together_draw_the_stream():
    _run_fresh(
        "import sys, threading\n"
        "import flowagg.rng as r\n"
        "sys.setswitchinterval(1e-6)\n"
        "n = 8 * r.LANE_MIN_DRAWS\n"
        "got = {}\n"
        "def draw(seed):\n"
        "    got[seed] = r.Xoshiro256StarStar(seed)._draw_u64(n).tolist()\n"
        "threads = [threading.Thread(target=draw, args=(seed,)) for seed in range(6)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "    assert not t.is_alive()\n"
        "r.LANE_MIN_DRAWS = n + 1\n"
        "for seed in range(6):\n"
        "    assert got[seed] == r.Xoshiro256StarStar(seed)._draw_u64(n).tolist(), seed\n"
    )


def test_derive_seed_walks_the_mixer_chain():
    for seed in (0, 99, 2**63):
        chain = oracles.splitmix64_seq(seed, 8)
        for index in range(8):
            assert derive_seed(seed, index) == chain[index]


def test_derived_streams_differ():
    a = Xoshiro256StarStar(derive_seed(5, 0))
    b = Xoshiro256StarStar(derive_seed(5, 1))
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_uniform_is_top_53_bits():
    raw = oracles.xoshiro_seq(3, 32)
    g = Xoshiro256StarStar(3)
    for r in raw:
        u = g.uniform()
        assert u == (r >> 11) * 2.0**-53
        assert 0.0 <= u < 1.0


def test_normal_pair_follows_box_muller():
    raw = oracles.xoshiro_seq(11, 2)
    u1 = ((raw[0] >> 11) + 1) * 2.0**-53
    u2 = (raw[1] >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(u1))
    g = Xoshiro256StarStar(11)
    assert g.normal() == pytest.approx(r * math.cos(2 * math.pi * u2), abs=1e-15)
    assert g.normal() == pytest.approx(r * math.sin(2 * math.pi * u2), abs=1e-15)


def test_arrays_fill_row_major():
    a = Xoshiro256StarStar(21).uniform_array((3, 4))
    b = Xoshiro256StarStar(21)
    np.testing.assert_array_equal(a.reshape(-1), [b.uniform() for _ in range(12)])
    c = Xoshiro256StarStar(22).normal_array((2, 3))
    d = Xoshiro256StarStar(22)
    np.testing.assert_array_equal(c.reshape(-1), [d.normal() for _ in range(6)])


def test_normal_array_consumes_cached_spare():
    g = Xoshiro256StarStar(33)
    first = g.normal()
    rest = g.normal_array((3,))
    h = Xoshiro256StarStar(33)
    expect = [h.normal() for _ in range(4)]
    assert [first, *rest.tolist()] == expect


def test_moments_are_sane():
    g = Xoshiro256StarStar(1)
    u = g.uniform_array((20000,))
    assert abs(u.mean() - 0.5) < 0.01
    z = g.normal_array((20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_randbelow_bounds_and_determinism():
    g = Xoshiro256StarStar(9)
    draws = [g.randbelow(7) for _ in range(500)]
    assert min(draws) == 0 and max(draws) == 6
    h = Xoshiro256StarStar(9)
    assert draws == [h.randbelow(7) for _ in range(500)]
    assert Xoshiro256StarStar(9).randbelow(1) == 0
    with pytest.raises(ValueError):
        g.randbelow(0)


def test_randbelow_names_the_64_bit_limit():
    g = Xoshiro256StarStar(4)
    assert g.randbelow(2**64) == oracles.xoshiro_seq(4, 1)[0]
    state = list(g.s)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        g.randbelow(2**64 + 1)
    assert g.s == state


def test_shuffle_permutes_deterministically():
    g = Xoshiro256StarStar(13)
    items = list(range(30))
    g.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))
    h = Xoshiro256StarStar(13)
    again = list(range(30))
    h.shuffle(again)
    assert again == items


# Past the trivial lengths, 2**e + 2 gives bounds just above powers of two,
# where about half of the raw draws are rejected; the last length's first
# batch runs in lanes.
@pytest.mark.parametrize("length", [0, 1, 2, 3, 6, 66, 1026, 2 * LANE_MIN_DRAWS + 2])
def test_shuffle_is_fisher_yates_over_randbelow(length):
    g = Xoshiro256StarStar(31)
    recipe = oracles.RecipeStream(31, 4 * length + 64)
    assert g.normal() == recipe.normal()
    items = list(range(length))
    g.shuffle(items)
    expect = list(range(length))
    for i in range(length - 1, 0, -1):
        j = recipe.randbelow(i + 1)
        expect[i], expect[j] = expect[j], expect[i]
    assert items == expect
    _same_position(g, recipe)


@pytest.mark.parametrize("method", ["uniform_array", "normal_array"])
@pytest.mark.parametrize("shape", [(-2, 3), (-1,), (2.7,), (2.0,), (np.float64(3),), ("2",), 3])
def test_array_fillers_reject_bad_shapes_before_drawing(method, shape):
    g = Xoshiro256StarStar(8)
    g.normal()
    state, spare = list(g.s), g._spare_normal
    with pytest.raises(ValueError, match="non-negative integers"):
        getattr(g, method)(shape)
    assert g.s == state and g._spare_normal == spare
    assert getattr(g, method)((np.int64(2), 1)).shape == (2, 1)


FILL_SHAPES = [(), (0,), (1,), (2,), (3,), (2, 3), (1001,), (1000, 16),
               *[(count,) for count in LANE_COUNTS[:-1]], (331, 317)]


def _same_bytes(got, expect):
    assert got.dtype == np.float64 and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def _same_position(g, recipe):
    assert g.s == recipe.state()
    if recipe.spare is None:
        assert g._spare_normal is None
    else:
        assert np.float64(g._spare_normal).tobytes() == np.float64(recipe.spare).tobytes()


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("shape", FILL_SHAPES)
def test_array_fillers_match_the_per_element_recipe(shape, spare):
    g = Xoshiro256StarStar(77)
    recipe = oracles.RecipeStream(77, 4 * math.prod(shape) + 2)
    if spare:
        assert g.normal() == recipe.normal()
    _same_position(g, recipe)
    for _ in range(2):
        _same_bytes(g.normal_array(shape), recipe.normal_array(shape))
        _same_position(g, recipe)
        _same_bytes(g.uniform_array(shape), recipe.uniform_array(shape))
        _same_position(g, recipe)


def test_mixed_draws_walk_the_recipe_stream():
    g = Xoshiro256StarStar(2024)
    recipe = oracles.RecipeStream(2024, 4000 + 2 * LANE_MULTIPLE)
    calls = [
        ("normal", None), ("normal_array", (5,)), ("uniform_array", (4, 2)),
        ("randbelow", 7), ("normal", None), ("normal", None), ("normal_array", (0,)),
        ("normal", None), ("uniform_array", ()), ("normal_array", (3, 3)),
        ("randbelow", 1000), ("normal_array", ()), ("normal", None),
        ("randbelow", 2**40 + 3), ("normal_array", (64, 3)), ("uniform_array", (9,)),
        ("normal", None), ("normal_array", (LANE_MULTIPLE - 1,)), ("randbelow", 5),
        ("uniform", None), ("normal", None),
    ]
    for method, arg in calls:
        if method in ("normal", "uniform"):
            got, expect = getattr(g, method)(), getattr(recipe, method)()
            assert np.float64(got).tobytes() == np.float64(expect).tobytes()
        elif method == "randbelow":
            assert g.randbelow(arg) == recipe.randbelow(arg)
        else:
            _same_bytes(getattr(g, method)(arg), getattr(recipe, method)(arg))
        _same_position(g, recipe)
