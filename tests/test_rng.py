import numpy as np

from dknn.rng import Rng
from oracles import loop_permutation, mix64, reference_stream


def _draws(rng: Rng, plan) -> list[int]:
    """Draws of ``rng`` along ``plan``: (True, n) is n scalar draws and
    (False, n) one bulk call of n."""
    out: list[int] = []
    for scalar, n in plan:
        out += [rng.next_u64() for _ in range(n)] if scalar else rng._bulk(n).tolist()
    return out


def test_scalar_and_bulk_paths_agree():
    # scalar, bulk and interleaved draws each equal the oracle's stream; the
    # interleaving leaves read-ahead unread before each bulk call, makes an
    # empty bulk call and crosses refills
    plan = [(True, 255), (False, 3), (True, 300), (False, 0), (True, 1),
            (False, 256), (True, 257), (False, 1), (True, 28)]
    n = sum(size for _, size in plan)
    for seed in (0, 123, 2**64 - 1):
        want = reference_stream(seed, n)
        assert _draws(Rng(seed), [(True, n)]) == want
        assert _draws(Rng(seed), [(False, n)]) == want
        assert _draws(Rng(seed), plan) == want


def test_deterministic_across_instances():
    assert np.array_equal(Rng(9).normals(1001), Rng(9).normals(1001))
    assert np.array_equal(Rng(9).permutation(500), Rng(9).permutation(500))


def test_counter_advances_consistently():
    a = Rng(5)
    first = a.uniforms(10)
    b = Rng(5)
    b.uniforms(4)
    rest = b.uniforms(6)
    assert np.array_equal(first[4:], rest)


def test_uniform_range_and_moments():
    u = Rng(17).uniforms(20000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    z = Rng(18).normals(40000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_bounded_covers_range():
    rng = Rng(19)
    seen = {rng.bounded(7) for _ in range(2000)}
    assert seen == set(range(7))


def test_permutation_is_permutation():
    for n in (1, 2, 5, 100):
        p = Rng(20).permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def test_permutation_equals_per_draw_loop():
    for seed in range(50):
        for n in (0, 1, 2, 1400):
            a, b = Rng(seed), Rng(seed)
            got, want = a.permutation(n), loop_permutation(b, n)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert a.next_u64() == b.next_u64()


def test_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_mix64_is_pure():
    assert mix64(0x123456789ABCDEF0) == mix64(0x123456789ABCDEF0)
    assert mix64(1) != mix64(2)


def test_oracle_is_published_splitmix64():
    # the splitmix64 sequences for seeds 0 and 1234567 as commonly published
    # (e.g. Rosetta Code's SplitMix64 task)
    assert reference_stream(0, 3) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert reference_stream(1234567, 3) == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
