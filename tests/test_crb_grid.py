"""Grid bounds: one call over every angle against the one-angle oracles in
scalar_bounds, and the rank-two certificate against eigvalsh."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import scalar_bounds
from svamsim import crb
from svamsim.arrays import AngularGrid, RegionOfInterest, ula_manifold
from svamsim.beams import BeamSpec
from svamsim.crb import (
    crb_benchmark,
    crb_general,
    crb_svam,
    crb_unknown_alpha,
    gain_condition_sufficient,
)
from svamsim.harness import CRB_SCHEMES, expanded_combiners, region_beam_bank
from svamsim.sensing import block_combiners

ROI = RegionOfInterest(0.0, 1.0)
N, SNAPSHOTS, SNR_DB = 32, 24, -10.0  # every block size below divides 24
GRID = AngularGrid(ROI, 32)


@pytest.mark.parametrize(
    "beam", [BeamSpec(ROI.center, ROI.width), BeamSpec(0.25, 0.5)],
    ids=["roi_beam", "offset_beam"],
)
@pytest.mark.parametrize("n_v", [1, 2, 4, 8])
@pytest.mark.parametrize("scheme", CRB_SCHEMES)
def test_grid_bounds_equal_the_oracle_at_every_point(scheme, n_v, beam):
    bank, grid, oracle = scalar_bounds.grid_and_oracle(
        scheme, N, n_v, SNAPSHOTS, GRID, SNR_DB, beam
    )
    assert grid == oracle
    if scheme == "unknown-alpha" and n_v == 1:
        assert all(math.isinf(res.bound) for res in grid)
    if scheme != "svam":
        return
    us = [float(u) for u in GRID.points]
    certificates = gain_condition_sufficient(bank, GRID.points)
    expected = [scalar_bounds.gain_condition_sufficient(bank, u) for u in us]
    for (holds, lhs, rhs), (ref_holds, ref_lhs, ref_rhs) in zip(certificates, expected):
        assert (holds, lhs) == (ref_holds, ref_lhs)
        assert rhs == pytest.approx(ref_rhs, rel=1e-13)


def test_single_angle_returns_one_result():
    bank = region_beam_bank(BeamSpec(0.5, 1.0), 13, 3)
    many = crb_svam(bank, 4, [0.3], 0.5)
    one = crb_svam(bank, 4, 0.3, 0.5)
    assert many == [one] and one == scalar_bounds.crb_svam(bank, 4, 0.3, 0.5)
    assert gain_condition_sufficient(bank, np.float64(0.3)) == (
        gain_condition_sufficient(bank, [0.3])[0]
    )
    with pytest.raises(ValueError):
        crb_general(bank, np.zeros((2, 2)), 1.0)


def test_rank_two_certificate_matches_eigvalsh_on_general_banks():
    rng = np.random.default_rng(53)
    shapes = [(int(rng.integers(2, 41)), int(rng.integers(1, 31))) for _ in range(150)]
    shapes += [(2, 1), (40, 1), (2, 30), (40, 30)]
    verdicts = set()
    for m, segments in shapes:
        f = rng.standard_normal((m, segments)) + 1j * rng.standard_normal((m, segments))
        us = rng.uniform(-1.0, 1.0, 3)
        for u, (holds, lhs, rhs) in zip(us, gain_condition_sufficient(f, us)):
            ref_holds, ref_lhs, ref_rhs = scalar_bounds.gain_condition_sufficient(f, u)
            assert (holds, lhs) == (ref_holds, ref_lhs)
            assert rhs == pytest.approx(ref_rhs, rel=1e-13)
            verdicts.add(holds)
    assert verdicts == {True, False}


def _random_banks():
    """Seeded complex banks of 1-40 taps and 1-30 segments, each in C
    order, in Fortran order and as the conjugate transpose of a
    (segments, taps) array."""
    rng = np.random.default_rng(30)
    shapes = [(int(rng.integers(1, 41)), int(rng.integers(1, 31))) for _ in range(12)]
    shapes += [(1, 1), (1, 30), (40, 1), (40, 30)]
    banks = []
    for m, segments in shapes:
        x = rng.standard_normal((m, segments)) + 1j * rng.standard_normal((m, segments))
        y = rng.standard_normal((segments, m)) + 1j * rng.standard_normal((segments, m))
        banks += [
            pytest.param(x, id=f"{m}x{segments}-C"),
            pytest.param(np.asfortranarray(x), id=f"{m}x{segments}-F"),
            pytest.param(y.conj().T, id=f"{m}x{segments}-conjT"),
        ]
    return banks


# every function over many angles at once, as (bank, angles) -> results
_GRID_FUNCTIONS = {
    "general": lambda f, u: crb_general(f, u, 0.3),
    "unknown-alpha": lambda f, u: crb_unknown_alpha(f, u, 0.3),
    "benchmark": lambda f, u: crb_benchmark(f, 3, u, 0.3),
    "svam-1": lambda f, u: crb_svam(f, 1, u, 0.3),
    "svam-3": lambda f, u: crb_svam(f, 3, u, 0.3),
    "certificate": gain_condition_sufficient,
}


@pytest.mark.parametrize("bank", _random_banks())
def test_many_angles_equal_one_angle_calls_bit_for_bit(bank):
    rng = np.random.default_rng(bank.shape[0] * 31 + bank.shape[1])
    us = np.concatenate([[-1.0, 0.0], rng.uniform(-1.0, 1.0, 17)])
    for name, bound in _GRID_FUNCTIONS.items():
        assert bound(bank, us) == [bound(bank, u) for u in us.tolist()], name
    rows = ula_manifold(bank.shape[0], us)
    lone = np.stack([bank.conj().T @ row for row in rows])
    assert crb._responses(bank, rows).tobytes() == lone.tobytes()


def _degenerate_banks():
    m, segments = 8, 5
    rng = np.random.default_rng(9)
    beam = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    first = np.zeros((m, segments), dtype=complex)
    first[0] = rng.standard_normal(segments) + 1j * rng.standard_normal(segments)
    return {
        # no combiner sees anything: every bound is infinite
        "zero": (
            np.zeros((m, segments), dtype=complex),
            ("general", "unknown-alpha", "benchmark", "svam-1", "svam-3"),
        ),
        # a rank-one bank: the gain nuisance explains all derivative energy
        "one-repeated-combiner": (np.tile(beam[:, None], (1, segments)), ("unknown-alpha",)),
        # only the first element, whose steering derivative is zero, is read
        "first-element-only": (first, ("general", "unknown-alpha", "benchmark", "svam-1")),
    }


@pytest.mark.parametrize("case", ["zero", "one-repeated-combiner", "first-element-only"])
def test_degenerate_banks_give_infinite_bounds_without_warnings(case):
    bank, infinite = _degenerate_banks()[case]
    us = np.linspace(-1.0, 0.9, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in infinite:
            results = _GRID_FUNCTIONS[name](bank, us)
            assert all(res.bound == math.inf for res in results), name
            assert results == [_GRID_FUNCTIONS[name](bank, u) for u in us.tolist()]
        if case == "zero":
            assert gain_condition_sufficient(bank, us) == [(True, 0.0, 0.0)] * len(us)


def test_a_bank_blind_to_the_steering_vector_keeps_the_derivative_energy():
    # columns proportional to the centred-derivative companion at u are
    # orthogonal to the steering vector there: the gain nuisance removes
    # nothing and the unknown-gain bound is the known-gain one, with no
    # 0/0 where the projection is skipped
    m, u = 12, 0.3
    companion = (np.arange(m) - (m - 1) / 2.0) * ula_manifold(m, u)
    bank = companion[:, None] * np.array([1.0, -0.5j, 2.0])
    us = np.array([u, -0.4, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blind = crb_unknown_alpha(bank, us, 0.3)
        assert blind[0] == crb_general(bank, u, 0.3)
        assert blind == [crb_unknown_alpha(bank, v, 0.3) for v in us.tolist()]
        assert blind == [scalar_bounds.crb_unknown_alpha(bank, v, 0.3) for v in us]


def test_vector_modulus_and_square_round_as_the_scalar_ones():
    # the bounds take |z| by np.hypot and its square by np.float_power
    # because those give one complex number's abs(z) and one float's x ** 2
    # (libm pow) bit for bit; np.abs, x * x and np.power do not
    rng = np.random.default_rng(7)
    size = 20000
    scale = np.exp(rng.uniform(-30.0, 30.0, size))
    z = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
    modulus = np.hypot(z.real, z.imag)
    assert modulus.tolist() == [abs(v) for v in z] == [abs(complex(v)) for v in z]
    square = np.float_power(modulus, 2.0).tolist()
    assert square == [v**2 for v in modulus] == [v**2 for v in modulus.tolist()]


@pytest.mark.parametrize("taps, segments", [(64, 30), (61, 30), (57, 15), (1, 4)])
def test_expanded_combiners_stack_each_columns_block(taps, segments):
    n = 64
    rng = np.random.default_rng(taps)
    bank = rng.standard_normal((taps, segments)) + 1j * rng.standard_normal((taps, segments))
    n_v = n - taps + 1
    want = np.concatenate([block_combiners(column, n, n_v) for column in bank.T]).T
    got = expanded_combiners(bank, n)
    assert got.flags.c_contiguous and got.tobytes() == np.ascontiguousarray(want).tobytes()


def _bits(results) -> list[tuple]:
    """Each result's fields, every float as its hex spelling: -0.0 is not
    0.0, and a nan equals itself."""
    if not isinstance(results, list):
        results = [results]
    return [
        tuple(v.hex() if isinstance(v, float) else v
              for v in (dataclasses.astuple(r) if dataclasses.is_dataclass(r) else r))
        for r in results
    ]


@pytest.mark.parametrize("m", [1, 2, 13, 57, 64])
def test_cached_steering_rows_are_a_fresh_builds_bits(m):
    rng = np.random.default_rng(m)
    grids = [
        np.array([0.0]), np.array([-1.0, -0.0, 0.5]), rng.uniform(-1.0, 1.0, 33),
        np.asarray(GRID.points), np.asarray(AngularGrid(ROI, 128).points),
    ]
    crb._steering_rows.cache_clear()
    for us in grids:
        phi, d = crb._steering_rows(m, us.tobytes())
        fresh = ula_manifold(m, us)
        assert phi.tobytes() == fresh.tobytes()
        assert d.tobytes() == ((1j * np.pi * np.arange(m)) * fresh).tobytes()
        # each row is that angle's own steering vector
        assert [row.tobytes() for row in phi] == [
            ula_manifold(m, u).tobytes() for u in us.tolist()
        ]
        for rows in (phi, d):
            assert not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0
        again = crb._steering_rows(m, us.tobytes())
        assert again[0] is phi and again[1] is d
    assert crb._steering_rows.cache_info()[:2] == (len(grids), len(grids))


def test_negative_zero_angles_are_their_own_cache_entry():
    crb._steering_rows.cache_clear()
    pos = crb._steering_rows(5, np.array([0.0, 0.25]).tobytes())
    neg = crb._steering_rows(5, np.array([-0.0, 0.25]).tobytes())
    # the key is the angles' bytes, not their values, which compare equal
    assert crb._steering_rows.cache_info()[:2] == (0, 2)
    for us, (phi, _) in (([0.0, 0.25], pos), ([-0.0, 0.25], neg)):
        assert phi.tobytes() == ula_manifold(5, np.array(us)).tobytes()
    bank = region_beam_bank(BeamSpec(0.5, 1.0), 5, 3)
    for u in (0.0, -0.0):
        crb._steering_rows.cache_clear()
        cold = _bits(crb_svam(bank, 2, u, 0.3))
        crb._steering_rows.cache_clear()
        crb_svam(bank, 2, -u, 0.3)  # the other zero's entry only
        assert _bits(crb_svam(bank, 2, u, 0.3)) == cold
        assert crb._steering_rows.cache_info()[:2] == (0, 2)


@pytest.mark.parametrize("bank", [
    pytest.param(region_beam_bank(BeamSpec(0.5, 1.0), 61, 30), id="roi-beam-61x30"),
    pytest.param(np.random.default_rng(4).standard_normal((24, 7)) + 0j, id="random-24x7"),
])
def test_a_warm_steering_cache_gives_a_cold_ones_bits(bank):
    us = np.concatenate([[-0.0, 0.0], np.asarray(GRID.points)])
    cold = {}
    for name, bound in _GRID_FUNCTIONS.items():
        crb._steering_rows.cache_clear()
        cold[name] = _bits(bound(bank, us))
    # the last cold call left the entry every function now finds
    for name, bound in _GRID_FUNCTIONS.items():
        assert _bits(bound(bank, us)) == cold[name], name
    assert crb._steering_rows.cache_info()[:2] == (len(_GRID_FUNCTIONS), 1)
