"""Tests for the angle grid, the steering dictionary, and snapshot synthesis."""

import math

import numpy as np
import pytest

import csdoa
from conftest import ZeroRng
from csdoa import array_model


# ---------------------------------------------------------------------------
# make_grid / AngleGrid


def test_make_grid_standard_181_points():
    grid = csdoa.make_grid(-90.0, 90.0, 1.0)
    assert len(grid.angles_deg) == 181
    assert grid.angles_deg[0] == -90.0
    assert grid.angles_deg[-1] == 90.0
    assert grid.step_deg == 1.0


def test_make_grid_single_point_when_step_overshoots():
    grid = csdoa.make_grid(0.0, 0.5, 1.0)
    assert list(grid.angles_deg) == [0.0]


def test_make_grid_exact_endpoints():
    grid = csdoa.make_grid(-10.0, 10.0, 5.0)
    assert list(grid.angles_deg) == [-10.0, -5.0, 0.0, 5.0, 10.0]


def test_make_grid_fractional_step_includes_endpoint():
    grid = csdoa.make_grid(0.0, 1.0, 0.1)
    assert len(grid.angles_deg) == 11
    assert abs(grid.angles_deg[-1] - 1.0) < 1e-9


def test_make_grid_uniform_spacing():
    grid = csdoa.make_grid(-90.0, 90.0, 0.5)
    diffs = np.diff(grid.angles_deg)
    assert np.all(np.abs(diffs - 0.5) < 1e-12)


def test_make_grid_rejects_bad_steps():
    with pytest.raises(csdoa.NonPositiveStepError):
        csdoa.make_grid(-90.0, 90.0, 0.0)
    with pytest.raises(csdoa.NonPositiveStepError):
        csdoa.make_grid(-90.0, 90.0, -1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position", range(3))
def test_make_grid_rejects_a_nonfinite_bound_or_step(position, value):
    spec = [-90.0, 90.0, 1.0]
    spec[position] = value
    error = csdoa.NonPositiveStepError if position == 2 else csdoa.AngleOutOfRangeError
    with pytest.raises(error, match="finite"):
        csdoa.make_grid(*spec)


def test_make_grid_rejects_an_uncountable_grid():
    # Finite parts whose point count overflows a float.
    for spec in [(-90.0, 1e308, 1e-10), (-90.0, 90.0, 5e-324)]:
        with pytest.raises(csdoa.InstanceTooLargeError):
            csdoa.make_grid(*spec)


def test_make_grid_refuses_more_than_max_grid_points(monkeypatch):
    # The count is checked before the angles are allocated; a lowered limit
    # stands in for a step such as 1e-10 degrees (1.8e12 points).
    monkeypatch.setattr(array_model, "MAX_GRID_POINTS", 181)
    assert len(csdoa.make_grid(-90.0, 90.0, 1.0)) == 181
    monkeypatch.setattr(array_model, "MAX_GRID_POINTS", 180)
    with pytest.raises(csdoa.InstanceTooLargeError, match="more than 180 points"):
        csdoa.make_grid(-90.0, 90.0, 1.0)


def test_make_grid_rejects_empty_range():
    with pytest.raises(csdoa.EmptyGridError):
        csdoa.make_grid(10.0, -10.0, 1.0)


def test_make_grid_rejects_angles_outside_pm90():
    with pytest.raises(csdoa.AngleOutOfRangeError):
        csdoa.make_grid(-91.0, 90.0, 1.0)
    with pytest.raises(csdoa.AngleOutOfRangeError):
        csdoa.make_grid(-90.0, 91.0, 1.0)
    # a stop bound past +90 is fine as long as no generated point crosses it
    grid = csdoa.make_grid(-90.0, 90.5, 1.0)
    assert grid.angles_deg[-1] == 90.0


def test_index_of_exact_and_snapped_hits():
    grid = csdoa.make_grid(-90.0, 90.0, 1.0)
    assert grid.index_of(-60.0) == 30
    assert grid.index_of(0.0) == 90
    assert grid.index_of(40.0) == 130
    # values within 1e-9 of a grid point snap to it
    assert grid.index_of(40.0 + 1e-10) == 130
    assert grid.index_of(-60.0 - 1e-10) == 30


def test_index_of_round_trips_every_grid_point():
    grid = csdoa.make_grid(-90.0, 90.0, 1.0)
    for j, theta in enumerate(grid.angles_deg):
        assert grid.index_of(theta) == j


def test_index_of_rejects_off_grid_angles():
    grid = csdoa.make_grid(-90.0, 90.0, 1.0)
    with pytest.raises(csdoa.OffGridSourceError):
        grid.index_of(0.5)
    with pytest.raises(csdoa.OffGridSourceError):
        grid.index_of(40.001)


# ---------------------------------------------------------------------------
# ArrayGeometry / SourceSet


def test_array_geometry_validation():
    geometry = csdoa.ArrayGeometry(15, 0.5)
    assert geometry.num_sensors == 15
    assert geometry.spacing_over_wavelength == 0.5
    with pytest.raises(ValueError):
        csdoa.ArrayGeometry(1, 0.5)
    with pytest.raises(ValueError):
        csdoa.ArrayGeometry(4, 0.0)


def test_source_set_defaults_to_singleton_groups():
    sources = csdoa.SourceSet((-60.0, 0.0, 40.0))
    assert sources.coherent_groups == ((0,), (1,), (2,))
    assert sources.num_sources == 3
    assert sources.amplitude_model == csdoa.UNIT_MODULUS


def test_source_set_group_validation():
    with pytest.raises(ValueError):
        csdoa.SourceSet((0.0, 1.0), ((0, 0),))
    with pytest.raises(ValueError):
        csdoa.SourceSet((0.0, 1.0, 2.0), ((0, 1),))
    with pytest.raises(ValueError):
        csdoa.SourceSet(())
    with pytest.raises(ValueError):
        csdoa.SourceSet((0.0, 0.0))
    with pytest.raises(ValueError):
        csdoa.SourceSet((0.0,), amplitude_model="bogus")


# ---------------------------------------------------------------------------
# steering vectors (build_manifold columns)


def one_point_column(theta_deg, geometry):
    """The steering vector of ``theta_deg``: the column of a one-point grid's manifold."""
    return csdoa.build_manifold(csdoa.make_grid(theta_deg, theta_deg, 1.0), geometry)[:, 0]


def test_steering_vector_broadside_is_all_ones():
    geometry = csdoa.ArrayGeometry(15, 0.5)
    a = one_point_column(0.0, geometry)
    assert a.shape == (15,)
    assert np.array_equal(a, np.ones(15, dtype=complex))


def test_steering_vector_endfire_alternates_sign():
    geometry = csdoa.ArrayGeometry(4, 0.5)
    a = one_point_column(90.0, geometry)
    assert np.allclose(a, [1, -1, 1, -1], atol=1e-12)


def test_steering_vector_at_30_degrees():
    geometry = csdoa.ArrayGeometry(4, 0.5)
    a = one_point_column(30.0, geometry)
    assert np.allclose(a, [1, -1j, -1, 1j], atol=1e-12)


def test_steering_vector_identities():
    geometry = csdoa.ArrayGeometry(15, 0.5)
    for theta in (-90.0, -37.0, 0.0, 12.5, 60.0, 90.0):
        a = one_point_column(theta, geometry)
        assert np.all(np.abs(np.abs(a) - 1.0) < 1e-12)
        assert abs(np.linalg.norm(a) - np.sqrt(15)) < 1e-12
        assert np.array_equal(one_point_column(-theta, geometry), np.conj(a))


def test_build_manifold_matches_per_angle_steering_vectors():
    geometry = csdoa.ArrayGeometry(15, 0.5)
    grid = csdoa.make_grid(-90.0, 90.0, 1.0)
    manifold = csdoa.build_manifold(grid, geometry)
    assert manifold.shape == (15, 181)
    assert np.all(np.abs(np.linalg.norm(manifold, axis=0) - np.sqrt(15)) < 1e-12)
    assert np.array_equal(manifold[:, grid.index_of(0.0)], np.ones(15, dtype=complex))
    # A column does not depend on the grid around it: synthesize and the
    # engine read a trial's source columns off the same cached manifold.
    for step in (1.0, 0.5, 0.25, 0.7, 3.0):
        grid = csdoa.make_grid(-90.0, 90.0, step)
        for spacing in (0.5, 0.37, 1.0):
            for num_sensors in (2, 15, 64):
                geometry = csdoa.ArrayGeometry(num_sensors, spacing)
                manifold = csdoa.build_manifold(grid, geometry)
                assert manifold.shape == (num_sensors, len(grid))
                for j, theta in enumerate(grid.angles_deg):
                    assert np.array_equal(manifold[:, j], one_point_column(theta, geometry))


def test_cached_manifold_is_shared_and_read_only():
    geometry = csdoa.ArrayGeometry(15, 0.5)
    manifold = csdoa.build_manifold(csdoa.make_grid(-90.0, 90.0, 1.0), geometry)
    # An equal grid built anew, and the same angles as integers, share the entry.
    assert csdoa.build_manifold(csdoa.make_grid(-90.0, 90.0, 1.0), geometry) is manifold
    integer_grid = csdoa.AngleGrid(-90.0, 90.0, 1.0, np.arange(-90, 91))
    assert csdoa.build_manifold(integer_grid, geometry) is manifold
    assert csdoa.build_manifold(csdoa.make_grid(-90.0, 90.0, 0.5), geometry) is not manifold
    assert csdoa.build_manifold(csdoa.make_grid(-90.0, 90.0, 1.0), csdoa.ArrayGeometry(15, 0.4)) is not manifold
    assert not manifold.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        manifold[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        manifold.real[:] = 0.0
    assert np.array_equal(manifold[:, 90], np.ones(15, dtype=complex))


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_zero_phase_single_source_at_broadside():
    scenario = csdoa.build_scenario([0.0], snr_db=0.0)
    snapshot = csdoa.synthesize(scenario, ZeroRng())
    # phase-0 unit amplitude at 0 deg: clean is all ones; zero noise draws
    assert np.array_equal(snapshot.clean, np.ones(15, dtype=complex))
    assert np.array_equal(snapshot.noise, np.zeros(15, dtype=complex))
    assert np.array_equal(snapshot.data, np.ones(15, dtype=complex))


def test_synthesize_data_is_clean_plus_noise():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0)
    snapshot = csdoa.synthesize(scenario, np.random.default_rng(7))
    assert np.array_equal(snapshot.data, snapshot.clean + snapshot.noise)
    assert np.linalg.norm(snapshot.noise) > 0


def test_synthesize_infinite_snr_disables_noise():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=float("inf"))
    snapshot = csdoa.synthesize(scenario, np.random.default_rng(7))
    assert np.array_equal(snapshot.noise, np.zeros(15, dtype=complex))
    assert np.array_equal(snapshot.data, snapshot.clean)


def test_synthesize_is_reproducible():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0)
    a = csdoa.synthesize(scenario, np.random.default_rng(123))
    b = csdoa.synthesize(scenario, np.random.default_rng(123))
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.clean, b.clean)
    assert np.array_equal(a.noise, b.noise)


def test_synthesize_clean_lies_on_dictionary_columns():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=0)
    snapshot = csdoa.synthesize(scenario, np.random.default_rng(11))
    geometry = scenario.geometry
    basis = np.column_stack([one_point_column(t, geometry) for t in (-60.0, 0.0, 40.0)])
    coef = csdoa.least_squares(basis, snapshot.clean)
    assert np.linalg.norm(basis @ coef - snapshot.clean) < 1e-10
    assert np.all(np.abs(np.abs(coef) - 1.0) < 1e-10)


def test_synthesize_coherent_pair_shares_one_amplitude():
    scenario = csdoa.build_scenario([-60.0, 40.0], coherent_groups=[(0, 1)], snr_db=float("inf"))
    snapshot = csdoa.synthesize(scenario, np.random.default_rng(5))
    geometry = scenario.geometry
    basis = np.column_stack([one_point_column(t, geometry) for t in (-60.0, 40.0)])
    coef = csdoa.least_squares(basis, snapshot.clean)
    assert abs(coef[0] - coef[1]) < 1e-10
    assert abs(abs(coef[0]) - 1.0) < 1e-10


def test_synthesize_complex_gaussian_amplitudes_differ_across_sources():
    scenario = csdoa.build_scenario(
        [-60.0, 40.0], amplitude_model=csdoa.COMPLEX_GAUSSIAN, snr_db=float("inf")
    )
    snapshot = csdoa.synthesize(scenario, np.random.default_rng(5))
    geometry = scenario.geometry
    basis = np.column_stack([one_point_column(t, geometry) for t in (-60.0, 40.0)])
    coef = csdoa.least_squares(basis, snapshot.clean)
    assert abs(coef[0] - coef[1]) > 1e-6


def test_synthesize_fully_coherent_snapshots_are_rank_one():
    scenario = csdoa.build_scenario(
        [-60.0, 40.0], coherent_groups=[(0, 1)], snr_db=float("inf")
    )
    rng = np.random.default_rng(3)
    snapshots = [csdoa.synthesize(scenario, rng) for _ in range(2)]
    stacked = np.vstack([s.data for s in snapshots])
    gram = stacked @ stacked.conj().T
    rel_det = abs(np.linalg.det(gram)) / (gram[0, 0].real * gram[1, 1].real)
    assert rel_det < 1e-10
