"""Tests for measurement counts, matrix draws, compression, and system assembly."""

import numpy as np
import pytest

import csdoa
from conftest import stack_measurements
from csdoa.sensing import _system_into


# ---------------------------------------------------------------------------
# min_measurements


def test_min_measurements_values():
    # floor(3 ln 15) + 1 = floor(8.124) + 1
    assert csdoa.min_measurements(3, 15) == 9
    # floor(2 ln 15) + 1 = floor(5.416) + 1
    assert csdoa.min_measurements(2, 15) == 6
    # floor(ln 2) + 1
    assert csdoa.min_measurements(1, 2) == 1


def test_min_measurements_validates_arguments():
    with pytest.raises(ValueError):
        csdoa.min_measurements(0, 15)
    with pytest.raises(ValueError):
        csdoa.min_measurements(3, 1)


# ---------------------------------------------------------------------------
# draw_measurement_matrix


def test_gaussian_draw_shape_and_determinism():
    phi = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=4)
    assert phi.entries.shape == (9, 15)
    assert phi.entries.dtype == np.complex128
    assert phi.kind == csdoa.GAUSSIAN
    again = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=4)
    assert np.array_equal(phi.entries, again.entries)
    other = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=5)
    assert not np.array_equal(phi.entries, other.entries)


def test_gaussian_columns_have_unit_expected_energy():
    # Var per entry is 1/(2m) each for real and imag, so E||col||^2 = 1.
    phi = csdoa.draw_measurement_matrix(9, 2000, csdoa.GAUSSIAN, seed=0)
    energies = np.sum(np.abs(phi.entries) ** 2, axis=0)
    assert abs(float(energies.mean()) - 1.0) < 0.05


def test_identity_draw_is_exact_identity():
    phi = csdoa.draw_measurement_matrix(15, 15, csdoa.IDENTITY)
    assert np.array_equal(phi.entries, np.eye(15, dtype=complex))
    assert phi.kind == csdoa.IDENTITY


def test_identity_draw_requires_square():
    with pytest.raises(csdoa.DimensionMismatchError):
        csdoa.draw_measurement_matrix(9, 15, csdoa.IDENTITY)


def test_draw_rejects_unknown_kind():
    with pytest.raises(ValueError):
        csdoa.draw_measurement_matrix(9, 15, "hadamard")


# ---------------------------------------------------------------------------
# compress


def test_compress_identity_is_passthrough():
    phi = csdoa.draw_measurement_matrix(15, 15, csdoa.IDENTITY)
    x = np.arange(15, dtype=float) + 1j * np.arange(15, dtype=float)
    assert np.array_equal(csdoa.compress(phi, x), x)


def test_compress_zero_vector():
    phi = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=1)
    assert np.array_equal(csdoa.compress(phi, np.zeros(15, dtype=complex)), np.zeros(9))


def test_compress_is_linear():
    phi = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=1)
    rng = np.random.default_rng(2)
    x1 = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    x2 = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    alpha = 2.0 - 3.0j
    lhs = csdoa.compress(phi, alpha * x1 + x2)
    rhs = alpha * csdoa.compress(phi, x1) + csdoa.compress(phi, x2)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_compress_rejects_wrong_length():
    phi = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=1)
    with pytest.raises(csdoa.DimensionMismatchError):
        csdoa.compress(phi, np.zeros(14, dtype=complex))


# ---------------------------------------------------------------------------
# build_sensing_system


def _standard_manifold():
    geometry = csdoa.ArrayGeometry(15, 0.5)
    grid = csdoa.make_grid(-90.0, 90.0, 1.0)
    return csdoa.build_manifold(grid, geometry)


def test_identity_system_keeps_manifold():
    manifold = _standard_manifold()
    phi = csdoa.draw_measurement_matrix(15, 15, csdoa.IDENTITY)
    system = csdoa.build_sensing_system(phi, manifold)
    assert np.allclose(system.psi, manifold, atol=1e-12)
    assert np.all(np.abs(system.column_norms - np.sqrt(15)) < 1e-10)


def test_single_row_system_sums_columns():
    phi = csdoa.MeasurementMatrix(np.ones((1, 15), dtype=complex), csdoa.GAUSSIAN)
    manifold = np.ones((15, 1), dtype=complex)
    system = csdoa.build_sensing_system(phi, manifold)
    assert system.psi.shape == (1, 1)
    assert abs(system.psi[0, 0] - 15.0) < 1e-12
    assert abs(system.column_norms[0] - 15.0) < 1e-12


def test_system_psi_matches_per_column_products():
    manifold = _standard_manifold()
    phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=3)
    system = csdoa.build_sensing_system(phi, manifold)
    for j in (0, 45, 90, 135, 180):
        expected = phi.entries @ manifold[:, j]
        assert np.linalg.norm(system.psi[:, j] - expected) < 1e-10
        assert abs(system.column_norms[j] - np.linalg.norm(expected)) < 1e-10


def test_system_rejects_dimension_mismatch():
    manifold = _standard_manifold()
    phi = csdoa.draw_measurement_matrix(9, 14, csdoa.GAUSSIAN, seed=3)
    with pytest.raises(csdoa.DimensionMismatchError):
        csdoa.build_sensing_system(phi, manifold)


def test_system_derives_psi_and_cannot_take_it():
    # Psi and its column norms are computed from (Phi, A) and are not
    # constructor arguments, so Psi = Phi A holds by construction.
    manifold = _standard_manifold()
    phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=3)
    system = csdoa.SensingSystem(phi, manifold)
    assert system.psi.tobytes() == (phi.entries @ manifold).tobytes()
    assert np.array_equal(system.column_norms, np.linalg.norm(system.psi, axis=0))
    with pytest.raises(TypeError):
        csdoa.SensingSystem(phi, manifold, system.psi + 0.1)
    with pytest.raises(TypeError):
        csdoa.SensingSystem(phi=phi, manifold=manifold, column_norms=system.column_norms)
    zero_column = np.array(manifold)
    zero_column[:, 7] = 0.0
    with pytest.raises(ValueError, match="positive finite norm"):
        csdoa.build_sensing_system(phi, zero_column)


# ---------------------------------------------------------------------------
# stacked measurement matrices


def test_stacked_system_equals_each_trials_system():
    manifold = _standard_manifold()
    phis = [csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=s) for s in range(5)]
    phi = stack_measurements(phis)
    assert phi.entries.shape == (5, 10, 15)
    assert phi.num_measurements == 10 and phi.signal_len == 15
    system = csdoa.build_sensing_system(phi, manifold)
    assert system.num_measurements == 10 and system.num_atoms == 181
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 15)) + 1j * rng.standard_normal((5, 15))
    y = csdoa.compress(phi, x)
    for t, single_phi in enumerate(phis):
        single = csdoa.build_sensing_system(single_phi, manifold)
        assert np.array_equal(system.psi[t], single.psi)
        assert np.array_equal(system.column_norms[t], single.column_norms)
        assert np.array_equal(y[t], csdoa.compress(single_phi, x[t]))


@pytest.mark.parametrize("trials", [1, 7, 21, 64])
@pytest.mark.parametrize("m", [7, 10, 15, "identity"])
def test_stacked_psi_rounds_as_each_trials_own_product(m, trials):
    # Psi of a stack is one 2-D product over all trials' rows; each trial's
    # block must equal that trial's own phi @ manifold bit for bit.
    manifold = _standard_manifold()
    if m == "identity":
        phis = [csdoa.draw_measurement_matrix(15, 15, csdoa.IDENTITY)] * trials
    else:
        phis = [
            csdoa.draw_measurement_matrix(m, 15, csdoa.GAUSSIAN, seed=s) for s in range(trials)
        ]
    system = csdoa.build_sensing_system(stack_measurements(phis), manifold)
    for t, phi in enumerate(phis):
        assert system.psi[t].tobytes() == (phi.entries @ manifold).tobytes()


def test_column_norms_are_numpys_norms_bit_for_bit():
    phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=7)
    system = csdoa.build_sensing_system(phi, _standard_manifold())
    assert np.array_equal(system.column_norms, np.linalg.norm(system.psi, axis=0))


def test_stack_measurements_requires_one_shape():
    identity = csdoa.draw_measurement_matrix(15, 15, csdoa.IDENTITY)
    assert stack_measurements([identity, identity]).entries.shape == (2, 15, 15)
    with pytest.raises(ValueError):
        gaussian = csdoa.draw_measurement_matrix(15, 15, csdoa.GAUSSIAN, seed=1)
        stack_measurements([gaussian, csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN)])
    with pytest.raises(ValueError):
        csdoa.MeasurementMatrix(np.stack([np.eye(3), 2.0 * np.eye(3)]) + 0j, csdoa.IDENTITY)


@pytest.mark.parametrize("m", [7, 15])
def test_system_built_into_buffers_equals_the_allocating_one(m):
    # The Monte Carlo engine builds Psi into storage its thread keeps; the
    # buffers' old contents must not reach Psi or its norms.
    manifold = _standard_manifold()
    phis = [csdoa.draw_measurement_matrix(m, 15, csdoa.GAUSSIAN, seed=s) for s in range(4)]
    phi = stack_measurements(phis)
    psi_out = np.full((4, m, 181), np.nan + 1j * np.nan)
    scratch = np.full_like(psi_out, 7.0 - 3.0j)
    kept = _system_into(phi, manifold, psi_out, scratch)
    fresh = csdoa.SensingSystem(phi, manifold)
    assert kept.psi is psi_out
    assert kept.psi.tobytes() == fresh.psi.tobytes()
    assert kept.column_norms.tobytes() == fresh.column_norms.tobytes()
    assert kept.phi is phi and kept.manifold is manifold
