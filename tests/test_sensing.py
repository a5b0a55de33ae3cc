"""Tests for measurement counts, matrix draws, compression, and system assembly."""

import numpy as np
import pytest

import csdoa
from conftest import psi_spy
from csdoa import experiments


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


@pytest.mark.parametrize(
    ("num_sources", "signal_len", "name"),
    [(True, 15, "num_sources"), (2.5, 15, "num_sources"), (2, 15.5, "signal_len")],
)
def test_min_measurements_takes_integer_counts(num_sources, signal_len, name):
    with pytest.raises(TypeError, match=name):
        csdoa.min_measurements(num_sources, signal_len)


# ---------------------------------------------------------------------------
# draw_measurement_matrix


def test_gaussian_draw_shape_and_determinism():
    phi = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=4)
    assert phi.shape == (9, 15)
    assert phi.dtype == np.complex128
    again = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=4)
    assert np.array_equal(phi, again)
    other = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=5)
    assert not np.array_equal(phi, other)


def test_gaussian_columns_have_unit_expected_energy():
    # Var per entry is 1/(2m) each for real and imag, so E||col||^2 = 1.
    phi = csdoa.draw_measurement_matrix(9, 2000, csdoa.GAUSSIAN, seed=0)
    energies = np.sum(np.abs(phi) ** 2, axis=0)
    assert abs(float(energies.mean()) - 1.0) < 0.05


def test_identity_draw_is_exact_identity():
    phi = csdoa.draw_measurement_matrix(15, 15, csdoa.IDENTITY)
    assert np.array_equal(phi, np.eye(15, dtype=complex))


def test_identity_draw_requires_square():
    with pytest.raises(csdoa.DimensionMismatchError):
        csdoa.draw_measurement_matrix(9, 15, csdoa.IDENTITY)


def test_draw_rejects_unknown_kind():
    with pytest.raises(ValueError):
        csdoa.draw_measurement_matrix(9, 15, "hadamard")


@pytest.mark.parametrize(
    "m, n, name", [(7.0, 15, "m"), (True, 15, "m"), (7, 15.0, "n"), (7, np.float64(15), "n")]
)
def test_draw_takes_integer_dimensions(m, n, name):
    # Refused by name before any draw; a float used to fail inside numpy.
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        csdoa.draw_measurement_matrix(m, n, csdoa.GAUSSIAN)
    assert csdoa.draw_measurement_matrix(np.int64(7), 15, csdoa.GAUSSIAN).shape == (7, 15)


def test_measurement_matrix_holds_one_trials_matrix():
    # SensingSystem and compress take one trial's Phi: a stack, a vector or
    # no rows is refused before any product.
    identity = csdoa.draw_measurement_matrix(15, 15, csdoa.IDENTITY)
    manifold = _standard_manifold()
    for phi in (np.stack([identity, identity]), identity[0], np.ones((0, 15), dtype=complex)):
        with pytest.raises(ValueError, match="Phi must be a matrix with at least one row"):
            csdoa.SensingSystem(phi, manifold)
        with pytest.raises(ValueError, match="Phi must be a matrix with at least one row"):
            csdoa.compress(phi, np.ones(15, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf-j"])
def test_measurement_matrix_rejects_a_non_finite_entry(bad):
    phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=3)
    phi[4, 7] = bad
    # Refused before Phi A or Phi x, whose inf arithmetic would warn: an
    # error under this suite's filter.
    with pytest.raises(ValueError, match="Phi must hold only finite entries"):
        csdoa.SensingSystem(phi, _standard_manifold())
    with pytest.raises(ValueError, match="Phi must hold only finite entries"):
        csdoa.compress(phi, np.ones(15, dtype=complex))


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
    with pytest.raises(csdoa.DimensionMismatchError, match="a vector of length 15"):
        csdoa.compress(phi, np.zeros((2, 15), dtype=complex))


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
    phi = np.ones((1, 15), dtype=complex)
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
        expected = phi @ manifold[:, j]
        assert np.linalg.norm(system.psi[:, j] - expected) < 1e-10
        assert abs(system.column_norms[j] - np.linalg.norm(expected)) < 1e-10


def test_system_rejects_dimension_mismatch():
    manifold = _standard_manifold()
    phi = csdoa.draw_measurement_matrix(9, 14, csdoa.GAUSSIAN, seed=3)
    with pytest.raises(csdoa.DimensionMismatchError):
        csdoa.build_sensing_system(phi, manifold)


@pytest.mark.parametrize("shape", [(15,), (15, 181, 1), ()], ids=["vector", "3-d", "scalar"])
def test_system_rejects_a_manifold_that_is_not_a_matrix(shape):
    phi = csdoa.draw_measurement_matrix(9, 15, csdoa.GAUSSIAN, seed=3)
    with pytest.raises(csdoa.DimensionMismatchError, match=r"must be an \(N, N_s\) matrix"):
        csdoa.SensingSystem(phi, np.ones(shape, dtype=complex))


def test_system_derives_psi_and_cannot_take_it():
    # Psi and its column norms are computed from (Phi, A) and are not
    # constructor arguments, so Psi = Phi A holds by construction.
    manifold = _standard_manifold()
    phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=3)
    system = csdoa.SensingSystem(phi, manifold)
    assert system.psi.tobytes() == (phi @ manifold).tobytes()
    assert np.array_equal(system.column_norms, np.linalg.norm(system.psi, axis=0))
    with pytest.raises(TypeError):
        csdoa.SensingSystem(phi, manifold, system.psi + 0.1)
    with pytest.raises(TypeError):
        csdoa.SensingSystem(phi=phi, manifold=manifold, column_norms=system.column_norms)
    zero_column = np.array(manifold)
    zero_column[:, 7] = 0.0
    with pytest.raises(ValueError, match="positive finite norm"):
        csdoa.build_sensing_system(phi, zero_column)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf-j"])
def test_system_rejects_a_non_finite_column(bad):
    manifold = np.array(_standard_manifold())
    manifold[:, 7] = bad
    phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=3)
    # Rejected before Phi A, whose inf arithmetic would warn: an error under this suite's filter.
    with pytest.raises(ValueError, match="manifold must hold only finite entries"):
        csdoa.build_sensing_system(phi, manifold)


# ---------------------------------------------------------------------------
# the Monte Carlo engine's Psi stack


def test_stacked_system_equals_each_trials_system(monkeypatch):
    # A chunk's Phi entries, Psi, norms and y are stacks whose row k is the
    # k-th task's own measurement matrix, system and compressed snapshot.
    scenario = csdoa.build_scenario([-60.0, 60.0], num_measurements=10, seed=3)
    tasks = [(0, 0), (1, 0), (0, 4), (1, 2), (0, 1)]
    _, entries = experiments._draw_trials(scenario, (0.0, 20.0), tasks)
    assert entries.shape == (5, 10, 15)
    seen = psi_spy(monkeypatch)
    (data, _, _), _, _ = experiments._run_trials(scenario, (0.0, 20.0), tasks)
    [(psi, column_norms, y)] = seen
    assert psi.shape == (5, 10, 181) and column_norms.shape == (5, 181) and y.shape == (5, 10)
    manifold = _standard_manifold()
    for k, task in enumerate(tasks):
        _, phi_seed = csdoa.trial_seeds(scenario.seed, *task)
        phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=phi_seed)
        assert np.array_equal(entries[k], phi)
        system = csdoa.build_sensing_system(phi, manifold)
        assert system.num_measurements == 10 and system.num_atoms == 181
        assert np.array_equal(psi[k], system.psi)
        assert np.array_equal(column_norms[k], system.column_norms)
        assert np.array_equal(y[k], csdoa.compress(phi, data[k]))


@pytest.mark.parametrize("m", [7, 15])
def test_system_built_into_buffers_equals_the_allocating_one(monkeypatch, m):
    # The engine builds Psi into storage its thread keeps; the buffers' old
    # contents must not reach Psi, its norms or the estimates, which must
    # equal those of a run that allocates fresh buffers.
    scenario = csdoa.build_scenario([-60.0, 60.0], num_measurements=m, seed=m)
    tasks = [(0, t) for t in range(4)]
    shape = (len(tasks), m, len(scenario.grid.angles_deg))
    kept, scratch = experiments._psi_buffers(shape)
    kept[...] = complex(np.nan, np.nan)
    scratch[...] = 7.0 - 3.0j
    seen = psi_spy(monkeypatch)
    _, kept_estimates, _ = experiments._run_trials(scenario, (10.0,), tasks)
    assert np.shares_memory(seen[0][0], kept)
    kept_psi, kept_norms = seen[0][0].copy(), seen[0][1].copy()
    monkeypatch.setattr(
        experiments,
        "_psi_buffers",
        lambda shape: (np.empty(shape, complex), np.empty(shape, complex)),
    )
    _, fresh_estimates, _ = experiments._run_trials(scenario, (10.0,), tasks)
    assert not np.shares_memory(seen[1][0], kept)
    assert kept_psi.tobytes() == seen[1][0].tobytes()
    assert kept_norms.tobytes() == seen[1][1].tobytes()
    for algorithm, estimate in kept_estimates.items():
        fresh = fresh_estimates[algorithm]
        assert estimate.coefficients.tobytes() == fresh.coefficients.tobytes()


@pytest.mark.parametrize("trials", [1, 7, 21, 64])
@pytest.mark.parametrize("m", [7, 10, 15, "identity"])
def test_stacked_psi_rounds_as_each_trials_own_product(monkeypatch, m, trials):
    # The engine forms a chunk's Psi (one product per trial) and its column
    # norms in storage its thread keeps, and y with one product. Each trial's
    # Psi, norms and y, as the solvers receive them, must equal that trial's
    # own SensingSystem and compress bit for bit, whatever the kept storage
    # held before.
    kind = csdoa.IDENTITY if m == "identity" else csdoa.GAUSSIAN
    m = 15 if m == "identity" else m
    scenario = csdoa.build_scenario(
        [-60.0, 60.0], measurement_kind=kind, num_measurements=m, seed=trials
    )
    tasks = [(t % 2, t) for t in range(trials)]
    kept, scratch = experiments._psi_buffers((trials, m, len(scenario.grid.angles_deg)))
    kept[...] = complex(np.nan, np.nan)
    scratch[...] = 7.0 - 3.0j
    seen = psi_spy(monkeypatch)
    (data, _, _), _, _ = experiments._run_trials(scenario, (0.0, 20.0), tasks)
    [(psi, column_norms, y)] = seen
    assert np.shares_memory(psi, kept)
    manifold = _standard_manifold()
    for k, task in enumerate(tasks):
        _, phi_seed = csdoa.trial_seeds(scenario.seed, *task)
        phi = csdoa.draw_measurement_matrix(m, 15, kind, seed=phi_seed)
        system = csdoa.SensingSystem(phi, manifold)
        assert psi[k].tobytes() == system.psi.tobytes()
        assert column_norms[k].tobytes() == system.column_norms.tobytes()
        assert y[k].tobytes() == csdoa.compress(phi, data[k]).tobytes()


def test_column_norms_are_numpys_norms_bit_for_bit():
    phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=7)
    system = csdoa.build_sensing_system(phi, _standard_manifold())
    assert np.array_equal(system.column_norms, np.linalg.norm(system.psi, axis=0))
