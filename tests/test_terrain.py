import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hopperlab.terrain import TerrainParams, force_map, inertial_threshold, reaction_terms
from reference import added_mass_profile, terrain_force


def test_added_mass_at_origin():
    params = TerrainParams()
    m_a, grad = added_mass_profile(0.0, params)
    assert m_a == 0.0
    assert grad == pytest.approx(params.m_a_inf / params.z_c)


def test_added_mass_saturation():
    params = TerrainParams()
    m_a, _ = added_mass_profile(10.0 * params.z_c, params)
    assert abs(m_a - params.m_a_inf) / params.m_a_inf < 5e-5


def test_added_mass_gradient_matches_finite_difference():
    params = TerrainParams()
    h = 1e-8
    for z in np.linspace(1e-4, 0.08, 100):
        fd = (added_mass_profile(z + h, params)[0] - added_mass_profile(z - h, params)[0]) / (2 * h)
        assert added_mass_profile(z, params)[1] == pytest.approx(fd, rel=1e-6)


def test_added_mass_monotone():
    params = TerrainParams()
    zs = np.linspace(0.0, 0.1, 200)
    masses = [added_mass_profile(z, params)[0] for z in zs]
    assert np.all(np.diff(masses) >= 0.0)


def test_terrain_force_static_only():
    d = terrain_force(0.02, 0.0, 0.0, TerrainParams(k_stiff=800.0))
    assert d.f_total == pytest.approx(16.0)
    assert d.f_drag == 0.0
    assert d.f_added == 0.0


def test_terrain_force_no_contact():
    for zd in (-1.0, -0.1):
        d = terrain_force(0.0, zd, 0.0, TerrainParams())
        assert (d.f_static, d.f_drag, d.f_added, d.f_total) == (0.0, 0.0, 0.0, 0.0)


def test_terrain_force_full_decomposition_frozen():
    # independently evaluated closed forms at z=0.01, zd=1, zdd=-50 (defaults)
    d = terrain_force(0.01, 1.0, -50.0, TerrainParams())
    assert d.f_static == pytest.approx(8.0, rel=1e-12)
    assert d.f_drag == pytest.approx(5.134171190325921, rel=1e-12)
    assert d.f_added == pytest.approx(-3.6493716072555595, rel=1e-12)
    assert d.f_total == pytest.approx(9.48479958307036, rel=1e-12)


def test_terrain_force_withdrawal_drops_flux_terms():
    d = terrain_force(0.02, -0.5, 3.0, TerrainParams(k_stiff=800.0))
    assert d.f_drag == 0.0
    assert d.f_added == 0.0
    assert d.f_total == pytest.approx(16.0)


def test_terrain_force_clamped_at_zero():
    # violent upward acceleration while penetrating: bed cannot pull down
    d = terrain_force(0.001, 0.01, -500.0, TerrainParams())
    assert d.f_total == 0.0
    assert d.f_static + d.f_drag + d.f_added < 0.0


def test_terrain_force_additivity_when_unclamped():
    rng = np.random.default_rng(7)
    params = TerrainParams()
    for _ in range(200):
        z = rng.uniform(1e-4, 0.06)
        zd = rng.uniform(0.0, 1.5)
        zdd = rng.uniform(-20.0, 50.0)
        d = terrain_force(z, zd, zdd, params)
        if d.f_static + d.f_drag + d.f_added >= 0.0:
            assert d.f_total == pytest.approx(d.f_static + d.f_drag + d.f_added, rel=1e-12)


def test_constant_speed_degeneracy():
    d = terrain_force(0.03, 0.7, 0.0, TerrainParams())
    assert d.f_added == 0.0


_ROW = st.tuples(
    st.floats(-0.05, 0.1),      # z: free at or above the surface, else in the bed
    st.floats(-2.0, 2.0),       # z_dot: withdrawing or penetrating
    st.floats(-500.0, 500.0),   # z_ddot of either sign
)
_BED = st.builds(
    TerrainParams, k_stiff=st.floats(1.0, 1e4), m_a_inf=st.floats(0.0, 1.0), z_c=st.floats(1e-3, 0.1)
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=16), params=_BED)
@example(rows=[(-0.01, 1.0, 5.0), (0.0, 0.5, -3.0), (0.02, -0.5, 3.0), (0.02, 0.0, -50.0), (0.01, 1.0, 50.0)], params=TerrainParams())
def test_reaction_terms_are_the_scalar_law(rows, params):
    # element for element: the terms of the scalar reference law, on each
    # branch, with no clamp; a term is zero where the reference's is, and
    # otherwise equal to the last bits of exp
    z, z_dot, z_ddot = (np.array(column) for column in zip(*rows))
    terms = reaction_terms(z, z_dot, z_ddot, params)
    for i, row in enumerate(rows):
        law = terrain_force(*row, params)
        want = (law.f_static, law.f_drag, law.f_added)
        got = tuple(float(term[i]) for term in terms)
        assert [g == 0.0 for g in got] == [w == 0.0 for w in want], row
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), row


def test_inertial_threshold_glass_beads():
    # 300 um beads: threshold within 0.005 of 0.08 m/s
    thr = inertial_threshold(300e-6)
    assert thr == pytest.approx(0.07672027111526653, rel=1e-12)
    assert abs(thr - 0.08) < 0.005


def test_inertial_threshold_scaling():
    assert inertial_threshold(1e-3) == pytest.approx(0.14007141035914503, rel=1e-12)
    assert inertial_threshold(1e-9) < 1e-3


def test_inertial_threshold_monotone():
    grains = np.linspace(1e-5, 5e-3, 50)
    thrs = [inertial_threshold(d) for d in grains]
    assert np.all(np.diff(thrs) > 0.0)


def test_inertial_threshold_domain_error():
    with pytest.raises(ValueError):
        inertial_threshold(0.0)
    with pytest.raises(ValueError):
        inertial_threshold(-1e-4)


def test_force_map_zero_speed_row_is_depth_law():
    params = TerrainParams()
    depths = np.linspace(0.0, 0.05, 11)
    surface = force_map(params, depths, [0.0, 0.5])
    assert np.allclose(surface[:, 0], params.k_stiff * depths * (depths > 0))


def test_force_map_monotone_both_axes():
    # Monotone in depth only while the depth term outgrows the decaying
    # drag gradient, i.e. for v <= sqrt(k_stiff)*z_c/sqrt(m_a_inf); the
    # default profile puts that bound at ~1.095 m/s.
    params = TerrainParams()
    v_bound = math.sqrt(params.k_stiff / params.m_a_inf) * params.z_c
    depths = np.linspace(1e-4, 0.05, 20)
    speeds = np.linspace(0.0, 0.95 * v_bound, 15)
    surface = force_map(params, depths, speeds)
    assert np.all(np.diff(surface, axis=0) >= -1e-12)
    assert np.all(np.diff(surface, axis=1) >= -1e-12)


def test_force_map_validation():
    params = TerrainParams()
    with pytest.raises(ValueError):
        force_map(params, [], [0.1])
    with pytest.raises(ValueError):
        force_map(params, [0.02, 0.01], [0.1])
    with pytest.raises(ValueError):
        force_map(params, [-0.01, 0.02], [0.1])


def test_params_validation():
    with pytest.raises(ValueError):
        TerrainParams(k_stiff=0.0)
    with pytest.raises(ValueError):
        TerrainParams(z_c=-0.01)
    with pytest.raises(ValueError):
        TerrainParams(d_grain=0.02)
    with pytest.raises(ValueError):
        TerrainParams(m_a_inf=-0.1)
