import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from eisencf._util import derive_seed
from eisencf.cf import Truncated, convergents, expand
from eisencf import ergodic
from eisencf.ergodic import (
    CELLS,
    Quadrature,
    _cell_integrals,
    _cell_rule,
    _BLOCK,
    _ROOTS,
    _RULES,
    _simulate_batches,
    ergodic_report,
    estimate_C0_and_levy_integral,
    kernel_integral,
    levy_birkhoff,
    occupation_frequencies,
    region_arc_quadrature,
    simulate_orbits,
)
from eisencf.exact import BAND, SQRT3, FieldElement, embed
from eisencf.floatpath import ETA_C, t_step
from eisencf.regions import MIRROR_PAIRS, build_catalog, classify_cells_complex
from eisencf.verifier import random_orbit_seed
from oracles import density_integral, invariance_check, pair_check_reference, region_area_flux

CAT = build_catalog()


def exact_start(z0: complex) -> FieldElement:
    return FieldElement.from_xy(z0.real, z0.imag / SQRT3)


class TestNatExtStep:
    """simulate_orbits against the exact orbits and convergents of its starts."""

    def test_from_infinity(self):
        batch = simulate_orbits(8, 1, seed=21)
        for z0, lw, zk in zip(batch.starts, batch.log_w, batch.points):
            e = expand(exact_start(z0), 1)
            assert abs(zk[0] - e.points[1].approx()) < 1e-12
            assert abs(lw[0] - math.log(abs(embed(e.digits[0]).approx()))) < 1e-12

    def test_w_tracks_exact_ratios(self):
        batch = simulate_orbits(8, 15, seed=51)
        for z0, lw, zk in zip(batch.starts, batch.log_w, batch.points):
            e = expand(exact_start(z0), 15)
            assert isinstance(e.terminal, Truncated)
            pts, convs = e.points, convergents(e.digits)
            for n in range(1, 16):
                exact = -(embed(convs[n].q) / embed(convs[n].q_prev)).approx()
                assert abs(lw[n - 1] - math.log(abs(exact))) < 1e-9, n
                # T^n stretches the start's rounding error by about |q_n|^2
                tol_z = 1e-13 * convs[n].q.norm()
                assert abs(zk[n - 1] - pts[n].approx()) < tol_z, n

    def test_w_recurrence(self):
        rng = random.Random(52)
        z = random_orbit_seed(rng, 20)
        e = expand(z, 10)
        # r_k = b_k + 1/r_{k-1} with r_1 = b_1 tracks q_k / q_{k-1}
        cs = convergents(e.digits)
        r = embed(e.digits[0]).approx()
        for k in range(2, len(e.digits) + 1):
            r = embed(e.digits[k - 1]).approx() + 1.0 / r
            exact = (embed(cs[k].q) / embed(cs[k].q_prev)).approx()
            assert abs(r - exact) < 1e-9

    def test_skip_on_zero(self):
        _alpha, z_next, alive = t_step(np.array([0j, 0.25 + 0.1j]))
        assert not alive[0] and alive[1]
        assert z_next[0] == 0

    def test_state_lands_in_matching_cells(self):
        batch = simulate_orbits(8, 200, seed=9)
        from eisencf.regions import classify_cells_complex

        # after the first step the orbit points lie in the open cells V_{k,l}:
        # more than 95% classify into one, the rest fall in boundary bands
        z = batch.points[:, 10:20].ravel()
        idx = classify_cells_complex(z)
        assert (idx >= 0).mean() > 0.95


class TestOrbits:
    def test_ratio_modulus_exceeds_one(self):
        batch = simulate_orbits(16, 2000, seed=3)
        # every |w_k| on the kept orbits exceeds 1
        assert batch.log_w.min() > 0

    def test_birkhoff_positive_and_stable(self):
        a = levy_birkhoff(orbits=16, length=3000, seed=5)
        b = levy_birkhoff(orbits=16, length=3000, seed=6)
        assert a.value > 0 and b.value > 0
        assert abs(a.value - b.value) < 3 * (a.stderr + b.stderr)

    def test_gives_up_when_every_orbit_dies(self):
        # no residual of U clears a band of width 1, so every orbit dies on
        # its first step and every round resamples all of them
        with pytest.raises(RuntimeError, match="kept hitting the boundary band"):
            simulate_orbits(4, 1, seed=0, tol=1.0)

    def test_exact_cross_check_depth_200(self):
        rng = random.Random(53)
        z = random_orbit_seed(rng, 60)
        e = expand(z, 200)
        assert len(e.digits) == 200
        cs = convergents(e.digits)
        exact_rate = 0.5 * math.log(cs[200].q.norm()) / 200
        # float ratio tracker along the same digit sequence
        r = embed(e.digits[0]).approx()
        acc = math.log(abs(r))
        for k in range(2, 201):
            r = embed(e.digits[k - 1]).approx() + 1.0 / r
            acc += math.log(abs(r))
        assert abs(acc / 200 - exact_rate) < 1e-6


def simulate_step_by_step(orbits, length, seed, tol=1e-12):
    """Reference for simulate_orbits: one t_step at a time, its alive mask
    ANDed after every step, and |w| and z stored as each step makes them.
    Returns the (starts, log_w, points) arrays and the number of rounds."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "orbits")))
    parts, need = [], orbits
    with np.errstate(all="ignore"):
        while need:
            z = z0 = ergodic._uniform_in_u0(rng, need)
            alive = np.ones(need, dtype=bool)
            log_w = np.empty((need, length))
            points = np.empty((need, length), dtype=np.complex128)
            for k in range(length):
                alpha, z, ok = t_step(z, tol)
                alive &= ok
                w = 1.0 / w - alpha if k else -alpha
                log_w[:, k] = np.log(np.abs(w))
                points[:, k] = z
            parts.append((z0[alive], log_w[alive], points[alive]))
            need -= int(alive.sum())
    return [np.concatenate(a) for a in zip(*parts)], len(parts)


# every array a batch can keep
EVERYTHING = ("starts", "log_w", "points", "counts")


def cell_counts(points, tol=1e-12):
    """Reference for the streamed counts: per orbit, its points in no cell
    and in each of CELLS."""
    idx = classify_cells_complex(points, tol=tol)
    return np.stack([(idx == ci).sum(axis=1) for ci in range(-1, 36)], axis=1)


def assert_matches_reference(batch, reference, tol=1e-12):
    starts, log_w, points = reference
    assert batch["starts"].tobytes() == starts.tobytes()
    assert batch["log_w"].tobytes() == log_w.tobytes()
    assert batch["points"].tobytes() == points.tobytes()
    assert batch["counts"].tobytes() == cell_counts(points, tol).tobytes()


class TestBlockedLoop:
    """The orbit loop takes the alive mask, |w| and the log once per block of
    steps, and counts cells once per staged lookup block; its batches have
    the bytes of the step-by-step reference."""

    @pytest.mark.parametrize("length", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
    def test_lengths_around_the_block(self, length):
        (batch,) = _simulate_batches(8, length, [(length, EVERYTHING)])
        reference, _ = simulate_step_by_step(8, length, length)
        assert_matches_reference(batch, reference)

    # at tol 1e-3 orbits die on every step, and each seed resamples; at
    # length 2 * _BLOCK the last step, where no later death can hide a
    # missed one, is the last row of a block
    @pytest.mark.parametrize("length", [2 * _BLOCK, 3 * _BLOCK + 8])
    def test_orbits_dying_mid_block(self, length):
        together = _simulate_batches(64, length, [(11, EVERYTHING), (12, EVERYTHING)], 1e-3)
        for seed, batch in zip((11, 12), together):
            reference, rounds = simulate_step_by_step(64, length, seed, 1e-3)
            assert rounds > 2
            assert_matches_reference(batch, reference, 1e-3)

    # a stage of one block and, for the first round's 64 orbits, of two:
    # the counts do not depend on where the stage is flushed
    @pytest.mark.parametrize("lookup", [1, 2 * 64 * _BLOCK])
    def test_counts_are_free_of_the_stage(self, monkeypatch, lookup):
        monkeypatch.setattr(ergodic, "_LOOKUP_BLOCK", lookup)
        length = 3 * _BLOCK + 8
        (batch,) = _simulate_batches(64, length, [(13, EVERYTHING)], 1e-3)
        reference, rounds = simulate_step_by_step(64, length, 13, 1e-3)
        assert rounds > 2
        assert_matches_reference(batch, reference, 1e-3)


    def test_forced_retry_at_the_band(self, monkeypatch):
        # each seed's first draw starts one orbit at 1/(1 + eta), whose
        # inverse is a vertex of eta + U: it dies on the first step at the
        # default band, and the two seeds resample side by side
        draw = ergodic._uniform_in_u0

        def poisoned(rng, n):
            z = draw(rng, n)
            if n == 32:
                z[5] = 1.0 / (1.0 + ETA_C)
            return z

        monkeypatch.setattr(ergodic, "_uniform_in_u0", poisoned)
        together = _simulate_batches(32, 130, [(21, EVERYTHING), (22, EVERYTHING)])
        for seed, batch in zip((21, 22), together):
            reference, rounds = simulate_step_by_step(32, 130, seed)
            assert rounds == 2
            assert_matches_reference(batch, reference)

    def test_each_batch_keeps_only_what_it_names(self):
        birk, occ = _simulate_batches(8, 100, [(4, ("log_w",)), (9, ("counts",))])
        assert set(birk) == {"log_w"} and set(occ) == {"counts"}
        assert birk["log_w"].tobytes() == simulate_orbits(8, 100, 4).log_w.tobytes()
        assert occ["counts"].tobytes() == cell_counts(simulate_orbits(8, 100, 9).points).tobytes()


class TestSideBySide:
    """Batches stepped side by side have the bytes of batches run apart."""

    @staticmethod
    def _bytes(batch):
        return (batch.starts.tobytes(), batch.log_w.tobytes(),
                batch.points.tobytes())

    # seed 11 at tol 1e-3 resamples 9 times, in rounds of odd widths
    @pytest.mark.parametrize("seeds,length,tol", [((4, 9), 300, 1e-12),
                                                  ((11, 12), 200, 1e-3)])
    def test_batches_equal_separate_runs(self, seeds, length, tol):
        fields = ("starts", "log_w", "points")
        together = _simulate_batches(64, length, [(s, fields) for s in seeds], tol)
        for seed, batch in zip(seeds, together):
            assert self._bytes(ergodic.OrbitBatch(**batch)) == self._bytes(
                simulate_orbits(64, length, seed, tol))

    def test_report_equals_replay(self):
        # the benchmark's traced run replays the report's routes one by one
        rep = ergodic_report(orbits=6, length=400, quad_samples=200, seed=3)
        birk = levy_birkhoff(6, 400, 3)
        occ = simulate_orbits(6, 400, derive_seed(3, "occ"))
        _, freq = occupation_frequencies(occ)
        assert (rep.levy_birkhoff.value, rep.levy_birkhoff.stderr) == (
            birk.value, birk.stderr)
        assert np.array([o["frequency"] for o in rep.occupation]).tobytes() == (
            freq.tobytes())

    def test_report_equals_replay_after_a_resample(self, monkeypatch):
        # each batch's first draw starts one orbit at 1/(1 + eta), which dies
        # on the first step (test_forced_retry_at_the_band), so the report
        # drops that column's log|w| and counts and resamples it; a stage of
        # two blocks is flushed mid-orbit and the length ends mid-block
        draw = ergodic._uniform_in_u0

        def poisoned(rng, n):
            z = draw(rng, n)
            if n == 6:
                z[5] = 1.0 / (1.0 + ETA_C)
            return z

        monkeypatch.setattr(ergodic, "_uniform_in_u0", poisoned)
        monkeypatch.setattr(ergodic, "_LOOKUP_BLOCK", 6 * 2 * _BLOCK)
        length = 5 * _BLOCK + 7
        rep = ergodic_report(orbits=6, length=length, quad_samples=200, seed=3)
        birk = levy_birkhoff(6, length, 3)
        occ = simulate_orbits(6, length, derive_seed(3, "occ"))
        assert (occ.starts != 1.0 / (1.0 + ETA_C)).all()
        _, freq = occupation_frequencies(occ)
        assert (rep.levy_birkhoff.value, rep.levy_birkhoff.stderr) == (
            birk.value, birk.stderr)
        assert np.array([o["frequency"] for o in rep.occupation]).tobytes() == (
            freq.tobytes())


class TestMemory:
    def test_report_holds_no_orbit_points(self):
        # the report keeps the Birkhoff log|w| (8 bytes per orbit-step) and
        # per-orbit counts; its peak stays below one (orbits, length)
        # complex array, the size of the points it no longer stores, also
        # at the benchmark's pair budget, whose check holds its draws and
        # integrand and one lookup block of the rest.  The per-process
        # records (catalogue, quadrature, lookup tables) are built before
        # tracing, as every request after a process's first finds them built
        ergodic_report(orbits=2, length=10, quad_samples=200, seed=1)
        for quad_samples in (200, 1600000):
            tracemalloc.start()
            try:
                ergodic_report(orbits=64, length=16000, quad_samples=quad_samples, seed=5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 16000 * np.dtype(np.complex128).itemsize, quad_samples


class TestArcFlux:
    def test_area_against_monte_carlo(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for kl in ((1, 1), (4, 1), (6, 2)):
            reg = CAT.v_star[kl].invert()
            arcs = region_arc_quadrature(reg)
            area = region_area_flux(arcs)
            u = rng.uniform(-1, 1, 400000) + 1j * rng.uniform(-1, 1, 400000)
            mc = 4.0 * reg.inside_xy(u.real, u.imag / SQRT3, 1e-12).mean()
            assert abs(area - mc) < 0.02, kl

    def test_v_cells_partition_u0_by_area(self):
        hex_area = 3 * SQRT3 / 2
        areas = {kl: region_area_flux(region_arc_quadrature(CAT.v_cells[kl]))
                 for kl in CELLS}
        assert abs(sum(areas.values()) - hex_area) < 1e-12
        assert abs(region_area_flux(region_arc_quadrature(CAT.u0)) - hex_area) < 1e-12
        for k, l in CELLS:
            assert abs(areas[(k, l)] - areas[(k, 1)]) < 1e-12, (k, l)

    def test_kernel_integral_against_grid(self):
        reg = CAT.v_star[(4, 1)].invert()
        arcs = region_arc_quadrature(reg)
        n = 1600
        xs = (np.arange(n) + 0.5) / n * 2 - 1
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        zz = gx + 1j * gy
        inside = reg.inside_xy(gx, gy / SQRT3, 1e-12)
        for zt in (0.4 + 0.3j, -0.2 + 0.05j, 0.88 - 0.4j):
            grid_val = 4.0 * np.where(inside, 1.0 / np.abs(zt * zz - 1) ** 4, 0.0).mean()
            flux_val = kernel_integral(np.array([zt]), arcs)[0]
            assert abs(flux_val - grid_val) < 3e-3 * max(1.0, grid_val)


    def test_kernel_integral_near_vertices(self):
        # along each boundary piece leaving a vertex, against the flux rule
        # with four times the nodes per panel, down to the smallest distance
        # of a node of the cell rule from its vertex.  The dual of V_{4,1} has
        # a cusp at 1, whose two tangent arcs carry fluxes ~ 1/s^2 that cancel
        # to ~ 1/s, so rounding alone leaves about 1e-16/s^2 there
        for k in (2, 4, 6):
            z, _ = _cell_rule(CAT.v_cells[(k, 1)], _RULES[-1])
            s_min = min(np.abs(z - v).min() for v in _ROOTS)
            assert 1e-7 < s_min < 1e-5
            u = CAT.v_star[(k, 1)].invert()
            fine, ref = region_arc_quadrature(u), region_arc_quadrature(u, 4 * _RULES[-1])
            legs = 0
            for pc in CAT.v_cells[(k, 1)].boundary():
                for sign, t, end in ((1, pc.t1, pc.start), (-1, pc.t2, pc.end)):
                    if abs(abs(end) - 1) > 1e-9:
                        continue
                    legs += 1
                    tau = sign * 1j * pc.gradient(t)
                    for s in (1e-3, 1e-5, s_min):
                        g, g_ref = (kernel_integral(end + s * tau, q) for q in (fine, ref))
                        bound = 1e-8 if k != 4 or s >= 1e-3 else 1e-16 / s**2
                        assert abs(g / g_ref - 1) < bound, (k, tau, s)
            assert legs == {2: 2, 4: 2, 6: 4}[k]

    def test_kernel_integral_bitwise_and_chunk_free(self, monkeypatch):
        rng = np.random.default_rng(61)
        z = rng.uniform(-1, 1, 3000) + 1j * rng.uniform(-SQRT3 / 2, SQRT3 / 2, 3000)
        for kl in ((1, 1), (2, 3), (6, 5)):
            arcs = region_arc_quadrature(CAT.v_star[kl].invert())
            zc = z[CAT.v_cells[kl].inside_xy(z.real, z.imag / SQRT3)]
            # reference: the flux field written as one expression
            v = zc[:, None] * arcs.nodes - 1.0
            H = (-v / (2.0 * np.abs(v) ** 4)) / zc[:, None]
            ref = np.sum(np.real(H * np.conj(arcs.normals)) * arcs.weights, axis=-1)
            got = kernel_integral(zc, arcs)
            assert zc.size > 20 and np.array_equal(got, ref), kl
            assert np.array_equal(kernel_integral(zc.reshape(1, -1), arcs)[0], ref)
            assert kernel_integral(zc[3], arcs) == ref[3]
            split = np.concatenate([kernel_integral(zc[:7], arcs), kernel_integral(zc[7:], arcs)])
            assert np.array_equal(split, ref)
            for block in (1, arcs.nodes.size * 5 + 1, 10**9):
                monkeypatch.setattr(ergodic, "_KERNEL_BLOCK", block)
                assert np.array_equal(kernel_integral(zc, arcs), ref), block
            monkeypatch.undo()


class TestQuadrature:
    def test_c0_positive_finite(self):
        quad = estimate_C0_and_levy_integral(quad_samples=120000, seed=11)
        assert 0.05 < quad.c0 < 0.2
        assert math.isfinite(quad.levy_integral) and quad.levy_integral > 0
        assert quad.min_kernel_dist > 0.0
        assert abs(sum(quad.cell_masses().values()) - 1.0) < 1e-12

    def test_routes_agree_loosely_at_small_scale(self):
        quad = estimate_C0_and_levy_integral(quad_samples=200000, seed=12)
        lb = levy_birkhoff(orbits=24, length=4000, seed=12)
        assert abs(quad.levy_integral - lb.value) / lb.value < 0.05
        # the recorded pair-sampled route estimates the same number
        assert abs(quad.levy_integral_pairs - lb.value) < 0.12

    def test_refinement_levels_agree(self):
        quad = estimate_C0_and_levy_integral(quad_samples=1000, seed=13)
        assert 0 < quad.c0_err < 1e-6 * quad.c0
        assert 0 < quad.levy_err < 1e-6 * quad.levy_integral

    def test_rotation_invariance_of_masses(self):
        # each V_{k,l} integrated directly against the base cell V_{k,1}
        for k in range(1, 7):
            l = k % 5 + 2
            mass, levy, _ = _cell_integrals(CAT, (k, l), _RULES[-1])
            mass1, levy1, _ = _cell_integrals(CAT, (k, 1), _RULES[-1])
            assert abs(mass / mass1 - 1) < 1e-9, (k, l)
            assert abs(levy / levy1 - 1) < 1e-9, (k, l)
        # V_{3,1} and V_{5,1} integrated directly against their mirror images
        for k, j in MIRROR_PAIRS.items():
            mass, levy, _ = _cell_integrals(CAT, (k, 1), _RULES[-1])
            mass_j, levy_j, _ = _cell_integrals(CAT, (j, 1), _RULES[-1])
            assert abs(mass / mass_j - 1) < 1e-9, k
            assert abs(levy / levy_j - 1) < 1e-9, k

    def test_rules_are_built_once_and_shared_read_only(self, monkeypatch):
        calls = []

        def counted(cat, kl, n):
            calls.append((kl, n))
            return _cell_integrals(cat, kl, n)

        monkeypatch.setattr(ergodic, "_cell_integrals", counted)
        ergodic.quadrature.cache_clear()
        first = estimate_C0_and_levy_integral(quad_samples=1000, seed=31)
        second = estimate_C0_and_levy_integral(quad_samples=4000, seed=32)
        ergodic_report(orbits=2, length=10, quad_samples=200, seed=33)
        # one build: the four base cells, each by the coarse and the fine rule
        assert sorted(calls) == sorted(((k, 1), n) for k in (1, 2, 4, 6) for n in _RULES)
        ergodic.quadrature.cache_clear()
        cold = estimate_C0_and_levy_integral(quad_samples=1000, seed=31)
        assert len(calls) == 2 * 4 * len(_RULES)
        pair_fields = {"levy_integral_pairs", "levy_pairs_err", "min_kernel_dist"}
        for quad in (first, second):
            for f in dataclasses.fields(Quadrature):
                got, ref = getattr(quad, f.name), getattr(cold, f.name)
                if f.name == "arcs":
                    assert got.keys() == ref.keys()
                    assert all(np.array_equal(a, b) for k in got
                               for a, b in zip(got[k], ref[k]))
                elif f.name not in pair_fields or quad is first:
                    assert got == ref, f.name
        # every request reads the one record, which is read-only by type;
        # only the pair check is its own
        assert first.arcs is second.arcs
        shared = ergodic.quadrature()
        assert cold.arcs is shared.arcs and cold.masses is shared.masses
        assert all(math.isnan(getattr(shared, f)) for f in pair_fields)
        assert all(math.isfinite(getattr(quad, f))
                   for quad in (first, second, cold) for f in pair_fields)
        for mapping in (shared.masses, shared.arcs):
            with pytest.raises(TypeError):
                mapping[4] = mapping[4]
        for name in ("c0", "masses", "min_kernel_dist"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(shared, name, getattr(shared, name))
        for a in cold.arcs[3]:
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(AttributeError):
            cold.arcs[3].nodes = cold.arcs[3].nodes.copy()

    def test_pair_check_blocks_equal_one_pass(self):
        # the blocked pair check against the whole-array reference, on pair
        # counts that end inside, at and just past a lookup block; m = 3
        # keeps no pair in some cells, where the smallest distance is inf
        block, empty = ergodic._LOOKUP_BLOCK, 0
        for seed in (1, 2):
            for m in (3, 200, block - 1, block, block + 1, 88888):
                for k, cell in ergodic._pair_cells().items():
                    got = ergodic._pair_check((k, 1), cell, m, seed, BAND)
                    assert got == pair_check_reference((k, 1), cell, m, seed, BAND), (
                        seed, m, k)
                    empty += got[2] == math.inf
        assert empty > 0

    def test_cell_integrals_against_refined_rules(self):
        # both rules with four times the nodes per panel
        for kl in ((4, 1), (6, 1)):
            mass, levy, _ = _cell_integrals(CAT, kl, _RULES[-1])
            ref_mass, ref_levy, _ = _cell_integrals(CAT, kl, 4 * _RULES[-1])
            assert abs(mass / ref_mass - 1) < 1e-7, kl
            assert abs(levy / ref_levy - 1) < 1e-7, kl


@pytest.fixture(scope="module")
def estimator():
    return estimate_C0_and_levy_integral(quad_samples=250000, seed=14)


class TestDensity:

    def test_positive_on_samples(self, estimator):
        rng = np.random.Generator(np.random.PCG64(15))
        pts = []
        while len(pts) < 50:
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.85, 0.85))
            pts.append(z)
        h = estimator.density(np.array(pts))
        assert np.all(np.isnan(h) | (h > 0))
        assert np.isfinite(h[~np.isnan(h)]).all()

    def test_rotation_symmetry(self, estimator):
        rot = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
        for z in (0.35 + 0.22j, -0.1 + 0.3j, 0.52 + 0.1j):
            a, b = estimator.density(np.array([z, z * rot]))
            assert abs(a - b) < 5e-3 * max(a, 1.0)

    def test_rotated_cells_use_the_base_rule(self, estimator):
        rng = np.random.Generator(np.random.PCG64(16))
        z = rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-SQRT3 / 2, SQRT3 / 2, 4000)
        h = estimator.density(z)
        # (3, 2) and (5, 4) read the flux rules of the mirror cells
        for kl in ((2, 3), (4, 5), (6, 6), (3, 2), (5, 4)):
            inside = CAT.v_cells[kl].inside_xy(z.real, z.imag / SQRT3)
            zc = z[inside]
            direct = estimator.c0 * kernel_integral(
                zc, region_arc_quadrature(CAT.v_star[kl].invert()))
            got = h[inside]
            assert zc.size > 20 and np.allclose(got, direct, rtol=1e-12, atol=0), kl

    def test_total_mass_near_one(self, estimator):
        total, err = density_integral(estimator)
        assert abs(total - 1.0) < max(0.03, 4 * err)

    def test_grid_output(self, estimator):
        xs, ys, vals = estimator.density_grid(32)
        assert vals.shape == (32, 32)
        assert (vals >= 0).all()
        assert vals.max() > 0


class TestInvariance:
    def test_small_scale_pass(self, estimator):
        rep = invariance_check(estimator, orbits=24, length=3000, seed=17)
        assert rep.verdict == "PASS", rep.failures[:4]
        assert abs(rep.info["frequency_sum"] - 1.0) < 1e-6
        assert rep.info["rotation_spread"] < 0.02

    def test_frequencies_are_per_cell_means(self):
        # one bincount over the batch gives the bits of 36 per-cell means;
        # its 420,000 points cross 13 lookup blocks, whose edges fall inside
        # orbits of 7000 points
        batch = simulate_orbits(60, 7000, seed=23)
        freq, mean_freq = occupation_frequencies(batch)
        idx = classify_cells_complex(batch.points)
        ref = np.stack([(idx == ci).mean(axis=1) for ci in range(36)], axis=1)
        assert freq.tobytes() == ref.tobytes()
        assert mean_freq.tobytes() == ref.mean(axis=0).tobytes()
        assert 0.98 < freq.sum(axis=1).min() <= freq.sum(axis=1).max() < 1.0 + 1e-12
