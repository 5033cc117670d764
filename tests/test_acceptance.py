"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (printed after the assertions of that criterion hold).
"""

import math
import time

import numpy as np
import pytest

from gapest import (
    Exponential,
    McConfig,
    Pairs,
    Segments,
    UniformInterval,
    Weibull,
    bootstrap_band,
    cox_vardi_from_pairs,
    kaplan_meier,
    laslett_em,
    mc_compare,
    palmer_cox,
    sample_equilibrium,
    sample_segment_replicates,
    sample_window_replicates,
    segment_marginal_loglik,
    winter_foldes,
)
from gapest.sampling import SEGMENT_KINDS
from gapest.seeding import child_seed, derived_rng

from npmle_oracle import npmle_oracle
from test_npmle import random_em_instance

EXP1 = Exponential(1.0)
E_INV = math.exp(-1.0)


def report(number, elapsed, bound, text):
    print(f"PASS criterion {number}: {text} [{elapsed:.1f}s < {bound:.0f}s]")
    assert elapsed < bound


def survival_sup_error(est_times, est_surv, lo, hi):
    """Exact sup of |step survival - exp(-t)| over [lo, hi], and the t
    where it is attained (at a jump, from the left or the right)."""
    times = np.asarray(est_times)
    surv = np.asarray(est_surv)
    padded = np.concatenate(([1.0], surv))

    def at(t):
        return padded[np.searchsorted(times, t, side="right")]

    candidates = [(abs(at(lo) - math.exp(-lo)), lo), (abs(at(hi) - math.exp(-hi)), hi)]
    inside = (times > lo) & (times <= hi)
    for q, right, left in zip(times[inside], surv[inside], padded[:-1][inside]):
        truth = math.exp(-q)
        candidates.append((abs(right - truth), float(q)))
        candidates.append((abs(left - truth), float(q)))
    return max(candidates)


def test_criterion_1_backward_hazard_identity():
    start = time.time()
    for dist in (EXP1, Weibull(2.0, 1.0), UniformInterval(0.0, 1.0)):
        grid = np.linspace(float(dist.ppf(0.02)), float(dist.ppf(0.98)), 50)
        for t in grid:
            assert abs(dist.backward_alpha(float(t)) * t - 1.0) < 1e-6
    report(1, time.time() - start, 1.0, "backward intensity times t is 1 on all three families")


def test_criterion_2_winter_foldes_is_delayed_entry_km():
    start = time.time()
    rng = derived_rng(2020)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        r = rng.uniform(0.0, 2.0, size=n)
        s = rng.uniform(0.05, 3.0, size=n)
        cens = rng.uniform(size=n) < 0.3
        if cens.all():
            cens[0] = False
        wf = winter_foldes(Pairs(r, s, cens))
        km = kaplan_meier(r + s, cens, r)
        assert np.array_equal(wf.jump_times, km.jump_times)
        assert np.array_equal(wf.survival_values, km.survival_values)
    report(2, time.time() - start, 10.0, "exact equality with delayed-entry product limit, 1000 instances")


def test_criterion_3_consistency_of_both_estimators():
    start = time.time()
    good_wf = 0
    good_cv = 0
    misses = {"product limit": [], "size-biased NPMLE": []}
    for seed in range(100):
        pairs = sample_equilibrium(EXP1, 5000, seed=seed)
        wf = winter_foldes(pairs)
        err, t = survival_sup_error(wf.jump_times, wf.survival_values, 0.05, 2.0)
        if err < 0.05:
            good_wf += 1
        else:
            misses["product limit"].append(f"seed {seed}: {err:.4f} at t={t:.4f}")
        cv = cox_vardi_from_pairs(pairs)
        cv_surv = 1.0 - np.cumsum(cv.masses)
        err, t = survival_sup_error(cv.atoms, cv_surv, 0.05, 2.0)
        if err < 0.05:
            good_cv += 1
        else:
            misses["size-biased NPMLE"].append(f"seed {seed}: {err:.4f} at t={t:.4f}")
    elapsed = time.time() - start
    outcome = "PASS" if good_wf >= 95 and good_cv >= 95 else "FAIL"
    print(
        f"{outcome} criterion 3: sup error below 0.05 in {good_wf}/100 (product limit) "
        f"and {good_cv}/100 (size-biased NPMLE) seeds, needed 95 [{elapsed:.1f}s < 120s]"
    )
    for name, where in misses.items():
        if where:
            print(f"  {name} sup error of 0.05 or more: " + "; ".join(where))
    assert elapsed < 120.0
    assert good_wf >= 95, f"winter_foldes within 0.05 in only {good_wf}/100 seeds"
    assert good_cv >= 95, f"cox_vardi within 0.05 in only {good_cv}/100 seeds"


def test_criterion_4_efficiency_ordering_at_t1():
    start = time.time()
    config = McConfig(
        dist_spec="exp:1", scheme="equilibrium", n=2000, replicates=200, seed=0, check_time=1.0
    )
    rep = mc_compare(config)
    k = int(np.nonzero(rep.grid == 1.0)[0][0])
    var_cv = rep.summaries["cv"].variance[k]
    var_wf = rep.summaries["wf"].variance[k]
    assert var_cv <= var_wf
    assert rep.verdicts["efficiency_ordering"]
    report(
        4, time.time() - start, 120.0,
        f"NPMLE variance at t=1 ({var_cv:.2e}) below product-limit variance ({var_wf:.2e})",
    )


def test_criterion_5_em_matches_brute_force_oracle():
    start = time.time()
    rng = derived_rng(505)
    for _ in range(50):
        segs, w, atoms = random_em_instance(rng, max_atoms=3, max_segments=8)
        em = laslett_em(segs, w, atoms, tol=1e-12)
        oracle = npmle_oracle(segs, w, atoms)
        assert np.all(np.diff(em.loglik_trace) >= -1e-10)
        ll_em = segment_marginal_loglik(em.distribution, segs, w)
        ll_or = segment_marginal_loglik(oracle, segs, w)
        assert abs(ll_em - ll_or) < 1e-6
        assert np.max(np.abs(em.distribution.masses - oracle.masses)) < 1e-4
    report(5, time.time() - start, 60.0, "EM equals the simplex-scan oracle on 50 random instances")


def test_criterion_6_poisson_count_factor():
    start = time.time()
    n = 10_000
    reps = sample_segment_replicates(2.0, EXP1, 0.0, 3.0, n, seed=6)
    counts = np.array([len(r) for r in reps])
    se = math.sqrt(8.0 / n)
    assert abs(counts.mean() - 8.0) < 3 * se
    report(
        6, time.time() - start, 30.0,
        f"mean observed segment count {counts.mean():.3f} within 3 SE of 8",
    )


def test_criterion_7_palmer_cox_time_reversal():
    start = time.time()
    rng = derived_rng(707)
    swap = {"px": "rc", "rc": "px"}
    w = 2.0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        rows = [("pc", float(rng.uniform(0.05, w)))]
        for _ in range(n):
            kind = SEGMENT_KINDS[int(rng.integers(0, 4))]
            length = w if kind == "rx" else float(rng.uniform(0.05, w))
            rows.append((kind, length))
        segs = Segments(*zip(*rows))
        flipped = Segments([swap.get(k, k) for k in segs.kind.tolist()], segs.length)
        a = palmer_cox(segs, w)
        b = palmer_cox(flipped, w)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.survival_values, b.survival_values)
    report(7, time.time() - start, 10.0, "estimate invariant under swapping the singly censored kinds, 1000 datasets")


def test_criterion_8_empty_window_probability():
    start = time.time()
    n = 100_000
    reps = sample_window_replicates(EXP1, 0.0, 1.0, n, seed=8)
    freq = np.mean([rep.kind[0] == "empty" for rep in reps])
    se = math.sqrt(E_INV * (1.0 - E_INV) / n)
    assert abs(freq - E_INV) < 3 * se
    report(
        8, time.time() - start, 30.0,
        f"empty-window frequency {freq:.4f} within 3 SE of exp(-1) = {E_INV:.4f}",
    )


def test_criterion_9_integrability_diagnostic():
    start = time.time()
    diag_exp = EXP1.integrability_diagnostic()
    assert not diag_exp.finite
    diag_wei = Weibull(2.0, 1.0).integrability_diagnostic()
    assert diag_wei.finite
    assert abs(diag_wei.value - math.sqrt(math.pi)) < 1e-3
    report(
        9, time.time() - start, 5.0,
        f"divergent for the exponential, finite {diag_wei.value:.6f} (sqrt(pi)) for the Weibull",
    )


def test_criterion_10_bootstrap_coverage_at_t1():
    start = time.time()
    covered = 0
    outer = 100
    for k in range(outer):
        pairs = sample_equilibrium(EXP1, 500, seed=child_seed(10, k))
        band = bootstrap_band(
            pairs, "winter_foldes", B=1000, seed=child_seed(10, k, 1), level=0.95, grid=[1.0]
        )
        if band.lower[0] <= E_INV <= band.upper[0]:
            covered += 1
    assert covered >= 90, f"bands covered the truth in only {covered}/100 replicates"
    report(
        10, time.time() - start, 300.0,
        f"95% pointwise band covers the true survival at t=1 in {covered}/100 replicates",
    )
