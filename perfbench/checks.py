"""Reference values and report checks for the coinlab benchmark.

Every probability the checks compare against is computed here, in integer
arithmetic, from a dynamic program over the fair +/-1 walk; nothing calls
``coinlab.exact`` or reads the program's own exact fields as truth. A
Monte Carlo count passes when it lies in the acceptance region of its
exact rate, so the checks keep holding after a change that re-pins the
sampler. The spectral means are compared with norms the benchmark computes
itself by SVD on coin matrices it draws itself.

Each ``check_*`` function takes a report's rows for one experiment plus the
parameters the benchmark asked for, and returns a list of failure messages
(empty when the rows are right).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# False-alarm rate of one count check (at most). A streams pass makes about
# 40 such checks, so an honest run trips one less than once in 10^7 runs.
ALPHA = 1e-9
# Normal quantile for the spectral mean comparisons (two-sided ~1e-10).
Z_SPECTRAL = 6.5
SPECTRAL_SAMPLE_TRIALS = 2000
BUILD_G_SAMPLES = 4

# The documented defaults of each coinlab experiment, as `all` runs them.
DEFAULTS = {
    "fact3": {"n": 16, "trials": 10**6},
    "lemma52-1": {"n": 200, "t": 1, "trials": 10**6},
    "lemma52-2": {"n": 60, "t": 3, "trials": 10**5},
    "lemma71": {"n": 40, "t": 2, "m": 10, "c1": 0.05, "trials": 10**5},
    "coin-iter": {"n": 60, "t": 3, "t_excluded": 1, "t_stopped": 2, "iterations": 1000},
    "agreement": {"n": 60, "t": 0, "max_iterations": 1000},
    "spectral": {"n": 32, "t": 1, "m": 32, "epsilon": 0.1, "trials": 1000},
    "constants": {"n": 1000, "t": 5},
}


# --- exact walk distributions (integer counts out of 2**length walks) ---

@lru_cache(maxsize=None)
def max_counts(length: int) -> tuple[int, ...]:
    """counts[m] = number of length-step walks whose maximum over the
    prefixes 0..length equals m.

    First-step recursion: a walk is one step followed by an independent
    walk one shorter. Stepping up shifts the rest's maximum by +1; stepping
    down gives max(0, rest's maximum - 1).
    """
    counts = [1]
    for _ in range(length):
        nxt = [0] * (len(counts) + 1)
        for m, c in enumerate(counts):
            nxt[m + 1] += c
            nxt[max(m - 1, 0)] += c
        counts = nxt
    return tuple(counts)


def prob_max_ge(length: int, level: int) -> Fraction:
    """Pr(max over prefixes 1..length >= level) for level >= 1."""
    if level < 1:
        raise ValueError("level must be >= 1")
    counts = max_counts(length)
    return Fraction(sum(counts[level:]), 2**length)


@lru_cache(maxsize=None)
def endpoint_tail_counts(length: int) -> tuple[int, ...]:
    """tail[k] = number of walks with at least k up-steps (tail[length+1] = 0)."""
    combos = [1]
    for k in range(1, length + 1):
        combos.append(combos[-1] * (length - k + 1) // k)
    tail = [0] * (length + 2)
    for k in range(length, -1, -1):
        tail[k] = tail[k + 1] + combos[k]
    return tuple(tail)


def prob_sum_ge(length: int, level: int) -> Fraction:
    """Pr(endpoint sum of a length-step walk >= level), for any integer level."""
    # sum = 2k - length >= level  <=>  k >= ceil((length + level) / 2)
    k_min = min(max(-((length + level) // -2), 0), length + 1)
    return Fraction(endpoint_tail_counts(length)[k_min], 2**length)


def min_from_first_counts(length: int) -> dict[int, int]:
    """counts[v] = number of length-step walks whose minimum over the
    prefixes 1..length equals v (the empty prefix excluded)."""
    rest = max_counts(length - 1)  # maximum of the negated remainder, prefixes 0..
    out: dict[int, int] = {}
    for first in (+1, -1):
        for m, c in enumerate(rest):
            out[first - m] = out.get(first - m, 0) + c
    return out


# --- thresholds, computed from the formulas in the paper's analysis ---

def alpha(n: int, t: int) -> float:
    return math.sqrt(2.0 * n * (n - 2.0 * t))


def beta(n: int, t: int) -> float:
    return math.sqrt(2.0 * n * (n - t)) - 2.0 * t


def beta_quarter(n: int, t: int) -> float:
    return math.sqrt(2.0 * n * (n - t)) / 4.0 - t / 2.0


def beta_half(n: int, t: int) -> float:
    return math.sqrt(2.0 * n * (n - t)) / 2.0 - t


def alpha_prime(n: int, t: int) -> float:
    return alpha(n, t) - beta_quarter(n, t)


def norm_threshold(n: int, m: int, epsilon: float) -> float:
    return (6.0 + 2.0 * epsilon) * math.sqrt(n * (m + n))


# --- exact rates of each experiment ---

def lemma52_2_exact(n: int, t: int) -> dict[str, Fraction]:
    """Exact p_first, p_adversary_max and p_full of the two-phase stream.

    The first n(n-2t) coins give the core sum S; the window of the next nt
    coins gives the deepest opposing excursion M >= 0 (prefix 0 included).
    S and M are independent, so p_full is their convolution.
    """
    n_core, window = n * (n - 2 * t), n * t
    a, bq, ap = alpha(n, t), beta_quarter(n, t), alpha_prime(n, t)
    excursion = max_counts(window)
    ap_int = math.ceil(ap)
    full = sum(c * prob_sum_ge(n_core, ap_int + m) for m, c in enumerate(excursion))
    return {
        "p_first": prob_sum_ge(n_core, math.ceil(a)),
        "p_adversary_max": Fraction(sum(excursion[math.ceil(bq):]), 2**window),
        "p_full": full / 2**window,
    }


def good_event_exact(n: int, t: int, t_excluded: int, t_stopped: int) -> Fraction:
    """Pr(core of a round reaches alpha'): the core is the complete good
    streams, (n - t - t_excluded - t_stopped) * n fair coins."""
    coins = (n - t - t_excluded - t_stopped) * n
    return prob_sum_ge(coins, math.ceil(alpha_prime(n, t)))


def agreement_round_exact(n: int, t: int, t_excluded: int, t_stopped: int) -> Fraction:
    """Pr(one round ends the agreement loop): total >= alpha' (which also
    makes the coin land on +1).

    total = (complete + excluded coins) + each stopped stream's minimum over
    prefixes 1..n - t (the ambiguity allowance, at its default of t).
    """
    free_coins = (n - t - t_stopped) * n
    stopped = {0: 1}
    per_stream = min_from_first_counts(n)
    for _ in range(t_stopped):
        nxt: dict[int, int] = {}
        for u, cu in stopped.items():
            for v, cv in per_stream.items():
                nxt[u + v] = nxt.get(u + v, 0) + cu * cv
        stopped = nxt
    need = math.ceil(alpha_prime(n, t)) + t
    total = sum(c * prob_sum_ge(free_coins, need - u) for u, c in stopped.items())
    return total / 2 ** (n * t_stopped)


# --- acceptance regions ---

def _chernoff(k: int, n: int, p: float) -> float:
    """exp(-n KL(k/n || p)), which bounds Pr(Bin(n, p) <= k) when k <= np
    and Pr(Bin(n, p) >= k) when k >= np."""
    a = k / n

    def term(x: float, y: float) -> float:
        if x == 0:
            return 0.0
        return math.inf if y == 0 else x * math.log(x / y)

    return math.exp(-n * (term(a, p) + term(1.0 - a, 1.0 - p)))


def binom_ok(successes: int, trials: int, p: Fraction | float) -> bool:
    """True when `successes` lies in the acceptance region of
    Binomial(trials, p): the tail on its side of the mean is not provably
    below ALPHA/2. (The tail on the far side holds at least half the mass.)
    The Chernoff bound is above the exact tail, so honest counts are
    refused at rate ALPHA at most."""
    return _chernoff(successes, trials, float(p)) >= ALPHA / 2


def geometric_sum_ok(total_rounds: int, runs: int, q: Fraction | float) -> bool:
    """True when the rounds used by `runs` independent loops, each ending
    with probability q per round, lie in the acceptance region.

    T >= x exactly when the first x-1 rounds end fewer than `runs` loops,
    and T <= x exactly when the first x rounds end at least `runs`."""
    q = float(q)
    x = total_rounds
    if x < runs:
        return False
    if x > 1 and runs - 1 < (x - 1) * q and _chernoff(runs - 1, x - 1, q) < ALPHA / 2:
        return False
    return not (runs > x * q and _chernoff(runs, x, q) < ALPHA / 2)


def _count(errors: list[str], label: str, successes: int, trials: int, p) -> None:
    if not binom_ok(successes, trials, p):
        errors.append(f"{label}: {successes}/{trials} outside the acceptance region "
                      f"of the exact rate {float(p):.6g}")


def _close(errors: list[str], label: str, got: float, want: float, rel: float = 1e-12) -> None:
    if not math.isclose(got, want, rel_tol=rel, abs_tol=1e-300):
        errors.append(f"{label}: got {got!r}, expected {want!r}")


def _verdict(est: dict, bound: float, relation: str) -> str:
    if relation == "<=":
        if est["ci_high"] <= bound:
            return "pass"
        return "fail" if est["ci_low"] > bound else "inconclusive"
    if est["ci_low"] >= bound:
        return "pass"
    return "fail" if est["ci_high"] < bound else "inconclusive"


def _by_claim(rows: list[dict]) -> dict[str, dict]:
    return {row["claim_id"]: row for row in rows if "claim_id" in row}


def _need(errors: list[str], claims: dict, claim_id: str) -> dict | None:
    row = claims.get(claim_id)
    if row is None:
        errors.append(f"missing row {claim_id}")
    return row


# --- per-experiment checks ---

def check_fact3(rows: list[dict], cfg: dict) -> list[str]:
    errors: list[str] = []
    n, trials = cfg["n"], cfg["trials"]
    claims = _by_claim(rows)
    enum = _need(errors, claims, "enumeration_matches_reflection_identity")
    if enum is not None and enum.get("verdict") != "pass":
        errors.append("fact3 enumeration row does not pass")
    mc_rows = [r for r in rows if str(r.get("claim_id", "")).startswith("max_tail_le_twice")]
    if len(mc_rows) != n:
        errors.append(f"fact3: {len(mc_rows)} Monte Carlo rows, expected {n}")
    for r in range(1, n + 1):
        row = _need(errors, claims, f"max_tail_le_twice_sum_tail_n{n}_r{r}")
        if row is None:
            continue
        exact = prob_max_ge(n, r)
        bound = 2 * prob_sum_ge(n, r)
        if row["details"]["exact_probability"] != float(exact):
            errors.append(f"fact3 r={r}: exact_probability {row['details']['exact_probability']!r} "
                          f"!= {float(exact)!r}")
        if row["analytic_bound"] != float(bound):
            errors.append(f"fact3 r={r}: analytic_bound {row['analytic_bound']!r} != {float(bound)!r}")
        est = row["empirical"]
        if est["trials"] != trials:
            errors.append(f"fact3 r={r}: {est['trials']} trials, expected {trials}")
        _count(errors, f"fact3 r={r}", est["successes"], trials, exact)
        if row["verdict"] != _verdict(est, float(bound), "<="):
            errors.append(f"fact3 r={r}: verdict {row['verdict']} disagrees with its interval")
    return errors


def check_lemma52_1(rows: list[dict], cfg: dict) -> list[str]:
    errors: list[str] = []
    n, t, trials = cfg["n"], cfg["t"], cfg["trials"]
    claims = _by_claim(rows)
    bq = beta_quarter(n, t)
    bound = 2.0 * math.exp(-(bq * bq) / (2.0 * t * n))
    info = _need(errors, claims, "analytic_tail_bound_value")
    if info is not None:
        _close(errors, "lemma52-1 analytic bound", info["analytic_bound"], bound)
    row = _need(errors, claims, "stopped_stream_deviation_tail")
    if row is None:
        return errors
    level = math.floor(bq) + 1  # strictly beyond beta/4
    if row["details"]["integer_threshold"] != level:
        errors.append(f"lemma52-1: threshold {row['details']['integer_threshold']} != {level}")
    p = prob_max_ge(n * t, level)  # the minus direction is the mirror image
    plus, minus = row["details"]["plus_direction"], row["details"]["minus_direction"]
    if (plus["trials"], minus["trials"]) != ((trials + 1) // 2, trials // 2):
        errors.append("lemma52-1: trials not split evenly between the two directions")
    _count(errors, "lemma52-1 plus", plus["successes"], plus["trials"], p)
    _count(errors, "lemma52-1 minus", minus["successes"], minus["trials"], p)
    est = row["empirical"]
    if est["successes"] != plus["successes"] + minus["successes"] or est["trials"] != trials:
        errors.append("lemma52-1: total is not the sum of the two directions")
    _close(errors, "lemma52-1 row bound", row["analytic_bound"], bound)
    if row["verdict"] != _verdict(est, row["analytic_bound"], "<="):
        errors.append(f"lemma52-1: verdict {row['verdict']} disagrees with its interval")
    return errors


def check_lemma52_2(rows: list[dict], cfg: dict) -> list[str]:
    errors: list[str] = []
    n, t, trials = cfg["n"], cfg["t"], cfg["trials"]
    row = _need(errors, _by_claim(rows), "two_phase_structural_decomposition")
    if row is None:
        return errors
    if row["verdict"] != "pass":
        errors.append("lemma52-2: structural decomposition does not pass")
    report = row["report"]
    for key, p in lemma52_2_exact(n, t).items():
        est = report[key]
        if est["trials"] != trials:
            errors.append(f"lemma52-2 {key}: {est['trials']} trials, expected {trials}")
        _count(errors, f"lemma52-2 {key}", est["successes"], trials, p)
    return errors


def check_lemma71(rows: list[dict], cfg: dict) -> list[str]:
    errors: list[str] = []
    n, t, m, c1, trials = cfg["n"], cfg["t"], cfg["m"], cfg["c1"], cfg["trials"]
    claims = _by_claim(rows)
    length = int(round(c1 * m * n * t))
    taus = {"default_threshold": (beta(n, t) / 6.0) * c1 * m}
    for mult in (0.5, 1.0, 2.0):
        taus[f"{mult}sigma"] = mult * math.sqrt(length)
    for name, tau in taus.items():
        row = _need(errors, claims, f"running_max_vs_endpoint@{name}")
        if row is None:
            continue
        _close(errors, f"lemma71 {name} threshold", row["details"]["threshold"], tau)
        level = math.ceil(tau)
        x, y = row["empirical"], row["details"]["endpoint_estimate"]
        _count(errors, f"lemma71 {name} X", x["successes"], trials, prob_max_ge(length, level))
        _count(errors, f"lemma71 {name} Y", y["successes"], trials, prob_sum_ge(length, level))
        if (x["trials"], y["trials"]) != (trials, trials):
            errors.append(f"lemma71 {name}: trials differ from {trials}")
        holds = x["p_hat"] <= row["analytic_bound"]
        if row["verdict"] != ("pass" if holds else "fail"):
            errors.append(f"lemma71 {name}: verdict {row['verdict']} disagrees with its bound")
    small = _need(errors, claims, "exact_small_case_length8")
    if small is not None:
        want = str(prob_max_ge(8, 2))
        if (small["reflection"], small["enumeration"]) != (want, want):
            errors.append(f"lemma71 length-8 case: {small['reflection']}, {small['enumeration']} != {want}")
        if small["twice_endpoint_tail"] != str(2 * prob_sum_ge(8, 2)) or small["verdict"] != "pass":
            errors.append("lemma71 length-8 case: wrong endpoint tail or verdict")
    return errors


def check_coin_iter(rows: list[dict], cfg: dict) -> list[str]:
    errors: list[str] = []
    claims = _by_claim(rows)
    for claim in ("deviation_components_additive", "good_event_invariant_to_behavioral_knobs"):
        row = _need(errors, claims, claim)
        if row is not None and row.get("verdict") != "pass":
            errors.append(f"coin-iter {claim} does not pass")
    row = _need(errors, claims, "good_event_frequency_vs_benchmark")
    if row is not None:
        est = row["empirical"]
        p = good_event_exact(cfg["n"], cfg["t"], cfg["t_excluded"], cfg["t_stopped"])
        if est["trials"] != cfg["iterations"]:
            errors.append(f"coin-iter: {est['trials']} rounds, expected {cfg['iterations']}")
        _count(errors, "coin-iter good event", est["successes"], cfg["iterations"], p)
    return errors


def check_agreement(rows_per_seed: list[list[dict]], cfg: dict) -> list[str]:
    """Checks agreement reports of several seeds together: every loop
    agrees, and their total round count fits the exact per-round rate."""
    errors: list[str] = []
    total = 0
    for rows in rows_per_seed:
        row = _need(errors, _by_claim(rows), "agreement_reached_within_budget")
        if row is None:
            continue
        if not row["agreed"] or row["verdict"] != "pass":
            errors.append("agreement not reached")
        total += row["iterations_used"]
    q = agreement_round_exact(cfg["n"], cfg["t"], cfg.get("t_excluded", 0), cfg.get("t_stopped", 0))
    if not geometric_sum_ok(total, len(rows_per_seed), q):
        errors.append(f"agreement: {total} rounds over {len(rows_per_seed)} seeds does not fit "
                      f"the exact per-round rate {float(q):.6g}")
    return errors


def spectral_sample(n: int, t: int, m: int, trials: int, seed: int) -> dict[str, np.ndarray]:
    """Norms of the stopped, full and correction iteration-sum matrices over
    the benchmark's own draws.

    Each round is an n x n coin matrix with one stream per column; the
    first t columns stop at their lowest prefix sum over prefixes 1..n
    (smallest index on ties), and the last t columns are zeroed as bad.
    """
    rng = np.random.default_rng([0x5BEC, seed])
    out: dict[str, list] = {"stopped_sums": [], "full_sums": [], "correction_sums": []}
    for start in range(0, trials, 250):
        batch = min(250, trials - start)
        coins = rng.integers(0, 2, size=(batch, m, n, n), dtype=np.int8) * 2 - 1
        full = coins.sum(axis=2, dtype=np.int64)  # (batch, m, n): column sums per round
        stopped = full.copy()
        for j in range(t):
            prefix = np.cumsum(coins[:, :, :, j], axis=2, dtype=np.int64)
            stop = prefix.argmin(axis=2)  # keep the first stop+1 coins
            stopped[:, :, j] = np.take_along_axis(prefix, stop[..., None], axis=2)[..., 0]
        full[:, :, n - t:] = 0
        stopped[:, :, n - t:] = 0
        for key, mats in (("stopped_sums", stopped), ("full_sums", full),
                          ("correction_sums", stopped - full)):
            out[key].append(np.linalg.svd(mats.astype(np.float64), compute_uv=False)[:, 0])
    return {key: np.concatenate(vals) for key, vals in out.items()}


def check_build_g_norms(cfg: dict, seed: int) -> list[str]:
    """spectral_norm on a few build_G outputs agrees with SVD within its
    own certified relative error bound."""
    from coinlab.bounds import Params
    from coinlab.matrices import build_G, spectral_norm
    from coinlab.walks import StoppingStrategy

    errors: list[str] = []
    params = Params(n=cfg["n"], t=cfg["t"], m=cfg["m"], epsilon=cfg["epsilon"])
    adversary = StoppingStrategy.omniscient_extreme(direction=-1)
    for i in range(BUILD_G_SAMPLES):
        mats = build_G(params, adversary, seed * BUILD_G_SAMPLES + i)
        for key in ("stopped_sums", "full_sums", "correction_sums"):
            matrix = getattr(mats, key)
            if not np.any(matrix):
                continue
            est = spectral_norm(matrix)
            exact = float(np.linalg.norm(matrix.astype(np.float64), 2))
            if abs(est.value - exact) > est.relative_error_bound * exact + 1e-12 * exact:
                errors.append(f"spectral_norm {est.value!r} vs SVD {exact!r} on {key} exceeds "
                              f"its bound {est.relative_error_bound:.3g}")
    return errors


def check_spectral(rows: list[dict], cfg: dict, seed: int) -> list[str]:
    errors: list[str] = []
    n, t, m, trials = cfg["n"], cfg["t"], cfg["m"], cfg["trials"]
    claims = _by_claim(rows)
    threshold = norm_threshold(n, m, cfg["epsilon"])
    sample = spectral_sample(n, t, m, SPECTRAL_SAMPLE_TRIALS, seed)
    exceed = _need(errors, claims, "iteration_sum_norm_exceedance")
    summary = _need(errors, claims, "norm_decomposition_summary")
    oracle = _need(errors, claims, "power_iteration_matches_2x2_oracle")
    if exceed is not None and summary is not None:
        _close(errors, "spectral threshold", summary["threshold"], threshold)
        # Norms concentrate (sd ~ 3 at the defaults); when the benchmark's
        # whole sample stays below half the threshold, a report exceedance
        # would be tens of standard deviations out.
        if max(float(v.max()) for v in sample.values()) < threshold / 2:
            half = summary["half_threshold_exceedances"]
            if (exceed["empirical"]["successes"], half["full_sums"], half["correction_sums"]) != (0, 0, 0):
                errors.append("spectral: exceedances reported where none are plausible")
        if exceed["verdict"] != _verdict(exceed["empirical"], 2.0 / (m + n), "<="):
            errors.append("spectral: exceedance verdict disagrees with its interval")
        if summary.get("triangle_checked") is not True:
            errors.append("spectral: triangle inequality not checked")
        for key, norms in sample.items():
            got = summary["mean_norms"][key]
            var = float(norms.var(ddof=1))
            tol = Z_SPECTRAL * math.sqrt(var / trials + var / norms.size)
            if abs(got - float(norms.mean())) > tol:
                errors.append(f"spectral mean {key}: report {got:.6g} vs SVD sample "
                              f"{float(norms.mean()):.6g} beyond {tol:.3g}")
    if oracle is not None and (oracle["verdict"] != "pass"
                               or oracle["worst_relative_difference"] > oracle["tolerance"]):
        errors.append("spectral: 2x2 oracle row does not pass")
    errors.extend(check_build_g_norms(cfg, seed))
    return errors


def check_constants(rows: list[dict], cfg: dict) -> list[str]:
    errors: list[str] = []
    n, t = cfg["n"], cfg["t"]
    verdict_rows = [r for r in rows if "verdict" in r]
    if len(verdict_rows) != 4 or any(r["verdict"] != "pass" for r in verdict_rows):
        errors.append("constants: the four numeric claims do not all pass")
    row = _need(errors, _by_claim(rows), "derived_thresholds")
    if row is not None:
        want = {
            "alpha": alpha(n, t), "beta": beta(n, t), "beta_quarter": beta_quarter(n, t),
            "beta_half": beta_half(n, t), "alpha_prime": alpha_prime(n, t),
            "norm_threshold": norm_threshold(n, 1, 0.1),
        }
        for key, value in want.items():
            _close(errors, f"constants {key}", row["thresholds"][key], value, rel=1e-9)
    return errors


CHECKS = {
    "fact3": check_fact3,
    "lemma52-1": check_lemma52_1,
    "lemma52-2": check_lemma52_2,
    "lemma71": check_lemma71,
    "coin-iter": check_coin_iter,
    "constants": check_constants,
}


def strip_timing(report: dict) -> dict:
    """The report without its wall-time rows, which no determinism covers."""
    out = dict(report)
    out["results"] = [r for r in report["results"] if r.get("kind") != "timing"]
    return out


def check_summary(report: dict, exit_code: int) -> list[str]:
    errors: list[str] = []
    counted = {"pass": 0, "fail": 0, "inconclusive": 0}
    for row in report["results"]:
        if row.get("verdict") in counted:
            counted[row["verdict"]] += 1
    if report["summary"] != counted:
        errors.append(f"summary {report['summary']} does not count the rows {counted}")
    if exit_code != (1 if counted["fail"] else 0):
        errors.append(f"exit code {exit_code} with {counted['fail']} failing rows")
    return errors


def experiment_rows(report: dict):
    """Yield (experiment, rows, parameters) for each experiment in a report.

    The parameters are the documented defaults, overridden by what the
    report's config echo says was passed (all of it for a single
    subcommand, only ``trials`` for ``all``).
    """
    by_experiment: dict[str, list[dict]] = {}
    for row in report["results"]:
        if row.get("kind") != "timing":
            by_experiment.setdefault(row["experiment"], []).append(row)
    echo = {k: v for k, v in report["config"].items() if k != "seed"}
    for experiment, rows in by_experiment.items():
        cfg = dict(DEFAULTS[experiment])
        if report["subcommand"] != "all":
            cfg.update(echo)
        elif "trials" in echo and "trials" in cfg:
            cfg["trials"] = echo["trials"]
        yield experiment, rows, cfg


def check_reports(reports: list[tuple[dict, int]], seed: int) -> list[str]:
    """Check one workload pass: a list of (report, exit code). Agreement
    reports are pooled and checked together."""
    errors: list[str] = []
    agreement: list[list[dict]] = []
    agreement_cfg: dict = {}
    for report, code in reports:
        errors.extend(check_summary(report, code))
        for experiment, rows, cfg in experiment_rows(report):
            if experiment == "agreement":
                agreement.append(rows)
                agreement_cfg = cfg
            elif experiment == "spectral":
                errors.extend(check_spectral(rows, cfg, seed))
            else:
                errors.extend(CHECKS[experiment](rows, cfg))
    if agreement:
        errors.extend(check_agreement(agreement, agreement_cfg))
    return errors
