"""Independent reference implementations used to cross-check the package.

The payoff, potential and equilibrium oracles are written in plain Python
(math module, nested loops, no numpy broadcasting) on purpose: they share no
code with ``csgame`` so agreement between the two is meaningful evidence,
not a tautology.

The step-loop oracles are the straightforward loops that faster engines
replaced, and tests hold the engines to them bit for bit, so they repeat the
engines' float arithmetic. :func:`oracle_run_fp` is the one-game, one-step-
at-a-time classic fictitious-play loop, with the same per-opponent
``einsum`` contractions (last opponent first) and the same count-based
beliefs, deciding every step; it reads the package's payoff tables, which
other tests check against
:func:`oracle_utility` and :func:`oracle_potential`.
:func:`oracle_run_aggregation_fp` recomputes the broadcast aggregate at
every step with :func:`oracle_aggregate_message`, the plain-float TwoSum
loop over one profile's players that the package's batched broadcast
replaced, scores every profile it plays and reads every payoff from the
package's scalar ``aggregated_utility``, ``utility`` and ``potential``, and
re-adds its counted-sum scores from scratch at every step;
:func:`oracle_aggregates` is that loop over a stack of profiles, every
(profile, player) in turn, as the package ran it before it updated all
profiles at once, player by player;
:func:`oracle_cycle_onset` walks a cycle's onset back one step at a time,
and :func:`oracle_smallest_period` tries one period of one window at a
time.

:func:`oracle_expected_utility` is the per-opponent-profile loop of scalar
``utility`` calls that the vectorized ``expected_utility`` replaced, and
tests hold it to the loop bit for bit.

The analysis oracles are the per-game equilibrium analysis that the batched
``analyze_game`` replaced, one scalar ``utility``/``potential`` call at a
time, and tests hold the batch to them bit for bit: :func:`oracle_analyze_game`
with its pure-equilibrium, 2x2-setting, region and mixed-point pieces (the
regions read off the enumerated equilibria, as the package's are; the
paper's closed form is :func:`oracle_classify_region_2x2`), and the
per-record mixed payoff (:func:`oracle_mixed_mean_utility`) and nearest
equilibrium point (:func:`oracle_nearest_equilibrium`) of the Monte-Carlo
records.

The rendering oracles write trajectories and plot series the plain way, with
the standard ``json`` encoder on the whole payload and ``csv.writer`` row by
row; the package's bulk writers must produce the same bytes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np

from csgame import (
    REGION_PROFILES,
    EquilibriumReport,
    aggregated_utility,
    expected_utility,
    potential,
    potential_table,
    utility,
    utility_table,
)


def oracle_utility(bandwidths, noise, max_power, gains, profile, player) -> float:
    """Per-player spectral efficiency, naive scalar implementation."""
    total_b = sum(bandwidths)
    s = profile[player]
    interference = noise[s]
    for j, ch in enumerate(profile):
        if j != player and ch == s:
            interference += max_power[j] * gains[j][s]
    signal = max_power[player] * gains[player][s]
    return (bandwidths[s] / total_b) * math.log2(1.0 + signal / interference)


def oracle_potential(bandwidths, noise, max_power, gains, profile) -> float:
    """Weighted log of per-channel aggregates, naive scalar implementation."""
    total_b = sum(bandwidths)
    total = 0.0
    for s in range(len(bandwidths)):
        agg = noise[s]
        for k, ch in enumerate(profile):
            if ch == s:
                agg += max_power[k] * gains[k][s]
        total += (bandwidths[s] / total_b) * math.log2(agg)
    return total


def oracle_expected_utility(game, player: int, own_channel: int, opponent_dist) -> float:
    """The opponent-profile loop that the vectorized ``expected_utility``
    replaced, unchecked: one scalar ``utility`` call per nonzero entry of
    the (S,)*(K-1) distribution, in C order, each term added left to right."""
    dist = np.asarray(opponent_dist, dtype=float).reshape((game.S,) * (game.K - 1))
    opponents = [j for j in range(game.K) if j != player]
    prof = np.empty(game.K, dtype=np.int64)
    prof[player] = own_channel
    total = 0.0
    for idx in np.ndindex(dist.shape):
        p = float(dist[idx])
        if p == 0.0:
            continue
        for j, c in zip(opponents, idx):
            prof[j] = c
        total += p * utility(game, prof, player)
    return total


def oracle_pure_ne(bandwidths, noise, max_power, gains) -> list[tuple[int, ...]]:
    """Brute-force pure Nash equilibria by checking every unilateral deviation."""
    n_players = len(max_power)
    n_channels = len(bandwidths)
    equilibria = []
    for profile in itertools.product(range(n_channels), repeat=n_players):
        stable = True
        for k in range(n_players):
            current = oracle_utility(bandwidths, noise, max_power, gains, profile, k)
            for alt in range(n_channels):
                if alt == profile[k]:
                    continue
                deviated = list(profile)
                deviated[k] = alt
                if oracle_utility(bandwidths, noise, max_power, gains, deviated, k) > current:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            equilibria.append(profile)
    return equilibria


def oracle_best_response_2x2(bandwidths, noise, max_power, gains, player, opponent_channel) -> int:
    """Best reply of one player in a 2-channel game, ties going to channel 0."""
    profile = [0, 0]
    other = 1 - player
    profile[other] = opponent_channel
    best, best_value = 0, -math.inf
    for s in range(2):
        profile[player] = s
        value = oracle_utility(bandwidths, noise, max_power, gains, profile, player)
        if value > best_value:
            best, best_value = s, value
    return best


def oracle_run_fp(game, marginals, T: int, tie_break: str = "lowest", step: int = 1):
    """Classic fictitious play on one game, one step at a time.

    Beliefs are exact counts: at belief weight ``step`` each vector is
    (prior + counts) / step, with prior = marginals * initial step. Returns
    profiles (T, K), per-step utilities (T, K) and potentials (T,),
    decision-time beliefs (T, K, S), the final beliefs and step, the (K, S)
    action counts after each of steps 0..T, and each player's payoffs as a
    counted sum (:func:`oracle_counted_sum`).
    """
    table = utility_table(game)
    phi = potential_table(game)
    n_players, n_channels = game.K, game.S
    prior = np.array(marginals, dtype=float) * step
    eye = np.eye(n_channels)
    profiles, utilities, potentials, beliefs = [], [], [], []
    counts = [np.zeros((n_players, n_channels))]
    for _ in range(T):
        f = (prior + counts[-1]) / step
        beliefs.append(f)
        actions = []
        for k in range(n_players):
            res = np.moveaxis(table[k], k, 0)
            for j in reversed([j for j in range(n_players) if j != k]):
                res = np.einsum("...s,s->...", res, f[j])
            if tie_break == "lowest":
                actions.append(int(np.argmax(res)))
            else:
                actions.append(int(n_channels - 1 - np.argmax(res[::-1])))
        idx = tuple(actions)
        profiles.append(actions)
        utilities.append(table[(slice(None), *idx)])
        potentials.append(phi[idx])
        counts.append(counts[-1] + eye[actions])
        step += 1
    utilities = np.array(utilities)
    return SimpleNamespace(
        profiles=np.array(profiles, dtype=np.int64),
        utilities=utilities,
        potentials=np.array(potentials),
        beliefs=np.array(beliefs),
        final_state=(prior + counts[-1]) / step,
        final_step=step,
        counts=counts,
        utility_sums=oracle_counted_sum(profiles, utilities),
    )


def oracle_counted_sum(profiles, utilities) -> np.ndarray:
    """Each player's payoffs summed over a run as a counted sum: for every
    distinct profile, in order of first visit and added left to right, its
    number of steps times its payoffs (``utilities`` holds each step's)."""
    first: dict = {}
    visits: dict = {}
    for t, profile in enumerate(map(tuple, np.asarray(profiles).tolist())):
        first.setdefault(profile, t)
        visits[profile] = visits.get(profile, 0) + 1
    sums = np.zeros(np.shape(utilities)[1])
    for profile, t in first.items():
        sums = sums + visits[profile] * utilities[t]
    return sums


class _Broadcast(np.ndarray):
    """An aggregate carrying its rounding residuals, read by ``aggregated_utility``."""

    residual = None


def oracle_aggregate_message(game, profile) -> np.ndarray:
    """The broadcast aggregate of one profile, one player at a time in
    plain floats: per channel, noise plus the received powers there, added
    in ascending player order, with each sum's rounding residual in
    ``residual``, accumulated by TwoSum (Knuth, TAOCP vol. 2, §4.2.2)."""
    total, residual = game.noise.tolist(), [0.0] * game.S
    for k, s in enumerate(profile):
        power = float(game.received_power[k, s])
        added = total[s] + power
        part = added - total[s]
        residual[s] += (total[s] - (added - part)) + (power - part)
        total[s] = added
    gamma = np.array(total).view(_Broadcast)
    gamma.residual = np.array(residual)
    return gamma


def oracle_aggregates(noise, received, channels) -> tuple[np.ndarray, np.ndarray]:
    """The broadcast aggregates of N profiles, with their games' (N, S) noise
    and (N, K, S) received powers: the plain-float TwoSum loop over every
    (profile, player) that the package's vectorized ``_aggregates``
    replaced. Its values and residuals are ``np.array`` of per-profile
    lists, each (N, S), and (0,) for N = 0."""
    totals, pairs = noise.tolist(), zip(channels.tolist(), received.tolist())
    residuals = [[0.0] * len(total) for total in totals]
    for total, residual, (row, powers) in zip(totals, residuals, pairs):
        for k, s in enumerate(row):
            power = powers[k][s]
            added = total[s] + power
            part = added - total[s]
            residual[s] += (total[s] - (added - part)) + (power - part)
            total[s] = added
    return np.array(totals), np.array(residuals)


def _oracle_scores(game, actions, gamma) -> np.ndarray:
    """The (K, S) value of every channel to every player under one profile,
    one scalar call per entry: :func:`aggregated_utility` on the broadcast
    for the player's own channel, and for any other channel the player's
    :func:`utility` had it moved there alone, since the aggregate there holds
    the same powers, added in the same order."""
    values = np.empty((game.K, game.S))
    for k in range(game.K):
        for s in range(game.S):
            if s == actions[k]:
                values[k, s] = aggregated_utility(game, k, s, gamma)
            else:
                moved = list(actions)
                moved[k] = s
                values[k, s] = utility(game, moved, k)
    return values


def oracle_run_aggregation_fp(game, q, T: int, tie_break: str = "lowest", step: int = 0):
    """Aggregate-feedback fictitious play on one game, one step at a time.

    Every step recomputes the broadcast with
    :func:`oracle_aggregate_message` and reads the payoffs and the
    potential of the profile played from :func:`utility` and
    :func:`potential`. The channel scores depend on the profile alone and
    take K * S scalar calls, so each profile is scored once
    (:func:`_oracle_scores`), keyed by the profile itself.

    Scores are counted sums, recomputed from scratch at every step: at
    weight w = initial step + steps played, each player's scores are
    (initial step * initial scores + the sum, over the distinct profiles
    played so far in order of first visit and added left to right, of visit
    count * channel values) / w; at weight 0 (a cold start's first step)
    they are the initial scores themselves.

    Returns profiles (T, K), utilities (T, K), potentials (T,), gammas (T, S),
    decision-time scores (T, K, S) and the final scores and step.
    """
    n_players, n_channels = game.K, game.S
    q0 = np.array(q, dtype=float)
    profiles = np.empty((T, n_players), dtype=np.int64)
    utilities = np.empty((T, n_players))
    potentials = np.empty(T)
    snapshots = np.empty((T, n_players, n_channels))
    gammas = np.empty((T, n_channels))
    scores, visits = {}, {}  # per profile, in order of first visit

    def current(weight):
        if weight == 0:
            return q0
        total = step * q0
        for profile, values in scores.items():
            total = total + visits[profile] * values
        return total / weight

    for t in range(T):
        snapshots[t] = q = current(step + t)
        if tie_break == "lowest":
            actions = [int(np.argmax(q[k])) for k in range(n_players)]
        else:
            actions = [int(n_channels - 1 - np.argmax(q[k][::-1])) for k in range(n_players)]
        profiles[t] = actions
        gammas[t] = gamma = oracle_aggregate_message(game, actions)
        if tuple(actions) not in scores:
            scores[tuple(actions)] = _oracle_scores(game, actions, gamma)
            visits[tuple(actions)] = 0
        visits[tuple(actions)] += 1
        utilities[t] = [utility(game, actions, k) for k in range(n_players)]
        potentials[t] = potential(game, actions)
    return SimpleNamespace(
        profiles=profiles,
        utilities=utilities,
        potentials=potentials,
        gammas=gammas,
        q_values=snapshots,
        final_state=current(step + T),
        final_step=step + T,
    )


def oracle_cycle_onset(profiles, period: int, window: int) -> int:
    """1-based step from which ``profiles`` is ``period``-periodic, walking
    back one step at a time from the start of the trailing window."""
    start = len(profiles) - window
    while start > 0 and np.array_equal(profiles[start - 1], profiles[start - 1 + period]):
        start -= 1
    return start + 1


def oracle_smallest_period(tail) -> int | None:
    """Smallest p <= len(tail)//2 with tail exactly p-periodic, else None."""
    window = len(tail)
    for p in range(1, window // 2 + 1):
        if np.array_equal(tail[p:], tail[:-p]):
            return p
    return None


def _oracle_utility_table(game) -> np.ndarray:
    """The (K,) + (S,)*K payoff table, one scalar ``utility`` call per entry."""
    table = np.empty((game.K,) + (game.S,) * game.K)
    for profile in itertools.product(range(game.S), repeat=game.K):
        for k in range(game.K):
            table[(k,) + profile] = utility(game, profile, k)
    return table


def oracle_enumerate_pure_ne(game) -> list[tuple[int, ...]]:
    """Pure equilibria of one game from its payoff table, ties counting."""
    table = _oracle_utility_table(game)
    mask = np.ones((game.S,) * game.K, dtype=bool)
    for k in range(game.K):
        best = table[k].max(axis=k, keepdims=True)
        mask &= table[k] >= best
    return [tuple(int(c) for c in row) for row in np.argwhere(mask)]


def oracle_require_symmetric_2x2(game) -> float:
    """The common SNR of a game in the common-budget 2x2 setting; raises
    ValueError naming the first need the game fails."""
    if game.K != 2 or game.S != 2:
        raise ValueError("this analysis needs exactly 2 players and 2 channels")
    if game.bandwidths[0] != game.bandwidths[1]:
        raise ValueError("this analysis needs equal channel bandwidths")
    if game.noise[0] != game.noise[1]:
        raise ValueError("this analysis needs a common noise level")
    if game.max_power[0] != game.max_power[1]:
        raise ValueError("this analysis needs a common power budget")
    if np.any(game.gains <= 0):
        raise ValueError("this analysis needs strictly positive gains")
    return float(game.max_power[0] / game.noise[0])


def oracle_classify_region_2x2(game) -> frozenset[str]:
    """H1-H4 memberships of one game in the paper's closed form, each
    region's two weak inequalities evaluated on scalars. It rounds a tie its
    own way, so it equals the package's labels off the region boundaries."""
    snr = oracle_require_symmetric_2x2(game)
    (g11, g12), (g21, g22) = game.gains
    own_ratio, cross_ratio = g11 / g12, g21 / g22
    low_own, high_own = 1.0 / (1.0 + snr * g22), 1.0 + snr * g21
    low_cross, high_cross = 1.0 / (1.0 + snr * g12), 1.0 + snr * g11
    labels = set()
    if own_ratio >= low_own and cross_ratio <= high_cross:
        labels.add("H1")
    if own_ratio >= high_own and cross_ratio >= high_cross:
        labels.add("H2")
    if own_ratio <= low_own and cross_ratio <= low_cross:
        labels.add("H3")
    if own_ratio <= high_own and cross_ratio >= low_cross:
        labels.add("H4")
    return frozenset(labels)


def oracle_regions_2x2(game) -> frozenset[str]:
    """H1-H4 memberships of one game in the common-budget 2x2 setting, each
    region holding exactly when its profile is among the enumerated pure
    equilibria."""
    oracle_require_symmetric_2x2(game)
    pure = oracle_enumerate_pure_ne(game)
    return frozenset(h for h, profile in REGION_PROFILES.items() if profile in pure)


def oracle_mixed_ne_2x2(game) -> np.ndarray:
    """The strictly mixed equilibrium of one 2x2 game from scalar potentials;
    raises as the package does when there is none."""
    labels = oracle_regions_2x2(game)
    if labels != {"H1", "H4"}:
        raise ValueError(
            "a strictly mixed equilibrium needs the two orthogonal profiles "
            f"to be the only pure equilibria (regions found: {sorted(labels)})"
        )
    phi11 = potential(game, (0, 0))
    phi12 = potential(game, (0, 1))
    phi21 = potential(game, (1, 0))
    phi22 = potential(game, (1, 1))
    num00 = phi21 - phi22
    num01 = phi12 - phi11
    num10 = phi12 - phi22
    num11 = phi21 - phi11
    denom = num00 + num01
    if abs(denom) <= 1e-12:
        raise ValueError("degenerate potential differences, no unique mixed point")
    mixed = np.array([[num00 / denom, num01 / denom], [num10 / denom, num11 / denom]])
    if np.any(mixed <= 0.0) or np.any(mixed >= 1.0):
        raise ValueError("boundary case: the mixed point is not strictly interior")
    return mixed


def oracle_analyze_game(game) -> EquilibriumReport:
    """The equilibrium analysis of one game, one scalar call at a time: the
    per-game loop the batched ``analyze_game`` replaced."""
    pure = oracle_enumerate_pure_ne(game)
    utilities = np.array([[utility(game, p, k) for k in range(game.K)] for p in pure])
    utilities = utilities.reshape(len(pure), game.K)
    potentials = np.array([potential(game, p) for p in pure])
    regions = mixed = None
    try:
        oracle_require_symmetric_2x2(game)
    except ValueError:
        pass
    else:
        regions = oracle_regions_2x2(game)
        if regions == {"H1", "H4"}:
            try:
                mixed = oracle_mixed_ne_2x2(game)
            except ValueError:
                mixed = None
    return EquilibriumReport(pure_ne=tuple(pure), utilities=utilities,
                             potentials=potentials, mixed_ne=mixed, regions=regions)


def oracle_mixed_mean_utility(game, report) -> float | None:
    """Mean per-player expected payoff at a report's strictly mixed
    equilibrium, through the validated single-game expectation."""
    if report.mixed_ne is None:
        return None
    vals = [expected_utility(game, k, 0, report.mixed_ne[1 - k]) for k in range(2)]
    return float(np.mean(vals))


def oracle_nearest_equilibrium(freq, report, n_channels: int) -> tuple[str, float]:
    """Closest equilibrium point to one (K, S) frequency stack, scanning the
    pure equilibria in order and then the mixed one; a later point must be
    strictly closer to win."""
    def tv_to_point(point):
        return float(np.max(0.5 * np.abs(freq - point).sum(axis=1)))

    best_kind, best_tv = "none", np.inf
    eye = np.eye(n_channels)
    for profile in report.pure_ne:
        tv = tv_to_point(eye[list(profile)])
        if tv < best_tv:
            best_kind, best_tv = "pure", tv
    if report.mixed_ne is not None:
        tv = tv_to_point(report.mixed_ne)
        if tv < best_tv:
            best_kind, best_tv = "mixed", tv
    return best_kind, best_tv


def _state(traj):
    if traj.variant == "classic":
        return "belief", traj.beliefs
    return "q", traj.q_values


def oracle_trajectory_json(traj) -> str:
    """Trajectory JSON as the standard encoder renders the whole payload."""
    prefix, state = _state(traj)
    steps = []
    for t in range(traj.T):
        entry = {
            "t": t + 1,
            "profile": [int(c) for c in traj.profiles[t]],
            "utilities": [float(u) for u in traj.utilities[t]],
            "potential": float(traj.potentials[t]),
        }
        if state is not None:
            entry[prefix] = state[t].tolist()
        if traj.gammas is not None:
            entry["gamma"] = traj.gammas[t].tolist()
        steps.append(entry)
    payload = {
        "schema_version": 1,
        "variant": traj.variant,
        "tie_break": traj.tie_break,
        "initial_step": traj.initial_step,
        "initial_state": None if traj.initial_state is None else traj.initial_state.tolist(),
        "final_step": traj.final_step,
        "final_state": None if traj.final_state is None else traj.final_state.tolist(),
        "steps": steps,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def oracle_trajectory_csv(traj) -> str:
    """Long-format trajectory CSV written row by row with ``csv.writer``."""
    prefix, state = _state(traj)
    header = ["t", "player", "channel", "utility", "potential"]
    if state is not None:  # state columns only for a run that carries a state
        header += [f"{prefix}_{s + 1}" for s in range(state.shape[2])]
    rows = []
    for t in range(traj.T):
        for k in range(traj.num_players):
            row = [t + 1, k, int(traj.profiles[t, k]), repr(float(traj.utilities[t, k])),
                   repr(float(traj.potentials[t]))]
            if state is not None:
                row += [repr(float(x)) for x in state[t, k]]
            rows.append(row)
    return _csv_text(header, rows)


def oracle_plot_csv(obj, kind: str) -> str:
    """Wide plot series and region scatter written with ``csv.writer``."""
    if kind == "beliefs":
        prefix, state = _state(obj)
        n_players = state.shape[1] if obj.T else 0
        n_channels = state.shape[2] if obj.T else 0
        header = ["t"] + [f"{prefix}_p{k}_c{s}" for k in range(n_players) for s in range(n_channels)]
        rows = [[t + 1] + [repr(float(x)) for x in state[t].ravel()] for t in range(obj.T)]
    elif kind == "utilities":
        header = ["t"] + [f"utility_p{k}" for k in range(obj.profiles.shape[1])] + ["potential"]
        rows = [
            [t + 1] + [repr(float(u)) for u in obj.utilities[t]] + [repr(float(obj.potentials[t]))]
            for t in range(obj.T)
        ]
    else:
        header = ["trial", "g11", "g12", "g21", "g22", "own_ratio", "cross_ratio", "regions"]
        rows = []
        for rec in obj:
            (g11, g12), (g21, g22) = rec["game"]["gains"]
            rows.append([rec["trial"]] + [repr(float(x)) for x in (g11, g12, g21, g22)]
                        + [repr(float(g11 / g12)), repr(float(g21 / g22)),
                           "+".join(rec["regions"] or [])])
    return _csv_text(header, rows)
