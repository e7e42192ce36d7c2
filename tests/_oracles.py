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
:func:`oracle_run_aggregation_fp` recomputes the broadcast aggregate and
every payoff at every step, and :func:`oracle_cycle_onset` walks a cycle's
onset back one step at a time.

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

from csgame import potential_table, utility_table


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
    action counts after each of steps 0..T, and each player's payoffs
    summed run by run, as run length times payoff, over the maximal runs of
    one profile in time order.
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
    utility_sums = np.zeros(n_players)
    for profile, run in itertools.groupby(map(tuple, profiles)):
        utility_sums = utility_sums + len(list(run)) * table[(slice(None), *profile)]
    return SimpleNamespace(
        profiles=np.array(profiles, dtype=np.int64),
        utilities=np.array(utilities),
        potentials=np.array(potentials),
        beliefs=np.array(beliefs),
        final_state=(prior + counts[-1]) / step,
        final_step=step,
        counts=counts,
        utility_sums=utility_sums,
    )


def oracle_run_aggregation_fp(game, q, T: int, tie_break: str = "lowest", step: int = 0):
    """Aggregate-feedback fictitious play on one game, recomputing the
    broadcast and every payoff at every step.

    Returns profiles (T, K), utilities (T, K), potentials (T,), gammas (T, S),
    decision-time scores (T, K, S) and the final scores and step.
    """
    n_players, n_channels = game.K, game.S
    received = game.received_power
    weights = game.weights
    q = np.array(q, dtype=float)
    rows = np.arange(n_players)
    profiles = np.empty((T, n_players), dtype=np.int64)
    utilities = np.empty((T, n_players))
    potentials = np.empty(T)
    snapshots = np.empty((T, n_players, n_channels))
    gammas = np.empty((T, n_channels))
    for t in range(T):
        snapshots[t] = q
        if tie_break == "lowest":
            actions = [int(np.argmax(q[k])) for k in range(n_players)]
        else:
            actions = [int(n_channels - 1 - np.argmax(q[k][::-1])) for k in range(n_players)]
        profiles[t] = actions
        gamma = game.noise.copy()
        for k in range(n_players):
            gamma[actions[k]] += received[k, actions[k]]
        gammas[t] = gamma
        own = np.zeros((n_players, n_channels))
        own[rows, actions] = received[rows, actions]
        remainder = gamma[None, :] - own
        if np.any(remainder <= 0):
            raise ValueError("aggregate inconsistent with own received power")
        values = weights[None, :] * np.log2(1.0 + received / remainder)
        utilities[t] = values[rows, actions]
        potentials[t] = float(np.dot(weights, np.log2(gamma)))
        q = q + (1.0 / (step + 1)) * (values - q)
        step += 1
    return SimpleNamespace(
        profiles=profiles,
        utilities=utilities,
        potentials=potentials,
        gammas=gammas,
        q_values=snapshots,
        final_state=q,
        final_step=step,
    )


def oracle_cycle_onset(profiles, period: int, window: int) -> int:
    """1-based step from which ``profiles`` is ``period``-periodic, walking
    back one step at a time from the start of the trailing window."""
    start = len(profiles) - window
    while start > 0 and np.array_equal(profiles[start - 1], profiles[start - 1 + period]):
        start -= 1
    return start + 1


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
        "initial_state": traj.initial_state.tolist(),
        "final_step": traj.final_step,
        "final_state": traj.final_state.tolist(),
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
    n_channels = state.shape[2] if state is not None else int(traj.profiles.max()) + 1
    header = ["t", "player", "channel", "utility", "potential"]
    header += [f"{prefix}_{s + 1}" for s in range(n_channels)]
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
