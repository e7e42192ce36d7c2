"""Independent reference implementations used to cross-check the package.

Everything here except :func:`oracle_run_fp` is written in plain Python
(math module, nested loops, no numpy broadcasting) on purpose: these
functions share no code with ``csgame`` so agreement between the two is
meaningful evidence, not a tautology.

:func:`oracle_run_fp` is the one-game, one-step-at-a-time classic
fictitious-play loop that the batched engine replaced. Tests hold the engine
to it bit for bit, so it repeats the engine's float arithmetic: the same
per-opponent ``einsum`` contractions (last opponent first) and the same
belief update. It reads the package's payoff tables, which other tests check
against :func:`oracle_utility` and :func:`oracle_potential`.
"""

from __future__ import annotations

import itertools
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

    Returns profiles (T, K), per-step utilities (T, K) and potentials (T,),
    decision-time beliefs (T, K, S), the final beliefs and step, the (K, S)
    action counts after each of steps 0..T, and each player's payoffs summed
    in step order.
    """
    table = utility_table(game)
    phi = potential_table(game)
    n_players, n_channels = game.K, game.S
    f = np.array(marginals, dtype=float)
    eye = np.eye(n_channels)
    profiles, utilities, potentials, beliefs = [], [], [], []
    counts = [np.zeros((n_players, n_channels))]
    utility_sums = np.zeros(n_players)
    for _ in range(T):
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
        utility_sums = utility_sums + utilities[-1]
        potentials.append(phi[idx])
        counts.append(counts[-1] + eye[actions])
        f = f + (1.0 / (step + 1)) * (eye[actions] - f)
        step += 1
    return SimpleNamespace(
        profiles=np.array(profiles, dtype=np.int64),
        utilities=np.array(utilities),
        potentials=np.array(potentials),
        beliefs=np.array(beliefs),
        final_state=f,
        final_step=step,
        counts=counts,
        utility_sums=utility_sums,
    )
