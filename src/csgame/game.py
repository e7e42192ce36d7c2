"""Core model: channel-selection games on parallel multiple-access channels.

K transmitters share S orthogonal channels to a single receiver. Each
transmitter concentrates its whole power budget on exactly one channel, so a
pure action is just a channel index, and its payoff is the bandwidth-weighted
spectral efficiency achieved with single-user decoding (co-channel
transmissions count as noise). The resulting finite game admits an exact
potential: the bandwidth-weighted log of each channel's total received power
plus noise. Payoffs can also be recovered from that receiver-side aggregate
alone, which is what allows learning dynamics that never observe opponent
actions (see :mod:`csgame.dynamics`).

Channels and players are 0-based indices throughout.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MAX_ENUM_PROFILES",
    "MAX_OPPONENT_PROFILES",
    "GameSpec",
    "check_profile",
    "utility",
    "potential",
    "expected_utility",
    "aggregate_message",
    "aggregated_utility",
    "utility_table",
    "potential_table",
]

# Guards for exhaustive enumeration; raise instead of thrashing memory.
MAX_ENUM_PROFILES = 10_000_000  # cap on S**K (full profile space)
MAX_OPPONENT_PROFILES = 1_000_000  # cap on S**(K-1) (one player's opponents)


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable description of one game instance.

    ``gains[k, s]`` is the power gain from transmitter k to the receiver on
    channel s. Total bandwidth is always derived from ``bandwidths``, never
    stored. Arrays are copied as float64 and frozen at construction.
    """

    bandwidths: np.ndarray
    noise: np.ndarray
    max_power: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        gains = np.atleast_2d(np.array(self.gains, dtype=float))
        bandwidths = np.array(self.bandwidths, dtype=float).ravel()
        noise = np.array(self.noise, dtype=float).ravel()
        max_power = np.array(self.max_power, dtype=float).ravel()
        if gains.ndim != 2:
            raise ValueError("gains must be a 2-d array of shape (K, S)")
        n_players, n_channels = gains.shape
        if bandwidths.shape != (n_channels,):
            raise ValueError(
                f"bandwidths must have length S={n_channels}, got {bandwidths.shape[0]}"
            )
        if noise.shape != (n_channels,):
            raise ValueError(f"noise must have length S={n_channels}, got {noise.shape[0]}")
        if max_power.shape != (n_players,):
            raise ValueError(
                f"max_power must have length K={n_players}, got {max_power.shape[0]}"
            )
        # A batch of one; its arrays are views of these, frozen with them.
        [game] = _game_stack(bandwidths[None], noise[None], max_power[None], gains[None])
        for arr in (bandwidths, noise, max_power, gains):
            arr.setflags(write=False)
        vars(self).update(vars(game))

    @property
    def K(self) -> int:
        return self.gains.shape[0]

    @property
    def S(self) -> int:
        return self.gains.shape[1]

    @property
    def total_bandwidth(self) -> float:
        return float(self.bandwidths.sum())

    @property
    def weights(self) -> np.ndarray:
        """Fractional bandwidth of each channel, B_s / B."""
        return self._weights

    @property
    def received_power(self) -> np.ndarray:
        """(K, S) array: power the receiver sees on s if k transmits there."""
        return self._received

    @classmethod
    def symmetric(cls, gains, p_max: float, noise_var: float = 1.0) -> "GameSpec":
        """Unit bandwidths, one noise level and one power budget for everyone."""
        gains = np.atleast_2d(np.asarray(gains, dtype=float))
        n_players, n_channels = gains.shape
        return cls(
            bandwidths=np.ones(n_channels),
            noise=np.full(n_channels, float(noise_var)),
            max_power=np.full(n_players, float(p_max)),
            gains=gains,
        )

    def to_dict(self) -> dict:
        return {
            "bandwidths": self.bandwidths.tolist(),
            "noise": self.noise.tolist(),
            "max_power": self.max_power.tolist(),
            "gains": self.gains.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GameSpec":
        return cls(
            bandwidths=data["bandwidths"],
            noise=data["noise"],
            max_power=data["max_power"],
            gains=data["gains"],
        )


# What every game must satisfy, in the order it is checked.
_GAME_NEEDS = (
    "bandwidths must be positive and finite",
    "noise must be positive",
    "max_power must be positive and finite",
    "gains must be finite and non-negative",
    "noise plus the total received power on a channel overflows; "
    "every channel aggregate must be finite",
    "bandwidths must have a finite total",
    "a received power over its channel's noise must be finite",
)


def _game_stack(bandwidths: np.ndarray, noise: np.ndarray, max_power: np.ndarray,
                gains: np.ndarray, name=lambda g: "") -> _Batch:
    """The batch of games of same-shape float64 stacks, (G, S) bandwidths and
    noise, (G, K) power budgets and (G, K, S) gains, checked in one pass: the
    first game that fails a need of :data:`_GAME_NEEDS` raises ValueError
    with the first need it fails, prefixed by ``name(g)``. The stacks are
    frozen and kept as the batch's ``stacks``; each game's arrays are views."""
    with np.errstate(all="ignore"):  # failing games only; they raise below
        total = bandwidths.sum(axis=1, keepdims=True)
        weights = bandwidths / total
        received = max_power[:, :, None] * gains
        worst = noise + received.sum(axis=1)
        snr = received / noise[:, None]
    fails = np.stack([
        ~np.isfinite(bandwidths).all(axis=1) | (bandwidths <= 0).any(axis=1),
        ~np.isfinite(noise).all(axis=1) | (noise <= 0).any(axis=1),
        ~np.isfinite(max_power).all(axis=1) | (max_power <= 0).any(axis=1),
        ~np.isfinite(gains).all(axis=(1, 2)) | (gains < 0).any(axis=(1, 2)),
        ~np.isfinite(worst).all(axis=1),
        ~np.isfinite(total[:, 0]),
        ~np.isfinite(snr).all(axis=(1, 2)),
    ], axis=1)
    failed = np.flatnonzero(fails.any(axis=1))
    if len(failed):
        g = int(failed[0])
        raise ValueError(name(g) + _GAME_NEEDS[int(fails[g].argmax())])
    batch = _Batch()
    batch.stacks = {"bandwidths": bandwidths, "noise": noise, "max_power": max_power,
                    "gains": gains, "_weights": weights, "_received": received}
    for arr in batch.stacks.values():
        arr.setflags(write=False)
    for rows in zip(*batch.stacks.values()):
        game = object.__new__(GameSpec)
        vars(game).update(zip(batch.stacks, rows))
        batch.append(game)
    return batch


def _check_channels(n_channels: int, channels) -> np.ndarray:
    """One index of ``n_channels`` channels or an array of them, checked, as
    int64."""
    arr = np.asarray(channels)
    if arr.dtype.kind not in "iu":
        raise ValueError("channel indices must be integers")
    if ((arr < 0) | (arr >= n_channels)).any():
        raise ValueError(f"channel indices must lie in [0, {n_channels})")
    return arr.astype(np.int64, copy=False)


def check_profile(game: GameSpec, profile) -> np.ndarray:
    """Validate a pure profile and return it as an int64 array of channel indices."""
    arr = _check_channels(game.S, profile).ravel()
    if arr.shape != (game.K,):
        raise ValueError(f"profile must list one channel per player (K={game.K})")
    return arr


def _integer(value, what: str) -> int:
    """The integer rule for indices and step counts: an integral number, not
    a bool (a float horizon would size the log's step columns as floats)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_player(game: GameSpec, player) -> int:
    player = _integer(player, "player index")
    if not 0 <= player < game.K:
        raise IndexError(f"player index {player} out of range [0, {game.K})")
    return player


class _Batch(list):
    """Games checked to share one (K, S) shape; ``stacks`` holds their arrays (a game's
    ``vars``) by name on a leading game axis, read-only: :func:`_game_stack`'s own, or
    stacked on first read. ``tables`` holds their utility tables, stacked
    (see :func:`_utility_tables`) on first read, read-only. A slice of a batch
    is a batch whose stacks are views of its stacks."""

    def __getitem__(self, at):
        if not isinstance(at, slice):
            return super().__getitem__(at)
        batch = type(self)(super().__getitem__(at))
        if self:
            batch.stacks = {key: stack[at] for key, stack in self.stacks.items()}
        return batch

    @cached_property
    def stacks(self) -> dict[str, np.ndarray]:
        stacks = {key: np.stack([vars(g)[key] for g in self]) for key in vars(self[0])}
        for arr in stacks.values():
            arr.setflags(write=False)
        return stacks

    def rows(self, at=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The noise (N, S), received powers (N, K, S) and weights (N, S) of games ``at``."""
        return tuple(self.stacks[key][at] for key in ("noise", "_received", "_weights"))

    @cached_property
    def tables(self) -> np.ndarray:
        tables = _utility_tables(self)
        tables.setflags(write=False)
        return tables


def _game_batch(game: GameSpec | Sequence[GameSpec]) -> tuple[_Batch, bool]:
    """``game`` as a batch of games, and whether it was one game (a batch of
    one). The games of a sequence must share one (K, S) shape; the batch
    returned is not checked or stacked again when it is passed back in."""
    if isinstance(game, _Batch):
        return game, False
    single = isinstance(game, GameSpec)
    games = _Batch([game] if single else game)
    if any((g.K, g.S) != (games[0].K, games[0].S) for g in games):
        raise ValueError("all games in a batch must share one (K, S) shape")
    return games, single


def _rate(weight, signal, interference):
    """The payoff rule of every payoff, table entry and reconstruction."""
    return weight * np.log2(1.0 + signal / interference)


def _payoffs(noise, received, weights, channels: np.ndarray) -> np.ndarray:
    """Every player's utility under N checked profiles, (N, K), with their
    games' :meth:`_Batch.rows`. Row (n, k) of ``loads``: k's channel noise,
    then each player's power where it shares k's channel and 0 elsewhere;
    accumulated left to right (a reduction may pair terms), the powers are
    added in ascending player order."""
    n_pairs, n_players = channels.shape
    rows = np.arange(n_pairs)[:, None]
    own = received[rows, range(n_players), channels]
    loads = np.empty((n_pairs, n_players, n_players + 1))
    loads[:, :, 0] = noise[rows, channels]
    np.multiply(channels[:, :, None] == channels[:, None], own[:, None], out=loads[:, :, 1:])
    # k's own power, at (k, k + 1); the row length is spelled out for N = 0
    loads.reshape(n_pairs, n_players * (n_players + 1))[:, 1::n_players + 2] = 0.0
    np.add.accumulate(loads, axis=2, out=loads)
    return _rate(weights[rows, channels], own, loads[:, :, -1])


def utility(game: GameSpec, profile, player: int) -> float:
    """Spectral efficiency (bits/s/Hz) of one player under a pure profile.

    Only the occupied channel contributes: the payoff is that channel's
    bandwidth fraction times log2(1 + SINR), where every co-channel
    transmitter is counted as interference.
    """
    channels = check_profile(game, profile)[None]
    payoffs = _payoffs(game.noise[None], game.received_power[None], game.weights[None], channels)
    return float(payoffs[0, _check_player(game, player)])


class _Aggregate(np.ndarray):
    """The broadcast aggregate: per channel, noise plus the received powers
    there, added in ascending player order, with the rounding error of
    that sum in ``residual``, accumulated by TwoSum (Knuth, TAOCP vol. 2)."""

    residual: np.ndarray

    def __array_finalize__(self, obj) -> None:
        self.residual = getattr(obj, "residual", None)


def _aggregates(noise, received, channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :class:`_Aggregate` of N checked profiles, with their games' noise
    and received powers: its values and residuals, each (N, S) (also for N =
    0), adding each player in ascending order to all N profiles at once."""
    totals, residuals = np.array(noise, dtype=float), np.zeros(noise.shape)
    rows = np.arange(len(channels))
    for k, s in enumerate(channels.T):
        total, power = totals[rows, s], received[rows, k, s]
        added = total + power
        part = added - total
        residuals[rows, s] += (total - (added - part)) + (power - part)
        totals[rows, s] = added
    return totals, residuals


def aggregate_message(game: GameSpec, profile) -> np.ndarray:
    """Receiver-side per-channel aggregate: noise plus total received power.

    This is the single broadcast message the low-feedback dynamics rely on;
    it is also exactly what the exact potential is built from. The array
    carries, in ``residual``, each channel's rounding residual, so the
    message is 2S floats: value plus residual.
    """
    channels = check_profile(game, profile)
    totals, residuals = _aggregates(game.noise[None], game.received_power[None], channels[None])
    gamma = totals[0].view(_Aggregate)
    gamma.residual = residuals[0]
    return gamma


def potential(game: GameSpec, profile) -> float:
    """Exact potential of a pure profile.

    Unilateral deviations change this scalar by exactly the deviating
    player's utility change, which is what makes best-response and
    fictitious-play dynamics well behaved here.
    """
    return float(_potentials(game.weights, np.array([aggregate_message(game, profile)]))[0])


def _potentials(weights, gammas: np.ndarray) -> np.ndarray:
    """The exact potential of the profiles whose aggregates are the rows of
    a contiguous ``gammas``, with their games' ``weights``, (N,)."""
    # Accumulate channel by channel in ascending order so each result is
    # bitwise identical to the corresponding entry of potential_table().
    return sum((weights * np.log2(gammas)).T, 0.0)


def _strip_own(gamma, own, residual):
    """The reconstruction: what players hear on their own channels, the
    aggregate ``gamma`` there less their ``own`` power, plus the aggregate's
    rounding ``residual`` there. The difference is exact wherever the own
    power is at least half the aggregate (Sterbenz), which is where it
    would otherwise cancel."""
    heard = (gamma - own) + residual
    if np.any(heard <= 0.0):
        raise ValueError("aggregate inconsistent: own power meets or exceeds the aggregate")
    return heard


def aggregated_utility(game: GameSpec, player: int, own_channel: int, gamma) -> float:
    """Utility reconstructed from own parameters and the receiver aggregate.

    The player subtracts its own received power from the aggregate on its
    channel, adds the aggregate's rounding residual (zero for a plain
    array; see :func:`aggregate_message`), and treats the remainder as
    interference-plus-noise. For the profile that actually produced
    ``gamma`` this is :func:`utility`'s value up to a few roundings.
    Entries of ``gamma`` for unused channels are irrelevant; the one on the
    player's channel must be finite.
    """
    player = _check_player(game, player)
    own_channel = int(_check_channels(game.S, own_channel))
    residual = getattr(gamma, "residual", None)
    gamma = np.asarray(gamma, dtype=float).ravel()
    if gamma.shape != (game.S,):
        raise ValueError(f"gamma must have length S={game.S}")
    if not np.isfinite(gamma[own_channel]):
        raise ValueError("gamma must be finite on the player's channel")
    own = game.received_power[player, own_channel]
    heard = _strip_own(gamma[own_channel], own, 0.0 if residual is None else residual[own_channel])
    return float(_rate(game.weights[own_channel], own, heard))


def _guard_opponent_profiles(game: GameSpec) -> int:
    """S**(K-1), the number of profiles of one player's opponents; raises
    above :data:`MAX_OPPONENT_PROFILES`."""
    n_profiles = game.S ** (game.K - 1)
    if n_profiles > MAX_OPPONENT_PROFILES:
        raise ValueError(
            f"S**(K-1) = {n_profiles} opponent profiles exceeds the "
            f"enumeration guard of {MAX_OPPONENT_PROFILES}"
        )
    return n_profiles


def expected_utility(game: GameSpec, player: int, own_channel: int, opponent_dist) -> float:
    """Exact expected utility of a channel against a joint opponent distribution.

    ``opponent_dist`` assigns probability to every pure profile of the K-1
    opponents (players other than ``player`` in ascending order, C-order
    layout, so shape (S,)*(K-1) or anything of that size). Entries must be
    non-negative and sum to 1 within 1e-9. Zero-probability profiles are
    skipped, so a point mass reproduces :func:`utility` exactly: the payoffs
    at every opponent profile are one :func:`_channel_loads` slice, and the
    nonzero terms are added left to right in C order.
    """
    player = _check_player(game, player)
    s = int(_check_channels(game.S, own_channel))
    n_profiles = _guard_opponent_profiles(game)
    dist = np.asarray(opponent_dist, dtype=float)
    try:
        dist = dist.reshape((game.S,) * (game.K - 1))
    except ValueError:
        raise ValueError(
            f"opponent distribution needs S**(K-1) = {n_profiles} entries, "
            f"got {dist.size}"
        ) from None
    if np.any(dist < 0):
        raise ValueError("opponent distribution entries must be non-negative")
    if not abs(float(dist.sum()) - 1.0) <= 1e-9:
        raise ValueError("opponent distribution must sum to 1 within 1e-9")
    opponents = [j for j in range(game.K) if j != player]
    loads = _channel_loads(game.noise[None, s], game.received_power[None, :, s], opponents,
                           s, game.S)[0]
    payoffs = _rate(game.weights[s], game.received_power[player, s], loads)
    total = 0.0
    for p, u in zip(dist.ravel().tolist(), payoffs.ravel().tolist()):
        if p != 0.0:
            total += p * u
    return total


def _guard_full_enumeration(game: GameSpec) -> tuple[int, int]:
    n_profiles = game.S**game.K
    if n_profiles > MAX_ENUM_PROFILES:
        raise ValueError(
            f"S**K = {n_profiles} profiles exceeds the enumeration guard "
            f"of {MAX_ENUM_PROFILES}"
        )
    return game.K, game.S


def _channel_loads(noise: np.ndarray, received: np.ndarray, players, s: int,
                   n_channels: int) -> np.ndarray:
    """For a stack of games, with ``noise`` (G,) and ``received`` (G, K) on
    channel ``s`` of ``n_channels``: noise plus the received power of
    whichever of ``players`` sit on s, at every profile of theirs, (G,) +
    (S,)*len(players) (axis i + 1 holds the i-th listed player's channel).
    A player's power there is its power times 1 on s and times 0 elsewhere,
    and powers are added in the listed order, which callers keep ascending,
    so every payoff and potential built on it keeps its bits."""
    n_listed, on_channel = len(players), np.eye(n_channels)[s]
    load = noise.reshape(noise.shape + (1,) * n_listed)
    for pos, j in enumerate(players):
        power = received[:, j, None] * on_channel
        load = load + power.reshape(noise.shape + (1,) * pos + (n_channels,)
                                    + (1,) * (n_listed - pos - 1))
    return load


def _utility_tables(games: Sequence[GameSpec]) -> np.ndarray:
    """:func:`utility_table` of every game of a non-empty same-shape
    sequence, stacked: (G, K) + (S,)*K, each game's entries the bits it has
    alone. Built from the batch's stacks one (player, channel) slice at a
    time, so the working set is one G * S**(K-1) load and the tables are
    never copied."""
    games, _ = _game_batch(games)
    n_players, n_channels = _guard_full_enumeration(games[0])
    noise, received, weights = games.rows()
    lead = (len(games),) + (1,) * (n_players - 1)
    tables = np.empty((len(games), n_players) + (n_channels,) * n_players)
    for k in range(n_players):
        opponents = [j for j in range(n_players) if j != k]
        for s in range(n_channels):
            denom = _channel_loads(noise[:, s], received[:, :, s], opponents, s, n_channels)
            idx: list = [slice(None), k] + [slice(None)] * n_players
            idx[k + 2] = s
            tables[tuple(idx)] = _rate(weights[:, s].reshape(lead),
                                       received[:, k, s].reshape(lead), denom)
    return tables


def _layout(tables: np.ndarray) -> list[np.ndarray]:
    """Per player of tables shaped (G, K) + (S,)*K, its payoffs with its own
    channel axis first, as strided views: contiguous copies would switch
    ``einsum`` to a kernel that sums in another order."""
    return [np.moveaxis(tables[:, k], k + 1, 1) for k in range(tables.shape[1])]


def _expectations(own_first: list[np.ndarray], f: np.ndarray,
                  target: np.ndarray | None = None) -> np.ndarray:
    """Expected payoffs of every own channel under the product of the
    opponents' frequency vectors, with up to every opponent moved to a
    ``target``. ``own_first`` is :func:`_layout` of G tables, ``f`` and
    ``target`` (G, K, S) marginals.

    Returns ``sums`` of shape (M, G, K, S): ``sums[m, :, k]`` adds player
    k's expected payoffs over every way to put m of its opponents at their
    target and the others at ``f``; M is K with a target, else 1, so
    ``sums[0]`` is the plain expectation. The opponents are contracted one
    ``einsum`` per opponent and term, last player first."""
    n_players = len(own_first)
    sums = np.empty((1 if target is None else n_players,) + f.shape)
    for k, own in enumerate(own_first):
        terms = [own]  # a lone player's payoffs ignore beliefs
        for j in reversed(range(n_players)):
            if j == k:
                continue
            spread = [np.einsum("z...s,zs->z...", t, f[:, j]) for t in terms]
            mass = [] if target is None else [
                np.einsum("z...s,zs->z...", t, target[:, j]) for t in terms]
            terms = [spread[0], *(x + y for x, y in zip(spread[1:], mass)), *mass[-1:]]
        sums[:, :, k] = terms
    return sums


def utility_table(game: GameSpec) -> np.ndarray:
    """Utilities of every player at every pure profile.

    Returns shape (K,) + (S,)*K; axis j+1 indexes player j's channel. Guarded
    by :data:`MAX_ENUM_PROFILES`.
    """
    return _utility_tables([game])[0]


def potential_table(game: GameSpec | Sequence[GameSpec]) -> np.ndarray:
    """Exact potential at every pure profile, shape (S,)*K.

    ``game`` is one game or a sequence of games with one (K, S) shape; a
    sequence gives the stack, shape (G,) + (S,)*K, with each game's entries
    the bits it has alone.
    """
    games, single = _game_batch(game)
    if not games:
        raise ValueError("need at least one game")
    n_players, n_channels = _guard_full_enumeration(games[0])
    noise, received, weights = games.rows()
    out = np.zeros((len(games),) + (n_channels,) * n_players)
    for s in range(n_channels):
        term = _channel_loads(noise[:, s], received[:, :, s], range(n_players), s, n_channels)
        np.log2(term, out=term)
        term *= weights[:, s].reshape((len(games),) + (1,) * n_players)
        out += term
    return out[0] if single else out
