"""Bimatrix games, zero-sum solution kernels, and the built-in game library.

Rewards are always normalized to [0, 1].  Player 1 is the row player and
player 2 the column player; all indices are 0-based.  The zero-sum kernels
(`security_value`, `punishment_strategy`) read a pure saddle point off the
matrix and solve a matrix without one exactly (`_mixed_maximin`), with no
LP library.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_TOL = 1e-9
# Payoffs this close are equal: `is_symmetric`, `evaluation.pure_nash` and
# fictitious play's best response all read it.
PAYOFF_TIE = 1e-12
# Characters a game name may not carry into CSV cells, file names and SVG
# text; a lone surrogate has no UTF-8 encoding.
_BAD_NAME_CHARS = re.compile(r'[,"/\\\x00-\x1f\x7f-\x9f\ud800-\udfff]')
# Most actions per player in a JSON game: a kit's exact LPs grow steeply past it.
_MAX_JSON_ACTIONS = 16


@dataclass
class BimatrixGame:
    """Two reward matrices in [0, 1] over the same joint action space.

    R1 and R2 are read-only copies of the given matrices, also after a
    pickle round trip (as in `round_robin`'s worker processes).  The
    instance caches its maximin LPs (`security_value`,
    `punishment_strategy`), shared with its `swap_players` view, and its
    leader kits, whose arrays are the LPs' strategies; a pickle round trip
    carries both caches, the strategies read-only again.
    """

    name: str
    R1: np.ndarray
    R2: np.ndarray
    # LeaderKit.build's kits by (player, EnforceParams), solved once per instance
    _kits: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # _maximin's results by the LP matrix's (shape, bytes), shared with swapped views
    _lps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __reduce__(self):
        # unpickled through __init__, so the matrices are checked and read-only
        return type(self), (self.name, self.R1, self.R2), (self._kits, self._lps)

    def __setstate__(self, caches):
        self._kits, self._lps = caches
        for _, strategy in self._lps.values():
            strategy.setflags(write=False)  # unpickled arrays are writable

    def __post_init__(self):
        self.R1 = np.array(self.R1, dtype=float)
        self.R2 = np.array(self.R2, dtype=float)
        self.R1.setflags(write=False)
        self.R2.setflags(write=False)
        if self.R1.ndim != 2 or self.R1.shape != self.R2.shape:
            raise ValueError("R1 and R2 must be 2-d matrices of equal shape")
        if self.R1.shape[0] < 1 or self.R1.shape[1] < 1:
            raise ValueError("need at least one action per player")
        for m in (self.R1, self.R2):
            if not np.isfinite(m).all():
                raise ValueError(f"rewards of game '{self.name}' must be finite")
            if np.any(m < -_TOL) or np.any(m > 1 + _TOL):
                raise ValueError(f"rewards of game '{self.name}' must lie in [0, 1]")

    @property
    def n1(self) -> int:
        return self.R1.shape[0]

    @property
    def n2(self) -> int:
        return self.R1.shape[1]

    def is_symmetric(self) -> bool:
        """True when swapping players and actions leaves the game unchanged."""
        return self.R1.shape[0] == self.R1.shape[1] and np.allclose(
            self.R2, self.R1.T, rtol=0, atol=PAYOFF_TIE
        )


def swap_players(game: BimatrixGame) -> BimatrixGame:
    """The same game seen from player 2's chair (it becomes the row player).

    The view shares the game's LP cache, so either frame solves an LP once.
    """
    view = BimatrixGame(name=game.name + "~swapped", R1=game.R2.T, R2=game.R1.T)
    view._lps = game._lps
    return view


def _maximin(M: np.ndarray):
    """max over row mixtures p of min_j (p'M)_j, with the optimal p.

    A pure saddle point (max of the row minima = min of the column maxima)
    makes the best pure row (lowest index) optimal (von Neumann's minimax
    theorem).  Without one, `_mixed_maximin`'s optimum replaces that row only
    where it beats it by more than `_TOL`.  p is read-only, on the simplex.
    """
    M = np.asarray(M, dtype=float)
    pure_vals = M.min(axis=1)
    best_pure = int(np.argmax(pure_vals))
    value = float(pure_vals[best_pure])
    p = np.zeros(M.shape[0])
    p[best_pure] = 1.0
    if value < M.max(axis=0).min():  # no pure saddle point
        mixed_value, mixed_p = _mixed_maximin(M)
        if value < mixed_value - _TOL:
            value, p = mixed_value, mixed_p
    p.setflags(write=False)
    return value, p


def _mixed_maximin(M: np.ndarray):
    """`_maximin`'s optimum in exact arithmetic, each number rounded once.

    The column player's LP (Shapley & Snow, 1950), max 1'y s.t. (M + shift) y
    <= 1, y >= 0 with shift = 1 - min M, by simplex from the all-slack basis
    under Bland's rule: the lowest column with a positive reduced cost enters,
    the minimum-ratio row leaves (ties: lowest basic index).  The tableau is
    integral over the entries' common denominator, and each pivot divides it
    exactly by the last (Edmonds).  Value 1/opt - shift; p = slack duals/opt.
    """
    from fractions import Fraction

    m, n = M.shape
    ratios = [x.as_integer_ratio() for x in M.ravel().tolist()]
    D = max(d for _, d in ratios)
    A = [a * (D // d) for a, d in ratios]
    low = min(A)
    # rows [D(M + shift) | I | D], then [reduced costs | -1'y <= 0]; all times det
    rows = [[a - low + D for a in A[i * n:i * n + n]] + [int(i == k) for k in range(m)]
            + [D] for i in range(m)] + [[1] * n + [0] * (m + 1)]
    basis, det = list(range(n, n + m)), 1
    while (j := next((j for j, c in enumerate(rows[-1]) if c > 0), None)) is not None:
        i = min((i for i in range(m) if rows[i][j] > 0),
                key=lambda i: (Fraction(rows[i][-1], rows[i][j]), basis[i]))
        piv, top = rows[i][j], rows[i]
        rows = [top if k == i else [(x * piv - r[j] * y) // det for x, y in zip(r, top)]
                for k, r in enumerate(rows)]
        basis[i], det = j, piv
    *duals, opt = (-c for c in rows[-1][n:])
    p = np.array([q * D / opt for q in duals])  # int quotients, correctly rounded
    return (det * D - opt * (D - low)) / (opt * D), p


def _cached_maximin(game: BimatrixGame, M: np.ndarray):
    """`_maximin(M)`, solved once per matrix content for the game's LP cache."""
    key = (M.shape, M.tobytes())
    if key not in game._lps:
        game._lps[key] = _maximin(M)
    return game._lps[key]


def security_value(game: BimatrixGame, player: int):
    """Maximin value and strategy of a player's own reward matrix.

    Returns (value, strategy).  The value is what the player can
    guarantee regardless of the opponent.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    return _cached_maximin(game, game.R1 if player == 1 else game.R2.T)


def punishment_strategy(game: BimatrixGame):
    """Player 1's strategy minimizing player 2's best-response reward.

    By LP duality the value equals player 2's security value.
    Returns (value, strategy).
    """
    v, p = _cached_maximin(game, -game.R2)
    return -v, p


_CHICKEN = [[(0.5, 0.5), (0.25, 1.0)],
            [(1.0, 0.25), (0.0, 0.0)]]

# 11 evaluation games (two per reward family, Cyclic has no symmetric member),
# 4 training games used only for tuning demos, and Chicken, which is also the
# symmetric member of the unfair family.
_LIBRARY_CELLS = {
    "chicken": _CHICKEN,
    "sym_winwin": [[(1.0, 1.0), (0.0, 2 / 3)],
                   [(2 / 3, 0.0), (1 / 3, 1 / 3)]],
    "asym_winwin": [[(1.0, 1.0), (0.0, 5 / 6)],
                    [(1 / 3, 0.0), (2 / 3, 2 / 3)]],
    "sym_biased": [[(1 / 3, 1 / 3), (2 / 3, 1.0)],
                   [(1.0, 2 / 3), (0.0, 0.0)]],
    "asym_biased": [[(2 / 3, 0.0), (0.0, 1.0)],
                    [(1.0, 2 / 3), (1 / 3, 1 / 3)]],
    "sym_secondbest": [[(1 / 3, 1 / 3), (0.0, 1.0)],
                       [(1.0, 0.0), (2 / 3, 2 / 3)]],
    "asym_secondbest": [[(1.0, 1 / 3), (1 / 3, 1.0)],
                        [(0.0, 0.0), (2 / 3, 2 / 3)]],
    "sym_unfair": _CHICKEN,
    "asym_unfair": [[(0.0, 1.0), (0.75, 0.75)],
                    [(1.0, 0.25), (0.25, 0.0)]],
    "sym_inferior": [[(0.8, 0.8), (0.0, 1.0)],
                     [(1.0, 0.0), (0.2, 0.2)]],
    "asym_inferior": [[(1.0, 0.75), (0.0, 1.0)],
                      [(0.75, 0.0), (0.25, 0.25)]],
    "cyclic": [[(0.0, 1.0), (0.75, 0.75)],
               [(1.0, 0.0), (0.25, 0.25)]],
    "train_inferior": [[(0.75, 0.75), (0.0, 1.0)],
                       [(1.0, 0.0), (0.25, 0.25)]],
    "train_unfair": [[(0.625, 0.625), (0.375, 1.0)],
                     [(1.0, 0.375), (0.0, 0.0)]],
    "train_coord": [[(1.0, 0.5), (0.0, 0.0)],
                    [(0.0, 0.0), (0.2, 1.0)]],
    "train_mixed": [[(0.0, 1.0), (1.0, 2 / 3)],
                    [(1 / 3, 0.0), (2 / 3, 1 / 3)]],
}

#: The 11 games used in tournament-style experiments (training set excluded).
EVALUATION_GAMES = (
    "sym_winwin", "asym_winwin", "sym_biased", "asym_biased",
    "sym_secondbest", "asym_secondbest", "sym_unfair", "asym_unfair",
    "sym_inferior", "asym_inferior", "cyclic",
)

TRAINING_GAMES = ("train_inferior", "train_unfair", "train_coord", "train_mixed")

GAME_NAMES = tuple(_LIBRARY_CELLS)


def builtin_game(name: str) -> BimatrixGame:
    try:
        rows = _LIBRARY_CELLS[name]
    except KeyError:
        raise KeyError(
            f"unknown game '{name}'; built-ins: {', '.join(GAME_NAMES)}"
        ) from None
    cells = np.array(rows, dtype=float)  # (n1, n2, 2): each cell is (r1, r2)
    return BimatrixGame(name=name, R1=cells[..., 0], R2=cells[..., 1])


def game_from_json(path) -> BimatrixGame:
    """Load {name, R1: [[..]], R2: [[..]]}; errors name the file and field."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not a JSON game file ({e})") from None
    mats = {}
    for key in ("R1", "R2"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"{path}: needs a JSON object with field {key}")
        try:
            mats[key] = np.array(data[key], dtype=float)
            if {type(v) for v in np.array(data[key], dtype=object).flat} - {int, float}:
                raise TypeError  # float() also takes JSON strings and booleans
        except (TypeError, ValueError):
            raise ValueError(f"{path}: field {key} must be a rectangular "
                             f"matrix of numbers") from None
    name = data.get("name", path.stem)
    if not isinstance(name, str) or not name or _BAD_NAME_CHARS.search(name):
        raise ValueError(f"{path}: field name (default: the file stem) must be "
                         f"a non-empty string without , \" / \\, control "
                         f"characters or lone surrogates, got {name!r}")
    try:
        game = BimatrixGame(name=name, **mats)
        if max(game.R1.shape) > _MAX_JSON_ACTIONS:
            raise ValueError(f"a {game.n1}x{game.n2} game exceeds the cap of "
                             f"{_MAX_JSON_ACTIONS} actions per player")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return game


def load_game(name_or_path: str) -> BimatrixGame:
    """Resolve a built-in game name, else read the argument as a JSON file."""
    if name_or_path in _LIBRARY_CELLS:
        return builtin_game(name_or_path)
    p = Path(name_or_path)
    if p.is_file():
        return game_from_json(p)
    raise KeyError(f"'{name_or_path}' is neither a built-in game nor a file")
