"""Action symmetries of two-player games and the orbits of support profiles under them.

An automorphism of a game is one permutation of each player's actions that
leaves every payoff where it was: u(s_0 a, s_1 b) = u(a, b).  It maps
equilibria to equilibria under every statistic (Nash, "Non-cooperative
games", Annals of Mathematics 54, 1951), so solve_nash_phi solves one
support profile per orbit where its roots do not depend on action labels.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .games import Game

# automorphisms tries the permutations of the smaller player's actions up to
# this many actions, 6! = 720 of them; above it, it returns the identity alone.
SYMMETRY_CAP = 6


def automorphisms(game: Game) -> list[tuple[np.ndarray, ...]]:
    """Pairs of action permutations (s_0, s_1) of a two-player game with u(s_0 a, s_1 b) = u(a, b), identity first.

    Each permutation t of the smaller player's actions (player 1's on a tie)
    that maps every action to one whose payoffs, both players', sort to the
    same values is tried; above SYMMETRY_CAP actions only the identity is.
    The other player's permutation s pairs a stable lexsort of its payoff
    rows, both players' payoffs against each of the smaller player's
    actions, with the same sort of the rows whose columns t permutes, and t
    is kept when the sorted rows are exactly equal: then u(s a, t b) = u(a, b).
    The stable sort pairs duplicated rows, as blow_up makes, in order.  One s
    is kept per t, so the pairs need not be closed under composition when the
    larger player has duplicated rows, but each of them is an automorphism.
    """
    q = 0 if game.action_counts[0] < game.action_counts[1] else 1
    tensor = game.payoffs if q == 1 else game.payoffs.transpose(1, 0, 2)  # (other's actions, q's actions, player)
    k = tensor.shape[1]
    if k > SYMMETRY_CAP:
        return [tuple(np.arange(c) for c in game.action_counts)]
    rows = tensor.transpose(0, 2, 1)
    flat = rows.reshape(len(rows), -1)
    order = np.lexsort(flat.T[::-1])
    _, label = np.unique(np.sort(tensor, axis=0).transpose(1, 0, 2).reshape(k, -1), axis=0, return_inverse=True)
    classes = [np.flatnonzero(label.reshape(-1) == c) for c in range(label.max() + 1)]
    out = []
    for images in itertools.product(*(itertools.permutations(c.tolist()) for c in classes)):
        t = np.empty(k, dtype=np.intp)
        for c, image in zip(classes, images):
            t[c] = image
        moved = rows[:, :, t].reshape(len(rows), -1)
        moved_order = np.lexsort(moved.T[::-1])
        if np.array_equal(flat[order], moved[moved_order]):
            s = np.empty(len(rows), dtype=np.intp)
            s[order] = moved_order
            out.append((s, t) if q == 1 else (t, s))
    return out


def orbits(group: Sequence[Sequence[np.ndarray]], ids: np.ndarray, masks: Sequence[np.ndarray]):
    """The orbits of a stack of support profiles (ids, masks) (see solvers._dismissed) under action permutations.

    group holds automorphisms, one permutation per player, identity first;
    g maps support S to g S = {g(a) : a in S}.  A profile's key under g is
    its image's supports as bits, one player's after another, in chunks of
    52 summed exactly in floats, so a support may hold any number of actions.
    Its canonical key is the lexicographically least over g.  Returns, for
    each profile r, its representative p, the first profile in stack order
    with r's canonical key, and the place in group of g_r, the first g that
    takes r to that key.  So g_r r = g_p p, and g_r^-1 g_p maps p's
    solutions onto r's.  With fewer than two automorphisms every profile
    represents itself.
    """
    if len(group) < 2:
        return np.arange(len(ids)), np.zeros(len(ids), dtype=np.intp)
    offsets = np.cumsum([0] + [m.shape[1] for m in masks])
    chunks = -(-offsets[-1] // 52)
    weights = [m.astype(float) for m in masks]
    least, move = np.full((chunks, len(ids)), np.inf), np.zeros(len(ids), dtype=np.intp)
    for g, perms in enumerate(group):  # one image at a time, so memory does not grow with the group
        key = np.zeros((chunks, len(ids)))
        for i, m in enumerate(weights):
            at = offsets[i] + perms[i]
            bits = np.zeros((len(at), chunks))
            bits[np.arange(len(at)), at // 52] = 2.0 ** (at % 52)
            key += (m @ bits)[ids[:, i]].T
        lower = np.zeros(len(ids), dtype=bool)
        for c in reversed(range(chunks)):
            lower = (key[c] < least[c]) | ((key[c] == least[c]) & lower)
        least = np.where(lower, key, least)
        move[lower] = g
    order = np.lexsort(least[::-1])  # stable, so each key's first profile in stack order comes first
    new = np.ones(len(ids), dtype=bool)
    new[1:] = (least[:, order[1:]] != least[:, order[:-1]]).any(axis=0)
    lead = np.empty(len(ids), dtype=np.intp)
    lead[order] = order[new][np.cumsum(new) - 1]
    return lead, move
