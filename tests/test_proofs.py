"""Interval checks of the real-number claims behind fixed's proven cell, over their whole domain.

FixedPrior._proven_cell's D <= 0 branch writes t = log u, u = 1 + sigma^2, and

    h_c = D + t/2 - (c/2)(1 - e^(-t)),

and claims h_c < 0 for 0 < t <= max(-2D, log c) and h_c > 1/2 at t = c + 1 - 2D. A solve tries
that cell at every fixed mass, so the claims are checked over the whole domain the floats
reach: D = L - log odds <= 0, where L = log(1/alpha_b - 1) and the log odds log(1/rho0 - 1) each
lie in [-36.8, 744.5] for a float in (0, 1), so D >= -781.3; and c = c_alpha in (0, 1477], as
classical_threshold reaches 1476.52 at alpha = 5e-323.

_sup bisects a box of parameters until mpmath.iv encloses a function on every piece at or below
0, and returns the greatest upper end it found; a claim is a bound on that. Each claim is
written so that no piece's enclosure needs to resolve a removable zero: a sign is taken from
factors whose signs are known, and a function that falls is enclosed by its values at a piece's
ends.
"""

from mpmath import iv, mpf

#: D and c, as the module's docstring bounds them.
D_RANGE, C_RANGE = (-782.0, 0.0), (0.0, 1477.0)


def _sup(f, box, pieces=4096):
    """An upper bound of f over box, a list of (lo, hi) per argument, from mpmath.iv enclosures
    of f on pieces of it: a piece whose enclosure reaches above 0 is halved along its widest
    side, until none does or pieces have been made; returns the greatest upper end left."""
    todo, done = [[iv.mpf(side) for side in box]], []
    while todo and len(todo) + len(done) < pieces:
        piece = todo.pop()
        upper = mpf(f(*piece).b)
        if upper <= 0:
            done.append(upper)
            continue
        k = max(range(len(piece)), key=lambda i: piece[i].delta)
        lo, mid, hi = piece[k].a, piece[k].mid, piece[k].b
        todo += [piece[:k] + [iv.mpf([lo, mid])] + piece[k + 1:],
                 piece[:k] + [iv.mpf([mid, hi])] + piece[k + 1:]]
    return max(done + [mpf(f(*piece).b) for piece in todo])


def _falling(g, x):
    """g over the interval x, for g that falls on it: [g(x.b), g(x.a)]."""
    return iv.mpf([g(x.b).a, g(x.a).b])


def _one_minus_e_over_t(t):
    """(1 - e^(-t))/t, which falls from 1 at t = 0; t is a point interval."""
    return iv.mpf(1) if t == 0 else -iv.expm1(-t) / t


def test_fixed_h_c_is_negative_up_to_its_cells_lower_end():
    """h_c < 0 for 0 < t <= max(-2D, log c), in two pieces:
    - t = -2D s, 0 < s <= 1: D + t/2 = D (1 - s) <= 0, and (c/2)(1 - e^(-t)) = (c t/2) q(t) > 0,
      as c t > 0 and q(t) = (1 - e^(-t))/t falls from 1 to q(1564) > 0.
    - -2D < t <= log c, so c > 1: with t = w log c, 0 <= w < 1, 2 dh_c/dt = 1 - c e^(-t) =
      -expm1((1 - w) log c) < 0, as (1 - w) log c > 0. So h_c falls there, from h_c(-2D) < 0
      by the first piece or, where D = 0, from h_c(0) = 0."""
    unit = (0.0, 1.0)
    assert _sup(lambda d, s: d * (1 - s), [D_RANGE, unit]) <= 0
    assert _sup(lambda d, s: -_falling(_one_minus_e_over_t, -2 * d * s), [D_RANGE, unit]) < 0
    assert _sup(lambda c, w: -iv.expm1((1 - w) * iv.log(c)), [(1.0, C_RANGE[1]), unit]) <= 0


def test_fixed_h_c_exceeds_one_half_at_its_cells_upper_end():
    """h_c > 1/2 at T = c + 1 - 2D, and from there on:
    - D + T/2 = (c + 1)/2, so h_c(T) - 1/2 = (c/2) e^(-T), which is > 0 as c > 0.
    - T - log c >= 2 > 1, as log c <= c - 1 and D <= 0; so 2 dh_c/dt = 1 - c e^(-t) > 0 for
      t >= T."""
    box = [D_RANGE, C_RANGE]
    assert _sup(lambda d, c: -c / 2 * iv.exp(-(c + 1 - 2 * d)), box) <= 0
    assert _sup(lambda d, c: iv.log(c) - (c + 1 - 2 * d) + 1, box) <= 0
