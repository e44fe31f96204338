"""Stationary state of the two-parameter open-boundary TASEP.

The matrix-product weights f(tau) ~ L(prod_i (tau_i e1 + (1 - tau_i) e2))
and the sparse continuous-time Markov generator G over the 2^L states.
`compare` certifies the normalized weights exactly: pi G = 0 at every
state, sum(pi) = 1, and G irreducible, so pi is the one stationary state;
no linear system is solved.  States are bit tuples with site 1 first; the
integer encoding is little-endian (site 1 = least significant bit).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DegenerateParameters
from .report import CheckReport
from .ring import eval_numerators, poly_sum
from .tensor import linear_forms, power_sum_form


def all_states(L):
    if L < 1:
        raise ValueError("L must be at least 1")
    return [s for s in itertools.product((0, 1), repeat=L)]


def state_index(tau):
    return sum(bit << i for i, bit in enumerate(tau))


def state_from_index(idx, L):
    return tuple((idx >> i) & 1 for i in range(L))


def partition_Z(L):
    """Z_L = L((e1+e2)^L), as the L-th power of e1 + e2 in the shock ring
    over integer coefficients: time polynomial in L, no sum over the 2^L
    states."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return power_sum_form(L)


class StationaryTable:
    __slots__ = ("L", "weights", "Z", "alpha", "beta", "probabilities",
                 "numerators", "denominator")
    __hash__ = None

    def __init__(self, L, weights, Z, alpha, beta, probabilities,
                 numerators, denominator):
        self.L = L
        self.weights = weights              # state tuple -> Poly2
        self.Z = Z                          # Poly2
        self.alpha = alpha                  # Fraction
        self.beta = beta                    # Fraction
        self.probabilities = probabilities  # state tuple -> Fraction
        # state tuple -> int: the weight's value times `denominator`
        self.numerators = numerators
        self.denominator = denominator

    def to_obj(self, symbolic=False):
        den = self.denominator
        rows = []
        bits = f"0{self.L}b"
        # state_index order: the idx-th state, reversed, is idx in binary
        for idx, rev in enumerate(itertools.product((0, 1), repeat=self.L)):
            tau = rev[::-1]
            rows.append({
                "state": format(idx, bits)[::-1],
                "probability": str(self.probabilities[tau]),
                "weight": (self.weights[tau].to_obj() if symbolic
                           else str(Fraction(self.numerators[tau], den))),
            })
        return {
            "L": self.L,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "Z": (self.Z.to_obj() if symbolic
                  else str(self.Z.eval(self.alpha, self.beta))),
            "states": rows,
        }


def require_positive_rates(a, b):
    """(a, b) as Fractions, refusing a rate that is not positive: only
    with both rates positive is the chain irreducible, with the one
    stationary state that the MPA weights describe."""
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise DegenerateParameters(
            f"rates must be positive: alpha={a}, beta={b}")
    return a, b


# L -> (the weights of the 2^L states in the order of all_states, Z_L),
# stored once their sum has been checked against Z_L: neither depends on
# (alpha, beta).  A tuple, so no caller can change what the next call reads.
_CHECKED_WEIGHTS = {}


def _checked_weights(L):
    got = _CHECKED_WEIGHTS.get(L)
    if got is None:
        # occupied site -> e1, empty site -> e2, in site order: the product
        # over (e2, e1) lists the words in the order of all_states
        words = list(itertools.product((2, 1), repeat=L))
        values = linear_forms(words)
        weights = tuple(values[w] for w in words)
        Z = partition_Z(L)
        if poly_sum(weights) != Z:
            raise RuntimeError("partition function paths disagree")
        got = _CHECKED_WEIGHTS[L] = weights, Z
    return got


def stationary_mpa(L, a, b):
    """Exact matrix-product stationary distribution at rational (a, b).

    Z_L and the 2^L weights are evaluated in one pass, on one table of
    powers and one common denominator, which cancels: each probability is
    one normalization of two integers.  Z_L comes two ways, as the sum of
    the weights and as the shock-ring power, and the two must agree
    term by term; that check runs on the first call for each L."""
    a, b = require_positive_rates(a, b)
    states = all_states(L)
    values, Z = _checked_weights(L)
    # Z(a, b) > 0: positive coefficients at positive rates
    (nz, *nums), den = eval_numerators([Z, *values], a, b)
    probs = {tau: Fraction(n, nz) for tau, n in zip(states, nums)}
    return StationaryTable(L, dict(zip(states, values)), Z, a, b, probs,
                           dict(zip(states, nums)), den)


class Generator:
    """Sparse continuous-time Markov generator over the 2^L states."""

    __slots__ = ("L", "alpha", "beta", "dim", "rates")
    __hash__ = None

    def __init__(self, L, alpha, beta, dim, rates):
        self.L = L
        self.alpha = alpha
        self.beta = beta
        self.dim = dim
        self.rates = rates  # rates[i] = dict j -> Fraction, with the diagonal


def build_generator(L, a, b):
    """Transitions: entry at site 1 (rate alpha) if empty, exit at site L
    (rate beta) if occupied, hop i -> i+1 (rate 1) when (occupied, empty)."""
    if L < 1:
        raise ValueError("L must be at least 1")
    a, b = require_positive_rates(a, b)
    dim = 1 << L
    rates = [dict() for _ in range(dim)]
    for idx in range(dim):
        tau = state_from_index(idx, L)
        row = rates[idx]
        out = Fraction(0)

        def add(target, rate):
            nonlocal out
            row[target] = row.get(target, Fraction(0)) + rate
            out += rate

        if tau[0] == 0:
            add(idx | 1, a)
        if tau[L - 1] == 1:
            add(idx & ~(1 << (L - 1)), b)
        for i in range(L - 1):
            if tau[i] == 1 and tau[i + 1] == 0:
                add((idx & ~(1 << i)) | (1 << (i + 1)), Fraction(1))
        row[idx] = row.get(idx, Fraction(0)) - out
    return Generator(L, a, b, dim, rates)


def certify_stationary(g, probabilities):
    """Exact certificate that `probabilities` (state tuple -> Fraction) is
    the stationary distribution of the generator g.

    Records (pi G)_tau = 0 at every state tau, from one pass over g's
    sparse rows, then sum(pi) = 1, then irreducibility: every state
    reaches the empty state and is reached from it along g's off-diagonal
    entries.  Irreducibility makes the kernel of G one-dimensional, so a
    passing report proves pi is the unique stationary state; without it a
    zero generator would pass the residual check vacuously."""
    rep = CheckReport(f"TASEP L={g.L} alpha={g.alpha} beta={g.beta}")
    residual = [Fraction(0)] * g.dim
    forward = [set() for _ in range(g.dim)]
    backward = [set() for _ in range(g.dim)]
    for i, row in enumerate(g.rates):
        p = probabilities[state_from_index(i, g.L)]
        for j, r in row.items():
            residual[j] += p * r
            if j != i and r:
                forward[i].add(j)
                backward[j].add(i)
    for tau in all_states(g.L):
        rep.record(residual[state_index(tau)] == 0,
                   "state " + "".join(map(str, tau)))
    rep.record(sum(probabilities.values()) == 1, "probabilities sum to 1")
    rep.record(_reaches_all(backward) and _reaches_all(forward),
               "generator is irreducible")
    rep.note(f"max residual {max(map(abs, residual))}")
    return rep


def _reaches_all(edges):
    """Whether a search from the empty state (index 0) along edges[i]
    visits every state."""
    seen, stack = {0}, [0]
    while stack:
        for j in edges[stack.pop()] - seen:
            seen.add(j)
            stack.append(j)
    return len(seen) == len(edges)


def compare(L, a, b):
    """Certify the matrix-product distribution as the stationary state of
    the Markov generator, state by state and with no elimination."""
    table = stationary_mpa(L, a, b)
    return certify_stationary(build_generator(L, a, b), table.probabilities)
