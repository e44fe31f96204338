from fractions import Fraction
from math import factorial

import pytest

from biops.ring import Poly2, ZERO, ALPHA, BETA, AB
from biops.tensor import normal_order_word
from biops.asep import (all_states, state_index, state_from_index, state_word,
                        mpa_weight, partition_Z, stationary_mpa,
                        build_generator, certify_stationary, compare)
from biops.errors import DegenerateParameters
from markov_oracle import SingularSystem, stationary_oracle


class TestStates:
    def test_roundtrip(self):
        for L in range(1, 6):
            for tau in all_states(L):
                assert state_from_index(state_index(tau), L) == tau

    def test_little_endian(self):
        assert state_index((1, 0, 0)) == 1
        assert state_index((0, 0, 1)) == 4

    def test_word(self):
        assert state_word((1, 0, 1)) == (1, 2, 1)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            all_states(0)


class TestWeights:
    def test_single_site(self):
        assert mpa_weight((1,)) == ALPHA
        assert mpa_weight((0,)) == BETA

    def test_two_sites(self):
        assert mpa_weight((1, 1)) == ALPHA * ALPHA
        assert mpa_weight((0, 0)) == BETA * BETA
        assert mpa_weight((1, 0)) == AB * (ALPHA + BETA)
        assert mpa_weight((0, 1)) == AB

    def test_partition_agrees_and_symmetric(self):
        for L in range(1, 7):
            Z = partition_Z(L)
            swapped = Z.subs(BETA, ALPHA)
            assert Z == swapped, L

    def test_partition_small(self):
        assert partition_Z(1) == ALPHA + BETA


def dehp_Z(L):
    """Derrida-Evans-Hakim-Pasquier, J. Phys. A 26 (1993) 1493:
    Z_L = sum_{p=1..L} p (2L-1-p)! / (L! (L-p)!)
          * sum_{k=0..p} alpha^(L-k) beta^(L-p+k)."""
    out = ZERO
    for p in range(1, L + 1):
        count, rem = divmod(p * factorial(2 * L - 1 - p),
                            factorial(L) * factorial(L - p))
        assert rem == 0
        out = out + count * sum((ALPHA**(L - k) * BETA**(L - p + k)
                                 for k in range(p + 1)), ZERO)
    return out


def enumerated_Z(L):
    """Sum of L over all 2^L state words, each normal-ordered by rewriting."""
    out = ZERO
    for tau in all_states(L):
        nf, _ = normal_order_word(state_word(tau))
        for (n, m), c in nf.items():
            out = out + c * BETA**n * ALPHA**m
    return out


class TestPartitionFunction:
    def test_dehp_closed_form(self):
        for L in range(1, 31):
            assert partition_Z(L) == dehp_Z(L), L

    def test_enumeration(self):
        for L in range(1, 11):
            assert partition_Z(L) == enumerated_Z(L), L


class TestGenerator:
    def test_row_sums_vanish(self):
        g = build_generator(4, Fraction(1, 2), Fraction(1, 3))
        for i in range(g.dim):
            assert g.row_sum(i) == 0

    def test_rates(self):
        g = build_generator(2, Fraction(1, 2), Fraction(1, 3))
        # empty chain: only entry at site 1
        assert g.rates[0] == {1: Fraction(1, 2), 0: Fraction(-1, 2)}
        # (1, 0): hop to (0, 1)
        assert g.rates[1][2] == 1
        # (0, 1): exit at site 2 and entry at site 1
        assert g.rates[2][0] == Fraction(1, 3)
        assert g.rates[2][3] == Fraction(1, 2)

    def test_positive_rates_required(self):
        with pytest.raises(ValueError):
            build_generator(2, 0, Fraction(1, 2))
        with pytest.raises(DegenerateParameters):
            build_generator(2, Fraction(1, 2), Fraction(-1, 3))


class TestStationary:
    def test_hand_oracle_L1(self):
        # one site: enter at rate a, leave at rate b; pi(1) = a/(a+b)
        a, b = Fraction(1, 2), Fraction(1, 3)
        pi = stationary_oracle(build_generator(1, a, b))
        assert pi[(1,)] == Fraction(3, 5)
        assert pi[(0,)] == Fraction(2, 5)
        table = stationary_mpa(1, a, b)
        assert table.probabilities[(1,)] == Fraction(3, 5)

    @pytest.mark.parametrize("L", range(1, 8))
    def test_compare(self, L):
        rep = compare(L, Fraction(1, 2), Fraction(1, 3))
        assert not rep.failures
        assert rep.checked == 2**L + 2
        assert "max residual 0" in " ".join(rep.notes)

    def test_compare_other_points(self):
        for a, b in ((Fraction(2, 3), Fraction(1, 4)),
                     (Fraction(1, 2), Fraction(1, 2)),
                     (Fraction(3), Fraction(2))):
            rep = compare(4, a, b)
            assert not rep.failures, (a, b)

    def test_probabilities_normalize(self):
        table = stationary_mpa(5, Fraction(1, 2), Fraction(2, 3))
        probs = table.probabilities
        assert sum(probs.values()) == 1
        assert all(0 < p < 1 for p in probs.values())

    def test_degenerate_Z(self):
        # alpha = -beta would make Z_1 vanish; the negative rate is
        # refused before any division
        with pytest.raises(DegenerateParameters):
            stationary_mpa(1, Fraction(1, 2), Fraction(-1, 2))

    def test_to_obj(self):
        table = stationary_mpa(2, Fraction(1, 2), Fraction(1, 3))
        obj = table.to_obj()
        assert obj["L"] == 2
        assert len(obj["states"]) == 4
        total = sum(Fraction(r["probability"]) for r in obj["states"])
        assert total == 1
        sym = table.to_obj(symbolic=True)
        assert isinstance(sym["Z"], list)

    def test_singular_guard(self):
        g = build_generator(2, Fraction(1, 2), Fraction(1, 3))
        # zero out everything: rank deficient
        for row in g.rates:
            row.clear()
        with pytest.raises(SingularSystem):
            stationary_oracle(g)


class TestCertificate:
    @pytest.mark.parametrize("a, b", [(Fraction(2, 3), Fraction(2, 3)),
                                      (Fraction(3), Fraction(2))])
    def test_compare_up_to_L12(self, a, b):
        for L in range(1, 13):
            rep = compare(L, a, b)
            assert rep.ok and rep.checked == 2**L + 2, (L, rep.failures)
            assert rep.notes == ["max residual 0"], L

    def test_perturbed_vector_rejected(self):
        a, b = Fraction(1, 2), Fraction(1, 3)
        probs = dict(stationary_mpa(6, a, b).probabilities)
        eps = Fraction(1, 1000)
        probs[(1, 0, 1, 1, 0, 0)] += eps
        probs[(0, 1, 1, 0, 1, 0)] -= eps
        assert sum(probs.values()) == 1
        rep = certify_stationary(build_generator(6, a, b), probs)
        assert not rep.ok
        assert all(label.startswith("state ") for label in rep.failures)
        assert Fraction(rep.notes[0].removeprefix("max residual ")) > 0

    def test_unnormalized_vector_rejected_by_normalization(self):
        a, b = Fraction(1, 2), Fraction(1, 3)
        probs = {tau: 2 * p for tau, p in
                 stationary_mpa(4, a, b).probabilities.items()}
        rep = certify_stationary(build_generator(4, a, b), probs)
        assert rep.failures == ["probabilities sum to 1"]
        assert rep.notes == ["max residual 0"]

    def test_zero_generator_rejected_by_irreducibility(self):
        a, b = Fraction(1, 2), Fraction(1, 3)
        g = build_generator(3, a, b)
        for row in g.rates:
            row.clear()
        rep = certify_stationary(g, stationary_mpa(3, a, b).probabilities)
        assert rep.failures == ["generator is irreducible"]
        assert rep.checked == 2**3 + 2

    @pytest.mark.parametrize("cut, absorbing", [(Fraction(1, 2), 0),
                                                (Fraction(1, 3), 1)])
    def test_absorbing_chain_rejected_by_irreducibility(self, cut, absorbing):
        # without entries (rate 1/2) the empty state absorbs, without exits
        # (rate 1/3) the full one: its point mass has pi G = 0 and sum 1
        g = build_generator(3, Fraction(1, 2), Fraction(1, 3))
        for i, row in enumerate(g.rates):
            for j in [j for j, r in row.items() if j != i and r == cut]:
                del row[j]
            row[i] = -sum(r for j, r in row.items() if j != i)
        probs = {tau: Fraction(int(tau == (absorbing,) * 3))
                 for tau in all_states(3)}
        rep = certify_stationary(g, probs)
        assert rep.failures == ["generator is irreducible"]
