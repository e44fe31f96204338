from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from biops import asep
from biops.ring import ZERO, ONE, ALPHA, BETA, AB, Poly2, poly_sum
from biops.tensor import TensorElem, linear_form
from biops.asep import (all_states, state_index, partition_Z,
                        stationary_mpa, stationary_numerators, transitions,
                        certify_stationary, compare)
from biops.errors import DegenerateParameters
from markov_oracle import (SingularSystem, build_generator, state_from_index,
                           stationary_oracle)
from oracles import (dehp_Z, normal_order_word, power_sum_form,
                     state_weights, state_word, stationary_probabilities,
                     swap_ab, weights_evaluator)


def weight(tau):
    """The unnormalized weight of one state: L of its word, the word
    behind each stationary_mpa weight."""
    return linear_form(TensorElem({state_word(tau): ONE}))


class TestStates:
    def test_roundtrip(self):
        for L in range(1, 6):
            for tau in all_states(L):
                assert state_from_index(state_index(tau), L) == tau

    def test_little_endian(self):
        assert state_index((1, 0, 0)) == 1
        assert state_index((0, 0, 1)) == 4

    def test_listed_in_state_index_order(self):
        # the order of transitions' indices and of the stationary rows
        assert all_states(2) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        a, b = Fraction(2, 3), Fraction(3, 7)
        for L in range(1, 11):
            assert [state_index(tau) for tau in all_states(L)] == list(
                range(2**L))
            table = stationary_mpa(L, a, b)
            for d in (table.weights, table.probabilities):
                assert list(d) == all_states(L)
            # the numerators are the fill's list, entry i the state of
            # index i
            assert table.numerators == numerators_at(L, a, b)
            assert [Fraction(n, table.Z_numerator)
                    for n in table.numerators] == list(
                        table.probabilities.values())

    def test_word(self):
        assert state_word((1, 0, 1)) == (1, 2, 1)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            all_states(0)


class TestWeights:
    def test_single_site(self):
        assert weight((1,)) == ALPHA
        assert weight((0,)) == BETA

    def test_two_sites(self):
        assert weight((1, 1)) == ALPHA * ALPHA
        assert weight((0, 0)) == BETA * BETA
        assert weight((1, 0)) == AB * (ALPHA + BETA)
        assert weight((0, 1)) == AB

    def test_partition_agrees_and_symmetric(self):
        for L in range(1, 7):
            Z = partition_Z(L)
            swapped = swap_ab(Z)
            assert Z == swapped, L

    def test_partition_small(self):
        assert partition_Z(1) == ALPHA + BETA


def enumerated_Z(L):
    """Sum of L over all 2^L state words, each normal-ordered by rewriting."""
    out = ZERO
    for tau in all_states(L):
        nf, _ = normal_order_word(state_word(tau))
        for (n, m), c in nf.items():
            out = out + c * BETA**n * ALPHA**m
    return out


class TestPartitionFunction:
    def test_enumeration(self):
        for L in range(1, 11):
            assert partition_Z(L) == enumerated_Z(L), L

    def test_equals_the_diagonal_fold_and_dehp_up_to_L60(self):
        # the power of e1 + e2 in the shock ring keyed by bidegree, against
        # the integer fold on the diagonal's (n, m) keys and the closed form
        assert partition_Z(0) == power_sum_form(0) == ONE
        for L in range(1, 61):
            assert partition_Z(L) == power_sum_form(L) == dehp_Z(L), L

    def test_catalan_at_alpha_beta_one(self):
        # DEHP at alpha = beta = 1: Z_L(1, 1) is the Catalan number C_(L+1)
        for L in range(31):
            catalan = comb(2 * L + 2, L + 1) // (L + 2)
            assert partition_Z(L).eval(1, 1) == catalan, L


class TestGenerator:
    def test_row_sums_vanish(self):
        g = build_generator(4, Fraction(1, 2), Fraction(1, 3))
        assert len(g) == 2**4
        for row in g:
            assert sum(row.values(), Fraction(0)) == 0

    def test_rates(self):
        g = build_generator(2, Fraction(1, 2), Fraction(1, 3))
        # empty chain: only entry at site 1
        assert g[0] == {1: Fraction(1, 2), 0: Fraction(-1, 2)}
        # (1, 0): hop to (0, 1)
        assert g[1][2] == 1
        # (0, 1): exit at site 2 and entry at site 1
        assert g[2][0] == Fraction(1, 3)
        assert g[2][3] == Fraction(1, 2)

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

    def test_to_obj_rows_in_state_index_order(self):
        # each numeric weight is its probability times Z(alpha, beta)
        a, b = Fraction(9, 4), Fraction(5, 7)
        for L in range(1, 9):
            table = stationary_mpa(L, a, b)
            z = table.Z.eval(a, b)
            obj = table.to_obj()
            assert obj["Z"] == str(z)
            rows = obj["states"]
            assert [r["state"] for r in rows] == [
                "".join(map(str, state_from_index(i, L)))
                for i in range(2 ** L)]
            for r in rows:
                tau = tuple(map(int, r["state"]))
                p = table.probabilities[tau]
                assert r["probability"] == str(p)
                assert r["weight"] == str(p * z)

    @pytest.mark.parametrize("a, b", [
        (Fraction(2, 3), Fraction(2, 3)),         # a = b
        (Fraction(3), Fraction(5, 2)),            # both rates above 1
        (Fraction(1, 3), Fraction(2, 3)),         # a + b = 1
        (Fraction(99991, 7), Fraction(65537, 99989)),
    ])
    def test_equals_per_weight_oracle(self, a, b):
        for L in range(1, 11):
            table = stationary_mpa(L, a, b)
            want = stationary_probabilities(L, a, b)
            assert list(table.probabilities.items()) == list(want.items()), L
            assert list(table.weights) == list(want)
            for tau, w in table.weights.items():
                assert w == linear_form(TensorElem({state_word(tau): ONE}))

    @pytest.mark.parametrize("a, b", [
        (Fraction(5, 7), Fraction(5, 7)),         # a = b
        (Fraction(7, 2), Fraction(4, 3)),         # both rates above 1
        (Fraction(99991, 7), Fraction(65537, 99989)),
    ])
    def test_probabilities_are_the_constructors_fractions(self, a, b):
        # each probability is Fraction(weight numerator, Z numerator): the
        # same type, lowest-terms fields, hash and text
        for L in range(1, 11):
            table = stationary_mpa(L, a, b)
            assert type(table.probabilities) is dict
            for p, n in zip(table.probabilities.values(), table.numerators):
                want = Fraction(n, table.Z_numerator)
                assert type(p) is Fraction
                assert (p.numerator, p.denominator) == (want.numerator,
                                                        want.denominator)
                assert hash(p) == hash(want) and str(p) == str(want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6),
           st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
           st.fractions(min_value=Fraction(1, 10**6), max_value=10**6))
    def test_equals_per_weight_oracle_at_rational_points(self, L, a, b):
        want = stationary_probabilities(L, a, b)
        got = stationary_mpa(L, a, b).probabilities
        assert list(got.items()) == list(want.items())

    def test_one_record_per_L_serves_every_point(self, monkeypatch):
        # the record (states, Z) of each L, made on its first call, serves
        # every later point: a = b, both rates above 1, and a generic
        # point; no symbolic weight is made
        partition, tables = {}, []
        monkeypatch.setattr(asep, "_PARTITION", partition)
        points = [(Fraction(3, 5), Fraction(3, 5)),
                  (Fraction(7, 2), Fraction(9, 4)),
                  (Fraction(2, 7), Fraction(5, 3))]
        for L in range(1, 11):
            for a, b in points:
                tables.append(stationary_mpa(L, a, b))
                got = tables[-1].probabilities
                want = stationary_probabilities(L, a, b)
                assert list(got.items()) == list(want.items()), (L, a, b)
            assert list(partition) == list(range(1, L + 1))
            states, Z = partition[L]
            assert states == tuple(all_states(L))
            assert Z == partition_Z(L)
        assert all(t._weights is None for t in tables)

    def test_disagreeing_paths_raise(self, monkeypatch):
        # a wrong filled weight fails the symbolic path and keeps nothing
        a, b = Fraction(1, 2), Fraction(1, 3)
        tau = (1, 0, 1, 0)
        right_fill = asep.stationary_numerators

        def one_wrong(L, *factors):
            weights = right_fill(L, *factors)
            if isinstance(weights[0], Poly2):
                weights[state_index(tau)] += AB
            return weights

        table = stationary_mpa(4, a, b)
        with monkeypatch.context() as m:
            m.setattr(asep, "stationary_numerators", one_wrong)
            with pytest.raises(RuntimeError,
                               match="partition function paths disagree"):
                table.weights
            assert table._weights is None
            # the numeric path fills integers, which stay right
            again = stationary_mpa(4, a, b)
            assert again.numerators == table.numerators
        # the passing check keeps the right weights on the table
        assert list(table.weights.values()) == state_weights(4)

    def test_wrong_Z_leaves_weights_unset(self):
        # a table whose Z is not the sum of its filled weights refuses to
        # fill them, and a later read checks again
        table = stationary_mpa(5, Fraction(2, 3), Fraction(3, 7))
        right = table.Z
        table.Z = right + AB
        for _ in range(2):
            with pytest.raises(RuntimeError,
                               match="partition function paths disagree"):
                table.weights
            assert table._weights is None
        table.Z = right
        assert list(table.weights.values()) == state_weights(5)

    def test_wrong_Z_raises_on_every_call(self, monkeypatch):
        right = asep.partition_Z
        monkeypatch.setattr(asep, "_PARTITION", {})
        monkeypatch.setattr(asep, "partition_Z", lambda L: right(L) + AB)
        for a, b in ((Fraction(1, 2), Fraction(1, 3)),
                     (Fraction(9, 4), Fraction(9, 4))):
            for run in (stationary_mpa, compare, stationary_mpa, compare):
                with pytest.raises(RuntimeError,
                                   match="partition function paths disagree"):
                    run(3, a, b)

    def test_wrong_numerators_raise(self, monkeypatch):
        right = asep.stationary_numerators

        def one_off(L, *factors):
            nums = right(L, *factors)
            nums[-1] += 1
            return nums

        monkeypatch.setattr(asep, "stationary_numerators", one_off)
        for run in (stationary_mpa, compare):
            with pytest.raises(RuntimeError,
                               match="partition function paths disagree"):
                run(5, Fraction(2, 3), Fraction(3, 7))

    def test_sum_is_checked_once_per_table(self, monkeypatch):
        # the symbolic check runs once per table, on the first read of its
        # weights, and an edited table never reaches a later call
        sums = []

        def counted_sum(polys):
            sums.append(1)
            return poly_sum(polys)

        monkeypatch.setattr(asep, "poly_sum", counted_sum)
        points = [(Fraction(1, 2), Fraction(1, 3)),
                  (Fraction(9, 4), Fraction(5, 7))]
        first = stationary_mpa(5, *points[0])
        assert sums == []
        assert (list(first.probabilities.items())
                == list(stationary_probabilities(5, *points[0]).items()))
        full = (1,) * 5
        assert first.weights[full] == weight(full)
        first.weights  # a second read of the table sums nothing
        assert len(sums) == 1
        # a caller that changes its table changes no later call
        first.weights[full] = ZERO
        first.numerators[state_index(full)] = 0
        first.probabilities[full] = Fraction(0)
        second = stationary_mpa(5, *points[1])
        assert second.weights[full] == weight(full)
        assert len(sums) == 2
        assert (list(second.probabilities.items())
                == list(stationary_probabilities(5, *points[1]).items()))
        again = stationary_mpa(5, *points[0])
        assert again.weights[full] == weight(full)
        assert len(sums) == 3
        assert (list(again.probabilities.items())
                == list(stationary_probabilities(5, *points[0]).items()))
        assert sum(again.numerators) == again.Z_numerator
        stationary_mpa(6, *points[0]).weights
        assert len(sums) == 4

    def test_numeric_path_normal_orders_no_word(self, monkeypatch):
        # at a point no polynomial weight is formed, so none is summed
        def refuse(polys):
            raise AssertionError("poly_sum called")

        monkeypatch.setattr(asep, "_PARTITION", {})
        monkeypatch.setattr(asep, "poly_sum", refuse)
        a, b = Fraction(9, 4), Fraction(5, 7)
        table = stationary_mpa(10, a, b)
        assert sum(table.probabilities.values()) == 1
        assert len(table.to_obj()["states"]) == 2**10
        rep = compare(8, a, b)
        assert rep.ok and rep.checked == 2**8 + 2
        with pytest.raises(AssertionError, match="poly_sum called"):
            table.weights

    def test_singular_guard(self):
        g = build_generator(2, Fraction(1, 2), Fraction(1, 3))
        # zero out everything: rank deficient
        for row in g:
            row.clear()
        with pytest.raises(SingularSystem):
            stationary_oracle(g)


# the four kinds of point: a = b, both rates above 1, a generic point, and
# a = b = 1
RECURSION_POINTS = [(Fraction(2, 3), Fraction(2, 3)),
                    (Fraction(7, 2), Fraction(9, 4)),
                    (Fraction(99991, 7), Fraction(65537, 99989)),
                    (Fraction(1), Fraction(1))]


def numerators_at(L, a, b):
    """stationary_numerators at a = p/q, b = r/s: the weights' integer
    numerators over (q s)^L."""
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    return stationary_numerators(L, p * s, r * q, p * r)


def assert_equals_replaced_path(L, a, b, evaluate):
    """The recursion's numerators, and stationary_mpa's numerators, Z
    numerator and denominator, against Z_L and the word weights evaluated
    on one common denominator."""
    (nz, *nums), den = evaluate(a, b)
    assert numerators_at(L, a, b) == nums, (L, a, b)
    table = stationary_mpa(L, a, b)
    assert table.numerators == nums, (L, a, b)
    assert (table.Z_numerator, table.denominator) == (nz, den), (L, a, b)


class TestRecursion:
    def test_equals_the_replaced_path_up_to_L12(self):
        # the integer fill at each point, and the symbolic fill that each
        # table's weights read, against the words normal-ordered
        for L in range(1, 13):
            evaluate = weights_evaluator(L)
            want = state_weights(L)
            assert stationary_numerators(L, ALPHA, BETA, AB) == want, L
            for a, b in RECURSION_POINTS:
                assert_equals_replaced_path(L, a, b, evaluate)
                table = stationary_mpa(L, a, b)
                assert list(table.weights.values()) == want, (L, a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8),
           st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
           st.fractions(min_value=Fraction(1, 10**6), max_value=10**6))
    def test_equals_the_replaced_path_at_rational_points(self, L, a, b):
        assert_equals_replaced_path(L, a, b, weights_evaluator(L))

    # the generic point has smaller numbers here: the oracle eliminates
    # in Fractions
    @pytest.mark.parametrize("a, b", [*RECURSION_POINTS[:2],
                                      (Fraction(3, 11), Fraction(8, 5)),
                                      RECURSION_POINTS[3]])
    def test_equals_the_markov_oracle_up_to_L8(self, a, b):
        for L in range(1, 9):
            pi = stationary_oracle(build_generator(L, a, b))
            got = stationary_mpa(L, a, b).probabilities
            assert list(got.items()) == list(pi.items()), L

    def test_small_L_by_hand(self):
        # alpha = p/q, beta = r/s: one site [r q, p s], and the two-site
        # weights beta^2, ab(a + b), ab, alpha^2 over (q s)^2
        p, q, r, s = 2, 3, 5, 7
        assert numerators_at(1, Fraction(p, q), Fraction(r, s)) == [
            r * q, p * s]
        assert numerators_at(2, Fraction(p, q), Fraction(r, s)) == [
            (r * q)**2, p * r * (p * s + r * q), p * r * q * s, (p * s)**2]
        # the same fill over Z[alpha, beta]: beta^2, ab(a + b), ab, alpha^2
        assert stationary_numerators(2, ALPHA, BETA, AB) == [
            BETA**2, AB * (ALPHA + BETA), AB, ALPHA**2]
        with pytest.raises(ValueError):
            numerators_at(0, Fraction(p, q), Fraction(r, s))


CERTIFICATE_POINTS = [(Fraction(2, 3), Fraction(2, 3)),
                      (Fraction(3), Fraction(2))]


def certify_table(table):
    """certify_stationary on a StationaryTable's numerators, which a test
    may have changed."""
    return certify_stationary(table.L, table.alpha, table.beta,
                              table.numerators, table.Z_numerator)


def drop_transitions(monkeypatch, keep):
    """Point certify_stationary at the library's transitions that pass
    keep(i, j, k)."""
    right = asep.transitions
    monkeypatch.setattr(asep, "transitions", lambda L: [
        t for t in right(L) if keep(*t)])


class TestCertificate:
    @pytest.mark.parametrize("a, b", CERTIFICATE_POINTS)
    def test_compare_up_to_L12(self, a, b):
        for L in range(1, 13):
            rep = compare(L, a, b)
            assert rep.ok and rep.checked == 2**L + 2, (L, rep.failures)
            assert rep.notes == ["max residual 0"], L

    @pytest.mark.parametrize("a, b", CERTIFICATE_POINTS)
    def test_transitions_match_the_oracle_generator(self, a, b):
        # the two constructions of the dynamics: the library's transitions
        # at the rates scaled by q*s, against q*s times the off-diagonal
        # entries of the oracle's Fraction generator
        qs = a.denominator * b.denominator
        scaled = (a * qs, b * qs, qs)
        for L in range(1, 9):
            got = [((i, j), scaled[k]) for i, j, k in transitions(L)]
            g = build_generator(L, a, b)
            want = {(i, j): qs * r for i, row in enumerate(g)
                    for j, r in row.items() if j != i}
            assert len(dict(got)) == len(got), L
            assert dict(got) == want, L

    def test_perturbed_vector_rejected(self):
        a, b = Fraction(1, 2), Fraction(1, 3)
        table = stationary_mpa(6, a, b)
        table.numerators[state_index((1, 0, 1, 1, 0, 0))] += 1
        table.numerators[state_index((0, 1, 1, 0, 1, 0))] -= 1
        rep = certify_table(table)
        # the failures and the note are those of the perturbed pi against
        # the oracle's generator, in Fractions
        pi = {tau: Fraction(n, table.Z_numerator)
              for tau, n in zip(all_states(6), table.numerators)}
        assert sum(pi.values()) == 1
        g = build_generator(6, a, b)
        residual = [sum((pi[state_from_index(i, 6)] * row.get(j, 0)
                         for i, row in enumerate(g)), Fraction(0))
                    for j in range(len(g))]
        assert rep.failures == [
            "state " + "".join(map(str, tau)) for tau in all_states(6)
            if residual[state_index(tau)]]
        top = max(map(abs, residual))
        assert top > 0
        assert rep.notes == [f"max residual {top}"]

    def test_unnormalized_vector_rejected_by_normalization(self):
        table = stationary_mpa(4, Fraction(1, 2), Fraction(1, 3))
        table.numerators = [2 * n for n in table.numerators]
        rep = certify_table(table)
        assert rep.failures == ["probabilities sum to 1"]
        assert rep.notes == ["max residual 0"]

    def test_zero_generator_rejected_by_irreducibility(self, monkeypatch):
        drop_transitions(monkeypatch, lambda i, j, k: False)
        rep = compare(3, Fraction(1, 2), Fraction(1, 3))
        assert rep.failures == ["generator is irreducible"]
        assert rep.checked == 2**3 + 2
        assert rep.notes == ["max residual 0"]

    @pytest.mark.parametrize("cut, absorbing", [(Fraction(1, 2), 0),
                                                (Fraction(1, 3), 1)])
    def test_absorbing_chain_rejected_by_irreducibility(self, monkeypatch,
                                                        cut, absorbing):
        # without entries (rate 1/2) the empty state absorbs, without exits
        # (rate 1/3) the full one: its point mass has pi G = 0 and sum 1
        a, b = Fraction(1, 2), Fraction(1, 3)
        drop_transitions(monkeypatch, lambda i, j, k: (a, b, 1)[k] != cut)
        table = stationary_mpa(3, a, b)
        table.numerators = [int(tau == (absorbing,) * 3)
                            for tau in all_states(3)]
        table.Z_numerator = 1
        rep = certify_table(table)
        assert rep.failures == ["generator is irreducible"]
        assert rep.notes == ["max residual 0"]
