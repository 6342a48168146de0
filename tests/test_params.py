import math
from dataclasses import fields

import pytest

from trioverlay.params import (Params, derive_params, explicit_params,
                               feasible_params)


def close(a, b, rel=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


class TestDerived:
    def test_reference_point_n_1e4(self):
        # frozen from an independent evaluation of the formulas
        par = derive_params(10000, epsilon=0.1, beta=0.5, kappa=1.1)
        assert par.N == 118
        assert close(par.p, 0.015174271293851465)
        assert par.k == 334
        assert close(par.t1, 136.6850253785344)
        assert close(par.t2, 25.118864315095795)
        assert close(par.t3, 6.309573444801933)
        assert close(par.pn, 151.74271293851465)
        assert close(par.pN, 1.7905640126744728)
        assert close(par.log2n, 84.83036976765932)
        assert close(par.eps1, 0.1 ** 3)
        assert close(par.eps2, 0.1 ** 6)
        assert par.mode == "derived"
        assert par.injectable

    def test_kappa_defaults_to_one_plus_eps(self):
        par = derive_params(10000, epsilon=0.2)
        assert close(par.kappa, 1.2)
        # k grows with kappa
        assert par.k == math.ceil(1.2 * math.sqrt(10000 * math.log(10000)))

    def test_small_grid_not_injectable(self):
        # round(100/ln^2 100) = 5; 25 < 100
        par = derive_params(100)
        assert par.N == 5
        assert close(par.p, 0.10729830131446737)
        assert par.k == 24
        assert not par.injectable
        with pytest.raises(ValueError):
            par.require_injectable()

    def test_known_underivable_scales(self):
        for n, N in ((1000, 21), (2000, 35), (5000, 69)):
            par = derive_params(n)
            assert par.N == N
            assert not par.injectable

    def test_constant_C(self):
        par = derive_params(500)
        assert close(par.C, 3.0 * math.sqrt(20.0))

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            derive_params(99)

    def test_rejects_bad_epsilon_beta_kappa(self):
        with pytest.raises(ValueError):
            derive_params(1000, epsilon=0.0)
        with pytest.raises(ValueError):
            derive_params(1000, epsilon=1.0)
        with pytest.raises(ValueError):
            derive_params(1000, beta=1.5)
        with pytest.raises(ValueError):
            derive_params(1000, kappa=0.9)


class TestExplicit:
    def test_spec_tiny_instance(self):
        par = explicit_params(n=9, N=3, p=1.0, k=3)
        assert (par.t1, par.t2, par.t3) == (2.25, 1.5, 0.75)
        assert par.mode == "explicit"
        assert par.injectable
        # back-solved provenance
        assert close(par.beta, math.sqrt(9 / math.log(9)))
        assert close(par.kappa, 3 / math.sqrt(9 * math.log(9)))

    def test_p_zero_allowed_explicitly(self):
        par = explicit_params(n=4, N=2, p=0.0, k=2)
        assert par.p == 0.0
        assert par.pn == 0.0

    def test_p_zero_rejected_in_derived_mode(self):
        good = explicit_params(n=4, N=2, p=0.0, k=2)
        d = good.to_dict()
        d["mode"] = "derived"
        with pytest.raises(ValueError):
            Params.from_dict(d)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            explicit_params(n=10, N=3, p=0.5, k=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            explicit_params(n=9, N=3, p=1.5, k=3)
        with pytest.raises(ValueError):
            explicit_params(n=9, N=3, p=-0.1, k=3)
        with pytest.raises(ValueError):
            explicit_params(n=9, N=3, p=0.5, k=10)  # k > n
        with pytest.raises(ValueError):
            explicit_params(n=9, N=1, p=0.5, k=3)  # N < 2

    def test_cutoff_override_and_chain(self):
        # the cutoffs are fixed; a record states its own, chain checked
        d = explicit_params(n=16, N=4, p=0.3, k=8).to_dict()
        par = Params.from_dict({**d, "t1": 5.0, "t2": 3.0, "t3": 1.0})
        assert (par.t1, par.t2, par.t3) == (5.0, 3.0, 1.0)
        for t1 in (2.0, 9.0):
            with pytest.raises(ValueError, match="cutoff chain violated"):
                Params.from_dict({**d, "t1": t1, "t2": 3.0, "t3": 1.0})
        with pytest.raises(TypeError):
            explicit_params(n=16, N=4, p=0.3, k=8, t1=5.0)

    def test_slacks_pinned_as_in_derived_mode(self):
        par = explicit_params(n=16, N=4, p=0.3, k=8, epsilon=0.2)
        assert close(par.eps1, 0.2 ** 3) and close(par.eps2, 0.2 ** 6)
        with pytest.raises(TypeError):
            explicit_params(n=16, N=4, p=0.3, k=8, eps1=0.01)

    def test_n1_degenerate_provenance_is_nan(self):
        par = explicit_params(n=1, N=2, p=0.5, k=1)
        assert math.isnan(par.beta) and math.isnan(par.kappa)


class TestFeasible:
    def test_clamps_small_scales(self):
        par = feasible_params(1000)
        assert par.mode == "clamped"
        assert par.N == 32  # ceil(sqrt(1000))
        assert par.injectable
        # p, k, cutoffs keep the derived formulas
        ref = derive_params(1000)
        assert close(par.p, ref.p) and par.k == ref.k
        assert close(par.t1, ref.t1)

    def test_identity_when_already_feasible(self):
        assert feasible_params(10000) == derive_params(10000)
        assert feasible_params(10000).mode == "derived"

    def test_clamped_keeps_the_derived_fields(self):
        # every field but N and mode is the derived one, at every clamped n
        others = [f.name for f in fields(Params) if f.name not in ("N", "mode")]
        clamped = 0
        for n in range(100, 5501):
            par, ref = feasible_params(n), derive_params(n)
            if par.mode == "derived":
                assert par == ref
                continue
            clamped += 1
            assert par.mode == "clamped" and par.N == math.ceil(math.sqrt(n))
            assert [getattr(par, f) for f in others] == \
                [getattr(ref, f) for f in others]
        assert clamped > 5000

    def test_minimality(self):
        for n in (150, 1000, 2000, 5000):
            par = feasible_params(n)
            if par.mode == "clamped":
                assert par.N * par.N >= n > (par.N - 1) * (par.N - 1)


class TestRecord:
    def test_roundtrip(self):
        for par in (derive_params(10000), explicit_params(n=9, N=3, p=1.0, k=3),
                    feasible_params(1000)):
            again = Params.from_dict(par.to_dict())
            assert again == par

    def test_record_carries_conventions(self):
        d = derive_params(500).to_dict()
        assert "eps1 = epsilon**3" in d["convention_eps"]
        assert d["mode"] == "derived"
        for key in ("n", "N", "p", "k", "t1", "t2", "t3", "C",
                    "beta", "kappa", "eps1", "eps2", "epsilon"):
            assert key in d

    def test_record_key_order(self):
        # the order of the params: lines in every text report
        assert list(derive_params(500).to_dict()) == [
            "n", "N", "p", "k", "epsilon", "eps1", "eps2", "beta", "kappa",
            "t1", "t2", "t3", "C", "mode", "convention_eps",
            "convention_rounding"]

    def test_conventions_are_computed_not_stored(self):
        names = {f.name for f in fields(Params)}
        assert not names & {"eps1", "eps2", "C", "cells"}
        for par in (derive_params(10000, epsilon=0.2),
                    explicit_params(n=16, N=4, p=0.3, k=8, epsilon=0.2)):
            assert (par.eps1, par.eps2, par.C) == \
                (par.epsilon ** 3, par.epsilon ** 6, 3.0 * math.sqrt(20.0))

    @pytest.mark.parametrize("key, value", [
        ("eps1", 0.06), ("eps2", 0.05), ("C", 1000.0), ("eps1", 0.1 ** 2),
        ("eps2", 0.1 ** 3), ("C", 3.0 * math.sqrt(20.0) * (1 + 1e-9))])
    def test_disagreeing_record_rejected(self, key, value):
        d = derive_params(2000).to_dict()
        d[key] = value
        with pytest.raises(ValueError,
                           match=f"^{key} = .* is not the convention's "):
            Params.from_dict(d)

    @pytest.mark.parametrize("key", ["N", "k", "p", "t1", "t2", "t3"])
    def test_derived_record_follows_its_formulas(self, key):
        par = derive_params(10000, epsilon=0.15)
        d = par.to_dict()
        if key in ("N", "k"):
            d[key] += 1
        else:
            d[key] = math.nextafter(d[key], math.inf)
            Params.from_dict(d)  # one ulp: ** rounding
            d[key] *= 1 + 1e-9
        with pytest.raises(ValueError,
                           match=f"^{key} = .* is not the derived formula's "):
            Params.from_dict(d)
        # an explicit record states its own values
        explicit = explicit_params(n=16, N=4, p=0.3, k=8).to_dict()
        explicit[key] += 1 if key in ("N", "k") else 1e-3
        Params.from_dict(explicit)

    def test_unknown_mode_rejected(self):
        # a mode outside the three would skip the formula check
        d = derive_params(10000).to_dict()
        d["mode"], d["p"] = "bogus", 0.5
        with pytest.raises(ValueError,
                           match="^mode = 'bogus' is not derived, clamped or "):
            Params.from_dict(d)

    def test_record_agrees_up_to_rounding(self):
        # a C library may round ** differently in the last bit
        par = derive_params(10000, epsilon=0.15)
        d = par.to_dict()
        for key in ("eps1", "eps2", "C"):
            d[key] = math.nextafter(d[key], math.inf)
        assert Params.from_dict(d) == par
        for key in ("eps1", "eps2", "C"):
            short = dict(d)
            del short[key]
            with pytest.raises(KeyError):
                Params.from_dict(short)

    def test_frozen(self):
        par = derive_params(500)
        with pytest.raises(Exception):
            par.n = 12
