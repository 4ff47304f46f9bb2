# Golden snapshot of eleven fits across both estimators and both families.
# A refactor of the solvers must leave every recorded value unchanged bit for
# bit; a change that moves the fits on purpose re-records the snapshot and
# says why. To print the current values in the layout of GOLDEN:
#     PYTHONPATH=src python tests/test_golden.py

import dataclasses
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from symreg import (
    BERNOULLI,
    FitConfig,
    SymCPFactors,
    default_pipeline,
    fit_cp,
    fit_sym_cp,
    fit_sym_tensor,
)
from symreg.simulate import SignalShape, shape_signal, synth_dataset


def _gaussian():
    return synth_dataset(shape_signal(SignalShape("cross", 16)), 150, p0=2, seed=21)


def _bernoulli():
    b0 = 0.3 * shape_signal(SignalShape("two_box", 16))
    return synth_dataset(b0, 160, p0=2, seed=22, family=BERNOULLI)


def _random_init(seed, p, rank):
    rng = np.random.default_rng(seed)
    return SymCPFactors(None, rng.standard_normal((p, rank)))


def _small_sym_inputs():
    """b0 (6 x 6) and two random B inits, drawn in turn from one stream."""
    rng = np.random.default_rng(404)
    b0 = rng.standard_normal((6, 6)) * 0.4
    init_gaussian = rng.standard_normal((6, 2))
    return (b0 + b0.T) / 2.0, init_gaussian, rng.standard_normal((6, 2)) * 0.5


def _fit(name):
    cfg = FitConfig(rank=2, max_outer_iters=15)
    if name == "cp_rho0":
        return fit_cp(_gaussian(), replace(cfg, rho=0.0, seed=1))
    if name == "cp_lasso":
        return fit_cp(_gaussian(), replace(cfg, rho=0.5, max_outer_iters=8, seed=2))
    if name == "cp_bernoulli":
        cfg = replace(cfg, rho=0.1, max_outer_iters=6, seed=3)
        return fit_cp(_bernoulli(), cfg)
    if name == "sym_cp":
        return fit_sym_cp(_gaussian(), replace(cfg, rho=0.0, seed=4))
    if name == "sym_tensor":
        cfg = replace(cfg, rho=0.3, max_outer_iters=20, seed=5)
        return fit_sym_tensor(_gaussian(), cfg, _random_init(5, 16, 2))
    if name == "sym_tensor_small":
        b0, init, _ = _small_sym_inputs()
        data = synth_dataset(b0, 80, p0=2, sigma=0.5, seed=11)
        cfg = FitConfig(rank=2, rho=0.3, max_outer_iters=12)
        return fit_sym_tensor(data, cfg, SymCPFactors(None, init))
    if name == "sym_tensor_bernoulli":
        b0, _, init = _small_sym_inputs()
        data = synth_dataset(b0 * 0.5, 150, p0=2, seed=12, family=BERNOULLI)
        cfg = FitConfig(rank=2, rho=0.2, max_outer_iters=12)
        return fit_sym_tensor(data, cfg, SymCPFactors(None, init))
    if name == "pipeline_gaussian":
        cfg = replace(cfg, rho=0.2, max_outer_iters=10, seed=7)
        return default_pipeline(_gaussian(), cfg)
    if name == "pipeline_rho0":
        # rho=0 at R >= 2: ridge-only CP blocks and a ridged symmetric B block
        return default_pipeline(_gaussian(), replace(cfg, rank=3, rho=0.0, seed=9))
    if name == "cp_rank1":
        # rho=0 at R=1: a full-rank CP block, solved by lstsq
        return fit_cp(_gaussian(), replace(cfg, rank=1, rho=0.0, seed=10))
    if name == "pipeline_bernoulli":
        cfg = replace(cfg, rho=0.1, max_outer_iters=6, seed=8)
        return default_pipeline(_bernoulli(), cfg)
    raise ValueError(name)


def _sha(a):
    raw = np.ascontiguousarray(a, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()


def snapshot(res):
    """What the golden test pins of one FitResult."""
    factors = {
        f.name: _sha(getattr(res.factors, f.name))
        for f in dataclasses.fields(res.factors)
    }
    return {
        "objective_trace": [float(v) for v in res.objective_trace],
        "coef_full": _sha(res.coef_full),
        "gamma": _sha(res.gamma),
        "factors": factors,
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "ridged": res.meta.get("ridged"),
        "lasso_calls": res.meta.get("lasso_calls"),
        "lasso_capped": res.meta.get("lasso_capped"),
    }


FIT_NAMES = (
    "cp_rho0",
    "cp_lasso",
    "cp_bernoulli",
    "sym_cp",
    "sym_tensor",
    "sym_tensor_small",
    "sym_tensor_bernoulli",
    "pipeline_gaussian",
    "pipeline_bernoulli",
    "pipeline_rho0",
    "cp_rank1",
)

# All nine fixtures were re-recorded when every pass over X moved to the
# upper-triangle rows of CovariateOperator; each line gives the largest
# relative change of coef_full (and of the final objective where it is not
# rounding). cp_rho0, sym_cp and pipeline_rho0 move most: their rho = 0 CP
# blocks at R = 2, 3 are rank-deficient (antisymmetric null directions) and
# solved with a 1e-8 ridge, so a rounding change is amplified along those
# directions, changes the next block's design and so the unconverged
# 15-iteration path. The old code is as sensitive: a one-ulp change of y
# moved cp_rho0's coef_full by 8e-5 and its objective by 1e-5.
GOLDEN = {
    # re-recorded for upper-triangle X rows: coef 5e-4, objective 5e-5 (ridge; above)
    "cp_rho0": {
        "objective_trace": [
            6119.8683347939, 310.30280559701976, 67.88607775455061, 57.46834465094711,
            52.63196178918643, 48.404971327624665, 46.11385639785989,
            44.81755518326443, 43.98026629285758, 43.401146426124235,
            42.98109639962654, 42.66305194479233, 42.41031121862841, 42.19898386707024,
            42.01274616409816, 41.840080786129874,
        ],
        "coef_full": "60e6c7a0a7c2a269fe6c3cea9d5b52762b27887ed94bfb7bbffa3ca151671dbb",
        "gamma": "ec38462fd32092a02a2ea7e672ab161d33f1c13bdbd00c6f4b420ded942a7c0a",
        "factors": {
            "B1": "0b33f9c82249aaf180587ef949596215e1da2d2a97e6ad1a35cbf743171fe607",
            "B2": "d484274e8f38e4fd1d9618455171f1827be1fcd6b54be5d4ef53b985423d3d34",
        },
        "iterations": 15,
        "converged": False,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded when the Gaussian CP lasso moved to FISTA with restart, stopping
    # at a KKT residual of 1e-4 relative to its block instead of at its cap
    # re-recorded for upper-triangle X rows: coef 2e-13 (rounding)
    "cp_lasso": {
        "objective_trace": [
            6834.734552180622, 160.090279944019, 86.55987443911783, 79.32391089247619,
            76.11856758554683, 74.0128389423233, 72.34083412794757, 70.67835787117431,
            68.99848691859037,
        ],
        "coef_full": "819b2c097a9ca1eea27d713869f143f58ac0651517fc8747536ba82856518cda",
        "gamma": "76e6d5bde3c8a27104acd5a10afb919bcdbf06a7739779bfb3b585f1f651de89",
        "factors": {
            "B1": "6b96d30bf6f50e8d922c5d003b8cb6f189344360ce348aab2a3c5dec2f6a5195",
            "B2": "09989ac22e045dda096d3e1440da9d0d8aa6d44a8396b77e07f4479bc82ac1b4",
        },
        "iterations": 8,
        "converged": False,
        "ridged": False,
        "lasso_calls": 16,
        "lasso_capped": 0,
    },
    # re-recorded when the Bernoulli CP lasso moved from backtracking ISTA to
    # the gaussian path's FISTA loop at the fixed step 1/L, L = eigmax(Z'Z)/4,
    # and again when IRLS (its gamma blocks) moved from the |grad| <= 1e-8 test
    # to the Newton-decrement stop, which ends a call about one iteration sooner
    # re-recorded for upper-triangle X rows: coef 7e-13 (rounding)
    # re-recorded when the Bernoulli lasso moved from that fixed step to
    # proximal Newton on the weighted Gram Z'WZ: no block stops at the cap
    # (2 of 12 did), the lasso runs 2,598 iterations instead of 4,917, and
    # the final objective is 8.6737 instead of 8.8874
    "cp_bernoulli": {
        "objective_trace": [
            327.69594719960645, 30.328260736761663, 19.368857385135875,
            12.978393982531028, 10.355921670330893, 9.189729169409922,
            8.673654913527571,
        ],
        "coef_full": "c197e656ce49521c0839d87545625c8d2037141393af753e380c888552527976",
        "gamma": "84ca4f4781fd2770912207c8bca0a52ba6338ecd8c34b6a09b335a4ddf2c0a8e",
        "factors": {
            "B1": "15e13f73e5d1ac8d0265007c7f8c9dd67c63c30bba558f365f0367bc6656656c",
            "B2": "56894135d7616e008f78d30e2b660e15b35e37fae4ab95320b3fc707df865d4e",
        },
        "iterations": 6,
        "converged": False,
        "ridged": False,
        "lasso_calls": 12,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 2e-5, objective 2e-6 (ridge; above)
    "sym_cp": {
        "objective_trace": [
            16536.283243139336, 335.34319311517777, 73.86320510201097,
            58.056426590294436, 54.71836293481855, 52.909211422220686,
            51.72594349344339, 50.89584941503013, 50.262289914757005,
            49.715755688617215, 49.176910945175635, 48.57580843176457,
            47.82398877000725, 46.80771877990684, 45.50218534813048, 44.20134656419436,
        ],
        "coef_full": "97f44e24dc5a256dc649584749c0db2cc92c2c442063a1a2417eaeed850c3176",
        "gamma": "c9daf863989b1a5f07e43243a3473ab275fa9210011e0be6bc51805c390f829f",
        "factors": {
            "B1": "452b13b37793da8cbf013df36232e1a158dc7386ecd020293956a70494d89627",
            "B2": "7db91c000b1da2691bb14ff654baea649b39bf5ee62668b85f2ee1bde9fbba47",
        },
        "iterations": 15,
        "converged": False,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 7e-15 (rounding)
    # re-recorded when an init without lam started at lam = 0 instead of at
    # an unpenalized lam-GLM before the loop: the first outer iteration's
    # lam-GLM now sets lam, after the first gamma-GLM. The trace starts at the
    # zero coefficient (1174.648 instead of 950.992) and ends at 79.1572
    # instead of 79.2799; coef_full moved 5% of its largest entry
    # re-recorded when the gaussian B block became one prox-linear
    # (Gauss-Newton) step on the Jacobian design, solved like a CP block,
    # instead of 5 proximal-gradient steps (prox_update_B).
    # From the random init it ends at 84.6031 instead of 79.1572 (+6.9%),
    # both capped at 20; coef_full moved 2.5x its largest entry. 2 of its 20
    # lasso calls stop at CP_LASSO_MAX_ITER
    "sym_tensor": {
        "objective_trace": [
            1174.6482107023508, 745.6796229041186, 480.2621178426408,
            342.73521362979307, 109.74225233184298, 88.90065638171136,
            86.87288164656434, 86.46487372554881, 86.18164438748113, 85.92005634447112,
            85.65510725409004, 85.43392384151755, 85.22883018031195, 85.15056538438726,
            85.08094314735558, 85.01545480819905, 84.85565976312259, 84.78421752000747,
            84.72099762043686, 84.66151882393055, 84.6031144160249,
        ],
        "coef_full": "82b35bcbe93df8593f87cdbc1ed76a8889e5ebb4e98d688d3a3cedc1602117df",
        "gamma": "fa0d551744bf337ad73e1883bfe393579723722986b6a8e408536a293a349845",
        "factors": {
            "lam": "13730bb356f338771e381d054f74e6977acc47636055275dc5fcd4d4daf568f7",
            "B": "9cbb62274f864166764c5d75d882ea36f4aca0dccb4a9677817f5c0b8880d76b",
        },
        "iterations": 20,
        "converged": False,
        "ridged": False,
        "lasso_calls": 20,
        "lasso_capped": 2,
    },
    # a small Gaussian bare symmetric fit (p = 6, n = 80), first pinned in
    # test_solvers with the unbatched line search; the fits must not depend on
    # how prox_update_B screens its candidates
    # re-recorded when an init without lam started at lam = 0 instead of at
    # an unpenalized lam-GLM before the loop: the first outer iteration's
    # lam-GLM now sets lam, after the first gamma-GLM.
    # It ends at 13.9774 instead of 14.1006; coef_full moved 10% of its
    # largest entry
    # re-recorded when the gaussian B block became one prox-linear
    # (Gauss-Newton) step on the Jacobian design, solved like a CP block,
    # instead of 5 proximal-gradient steps (prox_update_B).
    # It ends at 11.6507 instead of 13.9774 (-16.6%), both capped at 12;
    # coef_full moved 1.3x its largest entry
    "sym_tensor_small": {
        "objective_trace": [
            140.92758920129478, 26.054114669037578, 15.488469844102067,
            13.036205091792397, 12.46425726953019, 12.231281283799715,
            12.108236677517459, 12.083584472926738, 11.970551636446988,
            11.8656891245577, 11.797614898534665, 11.723226444038646,
            11.650690600512926,
        ],
        "coef_full": "9e55a68749f9f963b71a1ec05cd7e5016918fd1f48e240fb2199fff5036d772b",
        "gamma": "775c5a11741cd899f69611538e5301b16d82bc841d7bd9c03d733265a960b40b",
        "factors": {
            "lam": "7b8ebbc7edf88ba0b955f6e2f070d220b096cbe1f46badd5061c60c3e685b5da",
            "B": "2604a65dd864172ecbf3e27098352a40ebdea3f4edec64d7454172a4695b32a2",
        },
        "iterations": 12,
        "converged": False,
        "ridged": False,
        "lasso_calls": 12,
        "lasso_capped": 0,
    },
    # the one pinned bare logistic symmetric fit (p = 6, n = 150), first
    # pinned in test_solvers with sym_tensor_small
    # re-recorded when an init without lam started at lam = 0 instead of at
    # an unpenalized lam-GLM before the loop: the first outer iteration's
    # lam-GLM now sets lam, after the first gamma-GLM.
    # It ends at 58.3011 instead of 58.2989, slightly higher; coef_full moved
    # 4% of its largest entry
    "sym_tensor_bernoulli": {
        "objective_trace": [
            104.76105412257971, 64.636329085698, 62.15540840756187, 61.95585459029078,
            61.75722036850587, 61.49717470342532, 60.923048380464515, 59.91618467086647,
            59.39637686283158, 58.664509322995606, 58.48056726647639,
            58.367610994124554, 58.30106599407748,
        ],
        "coef_full": "25e96e4682a85ab880b626b24888e0a358a8cb53c60a93f3847a3ec035e10299",
        "gamma": "b864b878ed46e945310fc6fecdde2ff6f4e5af2d619d1e251977e7131bf8a5ae",
        "factors": {
            "lam": "5055b672a1c75c28975c8e65c11ec4411fd68e2843c4afb9eaba1f6edb816b5f",
            "B": "4aac38a168842c36b7c3a854168480742dd1040e889cd6408e0bf0b4448b6d2a",
        },
        "iterations": 12,
        "converged": False,
        "ridged": False,
        "lasso_calls": None,
        "lasso_capped": None,
    },
    # re-recorded for upper-triangle X rows: coef 4e-13 (rounding)
    # re-recorded when the gaussian B block became one prox-linear
    # (Gauss-Newton) step on the Jacobian design, solved like a CP block,
    # instead of 5 proximal-gradient steps (prox_update_B).
    # It converges in 4 outer iterations instead of 7, at 71.3938 instead of
    # 71.3844 (+0.013%); coef_full moved 3.4% of its largest entry
    "pipeline_gaussian": {
        "objective_trace": [
            252.23322762374283, 71.94010601683455, 71.42378367195731, 71.4002015037352,
            71.39375280286937,
        ],
        "coef_full": "a1fadcd878a45cd16bd12a9469c47d86ae346fab295a86958b030eefd08b223e",
        "gamma": "d98add00e9c0a5c3112316420c50d595d458b63624179bba4e3fa817d8a742db",
        "factors": {
            "lam": "fb66f4e5705131a4ed49bfff5c862e23fa43482ba2d7e855cc85e4c75f6c713e",
            "B": "4c75c95d97f7031464cef2984946ccd8f6bd68691c43a6c44e83ce48d1c27fc4",
        },
        "iterations": 4,
        "converged": True,
        "ridged": False,
        "lasso_calls": 4,
        "lasso_capped": 0,
    },
    # re-recorded with cp_bernoulli: the CP baseline it starts from moved, and
    # its own gamma- and lam-GLM blocks run the same IRLS
    # re-recorded for upper-triangle X rows: coef 1e-11 (rounding)
    # re-recorded with cp_bernoulli for the proximal-Newton lasso: its CP
    # baseline (seed 8) caps 2 of 12 blocks instead of 11, but after its 6
    # outer iterations ends at 11.229 instead of 9.120; the first block,
    # from a random start, spends its 500 iterations on two Newton steps. The
    # symmetric fit started from that baseline ends at 21.490 instead of
    # 17.348. The cheaper softplus in negloglik alone leaves this fit
    # unchanged.
    "pipeline_bernoulli": {
        "objective_trace": [
            445.6654696326064, 38.9340070557172, 25.452769964594516,
            23.157928957214757, 22.446159854508746, 21.818902210335366,
            21.490179475564187,
        ],
        "coef_full": "84e51221c7d6bb2bdcca9021fd20eb9b52f8a80ee02fe3ce397d2ad788a34ba9",
        "gamma": "61416925992f742f49d3f339443b55423b675c6fe2a596f1157fcdb3105e8a64",
        "factors": {
            "lam": "15c68067641c3a764fbf7915534ec1d1d6880c23468806793d3ba708a0906407",
            "B": "83cd2de1431b48edb3b50e2235a36a160dfe57287dc4030e70a4ba31b80027ed",
        },
        "iterations": 6,
        "converged": False,
        "ridged": False,
        "lasso_calls": None,
        "lasso_capped": None,
    },
    # re-recorded for upper-triangle X rows: coef 3e-5, objective 4e-6 (ridge; above)
    # re-recorded when the gaussian B block became one prox-linear
    # (Gauss-Newton) step on the Jacobian design, solved like a CP block,
    # instead of 5 proximal-gradient steps (prox_update_B).
    # At rho = 0 the step is the ridged least-squares solve. It converges in
    # 13 outer iterations, at 52.6839, where the prox steps were capped at 15
    # at 61.7084 (-14.6%); coef_full moved 3.5x its largest entry
    "pipeline_rho0": {
        "objective_trace": [
            1007.0152143993319, 88.23495553125133, 64.8389679791263, 57.284491212705184,
            55.23047381405217, 54.037019786499954, 53.46703300894566, 53.09869582220889,
            52.89122200194293, 52.777520023348316, 52.72433220014622, 52.69959478990549,
            52.6887332157943, 52.68388479461325,
        ],
        "coef_full": "a296ecad1308c4c0962dc758f103fbcd21a1327090165a2e359f8196b986d268",
        "gamma": "e0a5ead734cc85f6c72182b20297e35fb9f19c16e8f291ccdfba69d917e5ca40",
        "factors": {
            "lam": "a938b30333994ebb72c918927e1bb6fa2f7b991a64774af08b184e904a840987",
            "B": "b424bfa51e31c7314181992a737c41953dc140254f2ede4c2457c2a12c7ea1d1",
        },
        "iterations": 13,
        "converged": True,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 5e-15 (rounding)
    "cp_rank1": {
        "objective_trace": [
            2101.637821488973, 304.7687924266278, 82.80300457173018, 72.22166538899982,
            70.26846488055878, 69.9888347875519, 69.92435667935857, 69.8393264711026,
            69.66918253758726, 69.38822556199065, 69.05063236700514, 68.75258474359339,
            68.52643649858204, 68.3561677128261, 68.22344136226481, 68.11637881246995,
        ],
        "coef_full": "11c8c42ff51ad6d839a535f192f95b8433f19eeb0c00dfc0e55d97b19d983a56",
        "gamma": "83f765c7188c858d2787402df25cbeb4fda5044b8c40eb373ec57dbd82c65256",
        "factors": {
            "B1": "d4ef44c0f5627217cbb8f422d941a2eb1f035ac217d40b28290eb7d80cf87f88",
            "B2": "9f70f0361a8b3210b5832891d96a30f007924c81f431ca3c1a09248c58445f0c",
        },
        "iterations": 15,
        "converged": False,
        "ridged": False,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
}


@pytest.mark.parametrize("name", FIT_NAMES)
def test_fit_matches_golden_snapshot(name):
    assert snapshot(_fit(name)) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: snapshot(_fit(name)) for name in FIT_NAMES}, width=88)
