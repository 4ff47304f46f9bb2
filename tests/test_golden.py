# Golden snapshot of nine fits across both estimators and both families.
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
    if name == "pipeline_gaussian":
        cfg = replace(cfg, rho=0.2, max_outer_iters=10, seed=7)
        return default_pipeline(_gaussian(), cfg)
    if name == "pipeline_rho0":
        # rho=0 at R >= 2: ridge-only CP blocks and the unpenalized prox step
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
    "pipeline_gaussian",
    "pipeline_bernoulli",
    "pipeline_rho0",
    "cp_rank1",
)

GOLDEN = {
    "cp_rho0": {
        "objective_trace": [
            6119.8683347939, 310.3028171368752, 67.88604372967183, 57.46823219266507,
            52.63158074171325, 48.404522549898715, 46.11344277323185,
            44.817117991770004, 43.97964879131917, 43.400233377302044,
            42.980227564822464, 42.661989916493496, 42.40925028229036,
            42.197663476100885, 42.010999717825456, 41.83799701361506,
        ],
        "coef_full": "b0f25405d73b07ed002a42200e9b09d1ed5c7301b252ac1fc0ec40d063e291a7",
        "gamma": "c8e1ecacb68db266f72ce519ad06b183de77ac72b9fbc0b2517051fe78b8994a",
        "factors": {
            "B1": "a67185fe00f920f88bae6641d879b1df8537e4c0eb4cbafebf74115cd0963f27",
            "B2": "9f32028baa158fa7005c7deed7441662f5de7b43bb60ed1854c5cb6f64379129",
        },
        "iterations": 15,
        "converged": False,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded when the Gaussian CP lasso moved to FISTA with restart, stopping
    # at a KKT residual of 1e-4 relative to its block instead of at its cap
    "cp_lasso": {
        "objective_trace": [
            6834.734552180622, 160.090279944019, 86.55987443911782, 79.32391089247639,
            76.11856758554654, 74.0128389423224, 72.34083412794678, 70.67835787117306,
            68.99848691858696,
        ],
        "coef_full": "51773fd95a3e0fd47a97e7c066c9ad8a40db340ff8559557bb183c4c56a8581e",
        "gamma": "ee6666fd8075943884d0e644ef89e10750ed3dcd9b0e6d9166b70779cb89a1f4",
        "factors": {
            "B1": "8aaa0b1f10b7c0cc884354826264240b34c0d2d8c1f1805b2808c351d1a3dd6b",
            "B2": "2054b6dd0450c9686acfea33f51eea47786224cd0d68fb8bd849b2f29d083f9f",
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
    "cp_bernoulli": {
        "objective_trace": [
            327.6959471996064, 30.214942306827762, 19.14933049590976,
            12.982160289390322, 10.428482938597517, 9.436171071743962,
            8.887379863747014,
        ],
        "coef_full": "46c3f738ed3facf124690ae041f9a28c320b79983e6960e9eee75ba5558e7c38",
        "gamma": "82c482ac34eb4696912309c970d322e8f1676a8c49681c3816632f19662093f0",
        "factors": {
            "B1": "bdff9f8e362f0efe3fae5ed6fef657cd00996e281487f8149a58817b08e31948",
            "B2": "daf5bb8ac3aea81b99a4d6a2edc97ff1541e7f1573365976934c838ea111bac9",
        },
        "iterations": 6,
        "converged": False,
        "ridged": False,
        "lasso_calls": 12,
        "lasso_capped": 2,
    },
    "sym_cp": {
        "objective_trace": [
            16536.283243139336, 335.3431989230048, 73.86325206219945,
            58.056503273871954, 54.71838608448766, 52.90920389027582,
            51.725923710705274, 50.89582778007191, 50.262269161334885,
            49.71573689067631, 49.17689009476033, 48.57576775489641, 47.82391775332671,
            46.80761667280363, 45.50207143403192, 44.20127389727052,
        ],
        "coef_full": "c47a4b8d53325db3de8f45458a6cf0b34c4d8fe89e7148dfa41fd756ac0c9dcf",
        "gamma": "6e7abe2be2fc69d39d7f1f5c1e2ad7d7e48a3e642a0076d3cf77646f98a8a6f4",
        "factors": {
            "B1": "0d8f4c86cb0765f6a98490b8b2de73465a08d37838a21d139e4692fdc08fa059",
            "B2": "5aace6986a81276df9a7c03b8e0f21b22de4805103e80152887bb50cdad439ee",
        },
        "iterations": 15,
        "converged": False,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    "sym_tensor": {
        "objective_trace": [
            950.9921920752806, 506.25720620261797, 201.4530625550217,
            136.45598927567085, 107.44016497088779, 85.64505642880185,
            80.84018182407534, 80.23879161270891, 79.80303404179755, 79.69302564484497,
            79.60404944652872, 79.53548468692249, 79.4291061832055, 79.40988912530554,
            79.38879190313419, 79.36905328061782, 79.35021399652426, 79.33202096602787,
            79.31431224092469, 79.29697406692793, 79.27992272248709,
        ],
        "coef_full": "29dbd8f85310e8b8039b5215ebbaeb8b072ca612f7a177513dc078ffd84af97e",
        "gamma": "47b1c55ee1ca8508d251363e9b5a19546952788ef4848cd59bcf195bd20107ed",
        "factors": {
            "lam": "e74f547fed36231974739342ef0352f221a05e92055f0e51acb49c597813d66f",
            "B": "29735abb5688791291ac59cabfb33bea37bcb218c25e860c94619afb2c17e20b",
        },
        "iterations": 20,
        "converged": False,
        "ridged": False,
        "lasso_calls": None,
        "lasso_capped": None,
    },
    "pipeline_gaussian": {
        "objective_trace": [
            252.23322762373982, 73.25992882685871, 71.91575375243099, 71.48576114205974,
            71.42420534065546, 71.40050785631844, 71.38930664245045, 71.38440630422105,
        ],
        "coef_full": "18f28ba37ff459cef835fcdc4c88116563fdf9bf70049d3f665adbd21e2a88ed",
        "gamma": "dacd8e0868d23bc298a905a2919cf964bac42138761d11d0bdb413746838c005",
        "factors": {
            "lam": "8b36283266c0b4f10320a09405f7aea8e748f1317684edd08066fe844ec1978e",
            "B": "a5880abd64929235a6d8dc8e87e0a407f9dabb224de24ea11d3c12e29f75250f",
        },
        "iterations": 7,
        "converged": True,
        "ridged": False,
        "lasso_calls": None,
        "lasso_capped": None,
    },
    # re-recorded with cp_bernoulli: the CP baseline it starts from moved, and
    # its own gamma- and lam-GLM blocks run the same IRLS
    "pipeline_bernoulli": {
        "objective_trace": [
            150.15949712874183, 33.206375825293904, 24.28544120145908,
            20.296754121651922, 18.946438974550702, 18.52948677346095,
            17.347618564473184,
        ],
        "coef_full": "e12aca63626f06854ea6f93605773998951a6db551430e8fe33df91d01f9bb5a",
        "gamma": "f2b51311f9a36bfa183fb47befc061b067d8f06d808f2a465897dd5751c47f86",
        "factors": {
            "lam": "b146769ab4a43ced731734c309b06e556604ad1f910be7f279d9fa580096f94e",
            "B": "701ff068b8c0ac596b01937b52625763800ae1f14cf887f8804cd2152dac5007",
        },
        "iterations": 6,
        "converged": False,
        "ridged": False,
        "lasso_calls": None,
        "lasso_capped": None,
    },
    "pipeline_rho0": {
        "objective_trace": [
            1006.992989249743, 85.8326650940358, 68.4563489535716, 67.44887187433997,
            66.93564402485836, 66.68836682996165, 66.42660995123248, 65.69263432366262,
            65.4603426392723, 64.0877926701584, 63.60209921448994, 63.288966347327595,
            62.741205558550654, 62.38400051542686, 62.14165138681332, 61.70865653559987,
        ],
        "coef_full": "9cc4c38c8adaefbc4a108980a38ff5c9e342ee7f0feb0fad0d38e3eb13766252",
        "gamma": "36f3c3c7d855e8e3b29c51efacfa5a4f7fbf9f409e7799c7dc45830dfa6f56b4",
        "factors": {
            "lam": "d94b7e2e18f30b70b438d4cbb5e8121af91b4fe16e69220298958754d471e884",
            "B": "74751252ac128d29a770d6cf92a5c550317af15a80eaf7b6b04e09577ed68c23",
        },
        "iterations": 15,
        "converged": False,
        "ridged": False,
        "lasso_calls": None,
        "lasso_capped": None,
    },
    "cp_rank1": {
        "objective_trace": [
            2101.6378214889723, 304.7687924266278, 82.80300457173016, 72.22166538899981,
            70.26846488055878, 69.98883478755191, 69.92435667935855, 69.83932647110262,
            69.66918253758732, 69.38822556199077, 69.05063236700522, 68.75258474359347,
            68.52643649858213, 68.35616771282614, 68.22344136226482, 68.11637881246997,
        ],
        "coef_full": "8cba82f43af79fcc5a053ecc225f723879a63c0487e2fe5c7e2867f1c01904c3",
        "gamma": "392aaaa6fee0a26c2d5452a864e196ba8c39faa99eeac6098796f0f9429f97f1",
        "factors": {
            "B1": "2ad0d6d6018647aa1d14d40f78e7db3f3107c4cc9ec2b1c6b651cf519d00f1fc",
            "B2": "063f0f952999a85d90a96d3e1e222f9bda4fd74c4cfd72e9041e0a3a25c94808",
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
