import numpy as np
import pytest

from ckkslt import ckks


@pytest.fixture(scope="session")
def toy_params():
    # N=2^10, L+1=5, alpha=5 (beta=1), delta=2^40
    return ckks.CkksParams.make(ring_dim=2**10, levels=5, alpha=5, prime_bits=44)


@pytest.fixture(scope="session")
def small_params():
    return ckks.CkksParams.make(ring_dim=2**8, levels=3, alpha=3, prime_bits=30)


@pytest.fixture(scope="session")
def toy_keys(toy_params):
    rng = np.random.default_rng(1234)
    sk, pk = ckks.keygen(toy_params, rng)
    return sk, pk


# the acceptance plans (n=64 on toy_params) and a second three-layer split
ACCEPTANCE_PLANS = {"diagonal": ("diagonal", ()), "bsgs": ("bsgs", (8, 8)),
                    "dh-bsgs": ("dh-bsgs", (8, 8)), "th-bsgs": ("th-bsgs", (4, 4, 4)),
                    "th-bsgs (2,4,8)": ("th-bsgs", (2, 4, 8))}


@pytest.fixture(scope="session")
def acceptance_lt(toy_params, toy_keys):
    """One ciphertext of a 64-slot vector, and per entry of ACCEPTANCE_PLANS
    the plan's packed random matrix and its keys."""
    from ckkslt import linear

    sk, pk = toy_keys
    rng = np.random.default_rng(4321)
    v = np.tile(rng.uniform(-1, 1, 64), toy_params.slots // 64)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    packed = {}
    for name, (method, factors) in ACCEPTANCE_PLANS.items():
        plan = linear.LtPlan(linear.LtMethod(method), 64, factors)
        keys = linear.generate_lt_keys(sk, plan, toy_params, rng)
        packed[name] = linear.diagonalize(rng.uniform(-1, 1, (64, 64)), plan, toy_params), keys
    return ct, packed
