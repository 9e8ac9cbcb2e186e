import numpy as np
import pytest

from ergodic_smpc import DiscreteIFS, GenerationSpec, MPCProblem, NoiseSpec, generate_problem


@pytest.fixture
def scalar_problem():
    """A = 0.5, B = Q = R = 1, z = 0, noise entry at (0, 0) with h = 0.005."""
    return MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                      noise=NoiseSpec(pattern=((0, 0),), bound=0.005))


@pytest.fixture
def scalar_tracking_problem():
    """Same plant but tracking z = 1 with no noise; fixed point 2/3."""
    return MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[1.0],
                      noise=NoiseSpec(pattern=((0, 0),), bound=0.0))


@pytest.fixture
def four_state_problem():
    return generate_problem(GenerationSpec.default(), seed=11)


@pytest.fixture
def bernoulli_ifs():
    """S1 = x/2, S2 = (x+1)/2 with equal probabilities; invariant U[0, 1]."""
    return DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                       probs=np.array([0.5, 0.5]))
