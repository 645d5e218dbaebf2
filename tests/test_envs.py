import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safegames import validate
from safegames.envs import (GridworldParams, RandomGameParams, gridworld,
                            random_game)
from safegames import oracle, safety
from grid_reference import gridworld_arrays


def test_random_game_deterministic():
    a = random_game(RandomGameParams(seed=7))
    b = random_game(RandomGameParams(seed=7))
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.reward, b.reward)
    assert np.array_equal(a.constraint, b.constraint)
    c = random_game(RandomGameParams(seed=8))
    assert not np.array_equal(a.reward, c.reward)


def test_random_game_hazard_counts():
    none = random_game(RandomGameParams(n_states=8, hazard_fraction=0.0))
    assert (none.constraint == 1.0).all()
    quarter = random_game(RandomGameParams(n_states=8, hazard_fraction=0.25))
    assert (quarter.constraint == -1.0).sum() == 2  # floor(0.25 * 8)
    assert (quarter.constraint == 1.0).sum() == 6


def test_random_game_validates():
    spec = random_game(RandomGameParams(seed=3))
    assert validate(spec).ok


def test_random_game_param_guards():
    with pytest.raises(ValueError):
        random_game(RandomGameParams(hazard_fraction=1.0))
    with pytest.raises(ValueError):
        random_game(RandomGameParams(n_states=0))


def test_gridworld_no_hazards_all_safe():
    spec = gridworld(GridworldParams(width=4, height=4, hazard_cells=(),
                                     goal_cell=(3, 3)))
    assert (spec.constraint == 8.0).all()  # width + height sentinel
    assert oracle.viability_kernel(spec).all()


def test_gridworld_constraint_is_chebyshev_distance_minus_one():
    spec = gridworld(GridworldParams(width=4, height=4,
                                     hazard_cells=((1, 1),), goal_cell=(3, 3)))
    h = spec.constraint.reshape(4, 4)  # [row=y][col=x]
    assert h[1, 1] == -1.0
    assert h[0, 0] == 0.0 and h[2, 2] == 0.0  # Chebyshev neighbours
    assert h[1, 3] == 1.0
    assert h[3, 3] == 1.0


def test_gridworld_rewards():
    spec = gridworld(GridworldParams(width=3, height=2, hazard_cells=(),
                                     goal_cell=(2, 1)))
    goal = 1 * 3 + 2
    assert (spec.reward[goal] == 1.0).all()
    others = np.delete(spec.reward, goal, axis=0)
    assert (others == -0.01).all()


def test_gridworld_dynamics_composition():
    spec = gridworld(GridworldParams(width=3, height=3, hazard_cells=(),
                                     goal_cell=(2, 2), adversary_strength=1))
    # from the centre (1,1): move E to (2,1), push W back to (1,1)
    centre = 1 * 3 + 1
    assert spec.transition[centre, 3, 4] == centre
    # move N to (1,2), push N clips at the top wall
    assert spec.transition[centre, 1, 1] == 2 * 3 + 1
    weak = gridworld(GridworldParams(width=3, height=3, hazard_cells=(),
                                     goal_cell=(2, 2), adversary_strength=0))
    # with strength 0 every push column is the bare move
    assert (weak.transition[centre, 3, :] == 1 * 3 + 2).all()


def test_gridworld_corner_hazard_membership():
    # All 15 non-hazard cells can hold the constraint at or above zero.
    spec = gridworld(GridworldParams(width=4, height=4,
                                     hazard_cells=((0, 0),), goal_cell=(3, 3),
                                     adversary_strength=0))
    inv = safety.extract_invariant_set(safety.solve(spec), spec)
    assert inv.member_count() == 15
    assert not inv.member[0]


def test_gridworld_adversary_never_enlarges_the_set():
    for hazard in ((0, 0), (1, 1), (2, 0)):
        masks = {}
        for strength in (0, 1):
            spec = gridworld(GridworldParams(
                width=4, height=4, hazard_cells=(hazard,), goal_cell=(3, 3),
                adversary_strength=strength))
            masks[strength] = safety.extract_invariant_set(
                safety.solve(spec), spec).member
        assert (~masks[1] | masks[0]).all()  # strength 1 subset of strength 0


def test_gridworld_strong_adversary_shrinks_inner_level_set():
    # With a positive safety margin the push adversary strictly shrinks the
    # set of states that can hold it: holding distance >= 2 from an interior
    # hazard is possible from 7 cells alone but only 3 under pushes.
    counts = {}
    for strength in (0, 1):
        spec = gridworld(GridworldParams(
            width=4, height=4, hazard_cells=((1, 1),), goal_cell=(3, 3),
            adversary_strength=strength))
        inv = safety.extract_invariant_set(safety.solve(spec), spec,
                                           threshold=0.5)
        counts[strength] = inv.member
    assert (~counts[1] | counts[0]).all()
    assert counts[1].sum() < counts[0].sum()
    assert counts[0].sum() == 7 and counts[1].sum() == 3


def test_gridworld_param_guards():
    with pytest.raises(ValueError):
        gridworld(GridworldParams(width=1, height=4))
    with pytest.raises(ValueError):
        gridworld(GridworldParams(hazard_cells=((0, 0),), goal_cell=(0, 0)))
    with pytest.raises(ValueError):
        gridworld(GridworldParams(hazard_cells=((9, 0),)))
    with pytest.raises(ValueError):
        gridworld(GridworldParams(adversary_strength=2))


def _assert_matches_reference(params):
    spec = gridworld(params)
    for built, ref in zip((spec.transition, spec.reward, spec.constraint),
                          gridworld_arrays(params)):
        assert built.dtype == ref.dtype
        assert np.array_equal(built, ref)


@st.composite
def grid_params(draw):
    """Grids of 2-12 cells a side, up to six hazards and a goal that is not
    a hazard, at adversary strength 0 or 1."""
    w, h = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    cells = draw(st.lists(st.integers(0, w * h - 1), min_size=1, max_size=7,
                          unique=True))
    goal, *hazards = [(c % w, c // w) for c in cells]
    return GridworldParams(width=w, height=h, hazard_cells=tuple(hazards),
                           goal_cell=goal,
                           adversary_strength=draw(st.sampled_from((0, 1))))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(grid_params())
def test_gridworld_equals_the_cell_loop(params):
    _assert_matches_reference(params)


def test_gridworld_equals_the_cell_loop_on_a_bench_sized_grid():
    rng = np.random.default_rng(0)
    cells = np.sort(rng.choice(32 * 32 - 1, 30, replace=False))
    _assert_matches_reference(GridworldParams(
        width=32, height=32,
        hazard_cells=tuple((int(c % 32), int(c // 32)) for c in cells),
        goal_cell=(31, 31), adversary_strength=1))
