"""Environment construction, sampling laws, and text round-trips."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npghm.envs import (
    PointMassEnv,
    TabularMdp,
    Trajectory,
    bandit,
    chain,
    discounted_return,
    dump_mdp_text,
    geometric_cap,
    load_mdp_text,
    pointmass,
    random_mdp,
    sample_state_action,
    sample_trajectory,
)
from npghm.oracles import exact_state_action_visitation, exact_visitation
from npghm.policies import (
    PointMassFeatures,
    TabularSoftmaxPolicy,
    TruncatedLinearGaussianPolicy,
)
from npghm.seeding import substream


def uniform_policy(mdp):
    return TabularSoftmaxPolicy.zeros(mdp.n_states, mdp.n_actions)


class ReplayUniforms:
    """Generator stand-in whose random() hands out preset uniforms in order."""

    def __init__(self, uniforms):
        self._u = [float(x) for x in uniforms]
        self._i = 0

    def random(self, size=None):
        n = 1 if size is None else size
        out = self._u[self._i : self._i + n]
        assert len(out) == n, "ran out of preset uniforms"
        self._i += n
        return out[0] if size is None else np.array(out)


class ReplayNormals:
    """Generator stand-in whose standard_normal() hands out preset normals
    in order and whose geometric() hands out preset values in order."""

    def __init__(self, normals, geometrics=()):
        self._z = [float(x) for x in normals]
        self._g = list(geometrics)
        self.used = 0

    def standard_normal(self, size=None):
        n = 1 if size is None else size
        out = self._z[self.used : self.used + n]
        assert len(out) == n, "ran out of preset normals"
        self.used += n
        return out[0] if size is None else np.array(out)

    def geometric(self, p):
        return self._g.pop(0)


def gaussian(env, theta, sigma=0.5, trunc_c=3.0, radius=None):
    """Truncated linear-Gaussian policy on PointMassFeatures (the env's clip
    radius unless `radius` is given)."""
    feats = PointMassFeatures(env.state_radius if radius is None else radius)
    return TruncatedLinearGaussianPolicy(feats, np.array(theta, dtype=float), sigma, trunc_c)


def method_walk(mdp, pol, horizon, rng):
    """Scalar rollout: initial_state, then sample_action and step per step."""
    s = mdp.initial_state(rng)
    states, actions, rewards = [s], [], []
    for _ in range(horizon):
        a = pol.sample_action(s, rng)
        s, r = mdp.step(s, a, rng)
        states.append(s)
        actions.append(a)
        rewards.append(r)
    return states, actions, rewards


def method_state_action(mdp, pol, rng):
    """Scalar visitation draw: h from the capped geometric (none at gamma = 0),
    then method_walk for h steps and a final sample_action."""
    h = 0
    while mdp.gamma > 0.0:
        h = int(rng.geometric(1.0 - mdp.gamma)) - 1
        if h <= geometric_cap(mdp.gamma):
            break
    states, _, _ = method_walk(mdp, pol, h, rng)
    return states[-1], pol.sample_action(states[-1], rng)


def numpy_walk(mdp, pol, horizon, rng):
    """Reference rollout on the numpy tables: one rng.random() per draw,
    index = searchsorted(cumulative row, u, side="right") clamped to the end."""

    def draw(probs):
        i = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        return min(i, probs.size - 1)

    s = draw(mdp.init_dist)
    states, actions, rewards = [s], [], []
    for _ in range(horizon):
        a = draw(pol.probs_matrix()[s])
        s2 = draw(mdp.transition[s, a])
        states.append(s2)
        actions.append(a)
        rewards.append(float(mdp.reward[s, a, s2]))
        s = s2
    return states, actions, rewards


class TestTrajectory:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros(3, dtype=int), actions=np.zeros(3, dtype=int), rewards=np.zeros(3))

    def test_horizon(self):
        traj = Trajectory(states=np.zeros(4, dtype=int), actions=np.zeros(3, dtype=int), rewards=np.zeros(3))
        assert traj.horizon == 3

    def test_discounted_return_hand_value(self):
        # 1 + 0.5*2 + 0.25*4 = 3
        traj = Trajectory(
            states=np.zeros(4, dtype=int),
            actions=np.zeros(3, dtype=int),
            rewards=np.array([1.0, 2.0, 4.0]),
        )
        assert discounted_return(traj, 0.5) == pytest.approx(3.0)


class TestTabularMdp:
    def test_rejects_unnormalized_transitions(self):
        mdp = chain(3)
        bad = mdp.transition.copy()
        bad[0, 0, 0] += 0.1
        with pytest.raises(ValueError):
            TabularMdp(transition=bad, reward=mdp.reward, init_dist=mdp.init_dist, gamma=mdp.gamma)

    def test_rejects_reward_outside_unit_interval(self):
        mdp = chain(3)
        bad = mdp.reward.copy()
        bad[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            TabularMdp(transition=mdp.transition, reward=bad, init_dist=mdp.init_dist, gamma=mdp.gamma)

    def test_rejects_gamma_one(self):
        mdp = chain(3)
        with pytest.raises(ValueError):
            TabularMdp(transition=mdp.transition, reward=mdp.reward, init_dist=mdp.init_dist, gamma=1.0)

    @pytest.mark.parametrize(
        "table, message",
        [("transition", "transition rows"), ("reward", "rewards"), ("init_dist", "init_dist")],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_tables(self, table, message, value):
        mdp = chain(3)
        tables = {
            "transition": mdp.transition.copy(),
            "reward": mdp.reward.copy(),
            "init_dist": mdp.init_dist.copy(),
        }
        tables[table].flat[0] = value
        with pytest.raises(ValueError, match=message):
            TabularMdp(gamma=mdp.gamma, **tables)

    def test_chain_dynamics(self):
        mdp = chain(4)
        # right from state 2 lands in state 3 and pays 1
        assert mdp.transition[2, 1, 3] == 1.0
        assert mdp.reward[2, 1, 3] == 1.0
        # left from state 0 stays (clipped), no reward
        assert mdp.transition[0, 0, 0] == 1.0
        assert mdp.reward[0, 0, 0] == 0.0
        # right from the last state stays there and keeps paying
        assert mdp.transition[3, 1, 3] == 1.0
        assert mdp.reward[3, 1, 3] == 1.0
        assert np.argmax(mdp.init_dist) == 0

    def test_bandit(self):
        mdp = bandit([0.1, 0.9, 0.4])
        assert mdp.n_states == 1
        assert mdp.n_actions == 3
        assert mdp.reward[0, 1, 0] == pytest.approx(0.9)

    def test_random_mdp_is_seeded(self):
        a = random_mdp(4, 3, seed=7)
        b = random_mdp(4, 3, seed=7)
        c = random_mdp(4, 3, seed=8)
        assert np.array_equal(a.transition, b.transition)
        assert not np.array_equal(a.transition, c.transition)

    def test_step_respects_support(self):
        mdp = chain(5)
        rng = substream(0, "trajectory")
        s2, r = mdp.step(3, 1, rng)
        assert s2 == 4 and r == 1.0


class TestSampling:
    def test_trajectory_lengths_and_determinism(self):
        mdp = chain(5)
        pol = uniform_policy(mdp)
        traj = sample_trajectory(mdp, pol, horizon=12, rng=substream(3, "trajectory"))
        assert traj.horizon == 12
        assert traj.states.shape == (13,)
        traj2 = sample_trajectory(mdp, pol, horizon=12, rng=substream(3, "trajectory"))
        assert np.array_equal(traj.states, traj2.states)
        assert np.array_equal(traj.rewards, traj2.rewards)

    def test_visitation_law_matches_linear_solve(self):
        mdp = chain(4)
        pol = uniform_policy(mdp)
        rng = substream(0, "evaluation")
        draws = np.array([sample_state_action(mdp, pol, rng) for _ in range(200_000)])
        states, actions = draws[:, 0], draws[:, 1]
        empirical = np.bincount(states, minlength=mdp.n_states) / states.size
        exact = exact_visitation(mdp, pol.probs_matrix())
        assert np.abs(empirical - exact).max() < 0.01
        sa = np.zeros((mdp.n_states, mdp.n_actions))
        np.add.at(sa, (states, actions), 1.0)
        sa /= states.size
        exact_sa = exact_state_action_visitation(mdp, pol.probs_matrix())
        assert np.abs(sa - exact_sa).max() < 0.01

    def test_geometric_cap_value(self):
        assert geometric_cap(0.9) == 100
        assert geometric_cap(0.99) == 1000
        assert geometric_cap(0.5) == 20

    def test_gamma_zero_draws_initial_state(self):
        # no geometric draw at gamma = 0: each pair takes exactly two
        # uniforms, and a uniform equal to a cumulative value goes right
        mdp = bandit([0.2, -0.6, 0.9], gamma=0.0)
        pol = TabularSoftmaxPolicy(1, 3, np.array([-800.0, 1.5, 0.0]))
        cum = np.cumsum(pol.probs_matrix()[0]).tolist()
        u = [x for c in [0.0, *cum, 0.5] for x in (c, c)]
        fast, slow = ReplayUniforms(u), ReplayUniforms(u)
        for _ in range(len(u) // 2):
            s, a = sample_state_action(mdp, pol, fast)
            assert s == 0 and a in (1, 2)
            assert (s, a) == method_state_action(mdp, pol, slow)

    @pytest.mark.parametrize(
        "mdp, theta",
        [
            # uniform two-action rows: cum = [0.5, 1.0], hit exactly by u = 0.5
            (chain(4), np.zeros(8)),
            (random_mdp(5, 3, seed=2), np.tile([800.0, -800.0, 0.0], 5)),
            (bandit([0.2, -0.6, 0.9]), np.array([-800.0, 1.5, 0.0])),
            # leading zeros in the init, policy and transition rows
            (
                TabularMdp(chain(4).transition, chain(4).reward, [0.0, 0.5, 0.5, 0.0], 0.9),
                np.tile([-800.0, 0.0], 4),
            ),
        ],
        ids=["chain4-uniform", "random5x3-saturated", "bandit3", "chain4-right"],
    )
    def test_batch_sampler_reproduces_scalar_rollout_row_for_row(self, mdp, theta):
        # each row of preset uniforms drives sample_trajectory, method_walk
        # and numpy_walk to the same rollout
        pol = TabularSoftmaxPolicy(mdp.n_states, mdp.n_actions, theta)
        horizon, n = 7, 64
        u = substream(8, "trajectory").random((n, 2 * horizon + 1))
        # uniforms that land exactly on cumulative values: ties must go right
        u[0, :] = 0.5
        u[1, 1::2] = np.cumsum(pol.probs_matrix(), axis=1)[0, 0]
        u[2, :] = 0.0
        for row in u:
            traj = sample_trajectory(mdp, pol, horizon, ReplayUniforms(row))
            fast = (traj.states.tolist(), traj.actions.tolist(), traj.rewards.tolist())
            assert fast == method_walk(mdp, pol, horizon, ReplayUniforms(row))
            assert fast == numpy_walk(mdp, pol, horizon, ReplayUniforms(row))

    @pytest.mark.parametrize(
        "env, pol, n",
        [
            (chain(5, gamma=0.99), None, 2000),
            (random_mdp(40, 5, seed=1, gamma=0.99), None, 2000),
            (random_mdp(4, 3, seed=3, gamma=0.99), None, 2000),
            (bandit([0.2, -0.6, 0.9], gamma=0.0), None, 5000),
            (pointmass(), gaussian(pointmass(), [-1.3, 0.4]), 2000),
            # about 3 in 4 action normals are rejected
            (pointmass(), gaussian(pointmass(), [0.7, -0.2], trunc_c=0.3), 1000),
            (pointmass(gamma=0.99), gaussian(pointmass(), [2.5, 1.0], trunc_c=math.inf), 500),
            # states beyond the features' clip radius, starting on it
            (pointmass(init_state=1.3, state_radius=1.7), gaussian(pointmass(), [-4.0, 3.0], 0.8, radius=1.3), 2000),
            (pointmass(gamma=0.0), gaussian(pointmass(), [1.0, -1.0]), 2000),
        ],
        ids=["chain5", "random40x5", "random4x3", "bandit3-gamma0", "pointmass",
             "pointmass-c0.3", "pointmass-c-inf", "pointmass-r1.3", "pointmass-gamma0"],
    )
    def test_state_action_draw_matches_method_calls(self, env, pol, n):
        if pol is None:
            theta = np.random.default_rng(4).standard_normal(env.n_states * env.n_actions)
            pol = TabularSoftmaxPolicy(env.n_states, env.n_actions, theta)
        rngs = [substream(9, "subproblem") for _ in range(2)]
        fast = [sample_state_action(env, pol, rngs[0]) for _ in range(n)]
        assert fast == [method_state_action(env, pol, rngs[1]) for _ in range(n)]
        assert rngs[0].random() == rngs[1].random()

    @pytest.mark.parametrize("trunc_c", [0.5, 3.0, math.inf])
    @pytest.mark.parametrize("init_state", [0.0, 1.5, 2.0, -2.0])
    def test_pointmass_draws_match_method_calls_under_replayed_normals(self, trunc_c, init_state):
        # action normals beyond trunc_c force rejections; the large ones
        # push the state onto the env's clip radius and past the features' one
        env = pointmass(init_state=init_state, noise_std=0.5)
        pol = gaussian(env, [1.1, 0.6], trunc_c=trunc_c, radius=1.3)
        z = substream(8, "trajectory").standard_normal(400) * 2.0
        z[::7] = 9.0
        z[3::11] = -6.0
        horizon = 9
        states, rejected = set(), 0
        for start in range(0, 200, 5):
            fast, slow = ReplayNormals(z[start:]), ReplayNormals(z[start:])
            traj = sample_trajectory(env, pol, horizon, fast)
            got = (traj.states.tolist(), traj.actions.tolist(), traj.rewards.tolist())
            assert got == method_walk(env, pol, horizon, slow)
            assert fast.used == slow.used >= 2 * horizon
            states.update(abs(x) for x in got[0])
            rejected += fast.used - 2 * horizon
            hs = [start % 4 + 1, 1, 3]
            fast, slow = ReplayNormals(z[start:], hs), ReplayNormals(z[start:], hs)
            for _ in hs:
                assert sample_state_action(env, pol, fast) == method_state_action(env, pol, slow)
            assert fast.used == slow.used
        assert env.state_radius in states  # clipped by the env
        assert any(1.3 < x < env.state_radius for x in states)  # clipped by the features only
        assert (rejected > 0) == (trunc_c < math.inf)


class TestPointMass:
    def test_reward_is_negative_quadratic_scaled(self):
        env = pointmass()
        rng = substream(0, "trajectory")
        _, r0 = env.step(0.0, 0.0, rng)
        assert r0 == pytest.approx(0.0)
        _, r_worst = env.step(env.state_radius, env.action_radius, rng)
        assert r_worst == pytest.approx(-1.0)

    def test_state_clipping(self):
        env = PointMassEnv(noise_std=0.0)
        s_next, _ = env.step(env.state_radius, env.action_radius, substream(0, "trajectory"))
        assert abs(s_next) <= env.state_radius

        def same(x, y):
            if math.isnan(x) or math.isnan(y):
                return math.isnan(x) and math.isnan(y)
            return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)

        # the scalar clips agree with np.clip on NaN, infinities and signed zero
        feats = PointMassFeatures(env.state_radius)
        rad = env.state_radius
        for s in (math.nan, math.inf, -math.inf, -0.0, 0.0, 1.5, -7.0):
            for a in (-0.0, 0.0, math.nan, 3.0):
                z = substream(0, "trajectory").standard_normal()
                s_next, r = env.step(s, a, substream(0, "trajectory"))
                raw_r = -(env.q_s * s * s + env.q_a * a * a) * env.reward_scale
                raw_s = env.a_dyn * s + env.b_dyn * a + env.noise_std * z
                assert same(r, float(np.clip(raw_r, -1.0, 1.0)))
                assert same(s_next, float(np.clip(raw_s, -rad, rad)))
            phi = feats(s)
            assert same(phi[0], float(np.clip(s, -rad, rad)) / rad / math.sqrt(2.0))
            assert phi[1] == 1.0 / math.sqrt(2.0)
        # the float walk clips as step and the features do, from the same
        # states; the constructor rejects a NaN init_state, so it is set after
        for s0 in (math.nan, -0.0, 0.0, rad, -rad):
            walk_env = PointMassEnv(noise_std=0.0)
            object.__setattr__(walk_env, "init_state", s0)
            for theta in ([-0.0, -0.0], [0.0, 0.0], [1.0, -0.0]):
                pol = gaussian(walk_env, theta, trunc_c=math.inf)
                traj = sample_trajectory(walk_env, pol, 3, ReplayNormals([-0.0] * 6))
                got = traj.states.tolist() + traj.actions.tolist() + traj.rewards.tolist()
                want = sum(method_walk(walk_env, pol, 3, ReplayNormals([-0.0] * 6)), [])
                assert len(got) == len(want) and all(map(same, got, want))

    def test_samplers_reject_other_policies(self):
        pol = TabularSoftmaxPolicy.zeros(1, 2)
        rng = substream(0, "trajectory")
        with pytest.raises(TypeError, match="no sampler"):
            sample_trajectory(pointmass(), pol, 3, rng)
        with pytest.raises(TypeError, match="no sampler"):
            sample_state_action(pointmass(), pol, rng)
        assert rng.random() == substream(0, "trajectory").random()  # no draw

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            PointMassEnv(gamma=1.0)
        with pytest.raises(ValueError):
            PointMassEnv(init_state=5.0)

    @pytest.mark.parametrize(
        "field",
        ["a_dyn", "b_dyn", "noise_std", "q_s", "q_a", "state_radius", "action_radius", "init_state"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError):
            PointMassEnv(**{field: value})


class TestMdpText:
    def test_round_trip(self, tmp_path):
        mdp = random_mdp(3, 2, seed=5, gamma=0.8)
        path = tmp_path / "m.mdp"
        dump_mdp_text(mdp, path)
        back = load_mdp_text(path)
        assert back.n_states == 3 and back.n_actions == 2
        assert back.gamma == mdp.gamma
        assert np.array_equal(back.transition, mdp.transition)
        assert np.array_equal(back.reward, mdp.reward)
        assert np.array_equal(back.init_dist, mdp.init_dist)

    def test_nan_transition_rejected(self, tmp_path):
        # S=1, A=2: the transition rows of state 0 under actions 0 and 1
        path = tmp_path / "nan.mdp"
        path.write_text("1 2 0.9\nnan 1\n0 0\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="transition"):
            load_mdp_text(path)

    def test_comments_ignored(self, tmp_path):
        mdp = bandit([0.25, 0.75])
        path = tmp_path / "b.mdp"
        dump_mdp_text(mdp, path)
        body = "# header comment\n" + path.read_text(encoding="utf-8")
        path.write_text(body, encoding="utf-8")
        back = load_mdp_text(path)
        assert np.array_equal(back.reward, mdp.reward)


@settings(max_examples=25, deadline=None)
@given(
    n_states=st.integers(min_value=2, max_value=6),
    n_actions=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_mdp_always_valid(n_states, n_actions, seed):
    mdp = random_mdp(n_states, n_actions, seed=seed)
    assert np.allclose(mdp.transition.sum(axis=2), 1.0)
    assert (mdp.reward >= -1).all() and (mdp.reward <= 1).all()
    assert mdp.init_dist.sum() == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(min_value=0.0, max_value=0.99), seed=st.integers(0, 1000))
def test_sampled_step_obeys_transition_support(gamma, seed):
    mdp = random_mdp(4, 2, seed=3, gamma=gamma)
    rng = substream(seed, "trajectory")
    s = mdp.initial_state(rng)
    for _ in range(5):
        a = int(rng.integers(mdp.n_actions))
        s_next, r = mdp.step(s, a, rng)
        assert mdp.transition[s, a, s_next] > 0
        s = s_next


_LOGITS = st.one_of(st.sampled_from([-800.0, 800.0, 0.0]), st.floats(-6.0, 6.0))


@settings(max_examples=60, deadline=None)
@given(
    mdp=st.one_of(
        st.builds(
            random_mdp,
            n_states=st.integers(1, 6),
            n_actions=st.integers(1, 4),
            seed=st.integers(0, 10_000),
        ),
        st.builds(chain, st.integers(2, 6)),
        st.builds(bandit, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)),
    ),
    horizon=st.integers(0, 25),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_tabular_rollout_matches_scalar_walk_draw_for_draw(mdp, horizon, seed, data):
    # logits of +-800 make some probabilities exactly 0, so cumulative ties occur
    theta = data.draw(st.lists(_LOGITS, min_size=mdp.n_states * mdp.n_actions,
                               max_size=mdp.n_states * mdp.n_actions))
    pol = TabularSoftmaxPolicy(mdp.n_states, mdp.n_actions, np.array(theta))
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    traj = sample_trajectory(mdp, pol, horizon, rngs[0])
    fast = (traj.states.tolist(), traj.actions.tolist(), traj.rewards.tolist())
    assert fast == method_walk(mdp, pol, horizon, rngs[1])
    assert fast == numpy_walk(mdp, pol, horizon, rngs[2])
    assert len({rng.random() for rng in rngs}) == 1
