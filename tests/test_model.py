import numpy as np
import pytest

from debias import losses, model
from gradcheck import finite_diff_check


def small_params(seed=0, d_in=6, d=8, m=4):
    return model.init_params(d_in, d, m, seed)


def pixel_rows(fm):  # one (H, W, D_in) map as a batch of one
    return fm.reshape(1, -1, fm.shape[2])


def forward_one(params, fm):
    """(mixed, logits) of one (H, W, D_in) map."""
    return model.forward_batch(params, model.pool_pixels(pixel_rows(fm)))


def test_zero_head_gives_zero_logits():
    d = 6
    params = model.ModelParams(
        mixer=np.eye(d),
        head=np.zeros((d, 3)),
        own_rows=np.arange(d // 2),
        context_rows=np.arange(d // 2, d),
    )
    fm = np.random.default_rng(0).normal(size=(2, 2, d))
    _, logits = forward_one(params, fm)
    assert np.array_equal(logits, np.zeros((1, 3)))


@pytest.mark.parametrize("rows", [np.ones(2), np.ones((5, 3))], ids=["1d", "inner_dim"])
def test_forward_rejects_pooled_rows_of_other_shape(rows):
    # the forward pass takes (n, D_in) pooled rows only
    params = model.init_params(2, 4, 3, 0)
    with pytest.raises(ValueError):
        model.forward_batch(params, rows)


def test_constant_map_pools_to_mixed_vector():
    params = small_params()
    v = np.random.default_rng(1).normal(size=params.d_in)
    fm = np.broadcast_to(v, (3, 3, params.d_in)).copy()
    mixed, _ = forward_one(params, fm)
    assert np.allclose(mixed[0], v @ params.mixer, atol=1e-14)


def test_split_regroup_matches_full_head():
    rng = np.random.default_rng(2)
    params = small_params(seed=3)
    fm = rng.normal(size=(4, 4, params.d_in))
    mixed, logits = forward_one(params, fm)
    own = mixed[:, params.own_rows] @ params.head[params.own_rows]
    ctx = mixed[:, params.context_rows] @ params.head[params.context_rows]
    assert np.max(np.abs(own + ctx - logits)) < 1e-12


def test_split_reconstructs_pooled_vector():
    params = small_params(seed=4)
    fm = np.random.default_rng(3).normal(size=(2, 2, params.d_in))
    mixed, _ = forward_one(params, fm)
    rebuilt = np.empty(params.d)
    rebuilt[params.own_rows] = mixed[0, params.own_rows]
    rebuilt[params.context_rows] = mixed[0, params.context_rows]
    assert np.array_equal(rebuilt, mixed[0])


def raw_cams(params, fm, categories):
    return [losses.cam_maps(params, pixel_rows(fm), k) for k in categories]


def test_cam_hand_case():
    # single active channel weighted 2, identity spatial pattern
    params = model.ModelParams(
        mixer=np.eye(2),
        head=np.array([[2.0, 0.0], [0.0, 0.0]]),
        own_rows=[0],
        context_rows=[1],
    )
    fm = np.zeros((2, 2, 2))
    fm[:, :, 0] = np.array([[1.0, 0.0], [0.0, 1.0]])
    (raw,) = raw_cams(params, fm, [0])
    assert np.array_equal(raw.reshape(2, 2), [[2.0, 0.0], [0.0, 2.0]])
    snap = losses.CamSnapshot(params, [(0, 1)])  # the snapshot forms the same maps
    frozen = snap.rows(pixel_rows(fm), 0)
    assert np.array_equal(frozen, losses.peak_normalize(raw)[0])
    assert np.allclose(frozen.reshape(2, 2), [[1.0, 0.0], [0.0, 1.0]], rtol=0, atol=1e-8)


def test_cam_zero_weights_zero_map():
    params = small_params(seed=5)
    params.head[:, 2] = 0.0
    fm = np.random.default_rng(4).normal(size=(3, 3, params.d_in))
    assert np.array_equal(raw_cams(params, fm, [2])[0], np.zeros((1, 9)))


def test_cam_rejects_bad_category():
    params = small_params()
    fm = np.zeros((2, 2, params.d_in))
    with pytest.raises(ValueError):
        raw_cams(params, fm, [params.m])
    with pytest.raises(ValueError):  # a column index would wrap to the last
        raw_cams(params, fm, [-1])


def test_cam_pools_back_to_logit():
    params = small_params(seed=6)
    fm = np.random.default_rng(5).normal(size=(4, 4, params.d_in))
    _, logits = forward_one(params, fm)
    for r, raw in enumerate(raw_cams(params, fm, range(params.m))):
        assert abs(raw.mean() - logits[0, r]) < 1e-12


def test_cam_gradients_check_out():
    # the whole CAM objective on one sample of four pixels: BCE, overlap and
    # grounding against another model's maps, off the |.| kinks
    rng = np.random.default_rng(6)
    fm = rng.uniform(0.5, 1.5, size=(1, 4, 3))
    pooled = model.pool_pixels(fm)
    own = np.array([0, 1])
    ctx = np.array([2, 3])
    t = np.array([[1.0, 1.0, 0.0]])
    frozen = np.full((2, 1, 4), 2.0)

    def objective(point):
        params = model.ModelParams(point["mixer"], point["head"], own, ctx)
        return losses.cam_objective(params, pooled, t, [(0, 1)], fm, [1], frozen, 0.5, 0.3)

    point = {
        "mixer": rng.uniform(0.05, 0.15, size=(3, 4)),
        "head": rng.uniform(0.1, 0.3, size=(4, 3)),
    }
    _, g_mixer, g_head = objective(point)

    def value(p):
        return objective(p)[0]

    grads = {"mixer": g_mixer, "head": g_head}
    assert finite_diff_check(value, point, grads, eps=1e-5) < 1e-6


def test_normalize_cam_rows_gradient():
    # two 4-pixel maps, normalized per map as the CAM losses do
    rng = np.random.default_rng(8)
    base = rng.uniform(0.2, 2.0, size=(2, 4))
    base[0, 3] = 3.0
    base[1, 3] = 4.0  # unique map maxima

    def value(p):
        return np.mean(losses.peak_normalize(p["x"])[0])

    grads = {"x": losses.peak_normalize(base)[1](np.full((2, 4), 1.0 / 8))}
    assert finite_diff_check(value, {"x": base}, grads, eps=1e-5) < 1e-6


def test_split_weights_partition_properties():
    sizes_ok = True
    for seed in range(1000):
        own, ctx = model.split_weights(10, seed)
        sizes_ok &= len(own) == 5 and len(ctx) == 5
        assert not set(own) & set(ctx)
        assert sorted(set(own) | set(ctx)) == list(range(10))
    assert sizes_ok
    a = model.split_weights(16, 42)
    b = model.split_weights(16, 42)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ValueError):
        model.split_weights(7, 0)


def test_init_params_deterministic():
    a = model.init_params(6, 8, 4, seed=11)
    b = model.init_params(6, 8, 4, seed=11)
    assert np.array_equal(a.mixer, b.mixer)
    assert np.array_equal(a.head, b.head)
    assert np.array_equal(a.own_rows, b.own_rows)
    c = model.init_params(6, 8, 4, seed=12)
    assert not np.array_equal(a.mixer, c.mixer)


def test_params_validation():
    with pytest.raises(ValueError):
        model.ModelParams(np.zeros((3, 4)), np.zeros((4, 2)), [0, 1], [1, 2])
    with pytest.raises(ValueError):
        model.ModelParams(np.zeros((3, 5)), np.zeros((4, 2)), [0, 1], [2, 3])


def test_checkpoint_roundtrip(tmp_path):
    params = small_params(seed=13)
    path = tmp_path / "ckpt.json"
    run = model.RunRecord(
        method="split_biased", seed=13, config_hash="0123456789ab",
        pairs=[[0, 1, 1.5], [2, 1, 0.75]], category_map=[[0, 3]],
    )
    model.save_checkpoint(path, params, run)
    loaded, back = model.load_checkpoint(path)
    f32 = lambda a: a.astype(np.float32).astype(np.float64)
    assert np.array_equal(loaded.mixer, f32(params.mixer))
    assert np.array_equal(loaded.head, f32(params.head))
    assert np.array_equal(loaded.own_rows, params.own_rows)
    assert np.array_equal(loaded.context_rows, params.context_rows)
    assert back == run


def test_predict_matches_logit_sigmoid():
    params = small_params(seed=14)
    pooled = model.pool_pixels(np.random.default_rng(10).normal(size=(5, 9, params.d_in)))
    probs = model.predict(params, pooled)
    _, logits = model.forward_batch(params, pooled)
    assert np.allclose(probs, model.sigmoid_values(logits), atol=1e-15)
    assert probs.shape == (5, params.m)


def test_float32_features_match_their_widening():
    # features are held in float32 as stored; every consumer must compute
    # exactly what it computes on the float64 widening
    params = small_params(seed=16, d_in=32, d=64, m=8)
    f32 = np.random.default_rng(12).normal(size=(300, 64, 32)).astype(np.float32)
    f64 = f32.astype(np.float64)
    p32, p64 = model.pool_pixels(f32), model.pool_pixels(f64)
    assert model.predict(params, p32).tobytes() == model.predict(params, p64).tobytes()
    t32, t64 = (model.forward_batch(params, p) for p in (p32, p64))
    assert t32[1].tobytes() == t64[1].tobytes()
    snap = losses.CamSnapshot(params, [(0, 1)])
    assert snap.rows(f32[:5], 1).tobytes() == snap.rows(f64[:5], 1).tobytes()


def test_pool_first_matches_per_pixel_reference():
    # GAP(X W) H = GAP(X) W H: the pooled-first logits and predictions equal
    # the per-pixel computation up to rounding
    params = small_params(seed=15, d_in=32, d=64, m=8)
    feats = np.random.default_rng(11).normal(size=(300, 64, 32))
    per_pixel = (feats.reshape(-1, 32) @ params.mixer).reshape(300, 64, 64).mean(axis=1)
    ref_logits = per_pixel @ params.head
    pooled = model.pool_pixels(feats)
    mixed, logits = model.forward_batch(params, pooled)
    assert np.abs(mixed - per_pixel).max() < 1e-12
    assert np.abs(logits - ref_logits).max() < 1e-12
    probs = model.predict(params, pooled)
    assert np.abs(probs - model.sigmoid_values(ref_logits)).max() < 1e-12
    with pytest.raises(ValueError):  # only the pooled (n, D_in) form is accepted
        model.forward_batch(params, feats)


def test_pooling_once_matches_pooling_each_batch():
    # training pools its set once and gathers rows; that must give the bytes
    # that pooling each gathered batch gives
    feats = np.random.default_rng(13).normal(size=(300, 64, 32)).astype(np.float32)
    idx = np.random.default_rng(14).permutation(300)
    pooled = model.pool_pixels(feats)
    assert pooled.dtype == np.float64 and pooled.shape == (300, 32)
    assert pooled[idx].tobytes() == model.pool_pixels(feats[idx]).tobytes()
    for s in range(0, 300, 64):
        batch = idx[s : s + 64]
        assert pooled[batch].tobytes() == model.pool_pixels(feats[batch]).tobytes()
