//! Float reference executor over a model's flat graph.
//!
//! Runs one sample through the [`crate::arch::GraphOp`] list using plain
//! f32 arithmetic. Used for quantization calibration ([`calibrate`] — the
//! per-buffer ranges behind both the device deployment in `iprune-hawaii`
//! and the host Q15/Q8 evaluators in [`crate::qeval`]) and as the semantic
//! reference the quantized engines are tested against. Must agree with the
//! trainable network's own forward pass.
//!
//! Calibrated formats depend on every bit of every buffer, so the executor
//! pins a per-output accumulation order: each conv/fc output starts at its
//! bias, then adds `w * x` for every tap in ascending `c → ky → kx` order
//! (ascending input index for fc), skipping padded taps, as a separate
//! multiply and add (never a fused multiply-add), and ReLU maps only
//! `acc < 0.0` to `0.0`. Within that contract the loops run output channels
//! innermost (weights transposed once per layer to `[tap][cout]`), so the
//! independent per-channel accumulators vectorize. The f32 GEMM kernels
//! behind `Model::infer` sum in other orders and use FMA; they must not
//! stand in here.

use crate::arch::{GraphOp, ModelInfo, PrunableInfo, PrunableKind};
use crate::LayerWeights;
use iprune_datasets::Dataset;
use iprune_tensor::Tensor;

/// Executes the graph for a single `[c, h, w]` input; returns the final
/// buffer (logits) and, for calibration, every buffer's contents.
///
/// # Panics
///
/// Panics if `weights` is not indexed by layer id or shapes disagree with
/// the graph.
pub fn run_graph(info: &ModelInfo, weights: &[LayerWeights], input: &Tensor) -> Vec<Vec<f32>> {
    let mut bufs = input_bufs(info, weights, input);
    for op in &info.graph {
        match op {
            GraphOp::Conv { layer_id, src, dst, dst_c_off, relu } => {
                let (src, dst) = split_bufs(&mut bufs, *src, *dst);
                conv(&info.prunables[*layer_id], &weights[*layer_id], src, dst, *dst_c_off, *relu);
            }
            GraphOp::Fc { layer_id, src, dst, relu } => {
                let (src, dst) = split_bufs(&mut bufs, *src, *dst);
                fc(&info.prunables[*layer_id], &weights[*layer_id], src, dst, *relu);
            }
            _ => shape_op(info, &mut bufs, op),
        }
    }
    bufs
}

/// Logits of a single-sample graph execution.
pub fn run_graph_logits(info: &ModelInfo, weights: &[LayerWeights], input: &Tensor) -> Vec<f32> {
    run_graph(info, weights, input).pop().expect("at least one buffer")
}

/// Per-buffer activation formats from float-reference ranges over up to
/// `n_calib` samples of `calib`: `fmt_for` maps each buffer's
/// `max_abs * 1.1 + 1e-6` to a format, then shape-preserving ops (max
/// pool, global average pool, flatten) are pinned to their input's format
/// so quantized engines copy or compare values without requantizing. The
/// one calibration shared by the device deployment and the host evaluators.
pub fn calibrate<F, Fmt: Copy>(
    info: &ModelInfo,
    weights: &[LayerWeights],
    calib: &Dataset,
    n_calib: usize,
    fmt_for: F,
) -> Vec<Fmt>
where
    F: Fn(f32) -> Fmt,
{
    let mut max_abs = vec![0.0f32; info.buffers.len()];
    for i in 0..n_calib.min(calib.len()) {
        let bufs = run_graph(info, weights, &calib.sample(i));
        for (m, buf) in max_abs.iter_mut().zip(bufs.iter()) {
            for &v in buf {
                *m = m.max(v.abs());
            }
        }
    }
    let mut buf_fmts: Vec<Fmt> = max_abs.iter().map(|&m| fmt_for(m * 1.1 + 1e-6)).collect();
    for op in &info.graph {
        match op {
            GraphOp::MaxPool { src, dst, .. }
            | GraphOp::GlobalAvgPool { src, dst }
            | GraphOp::Flatten { src, dst } => buf_fmts[*dst] = buf_fmts[*src],
            _ => {}
        }
    }
    buf_fmts
}

/// Zeroed buffers for the graph with the input copied into buffer 0.
fn input_bufs(info: &ModelInfo, weights: &[LayerWeights], input: &Tensor) -> Vec<Vec<f32>> {
    assert_eq!(weights.len(), info.prunables.len(), "one LayerWeights per prunable layer");
    let mut bufs: Vec<Vec<f32>> = info.buffers.iter().map(|b| vec![0.0; b.numel()]).collect();
    assert_eq!(input.numel(), bufs[0].len(), "input size vs buffer 0");
    assert_eq!(info.buffers[0].dims.len(), 3, "input buffer must be [c, h, w]");
    bufs[0].copy_from_slice(input.data());
    bufs
}

/// Geometry of a conv prunable: `(cin, cout, kh, kw, stride, pad_h, pad_w,
/// in_h, in_w)`.
type ConvGeom = (usize, usize, usize, usize, usize, usize, usize, usize, usize);

fn conv_geom(p: &PrunableInfo) -> ConvGeom {
    match &p.kind {
        PrunableKind::Conv { cin, cout, kh, kw, stride, pad_h, pad_w, in_h, in_w } => {
            (*cin, *cout, *kh, *kw, *stride, *pad_h, *pad_w, *in_h, *in_w)
        }
        _ => unreachable!("conv op on non-conv layer"),
    }
}

fn fc_dims(p: &PrunableInfo) -> (usize, usize) {
    match &p.kind {
        PrunableKind::Fc { din, dout } => (*din, *dout),
        _ => unreachable!("fc op on non-fc layer"),
    }
}

/// Convolution into channels `[dst_c_off, dst_c_off + cout)` of `dst`,
/// output channels innermost.
fn conv(
    p: &PrunableInfo,
    lw: &LayerWeights,
    src: &[f32],
    dst: &mut [f32],
    dst_c_off: usize,
    relu: bool,
) {
    let (cin, cout, kh, kw, stride, pad_h, pad_w, in_h, in_w) = conv_geom(p);
    let (oh, ow) = p.out_hw();
    let plane = oh * ow;
    let taps = cin * kh * kw;
    let w = lw.w.data();
    let b = lw.b.data();
    assert_eq!(w.len(), cout * taps, "conv weight shape");
    assert_eq!(b.len(), cout, "conv bias shape");
    assert!(src.len() >= cin * in_h * in_w, "conv input buffer");
    assert!(dst.len() >= (dst_c_off + cout) * plane, "conv output buffer");
    // wt[tap * cout + m] = w[m * taps + tap]
    let mut wt = vec![0.0f32; taps * cout];
    for (m, row) in w.chunks_exact(taps).enumerate() {
        for (tap, &v) in row.iter().enumerate() {
            wt[tap * cout + m] = v;
        }
    }
    let mut acc = vec![0.0f32; cout];
    for oy in 0..oh {
        for ox in 0..ow {
            acc.copy_from_slice(b);
            for c in 0..cin {
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad_h as isize;
                    if iy < 0 || iy >= in_h as isize {
                        continue;
                    }
                    let row = &src[(c * in_h + iy as usize) * in_w..][..in_w];
                    for kx in 0..kw {
                        let ix = (ox * stride + kx) as isize - pad_w as isize;
                        if ix < 0 || ix >= in_w as isize {
                            continue;
                        }
                        let xv = row[ix as usize];
                        let tap = (c * kh + ky) * kw + kx;
                        for (a, &wv) in acc.iter_mut().zip(&wt[tap * cout..(tap + 1) * cout]) {
                            *a += wv * xv;
                        }
                    }
                }
            }
            let pix = oy * ow + ox;
            for (m, &a) in acc.iter().enumerate() {
                dst[(dst_c_off + m) * plane + pix] = if relu && a < 0.0 { 0.0 } else { a };
            }
        }
    }
}

/// Fully-connected layer, output features innermost.
fn fc(p: &PrunableInfo, lw: &LayerWeights, src: &[f32], dst: &mut [f32], relu: bool) {
    let (din, dout) = fc_dims(p);
    let w = lw.w.data();
    assert_eq!(w.len(), dout * din, "fc weight shape");
    let acc = &mut dst[..dout];
    acc.copy_from_slice(&lw.b.data()[..dout]);
    for (i, &xv) in src[..din].iter().enumerate() {
        for (o, a) in acc.iter_mut().enumerate() {
            *a += w[o * din + i] * xv;
        }
    }
    if relu {
        for a in acc.iter_mut() {
            if *a < 0.0 {
                *a = 0.0;
            }
        }
    }
}

/// The shape ops: max pool, global average pool, and flatten.
fn shape_op(info: &ModelInfo, bufs: &mut [Vec<f32>], op: &GraphOp) {
    match op {
        GraphOp::MaxPool { src, dst, kh, kw } => {
            let sdims = &info.buffers[*src].dims;
            let ddims = &info.buffers[*dst].dims;
            let (c, ih, iw) = (sdims[0], sdims[1], sdims[2]);
            let (oh, ow) = (ddims[1], ddims[2]);
            let (src_buf, dst_buf) = split_bufs(bufs, *src, *dst);
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..*kh {
                            for kx in 0..*kw {
                                let v = src_buf[(ch * ih + oy * kh + ky) * iw + ox * kw + kx];
                                best = best.max(v);
                            }
                        }
                        dst_buf[(ch * oh + oy) * ow + ox] = best;
                    }
                }
            }
        }
        GraphOp::GlobalAvgPool { src, dst } => {
            let sdims = &info.buffers[*src].dims;
            let (c, h, w) = (sdims[0], sdims[1], sdims[2]);
            let (src_buf, dst_buf) = split_bufs(bufs, *src, *dst);
            let inv = 1.0 / (h * w) as f32;
            for ch in 0..c {
                let sum: f32 = src_buf[ch * h * w..(ch + 1) * h * w].iter().sum();
                dst_buf[ch] = sum * inv;
            }
        }
        GraphOp::Flatten { src, dst } => {
            let (src_buf, dst_buf) = split_bufs(bufs, *src, *dst);
            dst_buf.copy_from_slice(src_buf);
        }
        GraphOp::Conv { .. } | GraphOp::Fc { .. } => unreachable!("weighted op in shape_op"),
    }
}

/// Borrow two distinct buffers mutably.
fn split_bufs(bufs: &mut [Vec<f32>], src: usize, dst: usize) -> (&[f32], &mut [f32]) {
    assert_ne!(src, dst, "graph ops must not read and write the same buffer");
    if src < dst {
        let (a, b) = bufs.split_at_mut(dst);
        (&a[src], &mut b[0])
    } else {
        let (a, b) = bufs.split_at_mut(src);
        (&b[0], &mut a[dst])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::BufDesc;
    use crate::zoo::App;
    use iprune_tensor::layer::Layer;

    /// The bitwise oracle: the original loop nest, one output at a time
    /// (`m → oy → ox` outside, taps inside), for the weighted ops; the
    /// shape ops are shared with [`run_graph`].
    fn run_graph_naive(
        info: &ModelInfo,
        weights: &[LayerWeights],
        input: &Tensor,
    ) -> Vec<Vec<f32>> {
        let mut bufs = input_bufs(info, weights, input);
        for op in &info.graph {
            match op {
                GraphOp::Conv { layer_id, src, dst, dst_c_off, relu } => {
                    let p = &info.prunables[*layer_id];
                    let (cin, cout, kh, kw, stride, pad_h, pad_w, in_h, in_w) = conv_geom(p);
                    let (oh, ow) = p.out_hw();
                    let w = weights[*layer_id].w.data();
                    let b = weights[*layer_id].b.data();
                    let dst_dims = info.buffers[*dst].dims.clone();
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    for m in 0..cout {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = b[m];
                                for c in 0..cin {
                                    for ky in 0..kh {
                                        let iy = (oy * stride + ky) as isize - pad_h as isize;
                                        if iy < 0 || iy >= in_h as isize {
                                            continue;
                                        }
                                        for kx in 0..kw {
                                            let ix = (ox * stride + kx) as isize - pad_w as isize;
                                            if ix < 0 || ix >= in_w as isize {
                                                continue;
                                            }
                                            let wv = w[((m * cin + c) * kh + ky) * kw + kx];
                                            let xv = src_buf
                                                [(c * in_h + iy as usize) * in_w + ix as usize];
                                            acc += wv * xv;
                                        }
                                    }
                                }
                                if *relu && acc < 0.0 {
                                    acc = 0.0;
                                }
                                let dc = dst_c_off + m;
                                dst_buf[(dc * dst_dims[1] + oy) * dst_dims[2] + ox] = acc;
                            }
                        }
                    }
                }
                GraphOp::Fc { layer_id, src, dst, relu } => {
                    let (din, dout) = fc_dims(&info.prunables[*layer_id]);
                    let lw = &weights[*layer_id];
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    for (o, out) in dst_buf.iter_mut().take(dout).enumerate() {
                        let mut acc = lw.b.data()[o];
                        let row = &lw.w.data()[o * din..(o + 1) * din];
                        for (wv, xv) in row.iter().zip(src_buf.iter()) {
                            acc += wv * xv;
                        }
                        if *relu && acc < 0.0 {
                            acc = 0.0;
                        }
                        *out = acc;
                    }
                }
                _ => shape_op(info, &mut bufs, op),
            }
        }
        bufs
    }

    /// Every buffer of the fast executor is bit-equal to the oracle's.
    fn assert_bitwise(info: &ModelInfo, weights: &[LayerWeights], x: &Tensor, what: &str) {
        let fast = run_graph(info, weights, x);
        let naive = run_graph_naive(info, weights, x);
        assert_eq!(fast.len(), naive.len());
        for (bi, (f, n)) in fast.iter().zip(&naive).enumerate() {
            assert_eq!(f.len(), n.len(), "{what}: buffer {bi} length");
            for (j, (a, b)) in f.iter().zip(n).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: buffer {bi}[{j}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn executor_is_bitwise_equal_to_naive_oracle_on_every_app() {
        for app in App::all() {
            let mut model = app.build();
            let ds = app.dataset(3, 41);
            let dense = model.extract_weights();
            let masks = model.block_magnitude_masks(300_000);
            model.set_masks(&masks);
            let masked = model.extract_weights();
            for (variant, weights) in [("unpruned", &dense), ("block-masked", &masked)] {
                for i in 0..ds.len() {
                    let what = format!("{} {variant} sample {i}", app.name());
                    assert_bitwise(&model.info, weights, &ds.sample(i), &what);
                }
            }
        }
    }

    /// Deterministic values in `[-1, 1)` with exact `0.0` and `-0.0` mixed in.
    fn signed_values(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|i| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match i % 13 {
                    5 => -0.0,
                    9 => 0.0,
                    _ => ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0,
                }
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn conv_layer(
        layer_id: usize,
        cin: usize,
        cout: usize,
        (kh, kw): (usize, usize),
        stride: usize,
        (pad_h, pad_w): (usize, usize),
        (in_h, in_w): (usize, usize),
    ) -> PrunableInfo {
        PrunableInfo {
            layer_id,
            name: format!("conv{layer_id}"),
            kind: PrunableKind::Conv { cin, cout, kh, kw, stride, pad_h, pad_w, in_h, in_w },
        }
    }

    /// A graph covering the conv geometry edge cases: stride 2, padding
    /// at least the kernel size with `pad_h != pad_w`, a `kw = 1` temporal
    /// conv, two convs concatenated through `dst_c_off`, ReLU off, and fc
    /// layers with and without ReLU.
    fn conv_zoo() -> ModelInfo {
        let prunables = vec![
            conv_layer(0, 3, 6, (3, 3), 2, (1, 1), (9, 7)),
            conv_layer(1, 6, 4, (2, 2), 1, (3, 2), (5, 4)),
            conv_layer(2, 4, 3, (5, 1), 1, (2, 0), (10, 7)),
            conv_layer(3, 4, 5, (3, 3), 1, (1, 1), (10, 7)),
            conv_layer(4, 8, 7, (4, 1), 2, (4, 0), (5, 7)),
            PrunableInfo {
                layer_id: 5,
                name: "fc5".into(),
                kind: PrunableKind::Fc { din: 140, dout: 9 },
            },
            PrunableInfo {
                layer_id: 6,
                name: "fc6".into(),
                kind: PrunableKind::Fc { din: 9, dout: 4 },
            },
        ];
        let dims = |d: &[usize]| BufDesc { dims: d.to_vec() };
        let info = ModelInfo {
            name: "conv-zoo".into(),
            classes: 4,
            input_dims: [3, 9, 7],
            buffers: vec![
                dims(&[3, 9, 7]),
                dims(&[6, 5, 4]),
                dims(&[4, 10, 7]),
                dims(&[8, 10, 7]),
                dims(&[8, 5, 7]),
                dims(&[7, 5, 4]),
                dims(&[140]),
                dims(&[9]),
                dims(&[4]),
            ],
            graph: vec![
                GraphOp::Conv { layer_id: 0, src: 0, dst: 1, dst_c_off: 0, relu: false },
                GraphOp::Conv { layer_id: 1, src: 1, dst: 2, dst_c_off: 0, relu: false },
                GraphOp::Conv { layer_id: 2, src: 2, dst: 3, dst_c_off: 0, relu: false },
                GraphOp::Conv { layer_id: 3, src: 2, dst: 3, dst_c_off: 3, relu: true },
                GraphOp::MaxPool { src: 3, dst: 4, kh: 2, kw: 1 },
                GraphOp::Conv { layer_id: 4, src: 4, dst: 5, dst_c_off: 0, relu: false },
                GraphOp::Flatten { src: 5, dst: 6 },
                GraphOp::Fc { layer_id: 5, src: 6, dst: 7, relu: true },
                GraphOp::Fc { layer_id: 6, src: 7, dst: 8, relu: false },
            ],
            prunables,
        };
        info.validate();
        info
    }

    #[test]
    fn executor_is_bitwise_equal_to_naive_oracle_on_conv_edge_cases() {
        let info = conv_zoo();
        for seed in 0..4u64 {
            let weights: Vec<LayerWeights> = info
                .prunables
                .iter()
                .map(|p| {
                    let cout = p.weights() / p.k_len();
                    let salt = seed * 100 + p.layer_id as u64;
                    LayerWeights {
                        layer_id: p.layer_id,
                        w: Tensor::from_vec(&[cout, p.k_len()], signed_values(p.weights(), salt)),
                        b: Tensor::from_vec(&[cout], signed_values(cout, salt + 50)),
                    }
                })
                .collect();
            let x = Tensor::from_vec(&[1, 3, 9, 7], signed_values(3 * 9 * 7, seed + 1000));
            assert_bitwise(&info, &weights, &x, &format!("conv zoo seed {seed}"));
        }
    }

    /// The float graph executor must agree with the trainable network.
    #[test]
    fn graph_matches_trainable_forward() {
        for app in App::all() {
            let mut model = app.build();
            let ds = app.dataset(3, 99);
            let weights = model.extract_weights();
            for i in 0..3 {
                let x = ds.sample(i);
                let net_logits = model.forward(&x, false);
                let graph_logits = run_graph_logits(&model.info, &weights, &x);
                for (a, b) in net_logits.data().iter().zip(graph_logits.iter()) {
                    assert!(
                        (a - b).abs() < 1e-3,
                        "{} sample {}: net {} vs graph {}",
                        app.name(),
                        i,
                        a,
                        b
                    );
                }
            }
        }
    }

    #[test]
    fn buffers_have_expected_count() {
        let mut model = App::Har.build();
        let weights = model.extract_weights();
        let ds = App::Har.dataset(1, 0);
        let bufs = run_graph(&model.info, &weights, &ds.sample(0));
        assert_eq!(bufs.len(), model.info.buffers.len());
        assert_eq!(bufs.last().unwrap().len(), model.info.classes);
    }
}
