//! Host-side quantized evaluation: device numerics at host speed.
//!
//! The device simulator (`iprune-hawaii`) evaluates quantized models one
//! accelerator job at a time — faithful, but far too slow for sweeping
//! accuracy over a model zoo. This module runs the *same* fixed-point
//! arithmetic through the host integer GEMMs ([`iprune_tensor::qgemm`]):
//! identical calibration, identical widened accumulation with the bias
//! preloaded at accumulator scale, identical arithmetic-shift
//! requantization, and identical integer pooling — so its logits are
//! bit-equal to the device engine's, at the host's SIMD throughput.
//!
//! Two precisions share the flow:
//!
//! * **Q15** ([`QuantizedModel`]): i16 activations/weights, i16×i16→i64
//!   accumulation — the format the paper's MSP430 deployment uses.
//!   `IPRUNE_EVAL=q15` routes [`crate::train::evaluate`] through it.
//! * **Q8** ([`Quantized8Model`]): i8 activations/weights, i8×i8→i32
//!   wrapping accumulation with the bias preloaded as i32 at accumulator
//!   scale (the standard int8 deployment convention). Half the memory
//!   traffic and twice the SIMD lanes of Q15, at a larger quantization
//!   error. `IPRUNE_EVAL=q8` routes evaluation through it.
//!
//! Calibration is shared with `iprune-hawaii`'s `deploy` step: both call
//! [`crate::graphref::calibrate`] (per-buffer ranges from the float
//! reference executor over a handful of samples, shape-preserving ops
//! pinned to their input format), and for Q15 the bias format is capped
//! at the accumulator depth the same way.
//!
//! Both engines accept an [`ExecCtx`] (`forward_q15_with` /
//! `forward_q8_with`) so hot paths — the serving loop, repeated
//! evaluation — recycle the activation and im2col scratch instead of
//! reallocating per sample. The ctx-less entry points are thin wrappers
//! over a throwaway context and are bitwise identical.

use crate::arch::{GraphOp, ModelInfo, PrunableInfo, PrunableKind};
use crate::graphref::calibrate;
use crate::model::Model;
use iprune_datasets::Dataset;
use iprune_tensor::exec::ExecCtx;
use iprune_tensor::qgemm::{q15_gemm, q8_gemm};
use iprune_tensor::quant::{Q8Format, QFormat, QTensor};
use iprune_tensor::{pack, pool, Tensor};

/// Default number of calibration samples (matches the device deploy step).
pub const DEFAULT_CALIBRATION: usize = 8;

/// One quantized prunable layer: dense i16 weights in GEMM row-major
/// (`[m][k]`) plus the bias at its own format.
#[derive(Debug, Clone)]
struct QLayer {
    w: Vec<i16>,
    w_frac: u8,
    bias: Vec<i16>,
    bias_frac: u8,
    m: usize,
    k: usize,
}

/// A model quantized for host Q15 inference.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    info: ModelInfo,
    layers: Vec<QLayer>,
    buf_fmts: Vec<QFormat>,
}

/// The packing geometry of a conv prunable (one sample).
fn conv_shape(p: &PrunableInfo) -> pack::ConvShape {
    let (out_h, out_w) = p.out_hw();
    match &p.kind {
        PrunableKind::Conv { cin, kh, kw, stride, pad_h, pad_w, in_h, in_w, .. } => {
            pack::ConvShape {
                cin: *cin,
                kh: *kh,
                kw: *kw,
                stride: *stride,
                pad_h: *pad_h,
                pad_w: *pad_w,
                in_h: *in_h,
                in_w: *in_w,
                out_h,
                out_w,
            }
        }
        _ => unreachable!("conv op on non-conv layer"),
    }
}

impl QuantizedModel {
    /// Quantizes `model`, calibrating activation formats on up to `n_calib`
    /// samples of `calib` — the same procedure as the device deployment, so
    /// formats (and therefore logits) agree bitwise with the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty or its sample shape differs from the
    /// model input.
    pub fn quantize(model: &mut Model, calib: &Dataset, n_calib: usize) -> Self {
        assert!(!calib.is_empty(), "calibration set must not be empty");
        let weights = model.extract_weights();
        let info = model.info.clone();
        let buf_fmts = calibrate(&info, &weights, calib, n_calib, QFormat::for_max_abs);

        let layers: Vec<QLayer> = weights
            .iter()
            .map(|lw| {
                let (m, k) = gemm_dims(&info.prunables[lw.layer_id]);
                let qw = QTensor::quantize(&lw.w);
                let in_fmt = input_fmt_of_layer(&info, lw.layer_id, &buf_fmts);
                let acc_frac = in_fmt.frac_bits() + qw.format().frac_bits();
                let natural = QFormat::for_max_abs(lw.b.max_abs().max(1e-6));
                let bias_fmt = QFormat::new(natural.frac_bits().min(acc_frac).min(15));
                let bias: Vec<i16> = lw.b.data().iter().map(|&v| bias_fmt.quantize(v)).collect();
                QLayer {
                    w: qw.data().to_vec(),
                    w_frac: qw.format().frac_bits(),
                    bias,
                    bias_frac: bias_fmt.frac_bits(),
                    m,
                    k,
                }
            })
            .collect();

        QuantizedModel { info, layers, buf_fmts }
    }

    /// Fixed-point format of each activation buffer.
    pub fn buf_fmts(&self) -> &[QFormat] {
        &self.buf_fmts
    }

    /// Runs one `[c, h, w]` sample in device numerics; returns dequantized
    /// logits. Allocates a throwaway scratch context — prefer
    /// [`forward_q15_with`](Self::forward_q15_with) on hot paths.
    pub fn forward_q15(&self, input: &Tensor) -> Vec<f32> {
        self.forward_q15_with(input, &mut ExecCtx::new())
    }

    /// Runs one sample, loaning activation and im2col scratch from `ctx`.
    /// Bitwise identical to [`forward_q15`](Self::forward_q15) with any
    /// context, fresh or recycled.
    pub fn forward_q15_with(&self, input: &Tensor, ctx: &mut ExecCtx) -> Vec<f32> {
        let mut bufs: Vec<Vec<i16>> =
            self.info.buffers.iter().map(|b| ctx.take_i16(b.numel())).collect();
        assert_eq!(input.numel(), bufs[0].len(), "input size vs model input buffer");
        let in_fmt = self.buf_fmts[0];
        for (dst, &v) in bufs[0].iter_mut().zip(input.data()) {
            *dst = in_fmt.quantize(v);
        }

        for op in &self.info.graph {
            match op {
                GraphOp::Conv { layer_id, src, dst, dst_c_off, relu } => {
                    let ql = &self.layers[*layer_id];
                    let s = conv_shape(&self.info.prunables[*layer_id]);
                    let n = s.out_hw();
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    // transposed im2col: one k-contiguous patch per output
                    // position, zero-filled where the kernel hangs over the
                    // padding — identical to the device's gathered strips.
                    let mut col = ctx.take_i16(s.col_len());
                    pack::im2col_patches(&src_buf[..s.in_len()], &s, &mut col);
                    let (in_frac, out_frac) =
                        (self.buf_fmts[*src].frac_bits(), self.buf_fmts[*dst].frac_bits());
                    let bias_shift = (in_frac + ql.w_frac - ql.bias_frac) as u32;
                    // the destination rows are contiguous at the channel
                    // offset, so the GEMM writes the buffer slice directly
                    let c_out = &mut dst_buf[dst_c_off * n..(dst_c_off + ql.m) * n];
                    q15_gemm(
                        &ql.w, &col, &ql.bias, bias_shift, c_out, ql.m, ql.k, n, in_frac,
                        ql.w_frac, out_frac, *relu,
                    );
                    ctx.put_i16(col);
                }
                GraphOp::Fc { layer_id, src, dst, relu } => {
                    let ql = &self.layers[*layer_id];
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    let (in_frac, out_frac) =
                        (self.buf_fmts[*src].frac_bits(), self.buf_fmts[*dst].frac_bits());
                    let bias_shift = (in_frac + ql.w_frac - ql.bias_frac) as u32;
                    q15_gemm(
                        &ql.w,
                        &src_buf[..ql.k],
                        &ql.bias,
                        bias_shift,
                        &mut dst_buf[..ql.m],
                        ql.m,
                        ql.k,
                        1,
                        in_frac,
                        ql.w_frac,
                        out_frac,
                        *relu,
                    );
                }
                GraphOp::MaxPool { src, dst, kh, kw } => {
                    let sdims = self.info.buffers[*src].dims.clone();
                    let ddims = self.info.buffers[*dst].dims.clone();
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    let (c, ih, iw) = (sdims[0], sdims[1], sdims[2]);
                    let (oh, ow) = (ddims[1], ddims[2]);
                    for ch in 0..c {
                        pool::maxpool2d_i16(
                            &src_buf[ch * ih * iw..(ch + 1) * ih * iw],
                            ih,
                            iw,
                            *kh,
                            *kw,
                            &mut dst_buf[ch * oh * ow..(ch + 1) * oh * ow],
                        );
                    }
                }
                GraphOp::GlobalAvgPool { src, dst } => {
                    let sdims = self.info.buffers[*src].dims.clone();
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    let (c, h, w) = (sdims[0], sdims[1], sdims[2]);
                    let hw = (h * w) as i64;
                    for ch in 0..c {
                        let sum: i64 =
                            src_buf[ch * h * w..(ch + 1) * h * w].iter().map(|&v| v as i64).sum();
                        let rounded =
                            if sum >= 0 { (sum + hw / 2) / hw } else { (sum - hw / 2) / hw };
                        dst_buf[ch] = rounded.clamp(i16::MIN as i64, i16::MAX as i64) as i16;
                    }
                }
                GraphOp::Flatten { src, dst } => {
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    dst_buf.copy_from_slice(src_buf);
                }
            }
        }

        let fmt = *self.buf_fmts.last().expect("formats");
        let logits: Vec<f32> =
            bufs.last().expect("at least one buffer").iter().map(|&q| fmt.dequantize(q)).collect();
        for buf in bufs {
            ctx.put_i16(buf);
        }
        logits
    }

    /// Top-1 accuracy of the Q15 engine on `ds` (same argmax tie-breaking
    /// as the float evaluator).
    pub fn evaluate_q15(&self, ds: &Dataset) -> f64 {
        let mut ctx = ExecCtx::new();
        evaluate_with(ds, |x| self.forward_q15_with(x, &mut ctx))
    }
}

/// One int8 prunable layer: dense i8 weights in GEMM row-major (`[m][k]`)
/// plus the bias preloaded as i32 at accumulator scale
/// (`in_frac + w_frac` fractional bits) — the standard int8 deployment
/// convention, so the GEMM adds it without a shift.
#[derive(Debug, Clone)]
struct Q8Layer {
    w: Vec<i8>,
    w_frac: u8,
    bias: Vec<i32>,
    m: usize,
    k: usize,
}

/// A model quantized for host int8 inference.
#[derive(Debug, Clone)]
pub struct Quantized8Model {
    info: ModelInfo,
    layers: Vec<Q8Layer>,
    buf_fmts: Vec<Q8Format>,
}

impl Quantized8Model {
    /// Quantizes `model` to int8, calibrating activation formats on up to
    /// `n_calib` samples of `calib` — the same flow as the Q15 deploy
    /// (float reference ranges, shape-preserving ops pinned to their input
    /// format), at i8 precision.
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty or its sample shape differs from the
    /// model input.
    pub fn quantize(model: &mut Model, calib: &Dataset, n_calib: usize) -> Self {
        assert!(!calib.is_empty(), "calibration set must not be empty");
        let weights = model.extract_weights();
        let info = model.info.clone();
        let buf_fmts = calibrate(&info, &weights, calib, n_calib, Q8Format::for_max_abs);

        let layers: Vec<Q8Layer> = weights
            .iter()
            .map(|lw| {
                let (m, k) = gemm_dims(&info.prunables[lw.layer_id]);
                let w_fmt = Q8Format::for_max_abs(lw.w.max_abs().max(1e-6));
                let w: Vec<i8> = lw.w.data().iter().map(|&v| w_fmt.quantize(v)).collect();
                let in_fmt = input_fmt_of_layer(&info, lw.layer_id, &buf_fmts);
                let acc_frac = in_fmt.frac_bits() + w_fmt.frac_bits();
                let scale = (1i64 << acc_frac) as f64;
                let bias: Vec<i32> = lw
                    .b
                    .data()
                    .iter()
                    .map(|&v| {
                        (v as f64 * scale).round().clamp(i32::MIN as f64, i32::MAX as f64) as i32
                    })
                    .collect();
                Q8Layer { w, w_frac: w_fmt.frac_bits(), bias, m, k }
            })
            .collect();

        Quantized8Model { info, layers, buf_fmts }
    }

    /// Fixed-point format of each activation buffer.
    pub fn buf_fmts(&self) -> &[Q8Format] {
        &self.buf_fmts
    }

    /// Runs one `[c, h, w]` sample in int8 numerics; returns dequantized
    /// logits. Allocates a throwaway scratch context — prefer
    /// [`forward_q8_with`](Self::forward_q8_with) on hot paths.
    pub fn forward_q8(&self, input: &Tensor) -> Vec<f32> {
        self.forward_q8_with(input, &mut ExecCtx::new())
    }

    /// Runs one sample, loaning activation and im2col scratch from `ctx`.
    /// Bitwise identical to [`forward_q8`](Self::forward_q8) with any
    /// context, fresh or recycled.
    pub fn forward_q8_with(&self, input: &Tensor, ctx: &mut ExecCtx) -> Vec<f32> {
        let mut bufs: Vec<Vec<i8>> =
            self.info.buffers.iter().map(|b| ctx.take_i8(b.numel())).collect();
        assert_eq!(input.numel(), bufs[0].len(), "input size vs model input buffer");
        let in_fmt = self.buf_fmts[0];
        for (dst, &v) in bufs[0].iter_mut().zip(input.data()) {
            *dst = in_fmt.quantize(v);
        }

        for op in &self.info.graph {
            match op {
                GraphOp::Conv { layer_id, src, dst, dst_c_off, relu } => {
                    let ql = &self.layers[*layer_id];
                    let s = conv_shape(&self.info.prunables[*layer_id]);
                    let n = s.out_hw();
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    let mut col = ctx.take_i8(s.col_len());
                    pack::im2col_patches(&src_buf[..s.in_len()], &s, &mut col);
                    let (in_frac, out_frac) =
                        (self.buf_fmts[*src].frac_bits(), self.buf_fmts[*dst].frac_bits());
                    let c_out = &mut dst_buf[dst_c_off * n..(dst_c_off + ql.m) * n];
                    q8_gemm(
                        &ql.w, &col, &ql.bias, c_out, ql.m, ql.k, n, in_frac, ql.w_frac, out_frac,
                        *relu,
                    );
                    ctx.put_i8(col);
                }
                GraphOp::Fc { layer_id, src, dst, relu } => {
                    let ql = &self.layers[*layer_id];
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    let (in_frac, out_frac) =
                        (self.buf_fmts[*src].frac_bits(), self.buf_fmts[*dst].frac_bits());
                    q8_gemm(
                        &ql.w,
                        &src_buf[..ql.k],
                        &ql.bias,
                        &mut dst_buf[..ql.m],
                        ql.m,
                        ql.k,
                        1,
                        in_frac,
                        ql.w_frac,
                        out_frac,
                        *relu,
                    );
                }
                GraphOp::MaxPool { src, dst, kh, kw } => {
                    let sdims = self.info.buffers[*src].dims.clone();
                    let ddims = self.info.buffers[*dst].dims.clone();
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    let (c, ih, iw) = (sdims[0], sdims[1], sdims[2]);
                    let (oh, ow) = (ddims[1], ddims[2]);
                    for ch in 0..c {
                        pool::maxpool2d_i8(
                            &src_buf[ch * ih * iw..(ch + 1) * ih * iw],
                            ih,
                            iw,
                            *kh,
                            *kw,
                            &mut dst_buf[ch * oh * ow..(ch + 1) * oh * ow],
                        );
                    }
                }
                GraphOp::GlobalAvgPool { src, dst } => {
                    let sdims = self.info.buffers[*src].dims.clone();
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    let (c, h, w) = (sdims[0], sdims[1], sdims[2]);
                    let hw = (h * w) as i64;
                    for ch in 0..c {
                        let sum: i64 =
                            src_buf[ch * h * w..(ch + 1) * h * w].iter().map(|&v| v as i64).sum();
                        let rounded =
                            if sum >= 0 { (sum + hw / 2) / hw } else { (sum - hw / 2) / hw };
                        dst_buf[ch] = rounded.clamp(i8::MIN as i64, i8::MAX as i64) as i8;
                    }
                }
                GraphOp::Flatten { src, dst } => {
                    let (src_buf, dst_buf) = split_bufs(&mut bufs, *src, *dst);
                    dst_buf.copy_from_slice(src_buf);
                }
            }
        }

        let fmt = *self.buf_fmts.last().expect("formats");
        let logits: Vec<f32> =
            bufs.last().expect("at least one buffer").iter().map(|&q| fmt.dequantize(q)).collect();
        for buf in bufs {
            ctx.put_i8(buf);
        }
        logits
    }

    /// Top-1 accuracy of the int8 engine on `ds` (same argmax tie-breaking
    /// as the float evaluator).
    pub fn evaluate_q8(&self, ds: &Dataset) -> f64 {
        let mut ctx = ExecCtx::new();
        evaluate_with(ds, |x| self.forward_q8_with(x, &mut ctx))
    }
}

/// GEMM dims `(m, k)` of a prunable layer.
fn gemm_dims(p: &PrunableInfo) -> (usize, usize) {
    match &p.kind {
        PrunableKind::Conv { cin, cout, kh, kw, .. } => (*cout, cin * kh * kw),
        PrunableKind::Fc { din, dout } => (*dout, *din),
    }
}

/// Top-1 accuracy with the float evaluator's argmax tie-breaking.
fn evaluate_with<F>(ds: &Dataset, mut forward: F) -> f64
where
    F: FnMut(&Tensor) -> Vec<f32>,
{
    if ds.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for i in 0..ds.len() {
        let logits = forward(&ds.sample(i));
        let pred = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(j, _)| j)
            .unwrap_or(0);
        if pred == ds.labels()[i] {
            correct += 1;
        }
    }
    correct as f64 / ds.len() as f64
}

/// The activation format of the buffer a prunable layer reads.
fn input_fmt_of_layer<Fmt: Copy>(info: &ModelInfo, layer_id: usize, fmts: &[Fmt]) -> Fmt {
    for op in &info.graph {
        match op {
            GraphOp::Conv { layer_id: l, src, .. } | GraphOp::Fc { layer_id: l, src, .. }
                if *l == layer_id =>
            {
                return fmts[*src];
            }
            _ => {}
        }
    }
    panic!("layer {layer_id} not found in graph");
}

/// Borrow two distinct buffers mutably.
fn split_bufs<T>(bufs: &mut [Vec<T>], src: usize, dst: usize) -> (&[T], &mut [T]) {
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
    use crate::zoo::App;
    use iprune_tensor::layer::Layer;

    /// Q15 logits track the float forward pass closely on every app.
    #[test]
    fn q15_logits_close_to_float() {
        for app in App::all() {
            let mut model = app.build();
            let ds = app.dataset(4, 41);
            let qm = QuantizedModel::quantize(&mut model, &ds, 4);
            for i in 0..3 {
                let x = ds.sample(i);
                let f = model.forward(&x, false);
                let q = qm.forward_q15(&x);
                for (a, b) in f.data().iter().zip(q.iter()) {
                    assert!((a - b).abs() < 0.05, "{} sample {i}: f32 {a} vs q15 {b}", app.name());
                }
            }
        }
    }

    /// Q8 logits track the float forward pass within int8 resolution on
    /// every app (coarser than Q15 — 7 fractional bits at best).
    #[test]
    fn q8_logits_close_to_float() {
        for app in App::all() {
            let mut model = app.build();
            let ds = app.dataset(4, 41);
            let qm = Quantized8Model::quantize(&mut model, &ds, 4);
            for i in 0..3 {
                let x = ds.sample(i);
                let f = model.forward(&x, false);
                let q = qm.forward_q8(&x);
                for (a, b) in f.data().iter().zip(q.iter()) {
                    assert!((a - b).abs() < 0.5, "{} sample {i}: f32 {a} vs q8 {b}", app.name());
                }
            }
        }
    }

    /// Shape-preserving ops keep their input format after calibration.
    #[test]
    fn pool_buffers_share_input_format() {
        let mut model = App::Cks.build();
        let ds = App::Cks.dataset(2, 3);
        let qm = QuantizedModel::quantize(&mut model, &ds, 2);
        for op in &qm.info.graph {
            if let GraphOp::MaxPool { src, dst, .. }
            | GraphOp::GlobalAvgPool { src, dst }
            | GraphOp::Flatten { src, dst } = op
            {
                assert_eq!(qm.buf_fmts[*src], qm.buf_fmts[*dst]);
            }
        }
    }

    /// The Q15 evaluator is deterministic and in [0, 1].
    #[test]
    fn evaluate_q15_is_deterministic() {
        let mut model = App::Har.build();
        let ds = App::Har.dataset(24, 5);
        let qm = QuantizedModel::quantize(&mut model, &ds, 8);
        let a = qm.evaluate_q15(&ds);
        let b = qm.evaluate_q15(&ds);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((0.0..=1.0).contains(&a));
    }

    /// The int8 evaluator is deterministic and in [0, 1].
    #[test]
    fn evaluate_q8_is_deterministic() {
        let mut model = App::Har.build();
        let ds = App::Har.dataset(24, 5);
        let qm = Quantized8Model::quantize(&mut model, &ds, 8);
        let a = qm.evaluate_q8(&ds);
        let b = qm.evaluate_q8(&ds);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((0.0..=1.0).contains(&a));
    }

    /// A recycled context reproduces the fresh-context logits bitwise, for
    /// both precisions — scratch reuse must not leak state across samples.
    #[test]
    fn recycled_ctx_is_bitwise_identical() {
        let mut model = App::Sqn.build();
        let ds = App::Sqn.dataset(4, 7);
        let q15 = QuantizedModel::quantize(&mut model, &ds, 4);
        let q8 = Quantized8Model::quantize(&mut model, &ds, 4);
        let mut ctx = ExecCtx::new();
        for i in 0..4 {
            let x = ds.sample(i);
            let a15 = q15.forward_q15_with(&x, &mut ctx);
            let b15 = q15.forward_q15(&x);
            assert!(a15.iter().zip(&b15).all(|(a, b)| a.to_bits() == b.to_bits()));
            let a8 = q8.forward_q8_with(&x, &mut ctx);
            let b8 = q8.forward_q8(&x);
            assert!(a8.iter().zip(&b8).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
