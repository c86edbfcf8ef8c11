//! Model deployment: quantization, calibration, and BSR packing.
//!
//! Mirrors the paper's deployment flow (Section IV-A): model parameters are
//! quantized from 32-bit float to a 16-bit fixed-point representation and
//! packed, layer by layer, into the BSR format at the accelerator-operation
//! block granularity chosen by the tile planner. Activation formats come
//! from [`iprune_models::graphref::calibrate`] — the float reference
//! executor over a handful of samples — the same calibration the host
//! Q15 evaluator uses, so both see identical formats.

use crate::bsr::BsrMatrix;
use crate::plan::LayerPlan;
use iprune_datasets::Dataset;
use iprune_models::arch::{GraphOp, ModelInfo};
use iprune_models::graphref::calibrate;
use iprune_models::{LayerWeights, Model};
use iprune_tensor::quant::{QFormat, QTensor};

/// One deployed (quantized, BSR-packed) prunable layer.
#[derive(Debug, Clone)]
pub struct DeployedLayer {
    /// Prunable layer id.
    pub layer_id: usize,
    /// Execution plan (tile shape, counts).
    pub plan: LayerPlan,
    /// Block-sparse quantized weights.
    pub bsr: BsrMatrix,
    /// Quantized biases (one per output feature).
    pub bias: Vec<i16>,
    /// Fixed-point format of the biases.
    pub bias_fmt: QFormat,
}

impl DeployedLayer {
    /// NVM bytes re-fetched during progress recovery for this layer:
    /// footprint and index arrays, the partial-accumulator scratch, the
    /// input sub-strip, and the interrupted weight block.
    pub fn recovery_bytes(&self) -> usize {
        let t = self.plan.tile;
        16 + 4 * t.br * t.strip + 2 * t.bc * t.strip + 2 * t.br * t.bc
    }
}

/// A model ready to execute on the device simulator.
#[derive(Debug, Clone)]
pub struct DeployedModel {
    /// Structural description (cloned from the trained model).
    pub info: ModelInfo,
    /// Deployed layers, indexed by layer id.
    pub layers: Vec<DeployedLayer>,
    /// Fixed-point format of each activation buffer.
    pub buf_fmts: Vec<QFormat>,
}

impl DeployedModel {
    /// Deployed model size in bytes with BSR storage (weights, both index
    /// arrays, and biases) — the "Model Size" column of Table III for
    /// pruned models.
    pub fn sparse_size_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.bsr.storage_bytes() + l.bias.len() * 2).sum()
    }

    /// Deployed model size with dense storage (the natural choice for the
    /// unpruned baseline).
    pub fn dense_size_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.bsr.dense_bytes() + l.bias.len() * 2).sum()
    }

    /// Size as reported in the paper's tables: dense when nothing was
    /// pruned, BSR otherwise (BSR only pays off with sufficient sparsity).
    pub fn reported_size_bytes(&self) -> usize {
        self.sparse_size_bytes().min(self.dense_size_bytes())
    }

    /// Total accelerator outputs per inference (the pruning criterion).
    pub fn total_acc_outputs(&self) -> usize {
        self.layers.iter().map(|l| l.plan.bsr_acc_outputs(&l.bsr)).sum()
    }

    /// Total MACs per inference (whole blocks, padded lanes included).
    pub fn total_macs(&self) -> usize {
        self.layers.iter().map(|l| l.plan.bsr_macs(&l.bsr)).sum()
    }
}

/// Default number of calibration samples.
pub const DEFAULT_CALIBRATION: usize = 8;

/// Deploys a trained model: calibrates activation formats on up to
/// `n_calib` samples of `calib`, quantizes weights and biases to 16-bit
/// fixed point, and packs each layer into BSR at its planned block shape.
///
/// # Panics
///
/// Panics if `calib` is empty or its sample shape differs from the model
/// input.
pub fn deploy(model: &mut Model, calib: &Dataset, n_calib: usize) -> DeployedModel {
    assert!(!calib.is_empty(), "calibration set must not be empty");
    let weights = model.extract_weights();
    let info = model.info.clone();

    let buf_fmts = calibrate(&info, &weights, calib, n_calib, QFormat::for_max_abs);

    // --- quantize and pack each prunable layer ---
    let layers: Vec<DeployedLayer> = weights
        .iter()
        .map(|lw: &LayerWeights| {
            let p = &info.prunables[lw.layer_id];
            let plan = LayerPlan::for_layer(p);
            let qw = QTensor::quantize(&lw.w);
            let bsr = BsrMatrix::from_dense(
                qw.data(),
                plan.m,
                plan.k,
                plan.tile.br,
                plan.tile.bc,
                qw.format(),
            );
            // Bias is added in the (in_frac + w_frac)-bit accumulator; its
            // format must not exceed that depth.
            let in_fmt = input_fmt_of_layer(&info, lw.layer_id, &buf_fmts);
            let acc_frac = in_fmt.frac_bits() + qw.format().frac_bits();
            let natural = QFormat::for_max_abs(lw.b.max_abs().max(1e-6));
            let bias_fmt = QFormat::new(natural.frac_bits().min(acc_frac).min(15));
            let bias: Vec<i16> = lw.b.data().iter().map(|&v| bias_fmt.quantize(v)).collect();
            DeployedLayer { layer_id: lw.layer_id, plan, bsr, bias, bias_fmt }
        })
        .collect();

    DeployedModel { info, layers, buf_fmts }
}

/// The activation format of the buffer a prunable layer reads.
fn input_fmt_of_layer(info: &ModelInfo, layer_id: usize, fmts: &[QFormat]) -> QFormat {
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

#[cfg(test)]
mod tests {
    use super::*;
    use iprune_models::zoo::App;

    #[test]
    fn deploy_all_apps() {
        for app in App::all() {
            let mut model = app.build();
            let calib = app.dataset(4, 7);
            let dm = deploy(&mut model, &calib, 4);
            assert_eq!(dm.layers.len(), model.info.prunables.len());
            // Unpruned: dense size should be close to the Table II budget.
            let dense_kb = dm.dense_size_bytes() as f64 / 1024.0;
            let expect_kb = model.info.dense_size_bytes() as f64 / 1024.0;
            assert!((dense_kb - expect_kb).abs() < 0.5, "{}: {dense_kb} KB", app.name());
            // Unpruned acc outputs match the analytic dense count closely
            // (quantization may zero a few tiny blocks).
            let analytic = crate::plan::dense_model_acc_outputs(&model.info) as f64;
            let got = dm.total_acc_outputs() as f64;
            assert!(got <= analytic * 1.001 && got > 0.9 * analytic, "{}", app.name());
        }
    }

    #[test]
    fn pool_buffers_share_input_format() {
        let mut model = App::Cks.build();
        let calib = App::Cks.dataset(2, 3);
        let dm = deploy(&mut model, &calib, 2);
        for op in &dm.info.graph {
            if let GraphOp::MaxPool { src, dst, .. } = op {
                assert_eq!(dm.buf_fmts[*src], dm.buf_fmts[*dst]);
            }
        }
    }

    #[test]
    fn reported_size_prefers_smaller_encoding() {
        let mut model = App::Har.build();
        let calib = App::Har.dataset(2, 3);
        let dm = deploy(&mut model, &calib, 2);
        // unpruned: dense beats BSR (indexes are pure overhead)
        assert_eq!(dm.reported_size_bytes(), dm.dense_size_bytes().min(dm.sparse_size_bytes()));
        assert!(dm.sparse_size_bytes() > dm.dense_size_bytes());
    }
}
