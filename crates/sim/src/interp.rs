//! The reference tile-program interpreter: the differential oracle for the
//! bytecode executor, always built and never on the hot path.
//!
//! [`Executor::run_checked`] runs a sample through both and asserts
//! bit-identical activations for every lowered node; that is the check the
//! differential, serving, sharding and sparsity suites and
//! `fpsa_core::validate` rely on. [`Executor::run_interpreted_into`] is the
//! baseline of the `exec_forward` bench's ≥3× speedup pin, so the loops
//! (epoch-stamped slabs included) stay exactly as they ran before bytecode.
//! Scratch lives in [`InterpArena`] and bind-time state in [`InterpPlan`]:
//! the production [`ExecArena`] and [`Executor`] hold nothing of it.

use crate::exec::{
    mismatch, side_gather_step, ConvGeom, ExecArena, ExecError, Executor, NodeInfo, PoolGeom,
    ProgramKind, TileProgram,
};
use fpsa_nn::quant::{quantize_code, rescale_code};
use fpsa_nn::reference::{pooled_window_real, requantize_mac, InputView};
use std::fmt;

/// An epoch-stamped buffer pool: one growable buffer per slot, with validity
/// tracked per execution epoch. The bytecode path replaced this per-buffer
/// bookkeeping with two flat slabs whose layout lowering fixed.
#[derive(Debug, Default)]
struct Slab<T> {
    bufs: Vec<Vec<T>>,
    stamp: Vec<u64>,
}

impl<T: Copy + Default> Slab<T> {
    fn ensure(&mut self, slots: usize) {
        if self.bufs.len() < slots {
            self.bufs.resize_with(slots, Vec::new);
            self.stamp.resize(slots, 0);
        }
    }

    /// Claim a slot for `epoch` as an empty buffer (capacity retained).
    fn claim(&mut self, slot: usize, epoch: u64) -> &mut Vec<T> {
        self.stamp[slot] = epoch;
        let buf = &mut self.bufs[slot];
        buf.clear();
        buf
    }

    /// Claim a slot for `epoch`, zero-filled to `len`.
    fn claim_zeroed(&mut self, slot: usize, len: usize, epoch: u64) {
        let buf = self.claim(slot, epoch);
        buf.resize(len, T::default());
    }

    /// Whether the slot was written during `epoch`.
    fn live(&self, slot: usize, epoch: u64) -> bool {
        self.stamp.get(slot).copied() == Some(epoch)
    }

    fn get(&self, slot: usize, epoch: u64) -> Option<&[T]> {
        self.live(slot, epoch).then(|| self.bufs[slot].as_slice())
    }

    fn get_mut(&mut self, slot: usize, epoch: u64) -> Option<&mut [T]> {
        self.live(slot, epoch)
            .then(|| self.bufs[slot].as_mut_slice())
    }
}

/// Bind-time state only the interpreter reads, recorded by
/// [`Executor::bind`] next to the lowered bytecode.
#[derive(Debug)]
pub(crate) struct InterpPlan {
    pub nodes: Vec<Option<NodeInfo>>,
    pub group_count: usize,
    pub output_view: InputView,
    pub output_steps: Vec<f64>,
    /// Widest tile output row (sizes the arena's accumulator row).
    pub max_cols: usize,
}

/// Reusable scratch for the reference interpreter: one epoch-stamped slab
/// per buffer kind and numeric domain, plus the accumulator row and the
/// element-wise side buffers. Like [`ExecArena`], one arena can serve any
/// number of runs and executors — every run bumps the epoch, which
/// invalidates everything the previous run left behind.
#[derive(Debug, Default)]
pub struct InterpArena {
    epoch: u64,
    node_f: Slab<f32>,
    gather_f: Slab<f32>,
    partial_f: Slab<f64>,
    node_i: Slab<i64>,
    gather_i: Slab<i64>,
    partial_i: Slab<i64>,
    acc_f: Vec<f64>,
    acc_i: Vec<i64>,
    eltwise_f: Vec<Vec<f32>>,
    eltwise_i: Vec<Vec<i64>>,
}

impl Executor {
    /// Execute one sample on the reference interpreter (the oracle the
    /// bytecode stream is differentially checked against).
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    pub fn run_interpreted(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let mut out = Vec::new();
        self.run_interpreted_into(input, &mut InterpArena::default(), &mut out)?;
        Ok(out)
    }

    /// [`Executor::run_interpreted`] with a caller-owned arena: the
    /// interpreter exactly as the pre-bytecode `run_into` hot path ran it,
    /// bind- and allocation-amortized. This is the baseline the forward-pass
    /// speedup bench measures the bytecode stream against.
    ///
    /// # Errors
    ///
    /// Same surface as [`Executor::run_into`].
    pub fn run_interpreted_into(
        &self,
        input: &[f32],
        arena: &mut InterpArena,
        out: &mut Vec<f32>,
    ) -> Result<(), ExecError> {
        out.clear();
        if self.precision_integer {
            self.run_integer_arena(input, arena)?;
        } else {
            self.run_float_arena(input, arena)?;
        }
        out.extend_from_slice(&self.interpreted_output(arena)?);
        Ok(())
    }

    /// Gather the interpreter arena's output nodes (dequantized in the
    /// integer domain) — the pre-bytecode `run_into` extraction.
    fn interpreted_output(&self, arena: &InterpArena) -> Result<Vec<f32>, ExecError> {
        let mut out = Vec::new();
        if self.precision_integer {
            let plan = &self.interp;
            for (segment, &step) in plan.output_view.iter().zip(&plan.output_steps) {
                let codes = arena
                    .node_i
                    .get(segment.source, arena.epoch)
                    .ok_or_else(|| mismatch("output node never executed"))?;
                out.extend(codes.iter().map(|&c| (c as f64 * step) as f32));
            }
        } else {
            for segment in &self.interp.output_view {
                out.extend_from_slice(
                    arena
                        .node_f
                        .get(segment.source, arena.epoch)
                        .ok_or_else(|| mismatch("output node never executed"))?,
                );
            }
        }
        Ok(out)
    }

    /// Execute one sample on **both** the bytecode stream and the reference
    /// interpreter, asserting bit-identical activations for every lowered
    /// node (`f32` bit patterns / `i64` codes) and bit-identical outputs,
    /// then return the bytecode output. This is the differential suite's
    /// cross-check: it is what lets the repo keep exactly one production
    /// executor.
    ///
    /// # Panics
    ///
    /// Panics when any node buffer or output diverges — a lowering bug.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    pub fn run_checked(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let (mut bc, mut out) = (ExecArena::new(), Vec::new());
        self.run_into(input, &mut bc, &mut out)?;
        let (mut shadow, mut interpreted) = (InterpArena::default(), Vec::new());
        self.run_interpreted_into(input, &mut shadow, &mut interpreted)?;
        if self.precision_integer {
            self.check_nodes(&bc.val_i, &shadow.node_i, shadow.epoch);
        } else {
            self.check_nodes(&bc.val_f, &shadow.node_f, shadow.epoch);
        }
        assert_bits_eq(&out, &interpreted, format_args!("output"));
        Ok(out)
    }

    /// Assert every lowered node's region of the bytecode value slab `vals`
    /// equals the interpreter's node buffer, bit for bit.
    fn check_nodes<T: Bits>(&self, vals: &[T], shadow: &Slab<T>, epoch: u64) {
        for node in 0..self.graph_len {
            let Some(region) = self.lowered.node_regions[node] else {
                continue;
            };
            let want = shadow.get(node, epoch).expect("interpreter ran every node");
            assert_bits_eq(&vals[region.range()], want, format_args!("node {node}"));
        }
    }

    /// Float-domain execution of all tile programs in schedule order, into
    /// the arena's epoch-stamped buffers.
    ///
    /// The Dense/Conv inner loops run column-major over the accumulator row
    /// (`for r { for c { acc[c] += w[r][c] * x[r] } }`): each output's f64
    /// accumulator still receives its terms in exactly the same `r` order as
    /// the classic `for c { for r { .. } }` nesting, so results are
    /// bit-identical — but the weight matrix is now read contiguously, which
    /// is what makes the serving hot path fast.
    fn run_float_arena(&self, input: &[f32], arena: &mut InterpArena) -> Result<(), ExecError> {
        arena.epoch += 1;
        let epoch = arena.epoch;
        let InterpArena {
            node_f,
            gather_f,
            partial_f,
            acc_f,
            eltwise_f,
            ..
        } = arena;
        node_f.ensure(self.graph_len);
        gather_f.ensure(self.graph_len);
        partial_f.ensure(self.interp.group_count);
        acc_f.resize(self.interp.max_cols, 0.0);

        let in_node = self.checked_input_node(input)?;
        node_f.claim(in_node, epoch).extend_from_slice(input);

        for prog in &self.programs {
            let info = self.interp.nodes[prog.node]
                .as_ref()
                .expect("bound node info");
            if prog.kind.needs_gather() && !gather_f.live(prog.node, epoch) {
                let dst = gather_f.claim(prog.node, epoch);
                dst.reserve(info.view.iter().map(|s| s.elements).sum());
                for segment in &info.view {
                    dst.extend_from_slice(
                        node_f
                            .get(segment.source, epoch)
                            .ok_or_else(|| mismatch("producer executed after consumer"))?,
                    );
                }
            }
            let positions = prog.positions;
            if prog.writes_output {
                if !node_f.live(prog.node, epoch) {
                    node_f.claim_zeroed(prog.node, info.elements, epoch);
                }
            } else {
                partial_f.claim_zeroed(prog.group, positions * prog.cols, epoch);
            }
            // Element-wise tiles read each Add side once per program.
            if let ProgramKind::Eltwise(views) = &prog.kind {
                if eltwise_f.len() < views.len() {
                    eltwise_f.resize_with(views.len(), Vec::new);
                }
                for (side, view) in eltwise_f.iter_mut().zip(views) {
                    side.clear();
                    for segment in view {
                        side.extend_from_slice(
                            node_f
                                .get(segment.source, epoch)
                                .ok_or_else(|| mismatch("producer executed after consumer"))?,
                        );
                    }
                }
            }

            let acc = &mut acc_f[..prog.cols];
            for p in 0..positions {
                match &prog.kind {
                    ProgramKind::Dense => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        let w = self.interp_weights(prog, p);
                        acc.fill(0.0);
                        for r in 0..prog.rows {
                            let xv = f64::from(x[prog.row_offset + r]);
                            let row = &w[r * prog.cols..(r + 1) * prog.cols];
                            for (a, &wv) in acc.iter_mut().zip(row) {
                                *a += f64::from(wv) * xv;
                            }
                        }
                    }
                    ProgramKind::Conv(geom) => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        let w = self.interp_weights(prog, p);
                        let (oy, ox) = (p / out_w(geom), p % out_w(geom));
                        acc.fill(0.0);
                        for r in 0..prog.rows {
                            if let Some(idx) = conv_input_index(geom, prog.row_offset + r, oy, ox) {
                                let xv = f64::from(x[idx]);
                                let row = &w[r * prog.cols..(r + 1) * prog.cols];
                                for (a, &wv) in acc.iter_mut().zip(row) {
                                    *a += f64::from(wv) * xv;
                                }
                            }
                        }
                    }
                    ProgramKind::Reduce(sources) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let mut sum = 0.0f64;
                            for &(pred, pred_cols, slice) in sources {
                                sum += partial_f.get(pred, epoch).ok_or_else(|| {
                                    mismatch("reduction ran before its partial tiles")
                                })?[p * pred_cols + slice + c];
                            }
                            *a = sum;
                        }
                    }
                    ProgramKind::AvgPool(geom) => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        let ow = out_w_pool(geom);
                        let (oy, ox) = (p / ow, p % ow);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut sum = 0.0f64;
                            for ky in 0..geom.kernel {
                                for kx in 0..geom.kernel {
                                    sum += f64::from(
                                        x[channel * geom.ih * geom.iw
                                            + (oy * geom.stride + ky) * geom.iw
                                            + ox * geom.stride
                                            + kx],
                                    );
                                }
                            }
                            *a = sum / (geom.kernel * geom.kernel) as f64;
                        }
                    }
                    ProgramKind::GlobalAvgPool { window } => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let sum: f64 = (0..*window)
                                .map(|i| f64::from(x[channel * window + i]))
                                .sum();
                            *a = sum / *window as f64;
                        }
                    }
                    ProgramKind::MaxStage1(geom) => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        let ow = out_w_pool(geom);
                        let (oy, ox) = (p / ow, p % ow);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut max = f64::NEG_INFINITY;
                            for ky in 0..geom.kernel {
                                for kx in 0..geom.kernel {
                                    max = max.max(f64::from(
                                        x[channel * geom.ih * geom.iw
                                            + (oy * geom.stride + ky) * geom.iw
                                            + ox * geom.stride
                                            + kx],
                                    ));
                                }
                            }
                            *a = max;
                        }
                    }
                    ProgramKind::MaxStage2 { source } => {
                        let stage1 = partial_f
                            .get(*source, epoch)
                            .ok_or_else(|| mismatch("max-pool stage 2 ran before stage 1"))?;
                        for (c, a) in acc.iter_mut().enumerate() {
                            *a = stage1[p * prog.cols + c];
                        }
                    }
                    ProgramKind::Eltwise(views) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut sum = 0.0f64;
                            for x in &eltwise_f[..views.len()] {
                                sum += f64::from(x[channel * positions + p]);
                            }
                            *a = sum;
                        }
                    }
                }
                // Scatter the accumulator row (fused ReLU at output
                // boundaries), exactly like the pre-arena store path.
                if prog.writes_output {
                    let buf = node_f.get_mut(prog.node, epoch).expect("allocated output");
                    for (c, &a) in acc.iter().enumerate() {
                        let a = if prog.relu { a.max(0.0) } else { a };
                        buf[(prog.col_offset + c) * positions + p] = a as f32;
                    }
                } else {
                    let out = partial_f
                        .get_mut(prog.group, epoch)
                        .expect("allocated partial");
                    for (c, &a) in acc.iter().enumerate() {
                        out[p * prog.cols + c] = a;
                    }
                }
            }
        }
        Ok(())
    }

    /// Integer-domain execution (see module docs; bit-for-bit against the
    /// quantized reference), into the arena's epoch-stamped buffers.
    fn run_integer_arena(&self, input: &[f32], arena: &mut InterpArena) -> Result<(), ExecError> {
        let alevels = self.activation_levels;
        arena.epoch += 1;
        let epoch = arena.epoch;
        let InterpArena {
            node_i,
            gather_i,
            partial_i,
            acc_i,
            eltwise_i,
            ..
        } = arena;
        node_i.ensure(self.graph_len);
        gather_i.ensure(self.graph_len);
        partial_i.ensure(self.interp.group_count);
        acc_i.resize(self.interp.max_cols, 0);

        let in_node = self.checked_input_node(input)?;
        let step = self.node_steps[in_node];
        let buf = node_i.claim(in_node, epoch);
        buf.extend(
            input
                .iter()
                .map(|&v| quantize_code(f64::from(v), step, alevels)),
        );

        for prog in &self.programs {
            let info = self.interp.nodes[prog.node]
                .as_ref()
                .expect("bound node info");
            if prog.kind.needs_gather() && !gather_i.live(prog.node, epoch) {
                // Gather the node's logical input codes at the view's gather
                // step — exactly the reference's rule.
                let dst = gather_i.claim(prog.node, epoch);
                for segment in &info.view {
                    let step = self.node_steps[segment.source];
                    let codes = node_i
                        .get(segment.source, epoch)
                        .ok_or_else(|| mismatch("producer executed after consumer"))?;
                    dst.extend(
                        codes
                            .iter()
                            .map(|&c| rescale_code(c, step, info.gather_step, alevels)),
                    );
                }
            }
            let positions = prog.positions;
            if prog.writes_output {
                if !node_i.live(prog.node, epoch) {
                    node_i.claim_zeroed(prog.node, info.elements, epoch);
                }
            } else {
                partial_i.claim_zeroed(prog.group, positions * prog.cols, epoch);
            }
            // Element-wise tiles: gather each Add side once, already
            // rescaled from the side's own gather step to the node's —
            // the reference's exact double-rescale composition.
            if let ProgramKind::Eltwise(views) = &prog.kind {
                if eltwise_i.len() < views.len() {
                    eltwise_i.resize_with(views.len(), Vec::new);
                }
                for (side, view) in eltwise_i.iter_mut().zip(views) {
                    side.clear();
                    let sstep = side_gather_step(&self.node_steps, view);
                    for segment in view {
                        let step = self.node_steps[segment.source];
                        let codes = node_i
                            .get(segment.source, epoch)
                            .ok_or_else(|| mismatch("producer executed after consumer"))?;
                        side.extend(codes.iter().map(|&c| {
                            let gathered = rescale_code(c, step, sstep, alevels);
                            rescale_code(gathered, sstep, info.gather_step, alevels)
                        }));
                    }
                }
            }

            // MAC-producing tiles requantize on store; the other kinds
            // compute their final code (or raw partial value) directly.
            let mac_store = matches!(
                prog.kind,
                ProgramKind::Dense | ProgramKind::Conv(_) | ProgramKind::Reduce(_)
            );
            let acc = &mut acc_i[..prog.cols];
            for p in 0..positions {
                match &prog.kind {
                    ProgramKind::Dense => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        let wq = self.interp_weights_q(prog);
                        acc.fill(0);
                        for r in 0..prog.rows {
                            let xv = x[prog.row_offset + r];
                            let row = &wq[r * prog.cols..(r + 1) * prog.cols];
                            for (a, &wv) in acc.iter_mut().zip(row) {
                                *a += wv * xv;
                            }
                        }
                    }
                    ProgramKind::Conv(geom) => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        let wq = self.interp_weights_q(prog);
                        let (oy, ox) = (p / out_w(geom), p % out_w(geom));
                        acc.fill(0);
                        for r in 0..prog.rows {
                            if let Some(idx) = conv_input_index(geom, prog.row_offset + r, oy, ox) {
                                let xv = x[idx];
                                let row = &wq[r * prog.cols..(r + 1) * prog.cols];
                                for (a, &wv) in acc.iter_mut().zip(row) {
                                    *a += wv * xv;
                                }
                            }
                        }
                    }
                    ProgramKind::Reduce(sources) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let mut sum = 0i64;
                            for &(pred, pred_cols, slice) in sources {
                                sum += partial_i.get(pred, epoch).ok_or_else(|| {
                                    mismatch("reduction ran before its partial tiles")
                                })?[p * pred_cols + slice + c];
                            }
                            *a = sum;
                        }
                    }
                    ProgramKind::AvgPool(geom) => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        let ow = out_w_pool(geom);
                        let (oy, ox) = (p / ow, p % ow);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let real = pooled_window_real(
                                x,
                                channel,
                                oy,
                                ox,
                                geom.kernel,
                                geom.stride,
                                geom.ih,
                                geom.iw,
                                info.gather_step,
                                false,
                            );
                            *a = quantize_code(real, info.out_step, alevels);
                        }
                    }
                    ProgramKind::GlobalAvgPool { window } => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let sum: i64 = (0..*window).map(|i| x[channel * window + i]).sum();
                            let real = sum as f64 * info.gather_step / *window as f64;
                            *a = quantize_code(real, info.out_step, alevels);
                        }
                    }
                    ProgramKind::MaxStage1(geom) => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        let ow = out_w_pool(geom);
                        let (oy, ox) = (p / ow, p % ow);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut max = i64::MIN;
                            for ky in 0..geom.kernel {
                                for kx in 0..geom.kernel {
                                    max = max.max(
                                        x[channel * geom.ih * geom.iw
                                            + (oy * geom.stride + ky) * geom.iw
                                            + ox * geom.stride
                                            + kx],
                                    );
                                }
                            }
                            *a = max;
                        }
                    }
                    ProgramKind::MaxStage2 { source } => {
                        let stage1 = partial_i
                            .get(*source, epoch)
                            .ok_or_else(|| mismatch("max-pool stage 2 ran before stage 1"))?;
                        for (c, a) in acc.iter_mut().enumerate() {
                            // Identical composition to the reference's
                            // max-pool path: real value, then requantize.
                            let real = stage1[p * prog.cols + c] as f64 * info.gather_step;
                            *a = quantize_code(real, info.out_step, alevels);
                        }
                    }
                    ProgramKind::Eltwise(views) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut sum = 0i64;
                            for x in &eltwise_i[..views.len()] {
                                sum += x[channel * positions + p];
                            }
                            let sum = if prog.relu { sum.max(0) } else { sum };
                            *a = rescale_code(sum, info.gather_step, info.out_step, alevels);
                        }
                    }
                }
                if prog.writes_output {
                    let buf = node_i.get_mut(prog.node, epoch).expect("allocated output");
                    for (c, &a) in acc.iter().enumerate() {
                        let code = if mac_store {
                            requantize_mac(
                                a,
                                info.weight_step,
                                info.gather_step,
                                prog.relu,
                                info.out_step,
                                alevels,
                            )
                        } else {
                            a
                        };
                        buf[(prog.col_offset + c) * positions + p] = code;
                    }
                } else {
                    // Partial tiles keep the raw accumulation (MAC partials
                    // awaiting a reduction, stage-1 window maxima).
                    let out = partial_i
                        .get_mut(prog.group, epoch)
                        .expect("allocated partial");
                    for (c, &a) in acc.iter().enumerate() {
                        out[p * prog.cols + c] = a;
                    }
                }
            }
        }
        Ok(())
    }

    /// The float weight matrix instance `i` of a tile executes on (the
    /// interpreter's per-position duplicate selection, reading the slab).
    fn interp_weights(&self, prog: &TileProgram, instance: usize) -> &[f32] {
        let dup = (instance as u64 % prog.duplicates) as usize;
        let (off, len) = prog.w_f[dup % prog.w_f.len()];
        &self.lowered.wslab_f[off as usize..(off + len) as usize]
    }

    /// A tile's integer weight codes (shared across duplicates).
    fn interp_weights_q(&self, prog: &TileProgram) -> &[i64] {
        let (off, len) = prog.w_q;
        &self.lowered.wslab_q[off as usize..(off + len) as usize]
    }
}

/// Output width of a convolution node (positions are row-major `oy * ow + ox`).
fn out_w(geom: &ConvGeom) -> usize {
    (geom.iw + 2 * geom.padding - geom.kernel) / geom.stride + 1
}

/// Output width of a pooling node.
fn out_w_pool(geom: &PoolGeom) -> usize {
    (geom.iw - geom.kernel) / geom.stride + 1
}

/// The im2col input index of one (absolute row, output position), or `None`
/// for zero padding. Rows are `(channel * k + ky) * k + kx`.
fn conv_input_index(geom: &ConvGeom, row: usize, oy: usize, ox: usize) -> Option<usize> {
    let k = geom.kernel;
    let channel = row / (k * k);
    let rem = row % (k * k);
    let (ky, kx) = (rem / k, rem % k);
    let y = (oy * geom.stride + ky) as isize - geom.padding as isize;
    let x = (ox * geom.stride + kx) as isize - geom.padding as isize;
    if y < 0 || x < 0 || y >= geom.ih as isize || x >= geom.iw as isize {
        return None;
    }
    Some(channel * geom.ih * geom.iw + y as usize * geom.iw + x as usize)
}

/// A slab element compared by bit pattern, so `-0.0` vs `0.0` and NaN
/// payloads count as divergence in the float domain.
trait Bits: Copy + Default + fmt::Debug {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for i64 {
    fn bits(self) -> u64 {
        self as u64
    }
}

/// Panic unless `got` (bytecode) and `want` (interpreter) agree bit for bit.
fn assert_bits_eq<T: Bits>(got: &[T], want: &[T], what: fmt::Arguments<'_>) {
    assert_eq!(got.len(), want.len(), "{what} length diverged");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.bits() == w.bits(),
            "bytecode diverged from the interpreter at {what}[{i}]: {g:?} vs {w:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Precision;
    use fpsa_device::variation::{CellVariation, WeightScheme};
    use fpsa_mapper::{AllocationPolicy, Mapper};
    use fpsa_nn::reference::QuantizationPlan;
    use fpsa_nn::{seeds, zoo, ComputationalGraph, GraphParameters};
    use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bind(graph: &ComputationalGraph, params: &GraphParameters, p: &Precision) -> Executor {
        let core = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(graph)
            .expect("zoo models synthesize");
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&core);
        Executor::bind(graph, params, &core, &mapping, p).expect("zoo models bind")
    }

    fn samples(graph: &ComputationalGraph, n: u64) -> Vec<Vec<f32>> {
        let exec = bind(graph, &GraphParameters::seeded(graph, 0), &Precision::Float);
        let len = exec.input_len().expect("graph has an input");
        (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(seeds::derive(42, seeds::STREAM_SAMPLES, i));
                (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect()
            })
            .collect()
    }

    /// Float, Integer (calibrated on `inputs`) and Noisy.
    fn precisions(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        inputs: &[Vec<f32>],
    ) -> Vec<Precision> {
        let plan = QuantizationPlan::calibrate(graph, params, inputs).unwrap();
        vec![
            Precision::Float,
            Precision::Integer(plan),
            Precision::Noisy {
                scheme: WeightScheme::fpsa_add(),
                variation: CellVariation::measured(),
                seed: 0xBEEF,
            },
        ]
    }

    /// Bind `tiny_mlp`, check one sample, then drop the last lowered
    /// instruction and check again: the second check must panic, which is
    /// what shows `run_checked` compares the bytecode against the
    /// interpreter rather than against itself.
    fn check_after_dropping_the_last_instruction(precision_index: usize) {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 3);
        let inputs = samples(&graph, 2);
        let precision = &precisions(&graph, &params, &inputs)[precision_index];
        let mut exec = bind(&graph, &params, precision);
        exec.run_checked(&inputs[0])
            .expect("intact bytecode checks clean");
        exec.lowered
            .insts
            .pop()
            .expect("tiny MLP lowers to instructions");
        let _ = exec.run_checked(&inputs[0]);
    }

    #[test]
    #[should_panic(expected = "bytecode diverged")]
    fn run_checked_catches_a_dropped_float_instruction() {
        check_after_dropping_the_last_instruction(0);
    }

    #[test]
    #[should_panic(expected = "bytecode diverged")]
    fn run_checked_catches_a_dropped_integer_instruction() {
        check_after_dropping_the_last_instruction(1);
    }

    #[test]
    fn one_interp_arena_can_serve_different_executors_and_precisions() {
        // Epoch stamping invalidates the whole arena per run, so neither a
        // different model nor a different numeric domain can leak state.
        let mut bound = Vec::new();
        for graph in [zoo::tiny_mlp(), zoo::tiny_cnn()] {
            let params = GraphParameters::seeded(&graph, 13);
            let inputs = samples(&graph, 2);
            for precision in precisions(&graph, &params, &inputs) {
                bound.push((bind(&graph, &params, &precision), inputs.clone()));
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut arena = InterpArena::default();
        let mut out = Vec::new();
        for _ in 0..2 {
            for (exec, inputs) in &bound {
                for x in inputs {
                    exec.run_interpreted_into(x, &mut arena, &mut out).unwrap();
                    assert_eq!(bits(&out), bits(&exec.run_interpreted(x).unwrap()));
                }
            }
        }
    }
}
