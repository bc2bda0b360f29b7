//! Differentiable operations on [`Tensor`].
//!
//! Every op computes its value eagerly and records a closure that distributes
//! the output gradient to its parents. Closures capture node ids (and, where
//! the rule needs them, cheap copies such as dropout masks); parent *values*
//! are read back from the tape during the backward sweep, so no large buffers
//! are duplicated at op-creation time.

use rand::Rng;

use crate::matrix::Matrix;
use crate::tape::{acc, BackwardKind, Tensor};

impl Tensor {
    fn next_id(&self) -> usize {
        self.tape.inner.borrow().nodes.len()
    }

    fn assert_same_tape(&self, other: &Tensor) {
        assert!(
            std::rc::Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "tensors belong to different tapes"
        );
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let (a, b) = (self.id, other.id);
        let value = {
            let inner = self.tape.inner.borrow();
            inner.values[a].add(&inner.values[b])
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], g.clone());
                acc(&mut grads[b], g.clone());
            })),
        )
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let (a, b) = (self.id, other.id);
        let value = {
            let inner = self.tape.inner.borrow();
            inner.values[a].sub(&inner.values[b])
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], g.clone());
                acc(&mut grads[b], g.scaled(-1.0));
            })),
        )
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        assert_eq!(self.shape(), other.shape(), "mul shape mismatch");
        let (a, b) = (self.id, other.id);
        let value = {
            let inner = self.tape.inner.borrow();
            inner.values[a].hadamard(&inner.values[b])
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                acc(&mut grads[a], g.hadamard(&v[b]));
                acc(&mut grads[b], g.hadamard(&v[a]));
            })),
        )
    }

    /// Multiplies every entry by a constant scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        let a = self.id;
        let value = self.tape.inner.borrow().values[a].scaled(s);
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], g.scaled(s));
            })),
        )
    }

    /// Adds a constant scalar to every entry.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let a = self.id;
        let value = self.tape.inner.borrow().values[a].map(|x| x + s);
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], g.clone());
            })),
        )
    }

    /// Adds a `1 x C` row vector to every row of an `R x C` tensor.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        self.assert_same_tape(bias);
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(self.cols(), bias.cols(), "bias width mismatch");
        let (a, b) = (self.id, bias.id);
        let value = {
            let inner = self.tape.inner.borrow();
            let x = &inner.values[a];
            let bv = &inner.values[b];
            let mut out = x.clone();
            for r in 0..out.rows() {
                for (o, &bb) in out.row_slice_mut(r).iter_mut().zip(bv.data()) {
                    *o += bb;
                }
            }
            out
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], g.clone());
                let mut gb = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &gg) in gb.row_slice_mut(0).iter_mut().zip(g.row_slice(r)) {
                        *o += gg;
                    }
                }
                acc(&mut grads[b], gb);
            })),
        )
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        assert_eq!(self.cols(), other.rows(), "matmul shape mismatch");
        let (a, b) = (self.id, other.id);
        let value = {
            let inner = self.tape.inner.borrow();
            inner.values[a].matmul(&inner.values[b])
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                acc(&mut grads[a], g.matmul_nt(&v[b])); // g * B^T
                acc(&mut grads[b], v[a].matmul_tn(g)); // A^T * g
            })),
        )
    }

    /// Matrix product `self * other^T` without materializing the transpose
    /// (`N x d` times `M x d` → `N x M`). This is the attention-score shape:
    /// `scores = Q * K^T` in one fused kernel instead of a `transpose` node
    /// plus a `matmul` node.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        assert_eq!(self.cols(), other.cols(), "matmul_nt shape mismatch");
        let (a, b) = (self.id, other.id);
        let value = {
            let inner = self.tape.inner.borrow();
            inner.values[a].matmul_nt(&inner.values[b])
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                // C = A B^T  =>  dA = g * B, dB = g^T * A.
                acc(&mut grads[a], g.matmul(&v[b]));
                acc(&mut grads[b], g.matmul_tn(&v[a]));
            })),
        )
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let a = self.id;
        let value = self.tape.inner.borrow().values[a].transpose();
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], g.transpose());
            })),
        )
    }

    /// Stacks tensors vertically.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let tape = parts[0].tape.clone();
        for p in parts {
            parts[0].assert_same_tape(p);
        }
        let ids: Vec<usize> = parts.iter().map(|p| p.id).collect();
        let row_counts: Vec<usize> = parts.iter().map(|p| p.rows()).collect();
        let value = {
            let inner = tape.inner.borrow();
            let mats: Vec<&Matrix> = ids.iter().map(|&i| &inner.values[i]).collect();
            Matrix::concat_rows(&mats)
        };
        tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                let mut start = 0;
                for (&id, &rc) in ids.iter().zip(&row_counts) {
                    acc(&mut grads[id], g.slice_rows(start, start + rc));
                    start += rc;
                }
            })),
        )
    }

    /// Stacks tensors horizontally.
    pub fn concat_cols(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let tape = parts[0].tape.clone();
        for p in parts {
            parts[0].assert_same_tape(p);
        }
        let ids: Vec<usize> = parts.iter().map(|p| p.id).collect();
        let col_counts: Vec<usize> = parts.iter().map(|p| p.cols()).collect();
        let value = {
            let inner = tape.inner.borrow();
            let mats: Vec<&Matrix> = ids.iter().map(|&i| &inner.values[i]).collect();
            Matrix::concat_cols(&mats)
        };
        tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                let mut start = 0;
                for (&id, &cc) in ids.iter().zip(&col_counts) {
                    acc(&mut grads[id], g.slice_cols(start, start + cc));
                    start += cc;
                }
            })),
        )
    }

    /// Copy of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows(), "slice_rows out of range");
        let a = self.id;
        let (rows, cols) = self.shape();
        let value = self.tape.inner.borrow().values[a].slice_rows(start, end);
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                let mut ga = Matrix::zeros(rows, cols);
                for (i, r) in (start..end).enumerate() {
                    ga.row_slice_mut(r).copy_from_slice(g.row_slice(i));
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols(), "slice_cols out of range");
        let a = self.id;
        let (rows, cols) = self.shape();
        let value = self.tape.inner.borrow().values[a].slice_cols(start, end);
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                let mut ga = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    ga.row_slice_mut(r)[start..end].copy_from_slice(g.row_slice(r));
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Single row `r` as a `1 x C` tensor.
    pub fn row(&self, r: usize) -> Tensor {
        self.slice_rows(r, r + 1)
    }

    /// Tiles a `1 x C` tensor into `k x C`.
    pub fn repeat_rows(&self, k: usize) -> Tensor {
        assert_eq!(self.rows(), 1, "repeat_rows requires a row vector");
        let a = self.id;
        let cols = self.cols();
        let value = {
            let inner = self.tape.inner.borrow();
            let row = inner.values[a].row_slice(0).to_vec();
            let mut data = Vec::with_capacity(k * cols);
            for _ in 0..k {
                data.extend_from_slice(&row);
            }
            Matrix::from_vec(k, cols, data)
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                let mut ga = Matrix::zeros(1, cols);
                for r in 0..g.rows() {
                    for (o, &gg) in ga.row_slice_mut(0).iter_mut().zip(g.row_slice(r)) {
                        *o += gg;
                    }
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Sums all entries into a `1 x 1` scalar.
    pub fn sum_all(&self) -> Tensor {
        let a = self.id;
        let (rows, cols) = self.shape();
        let value = Matrix::from_vec(1, 1, vec![self.tape.inner.borrow().values[a].sum()]);
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], Matrix::full(rows, cols, g.get(0, 0)));
            })),
        )
    }

    /// Averages all entries into a `1 x 1` scalar.
    pub fn mean_all(&self) -> Tensor {
        let n = (self.rows() * self.cols()) as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// Column-wise sum: `R x C` → `1 x C`.
    pub fn sum_rows(&self) -> Tensor {
        let a = self.id;
        let (rows, cols) = self.shape();
        let value = {
            let inner = self.tape.inner.borrow();
            let x = &inner.values[a];
            let mut out = Matrix::zeros(1, cols);
            for r in 0..rows {
                for (o, &xv) in out.row_slice_mut(0).iter_mut().zip(x.row_slice(r)) {
                    *o += xv;
                }
            }
            out
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                let mut ga = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    ga.row_slice_mut(r).copy_from_slice(g.row_slice(0));
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Column-wise mean: `R x C` → `1 x C`.
    pub fn mean_rows(&self) -> Tensor {
        let r = self.rows() as f32;
        self.sum_rows().scale(1.0 / r)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let a = self.id;
        let value = self.tape.inner.borrow().values[a].map(|x| x.max(0.0));
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                let mut ga = g.clone();
                for (o, &x) in ga.data_mut().iter_mut().zip(v[a].data()) {
                    if x <= 0.0 {
                        *o = 0.0;
                    }
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Leaky ReLU with negative slope `alpha` (paper Eq. 4 uses this on the
    /// neighbor-attention scores).
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        let a = self.id;
        let value = self.tape.inner.borrow().values[a].map(|x| crate::matrix::leaky_relu(x, alpha));
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                let mut ga = g.clone();
                for (o, &x) in ga.data_mut().iter_mut().zip(v[a].data()) {
                    if x <= 0.0 {
                        *o *= alpha;
                    }
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Logistic sigmoid (paper Eq. 5's σ).
    pub fn sigmoid(&self) -> Tensor {
        let a = self.id;
        let out_id = self.next_id();
        let value = self.tape.inner.borrow().values[a].map(crate::matrix::sigmoid);
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                let s = &v[out_id];
                let mut ga = g.clone();
                for (o, &sv) in ga.data_mut().iter_mut().zip(s.data()) {
                    *o *= sv * (1.0 - sv);
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Hyperbolic tangent (paper Eq. 6).
    pub fn tanh(&self) -> Tensor {
        let a = self.id;
        let out_id = self.next_id();
        let value = self.tape.inner.borrow().values[a].map(f32::tanh);
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                let t = &v[out_id];
                let mut ga = g.clone();
                for (o, &tv) in ga.data_mut().iter_mut().zip(t.data()) {
                    *o *= 1.0 - tv * tv;
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// GELU activation (tanh form), used inside Transformer FFNs. Forward
    /// and backward both evaluate the gate behind [`crate::gelu_in_place`],
    /// the same one the serving forward uses.
    pub fn gelu(&self) -> Tensor {
        let a = self.id;
        let mut value = self.tape.inner.borrow().values[a].clone();
        crate::gelu::gelu_in_place(value.data_mut());
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                let mut ga = g.clone();
                crate::gelu::gelu_backward_in_place(ga.data_mut(), v[a].data());
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let a = self.id;
        let out_id = self.next_id();
        let value = self.tape.inner.borrow().values[a].softmax_rows();
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                let s = &v[out_id];
                let (rows, cols) = g.shape();
                let mut ga = Matrix::zeros(rows, cols);
                for (r, garow) in ga.data_mut().chunks_exact_mut(cols.max(1)).enumerate() {
                    let srow = s.row_slice(r);
                    let grow = g.row_slice(r);
                    let dotv: f32 = srow.iter().zip(grow).map(|(x, y)| x * y).sum();
                    for ((o, &sv), &gv) in garow.iter_mut().zip(srow).zip(grow) {
                        *o = sv * (gv - dotv);
                    }
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Row-wise layer normalization with learnable `gamma`/`beta` row vectors.
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        self.assert_same_tape(gamma);
        self.assert_same_tape(beta);
        assert_eq!(gamma.shape(), (1, self.cols()), "gamma must be 1 x C");
        assert_eq!(beta.shape(), (1, self.cols()), "beta must be 1 x C");
        let (a, gid, bid) = (self.id, gamma.id, beta.id);
        let (rows, cols) = self.shape();
        // Precompute normalized values and inverse std per row.
        let (value, xhat, inv_std) = {
            let inner = self.tape.inner.borrow();
            let x = &inner.values[a];
            let gm = &inner.values[gid];
            let bt = &inner.values[bid];
            let mut out = Matrix::zeros(rows, cols);
            let mut xh = Matrix::zeros(rows, cols);
            let mut istd = vec![0.0f32; rows];
            for (r, inv_slot) in istd.iter_mut().enumerate() {
                let row = x.row_slice(r);
                let (mean, inv) = crate::matrix::row_mean_inv_std(row, eps);
                *inv_slot = inv;
                let orow = &mut out.data_mut()[r * cols..(r + 1) * cols];
                let hrow = &mut xh.data_mut()[r * cols..(r + 1) * cols];
                for (c, &rv) in row.iter().enumerate() {
                    let h = (rv - mean) * inv;
                    hrow[c] = h;
                    orow[c] = gm.get(0, c) * h + bt.get(0, c);
                }
            }
            (out, xh, istd)
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, v, grads| {
                let gm = &v[gid];
                let mut ga = Matrix::zeros(rows, cols);
                for (r, garow) in ga.data_mut().chunks_exact_mut(cols.max(1)).enumerate() {
                    let inv = inv_std[r];
                    let grow = g.row_slice(r);
                    let hrow = xhat.row_slice(r);
                    // dxhat = g * gamma
                    let dxhat: Vec<f32> = (0..cols).map(|c| grow[c] * gm.get(0, c)).collect();
                    let mean_dx = dxhat.iter().sum::<f32>() / cols as f32;
                    let mean_dxh: f32 =
                        dxhat.iter().zip(hrow).map(|(d, h)| d * h).sum::<f32>() / cols as f32;
                    for (c, o) in garow.iter_mut().enumerate() {
                        *o = inv * (dxhat[c] - mean_dx - hrow[c] * mean_dxh);
                    }
                }
                let mut gg = Matrix::zeros(1, cols);
                let mut gb = Matrix::zeros(1, cols);
                for r in 0..rows {
                    let grow = g.row_slice(r);
                    let hrow = xhat.row_slice(r);
                    for c in 0..cols {
                        gg.data_mut()[c] += grow[c] * hrow[c];
                        gb.data_mut()[c] += grow[c];
                    }
                }
                acc(&mut grads[a], ga);
                acc(&mut grads[gid], gg);
                acc(&mut grads[bid], gb);
            })),
        )
    }

    /// Inverted dropout: in training mode zeroes entries with probability `p`
    /// and scales survivors by `1/(1-p)`; in inference mode it is identity.
    pub fn dropout(&self, p: f32) -> Tensor {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        let training = self.tape.is_training();
        if !training || p == 0.0 {
            // Identity pass-through that still participates in the graph.
            return self.scale(1.0);
        }
        let a = self.id;
        let keep = 1.0 - p;
        let (value, mask) = {
            let mut inner = self.tape.inner.borrow_mut();
            let (rows, cols) = inner.values[a].shape();
            let mut mask = Matrix::zeros(rows, cols);
            for m in mask.data_mut() {
                if inner.rng.gen::<f32>() >= p {
                    *m = 1.0 / keep;
                }
            }
            let value = inner.values[a].hadamard(&mask);
            (value, mask)
        };
        self.tape.push(
            value,
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], g.hadamard(&mask));
            })),
        )
    }

    /// Fused softmax + negative-log-likelihood over rows: each row of `self`
    /// is a logit vector, `targets[r]` is the gold class. Returns the mean
    /// loss as a `1 x 1` tensor.
    pub fn cross_entropy_logits(&self, targets: &[usize]) -> Tensor {
        assert_eq!(targets.len(), self.rows(), "one target per row required");
        let a = self.id;
        let (rows, cols) = self.shape();
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < cols, "target {t} out of range at row {r}");
        }
        let probs = self.tape.inner.borrow().values[a].softmax_rows();
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= rows as f32;
        let targets = targets.to_vec();
        self.tape.push(
            Matrix::from_vec(1, 1, vec![loss]),
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                let scale = g.get(0, 0) / rows as f32;
                let mut ga = probs.clone();
                for (r, &t) in targets.iter().enumerate() {
                    let v = ga.get(r, t);
                    ga.set(r, t, v - 1.0);
                }
                acc(&mut grads[a], ga.scaled(scale));
            })),
        )
    }

    /// Binary cross-entropy over logits against a `{0,1}` target matrix
    /// (paper Eq. 12). Returns the mean over all entries as `1 x 1`.
    pub fn bce_with_logits(&self, targets: &Matrix) -> Tensor {
        assert_eq!(self.shape(), targets.shape(), "bce target shape mismatch");
        let a = self.id;
        let n = (self.rows() * self.cols()) as f32;
        let (loss, sig) = {
            let inner = self.tape.inner.borrow();
            let x = &inner.values[a];
            let mut loss = 0.0f32;
            let mut sig = Matrix::zeros(x.rows(), x.cols());
            for i in 0..x.len() {
                let xv = x.data()[i];
                let y = targets.data()[i];
                // log(1 + e^{-|x|}) + max(x,0) - x*y  (numerically stable)
                loss += xv.max(0.0) - xv * y + (1.0 + (-xv.abs()).exp()).ln();
                sig.data_mut()[i] = 1.0 / (1.0 + (-xv).exp());
            }
            (loss / n, sig)
        };
        let targets = targets.clone();
        self.tape.push(
            Matrix::from_vec(1, 1, vec![loss]),
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                let scale = g.get(0, 0) / n;
                let mut ga = sig.clone();
                for i in 0..ga.len() {
                    ga.data_mut()[i] = (ga.data()[i] - targets.data()[i]) * scale;
                }
                acc(&mut grads[a], ga);
            })),
        )
    }

    /// Mean squared error against a constant target. Returns `1 x 1`.
    pub fn mse(&self, target: &Matrix) -> Tensor {
        assert_eq!(self.shape(), target.shape(), "mse target shape mismatch");
        let a = self.id;
        let n = (self.rows() * self.cols()) as f32;
        let (loss, diff) = {
            let inner = self.tape.inner.borrow();
            let d = inner.values[a].sub(target);
            let l = d.data().iter().map(|v| v * v).sum::<f32>() / n;
            (l, d)
        };
        self.tape.push(
            Matrix::from_vec(1, 1, vec![loss]),
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                acc(&mut grads[a], diff.scaled(2.0 * g.get(0, 0) / n));
            })),
        )
    }

    /// KL-style distillation loss: cross-entropy of this tensor's row-softmax
    /// against a fixed soft-target distribution (teacher probabilities).
    /// Returns the mean over rows as `1 x 1`.
    pub fn soft_cross_entropy(&self, soft_targets: &Matrix) -> Tensor {
        assert_eq!(self.shape(), soft_targets.shape(), "soft target shape mismatch");
        let a = self.id;
        let rows = self.rows();
        let probs = self.tape.inner.borrow().values[a].softmax_rows();
        let mut loss = 0.0f32;
        for i in 0..probs.len() {
            loss -= soft_targets.data()[i] * probs.data()[i].max(1e-12).ln();
        }
        loss /= rows as f32;
        let soft = soft_targets.clone();
        self.tape.push(
            Matrix::from_vec(1, 1, vec![loss]),
            BackwardKind::Op(Box::new(move |g, _v, grads| {
                // d/dx of -sum_j t_j log softmax(x)_j = softmax(x) * sum_j t_j - t
                let scale = g.get(0, 0) / rows as f32;
                let mut ga = Matrix::zeros(probs.rows(), probs.cols());
                for r in 0..probs.rows() {
                    let tsum: f32 = soft.row_slice(r).iter().sum();
                    for c in 0..probs.cols() {
                        ga.set(r, c, (probs.get(r, c) * tsum - soft.get(r, c)) * scale);
                    }
                }
                acc(&mut grads[a], ga);
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use crate::tape::Tape;

    #[test]
    fn add_and_backward() {
        let pa = Param::new("a", Matrix::row(vec![1.0, 2.0]));
        let pb = Param::new("b", Matrix::row(vec![3.0, 4.0]));
        let tape = Tape::new();
        let a = tape.param(&pa);
        let b = tape.param(&pb);
        let loss = a.add(&b).sum_all();
        assert_eq!(loss.scalar(), 10.0);
        loss.backward();
        assert_eq!(pa.grad().data(), &[1.0, 1.0]);
        assert_eq!(pb.grad().data(), &[1.0, 1.0]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let pa = Param::new("a", Matrix::from_vec(2, 3, vec![1.0; 6]));
        let pb = Param::new("b", Matrix::from_vec(3, 4, vec![1.0; 12]));
        let tape = Tape::new();
        let loss = tape.param(&pa).matmul(&tape.param(&pb)).sum_all();
        loss.backward();
        assert_eq!(pa.grad().shape(), (2, 3));
        assert_eq!(pb.grad().shape(), (3, 4));
        // d(sum AB)/dA = 1 * B^T: each entry = 4 (row sums of B)
        assert!(pa.grad().data().iter().all(|&g| (g - 4.0).abs() < 1e-6));
        assert!(pb.grad().data().iter().all(|&g| (g - 2.0).abs() < 1e-6));
    }

    #[test]
    fn softmax_rows_grad_sums_to_zero() {
        let p = Param::new("x", Matrix::row(vec![0.1, 0.5, -0.3]));
        let tape = Tape::new();
        let x = tape.param(&p);
        // loss touches only the first prob; softmax grads must sum to 0 per row
        let loss = x.softmax_rows().slice_cols(0, 1).sum_all();
        loss.backward();
        let g = p.grad();
        let sum: f32 = g.data().iter().sum();
        assert!(sum.abs() < 1e-6, "softmax grad rows must sum to zero, got {sum}");
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let p = Param::new("x", Matrix::row(vec![2.0, 1.0, 0.0]));
        let tape = Tape::new();
        let loss = tape.param(&p).cross_entropy_logits(&[0]);
        let probs = Matrix::row(vec![2.0, 1.0, 0.0]).softmax_rows();
        let expect = -probs.get(0, 0).ln();
        assert!((loss.scalar() - expect).abs() < 1e-5);
        loss.backward();
        let g = p.grad();
        assert!((g.get(0, 0) - (probs.get(0, 0) - 1.0)).abs() < 1e-5);
        assert!((g.get(0, 1) - probs.get(0, 1)).abs() < 1e-5);
    }

    #[test]
    fn dropout_identity_in_inference() {
        let tape = Tape::new(); // inference mode
        let x = tape.constant(Matrix::row(vec![1.0, 2.0, 3.0]));
        let y = x.dropout(0.5);
        assert_eq!(y.value().data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_preserves_expectation_in_training() {
        let tape = Tape::training(42);
        let x = tape.constant(Matrix::full(1, 10_000, 1.0));
        let y = x.dropout(0.3);
        let mean = y.value().mean();
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean} should be ~1");
    }

    #[test]
    fn layer_norm_output_is_normalized() {
        let tape = Tape::new();
        let x =
            tape.constant(Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 2.0]));
        let gamma = tape.constant(Matrix::full(1, 4, 1.0));
        let beta = tape.constant(Matrix::zeros(1, 4));
        let y = x.layer_norm(&gamma, &beta, 1e-5).value();
        for r in 0..2 {
            let row = y.row_slice(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn bce_with_logits_known_value() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::row(vec![0.0]));
        let loss = x.bce_with_logits(&Matrix::row(vec![1.0]));
        assert!((loss.scalar() - (2.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn repeat_rows_backward_sums() {
        let p = Param::new("x", Matrix::row(vec![1.0, 2.0]));
        let tape = Tape::new();
        let loss = tape.param(&p).repeat_rows(3).sum_all();
        assert_eq!(loss.scalar(), 9.0);
        loss.backward();
        assert_eq!(p.grad().data(), &[3.0, 3.0]);
    }

    #[test]
    fn concat_cols_backward_routes_slices() {
        let pa = Param::new("a", Matrix::row(vec![1.0]));
        let pb = Param::new("b", Matrix::row(vec![2.0, 3.0]));
        let tape = Tape::new();
        let a = tape.param(&pa);
        let b = tape.param(&pb);
        let cat = Tensor::concat_cols(&[a, b]);
        let loss = cat.slice_cols(1, 3).sum_all(); // only b contributes
        loss.backward();
        assert_eq!(pa.grad().data(), &[0.0]);
        assert_eq!(pb.grad().data(), &[1.0, 1.0]);
    }
}
