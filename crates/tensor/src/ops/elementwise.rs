//! Elementwise arithmetic with limited broadcasting.
//!
//! Broadcasting is restricted to the one pattern the model zoo needs: a
//! right-hand operand whose shape is a *suffix* of the left-hand shape (e.g.
//! adding a `[dim]` bias to a `[batch, seq, dim]` activation). This keeps the
//! kernels branch-free and easy to verify.

use crate::{Tensor, TensorError};

fn suffix_broadcast_len(a: &Tensor, b: &Tensor) -> Result<usize, TensorError> {
    let an = a.len();
    let bn = b.len();
    if bn == 0 || !an.is_multiple_of(bn) {
        return Err(TensorError::Incompatible(format!(
            "cannot broadcast {} elements over {}",
            bn, an
        )));
    }
    let a_dims = &a.shape().0;
    let b_dims = &b.shape().0;
    if b_dims.len() > a_dims.len() || a_dims[a_dims.len() - b_dims.len()..] != b_dims[..] {
        return Err(TensorError::Incompatible(format!(
            "shape {:?} is not a suffix of {:?}",
            b_dims, a_dims
        )));
    }
    Ok(bn)
}

/// `a + b`, where `b`'s shape must equal `a`'s or be a suffix of it.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let mut out = a.clone();
    add_assign(&mut out, b)?;
    Ok(out)
}

/// `a += b` with suffix broadcasting.
pub fn add_assign(a: &mut Tensor, b: &Tensor) -> Result<(), TensorError> {
    let bn = suffix_broadcast_len(a, b)?;
    let bd = b.data();
    for row in a.data_mut().chunks_exact_mut(bn) {
        for (x, &y) in row.iter_mut().zip(bd) {
            *x += y;
        }
    }
    Ok(())
}

/// `a - b` with suffix broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let bn = suffix_broadcast_len(a, b)?;
    let bd = b.data();
    let mut out = a.clone();
    for row in out.data_mut().chunks_exact_mut(bn) {
        for (x, &y) in row.iter_mut().zip(bd) {
            *x -= y;
        }
    }
    Ok(out)
}

/// Elementwise product (no broadcasting; shapes must match).
pub fn hadamard(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    a.shape().expect_eq(b.shape())?;
    let mut out = a.clone();
    for (x, &y) in out.data_mut().iter_mut().zip(b.data()) {
        *x *= y;
    }
    Ok(out)
}

/// `a * s` for a scalar `s`.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// `y += alpha * x` (shapes must match) — the SGD update kernel.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<(), TensorError> {
    x.shape().expect_eq(y.shape())?;
    for (yv, &xv) in y.data_mut().iter_mut().zip(x.data()) {
        *yv += alpha * xv;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(add(&a, &b).unwrap().data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn add_broadcasts_suffix() {
        let a = Tensor::from_vec([2, 3], vec![0.0; 6]).unwrap();
        let bias = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let c = add(&a, &bias).unwrap();
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn add_rejects_non_suffix() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2]);
        assert!(add(&a, &b).is_err());
        // Same element count but wrong placement: [2] is not a suffix of [2,3].
        let c = Tensor::zeros([6]);
        assert!(add(&a, &c).is_err());
    }

    #[test]
    fn sub_and_scale() {
        let a = Tensor::from_vec([2], vec![5.0, 7.0]).unwrap();
        let b = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        assert_eq!(sub(&a, &b).unwrap().data(), &[4.0, 5.0]);
        assert_eq!(scale(&a, 2.0).data(), &[10.0, 14.0]);
    }

    #[test]
    fn hadamard_requires_exact_shape() {
        let a = Tensor::from_vec([2], vec![3.0, 4.0]).unwrap();
        let b = Tensor::from_vec([2], vec![2.0, 0.5]).unwrap();
        assert_eq!(hadamard(&a, &b).unwrap().data(), &[6.0, 2.0]);
        assert!(hadamard(&a, &Tensor::zeros([1, 2])).is_err());
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = Tensor::from_vec([2], vec![1.0, -1.0]).unwrap();
        let mut y = Tensor::from_vec([2], vec![0.5, 0.5]).unwrap();
        axpy(-0.5, &x, &mut y).unwrap();
        assert_eq!(y.data(), &[0.0, 1.0]);
    }
}
