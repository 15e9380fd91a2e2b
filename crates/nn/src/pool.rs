//! Pooling and flattening layers.

use crate::layer::{Layer, ParamPath};
use csq_tensor::pool;
use csq_tensor::Tensor;

/// Max pooling with a square window.
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input dims)
}

impl MaxPool2d {
    /// Creates a max-pool layer with window `window` and stride `stride`.
    ///
    /// # Panics
    ///
    /// Panics if either is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(
            window > 0 && stride > 0,
            "window and stride must be positive"
        );
        MaxPool2d {
            window,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = pool::maxpool2d(input, self.window, self.stride);
        if train {
            self.cache = Some((out.argmax, input.dims().to_vec()));
        } else {
            self.cache = None;
        }
        out.output
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (argmax, dims) = crate::layer::take_cache(
            &mut self.cache,
            "MaxPool2d::backward called before a training forward",
        );
        pool::maxpool2d_backward(grad_output, &argmax, &dims)
    }

    fn export_infer_ops(
        &self,
        _path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        ops.push(crate::export::InferOp::MaxPool {
            window: self.window,
            stride: self.stride,
        });
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Average pooling with a square window.
#[derive(Debug)]
pub struct AvgPool2d {
    window: usize,
    stride: usize,
    input_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with window `window`, stride `stride`.
    ///
    /// # Panics
    ///
    /// Panics if either is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(
            window > 0 && stride > 0,
            "window and stride must be positive"
        );
        AvgPool2d {
            window,
            stride,
            input_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input_dims = Some(input.dims().to_vec());
        } else {
            self.input_dims = None;
        }
        pool::avgpool2d(input, self.window, self.stride)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dims = crate::layer::take_cache(
            &mut self.input_dims,
            "AvgPool2d::backward called before a training forward",
        );
        pool::avgpool2d_backward(grad_output, &dims, self.window, self.stride)
    }

    fn export_infer_ops(
        &self,
        _path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        ops.push(crate::export::InferOp::AvgPool {
            window: self.window,
            stride: self.stride,
        });
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "avgpool2d"
    }
}

/// Global average pooling `[N, C, H, W] → [N, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { input_dims: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input_dims = Some(input.dims().to_vec());
        } else {
            self.input_dims = None;
        }
        pool::global_avgpool(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dims = crate::layer::take_cache(
            &mut self.input_dims,
            "GlobalAvgPool::backward called before a training forward",
        );
        pool::global_avgpool_backward(grad_output, &dims)
    }

    fn export_infer_ops(
        &self,
        _path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        ops.push(crate::export::InferOp::GlobalAvgPool);
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "global_avgpool"
    }
}

/// Flattens `[N, ...] → [N, prod(...)]`.
#[derive(Debug, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input_dims = Some(input.dims().to_vec());
        } else {
            self.input_dims = None;
        }
        let n = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        input.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dims = crate::layer::take_cache(
            &mut self.input_dims,
            "Flatten::backward called before a training forward",
        );
        grad_output.reshape(&dims)
    }

    fn export_infer_ops(
        &self,
        _path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        ops.push(crate::export::InferOp::Flatten);
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_layer_round_trip() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = p.forward(&x, true);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        let gx = p.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.sum(), 4.0);
    }

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 2, 2]);
        let y = f.forward(&x, true);
        assert_eq!(y.dims(), &[2, 12]);
        let gx = f.backward(&y);
        assert_eq!(gx.dims(), &[2, 3, 2, 2]);
    }

    #[test]
    fn global_avgpool_layer() {
        let mut g = GlobalAvgPool::new();
        let x = Tensor::full(&[1, 2, 3, 3], 2.0);
        let y = g.forward(&x, true);
        assert_eq!(y.dims(), &[1, 2]);
        assert!(y.iter().all(|&v| (v - 2.0).abs() < 1e-6));
        let gx = g.backward(&Tensor::ones(&[1, 2]));
        assert!((gx.sum() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn avgpool_layer_backward_shape() {
        let mut p = AvgPool2d::new(2, 2);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = p.forward(&x, true);
        let gx = p.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
    }
}
